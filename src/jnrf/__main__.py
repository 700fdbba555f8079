"""Command line: train on a BRAT directory, or predict and score one.

    python -m jnrf train CONFIG TRAIN_DIR [--dev DIR] --out CKPT
    python -m jnrf predict CKPT DATA_DIR --out DIR

`train` trains the model the config file sets (`jnrf.config`; `vocab` is
required), keeps the epoch with the best dev E2E F1 when --dev is given, and
saves the model to CKPT. `predict` loads it, rebuilds the vocabulary and table
from its config alone, predicts every document, then writes <id>.txt and
<id>.ann into DIR and prints the lenient report against DATA_DIR's annotation;
if any document fails, it writes nothing. Bad input prints one line, "jnrf: "
and what is wrong where, on stderr, and exits with status 1.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .corpus import BratParseError, load_brat_dir, render_ann
from .embedding import load_table
from .evaluation import build_report, render_report_text
from .model import JNRF
from .tensor import ShapeError
from .tokenizer import AlignmentError, Vocab, VocabError, prepare
from .training import CheckpointError, TrainingError, load_checkpoint, predict_documents, save_checkpoint, train

_ERRORS = (ConfigError, VocabError, BratParseError, AlignmentError, ShapeError, TrainingError,
           CheckpointError, FloatingPointError, OSError)


def _setup(cfg: RunConfig, source: str):
    """The vocabulary and embedding table `cfg` sets; errors name `source`."""
    if not cfg.vocab:
        raise ConfigError(f"{source}: no 'vocab' key; the command needs a vocabulary file", "vocab")
    vocab = Vocab.load(cfg.vocab)
    return vocab, load_table(cfg.embeddings, vocab, cfg.emb_dim, cfg.seed)


def _documents(dirpath: str, vocab: Vocab):
    """The BRAT documents under `dirpath`, prepared; alignment errors name the .ann."""
    docs = load_brat_dir(dirpath)
    for doc in docs:
        try:
            prepare(doc, vocab)
        except AlignmentError as exc:
            raise AlignmentError(f"{os.path.join(dirpath, doc.doc_id)}.ann: {exc}") from None
    return docs


def _train(args):
    cfg = load_config(args.config)
    vocab, table = _setup(cfg, args.config)
    model = JNRF(cfg, seed=cfg.seed)
    dev = _documents(args.dev, vocab) if args.dev else []
    result = train(model, table, _documents(args.train_dir, vocab), dev, cfg)
    for s in result.history:
        print(f"epoch {s.epoch}  train_loss {s.train_loss:.6f}  dev_e2e_f1 {s.dev_f1:.4f}  {s.seconds:.3f} s")
    print(f"selected epoch {result.best_epoch}  dev_e2e_f1 {result.best_dev_f1:.4f}")
    save_checkpoint(args.out, model)


def _predict(args):
    model = load_checkpoint(args.checkpoint)
    vocab, table = _setup(model.config, args.checkpoint)
    docs = _documents(args.data_dir, vocab)
    os.makedirs(args.out, exist_ok=True)
    if os.path.samefile(args.out, args.data_dir):
        raise ConfigError(f"{args.out}: --out is DATA_DIR, whose .ann files predictions would overwrite")
    try:
        preds = predict_documents(model, table, docs)
    except FloatingPointError as exc:  # from the weights, or from the table
        where = args.checkpoint + (f" or {model.config.embeddings}" if model.config.embeddings else "")
        raise CheckpointError(f"{where}: {exc}") from None
    for doc, pred in zip(docs, preds):
        stem = os.path.join(args.out, doc.doc_id)
        for ext, text in ((".txt", doc.text), (".ann", render_ann(pred.entities, pred.relations))):
            with open(stem + ext, "w", encoding="utf-8", newline="") as f:
                f.write(text)
    print(render_report_text(build_report(preds, docs)), end="")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="jnrf", description="Joint NER and relation extraction on BRAT files.")
    commands = parser.add_subparsers(dest="command", required=True)
    cmd = commands.add_parser("train", help="train a model and write a checkpoint")
    cmd.add_argument("config")
    cmd.add_argument("train_dir")
    cmd.add_argument("--dev", help="BRAT directory that selects the best epoch")
    cmd.add_argument("--out", required=True, help="checkpoint file to write")
    cmd.set_defaults(run=_train)
    cmd = commands.add_parser("predict", help="write predictions and print the report")
    cmd.add_argument("checkpoint")
    cmd.add_argument("data_dir")
    cmd.add_argument("--out", required=True, help="directory for the .txt/.ann predictions")
    cmd.set_defaults(run=_predict)
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args.run(args)
    except _ERRORS as exc:
        print(f"jnrf: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
