"""Command line: train on a BRAT directory, or predict and score one.

    python -m jnrf train CONFIG TRAIN_DIR [--dev DIR] --out CKPT
    python -m jnrf predict CKPT DATA_DIR --out DIR

`train` trains as the config file sets (`jnrf.config`; `vocab` is required),
keeps the epoch with the best dev E2E F1 when --dev is given, and writes the
weights and the config text to CKPT. `predict` rebuilds the model, vocabulary
and table from that text alone, writes <id>.txt and <id>.ann into DIR, and
prints the lenient report against DATA_DIR's annotation. Bad input prints one
line, "jnrf: " and what is wrong where, on stderr, and exits with status 1.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, ModelConfig, RunConfig, load_config
from .corpus import BratParseError, load_brat_dir, render_ann
from .embedding import load_table
from .evaluation import PredictedDoc, build_report, render_report_text
from .model import JNRF, encode_document, predictions_to_brat
from .tensor import ShapeError
from .tokenizer import AlignmentError, Vocab, VocabError, prepare
from .training import CheckpointError, TrainingError, load_checkpoint, save_checkpoint, train

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
    model = JNRF(ModelConfig.from_run_config(cfg), seed=cfg.seed)
    dev = _documents(args.dev, vocab) if args.dev else []
    result = train(model, table, _documents(args.train_dir, vocab), dev, cfg)
    for s in result.history:
        print(f"epoch {s.epoch}  train_loss {s.train_loss:.6f}  dev_e2e_f1 {s.dev_f1:.4f}  {s.seconds:.3f} s")
    print(f"selected epoch {result.best_epoch}  dev_e2e_f1 {result.best_dev_f1:.4f}")
    save_checkpoint(args.out, model, cfg)


def _predict(args):
    cfg, model = load_checkpoint(args.checkpoint)
    vocab, table = _setup(cfg, args.checkpoint)
    docs = _documents(args.data_dir, vocab)
    os.makedirs(args.out, exist_ok=True)
    if os.path.samefile(args.out, args.data_dir):
        raise ConfigError(f"{args.out}: --out is DATA_DIR, whose .ann files predictions would overwrite")
    preds = []
    for doc in docs:
        try:
            entities, relations = predictions_to_brat(doc, *model.predict_instance(encode_document(doc), table))
        except FloatingPointError as exc:
            raise CheckpointError(f"{args.checkpoint}: {exc} in document {doc.doc_id!r}") from None
        preds.append(PredictedDoc(doc.doc_id, entities, relations))
        stem = os.path.join(args.out, doc.doc_id)
        for ext, text in ((".txt", doc.text), (".ann", render_ann(entities, relations))):
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
