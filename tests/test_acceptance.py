"""End to end through the command line.

A synthetic corpus is written as BRAT files with its vocabulary and a config
file. `python -m jnrf train` and then `python -m jnrf predict` run on them as
subprocesses, and each output is checked against the package's functions
called in this process: the checkpoint's config text, the predicted .ann
files and the printed report. Two training runs under different hash seeds
write the same bytes. The dev scores the report prints must reach floors
measured on this corpus when the test was written: dev NER F1 0.615 and dev
E2E F1 0.053 (4 of 133 gold relations). A floor is never lowered to get a
pass."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import synth

from jnrf.config import load_config, serialize_config
from jnrf.corpus import parse_brat, render_ann
from jnrf.embedding import load_table
from jnrf.evaluation import PredictedDoc, build_report, render_report_text
from jnrf.model import encode_document, predictions_to_brat
from jnrf.tokenizer import Vocab, prepare
from jnrf.training import load_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"
SPEC = synth.CorpusSpec(n_docs=36, len_min=300, len_max=600)
N_TRAIN = 30
EPOCHS = 8
NER_F1_FLOOR = 0.55
E2E_F1_FLOOR = 0.035  # one true positive fewer than measured still passes


def jnrf(*args, hash_seed="0"):
    """`python -m jnrf` started with `args`; one BLAS thread, so that two
    runs side by side neither compete for cores nor sum in another order."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.Popen(
        [sys.executable, "-m", "jnrf", *map(str, args)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc):
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    assert err == ""
    return out


def write_brat(dirpath: Path, docs):
    dirpath.mkdir()
    for g in docs:
        (dirpath / f"{g.doc_id}.txt").write_text(g.text, encoding="utf-8", newline="")
        (dirpath / f"{g.doc_id}.ann").write_text(g.ann, encoding="utf-8", newline="")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    gen = synth.generate_corpus(SPEC, 1)
    write_brat(root / "train", gen.docs[:N_TRAIN])
    write_brat(root / "dev", gen.docs[N_TRAIN:])
    (root / "vocab.txt").write_text("\n".join(gen.vocab) + "\n", encoding="utf-8")
    config = root / "run.cfg"
    config.write_text(f"seed = 1\nepochs = {EPOCHS}  # short run\nvocab = {root / 'vocab.txt'}\n", encoding="utf-8")
    trains = [
        jnrf("train", config, root / "train", "--dev", root / "dev", "--out", root / f"h{seed}.ckpt", hash_seed=seed)
        for seed in ("1", "2")
    ]
    train_out = [finish(p) for p in trains]
    report = finish(jnrf("predict", root / "h1.ckpt", root / "dev", "--out", root / "pred"))
    return root, gen, config, train_out, report


def test_train_prints_each_epoch_and_the_selected_one(run):
    _, _, _, (out, other), _ = run
    lines = out.splitlines()
    assert len(lines) == EPOCHS + 1
    for epoch, line in enumerate(lines[:-1], start=1):
        assert line.startswith(f"epoch {epoch}  train_loss ")
        assert " dev_e2e_f1 " in line
    assert lines[-1].startswith("selected epoch ")
    # the seconds differ between runs; nothing else may
    assert [line.rsplit("  ", 1)[0] for line in lines] == [line.rsplit("  ", 1)[0] for line in other.splitlines()]


def test_two_hash_seeds_write_the_same_checkpoint(run):
    root = run[0]
    assert (root / "h1.ckpt").read_bytes() == (root / "h2.ckpt").read_bytes()


def test_the_checkpoint_holds_the_serialized_config(run):
    root, _, config, _, _ = run
    cfg = load_config(str(config))
    assert serialize_config(cfg).encode("utf-8") in (root / "h1.ckpt").read_bytes()
    assert load_checkpoint(str(root / "h1.ckpt"))[0] == cfg


def predict_in_process(root: Path, gen):
    """The dev documents, parsed from the generator's text, and the
    prediction for each, from the checkpoint's config text alone."""
    cfg, model = load_checkpoint(str(root / "h1.ckpt"))
    vocab = Vocab.load(cfg.vocab)
    table = load_table(cfg.embeddings, vocab, cfg.emb_dim, cfg.seed)
    docs = [prepare(parse_brat(g.text, g.ann, g.doc_id), vocab) for g in gen.docs[N_TRAIN:]]
    return docs, [
        PredictedDoc(d.doc_id, *predictions_to_brat(d, *model.predict_instance(encode_document(d), table)))
        for d in docs
    ]


def test_predict_writes_what_the_functions_give(run):
    root, gen, _, _, report = run
    docs, preds = predict_in_process(root, gen)
    pred_dir = root / "pred"
    assert sorted(p.name for p in pred_dir.iterdir()) == sorted(
        f"{d.doc_id}{ext}" for d in docs for ext in (".ann", ".txt")
    )
    for doc, pred in zip(docs, preds):
        assert (pred_dir / f"{doc.doc_id}.txt").read_bytes() == doc.text.encode("utf-8")
        assert (pred_dir / f"{doc.doc_id}.ann").read_bytes() == render_ann(pred.entities, pred.relations).encode("utf-8")
    assert report == render_report_text(build_report(preds, docs))


def overall_f1(report: str) -> list[float]:
    """The F1 of each "Overall" row, NER's then E2E's."""
    return [float(line.split()[-1]) / 100 for line in report.splitlines() if line.startswith("Overall")]


def test_dev_scores_reach_their_floors(run):
    ner, e2e = overall_f1(run[4])
    assert ner >= NER_F1_FLOOR
    assert e2e >= E2E_F1_FLOOR
