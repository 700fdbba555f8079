"""Bad input to `python -m jnrf` exits with status 1 and one stderr line
that starts "jnrf: " and says what is wrong where, with no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from jnrf.__main__ import main
from jnrf.config import RunConfig
from jnrf.model import JNRF, ModelConfig
from jnrf.training import save_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"
TINY = dict(emb_dim=2, d_model=2, ffn_hidden=2, n_blocks=1)


def jnrf(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "jnrf", *map(str, args)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def fails(*args) -> str:
    """Run `python -m jnrf` with `args`, check that it failed as bad input
    should, and return its one line of stderr."""
    proc = jnrf(*args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("jnrf: "), proc.stderr
    return lines[0]


def main_fails(capsys, *args) -> str:
    """Run `main(args)` in this process, check that it failed as bad input
    should, and return its one line of stderr."""
    assert main([str(a) for a in args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("jnrf: "), err
    return lines[0]


@pytest.fixture
def data(tmp_path):
    """A vocabulary, a config naming it and one well-formed document."""
    (tmp_path / "vocab.txt").write_text("[UNK]\naspirin\n5\nmg\n", encoding="utf-8")
    (tmp_path / "run.cfg").write_text(f"epochs = 1\nvocab = {tmp_path / 'vocab.txt'}\n", encoding="utf-8")
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "d1.txt").write_text("aspirin 5 mg\n", encoding="utf-8")
    (docs / "d1.ann").write_text("T1\tDrug 0 7\taspirin\nT2\tStrength 8 12\t5 mg\nR1\tStrength-Drug Arg1:T2 Arg2:T1\n")
    return tmp_path


def test_an_unknown_config_key_names_the_file_and_the_line(data):
    cfg = data / "run.cfg"
    cfg.write_text(cfg.read_text() + "# a comment\nepoch = 3\n")
    line = fails("train", cfg, data / "docs", "--out", data / "m.ckpt")
    assert line == f"jnrf: {cfg}: line 4: unknown key 'epoch'"


def test_a_config_without_vocab_is_rejected(data):
    cfg = data / "run.cfg"
    cfg.write_text("epochs = 1\n")
    line = fails("train", cfg, data / "docs", "--out", data / "m.ckpt")
    assert line.startswith(f"jnrf: {cfg}: no 'vocab' key")
    assert not (data / "m.ckpt").exists()


def test_a_nul_in_a_path_names_the_config_line(data, capsys):
    cfg = data / "run.cfg"
    cfg.write_text("epochs = 1\nvocab = v\0.txt\n")
    line = main_fails(capsys, "train", cfg, data / "docs", "--out", data / "m.ckpt")
    assert line == f"jnrf: {cfg}: line 2: vocab must be a path without NUL, got 'v\\x00.txt'"


def test_a_malformed_ann_line_names_the_file_and_the_line(data):
    ann = data / "docs" / "d1.ann"
    ann.write_text("T1\tDrug 0 7\taspirin\nT2\tStrength 8\t5\n")
    line = fails("train", data / "run.cfg", data / "docs", "--out", data / "m.ckpt")
    assert line == f"jnrf: {ann}: line 2: bad offset field '8'"


@pytest.mark.parametrize("name", ["run.cfg", "vocab.txt", "emb.tsv", "docs/d1.txt", "docs/d1.ann"])
def test_an_undecodable_byte_names_the_file_and_the_line(data, capsys, name):
    """Every text file `train` reads. All but the BRAT text drop a byte order
    mark, and the byte offset counts it."""
    (data / "emb.tsv").write_text("[UNK]\t0 0\naspirin\t1 2\n5\t3 4\nmg\t5 6\n", encoding="utf-8")
    cfg = data / "run.cfg"
    cfg.write_text(cfg.read_text() + "".join(f"{k} = {v}\n" for k, v in TINY.items()) + f"embeddings = {data / 'emb.tsv'}\n")
    path = data / name
    text = (b"" if name == "docs/d1.txt" else b"\xef\xbb\xbf") + path.read_bytes()
    at = text.index(b"\n") + 1
    path.write_bytes(text[:at] + b"\xff" + text[at:])
    line = main_fails(capsys, "train", cfg, data / "docs", "--out", data / "m.ckpt")
    assert line == f"jnrf: {path} is not UTF-8 (invalid start byte at line 2, byte {at})"


def test_an_entity_overlap_names_the_ann_file(data, capsys):
    ann = data / "docs" / "d1.ann"
    ann.write_text("T1\tDrug 0 7\taspirin\nT2\tStrength 3 9\tirin 5\n")
    line = main_fails(capsys, "train", data / "run.cfg", data / "docs", "--out", data / "m.ckpt")
    assert line == f"jnrf: {ann}: d1: token 0 ('aspirin') overlaps both T1 (Drug) and T2 (Strength)"


def tiny_checkpoint(data: Path, model: JNRF | None = None) -> Path:
    path = data / "m.ckpt"
    model = model or JNRF(ModelConfig(**TINY))
    save_checkpoint(str(path), model, RunConfig(**TINY, vocab=str(data / "vocab.txt")))
    return path


def test_weights_that_overflow_name_the_checkpoint_and_the_document(data, capsys):
    """A finite but huge weight loads, and then overflows in the forward pass."""
    model = JNRF(ModelConfig(**TINY))
    model.params["in.1.w"].data[...] = 1e200
    path = tiny_checkpoint(data, model)
    line = main_fails(capsys, "predict", path, data / "docs", "--out", data / "pred")
    assert line.startswith(f"jnrf: {path}: overflow encountered in ")
    assert line.endswith(" in document 'd1'")


def test_a_truncated_checkpoint_names_its_path(data):
    path = tiny_checkpoint(data)
    path.write_bytes(path.read_bytes()[:-5])
    line = fails("predict", path, data / "docs", "--out", data / "pred")
    assert line.startswith(f"jnrf: {path}: truncated checkpoint file: ")
    assert not (data / "pred").exists()


def test_predict_will_not_write_into_the_gold_directory(data):
    gold = (data / "docs" / "d1.ann").read_bytes()
    line = fails("predict", tiny_checkpoint(data), data / "docs", "--out", data / "docs")
    assert line.startswith(f"jnrf: {data / 'docs'}: --out is DATA_DIR")
    assert (data / "docs" / "d1.ann").read_bytes() == gold


def test_predict_writes_a_crlf_text_back_byte_for_byte(data):
    text = b"take\r\naspirin now\r\n"
    (data / "docs" / "d1.txt").write_bytes(text)
    (data / "docs" / "d1.ann").write_text("T1\tDrug 6 13\taspirin\n", encoding="utf-8")
    proc = jnrf("predict", tiny_checkpoint(data), data / "docs", "--out", data / "pred")
    assert proc.returncode == 0, proc.stderr
    assert (data / "pred" / "d1.txt").read_bytes() == text


def test_predict_reads_the_embeddings_table_named_in_the_checkpoint(data):
    emb = data / "emb.tsv"
    emb.write_text("[UNK]\t0 0\naspirin\t1 2\n5\t3 4\nmg\t5 6\n", encoding="utf-8")
    cfg = data / "run.cfg"
    cfg.write_text(cfg.read_text() + "".join(f"{k} = {v}\n" for k, v in TINY.items()) + f"embeddings = {emb}\n")
    assert jnrf("train", cfg, data / "docs", "--out", data / "m.ckpt").returncode == 0
    assert jnrf("predict", data / "m.ckpt", data / "docs", "--out", data / "pred").returncode == 0
    emb.write_text("[UNK]\t0 0 0\naspirin\t1 2 3\n5\t3 4 5\nmg\t5 6 7\n", encoding="utf-8")
    line = fails("predict", data / "m.ckpt", data / "docs", "--out", data / "pred")
    assert line == f"jnrf: {emb}:1: embedding width 3 != 2"
