"""Mutated input files through the command line, in this process.

A small run directory holds a config, a vocabulary, an embeddings file, two
BRAT documents and a checkpoint trained on them. Each example flips,
deletes, inserts or truncates bytes of one file that `train` or `predict`
reads, and runs that command through `main`. It exits 0, or it exits 1 with
one stderr line that starts "jnrf: " and names a file. No exception escapes.

Every number in the config has one digit, so that no one-byte mutation can
make a run large: a model of width 99 at most, or 99 epochs of two
documents."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jnrf.__main__ import main

CONFIG = "seed = 1\nepochs = 1\nemb_dim = 2\nd_model = 2\nffn_hidden = 2\nn_blocks = 1\nwindow = 4\n"
VOCAB = "[UNK]\naspirin\n5\nmg\ndaily\n.\n"
EMBEDDINGS = "[UNK]\t0 0\naspirin\t1 2\n5\t3 4\nmg\t5 6\ndaily\t7 8\n.\t9 1\n"
DOCS = {
    "d1": ("aspirin 5 mg daily.\n",
           "T1\tDrug 0 7\taspirin\nT2\tStrength 8 12\t5 mg\nR1\tStrength-Drug Arg1:T2 Arg2:T1\n"),
    "d2": ("5 mg aspirin.\r\naspirin daily\r\n",
           "T1\tStrength 0 4\t5 mg\nT2\tDrug 5 12\taspirin\nT3\tFrequency 23 28\tdaily\n"
           "T4\tDrug 15 22\taspirin\nR1\tStrength-Drug Arg1:T1 Arg2:T2\nR2\tFrequency-Drug Arg1:T3 Arg2:T4\n"),
}


def run(*argv) -> tuple[int, str]:
    """`main`'s exit status and its stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> tuple[Path, dict]:
    """The run directory and the bytes of each file in it, a checkpoint of
    the run's config trained on both documents included."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "docs").mkdir()
    texts = {
        "run.cfg": CONFIG + f"vocab = {root / 'vocab.txt'}\nembeddings = {root / 'emb.tsv'}\n",
        "vocab.txt": VOCAB,
        "emb.tsv": EMBEDDINGS,
        **{f"docs/{d}{ext}": t for d, pair in DOCS.items() for ext, t in zip((".txt", ".ann"), pair)},
    }
    for name, text in texts.items():
        (root / name).write_bytes(text.encode("utf-8"))
    assert run("train", root / "run.cfg", root / "docs", "--out", root / "m.ckpt") == (0, "")
    return root, {name: (root / name).read_bytes() for name in [*texts, "m.ckpt"]}


DOC_FILES = [f"docs/{d}{ext}" for d in DOCS for ext in (".txt", ".ann")]
# each command's first argument, its output and the files it reads
COMMANDS = {
    "train": ("run.cfg", "out.ckpt", ["run.cfg", "vocab.txt", "emb.tsv", *DOC_FILES]),
    "predict": ("m.ckpt", "pred", ["m.ckpt", "vocab.txt", "emb.tsv", *DOC_FILES]),
}


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, at, byte in edits:
        at %= len(buf) + 1
        if kind == "flip" and at < len(buf):
            buf[at] ^= byte
        elif kind == "delete":
            del buf[at:at + 1]
        elif kind == "insert":
            buf.insert(at, byte)
        elif kind == "truncate":
            del buf[at:]
    return bytes(buf)


EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "delete", "insert", "truncate"]), st.integers(0, 10**4),
              st.integers(1, 255)),
    min_size=1, max_size=3,
)


def check(base, command: str, target: str, edits):
    root, files = base
    first, out, reads = COMMANDS[command]
    for name, data in files.items():
        (root / name).write_bytes(mutate(data, edits) if name == target else data)
    code, err = run(command, root / first, root / "docs", "--out", root / out)
    if code == 0:
        assert err == ""
        return
    lines = err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("jnrf: "), err
    # A config or a checkpoint names the vocabulary and embeddings files, so
    # a mutated one may name a path that is not there. Any other mutated file
    # gives an error that names a file the command reads.
    if target not in ("run.cfg", "m.ckpt"):
        assert lines[0].startswith(tuple(f"jnrf: {root / name}" for name in reads)), err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(target=st.sampled_from(COMMANDS["train"][2]), edits=EDITS)
def test_train_on_a_mutated_file_succeeds_or_names_the_fault(base, target, edits):
    check(base, "train", target, edits)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(target=st.sampled_from(COMMANDS["predict"][2]), edits=EDITS)
def test_predict_on_a_mutated_file_succeeds_or_names_the_fault(base, target, edits):
    check(base, "predict", target, edits)
