"""Adam training loop with unit batches, dev-set model selection, the one
prediction pass, and binary checkpoints.

Each step is one whole document at its native length: one forward, one
backward and one Adam step, with no padding anywhere. An epoch visits the
training documents once, in a seeded random order. Dev scoring and `jnrf
predict` both run `predict_documents`. An error in a step or a prediction
names the document by its .txt file, or by its id when it has none.

A checkpoint holds its model's config text and a record per parameter, in
`parameter_layout` order, and loads as the model that text builds: never
into a model of another configuration or from records in another order.
"""

from __future__ import annotations

import math
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, RunConfig, decode_utf8, parse_config_text, serialize_config
from .corpus import Document
from .evaluation import PredictedDoc, build_report
from .model import JNRF, EncodedInstance, encode_document, parameter_layout, predictions_to_brat
from .params import Params
from .tensor import ShapeError, Tape


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


# Adam's defaults (Kingma & Ba 2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step count."""

    lr: float
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: Params, lr: float) -> "AdamState":
        state = cls(lr=lr)
        for name, p in params.items():
            state.m[name] = np.zeros(p.shape)
            state.v[name] = np.zeros(p.shape)
        return state


def adam_step(params: Params, state: AdamState):
    """One bias-corrected update; grads are left as-is (caller zeroes).

    The moments m and v are updated in place, and each weight takes
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) in that order of operations.

    Raises TrainingError, before touching any weight or moment, when a
    gradient holds an inf or a NaN.
    """
    grads = {}
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros(p.shape)
        if not np.isfinite(g).all():
            kind = "NaN" if np.isnan(g).any() else "inf"
            raise TrainingError(f"{kind} gradient in parameter {name!r}")
        grads[name] = g
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


@contextmanager
def _in_document(doc: Document):
    """Raise a ConfigError, ShapeError, FloatingPointError or TrainingError
    from the block again, of its kind, naming the document's file or id."""
    try:
        yield
    except (ConfigError, ShapeError, FloatingPointError, TrainingError) as exc:
        raise type(exc)(f"{exc} in document {doc.path or doc.doc_id!r}") from exc


def predict_documents(model: JNRF, table: np.ndarray, docs: list[Document]) -> list[PredictedDoc]:
    """The model's entities and relations for each document, in order, for
    `build_report` to score or `jnrf predict` to write. An error from a
    document's prediction names the document (`_in_document`)."""
    preds = []
    for doc in docs:
        with _in_document(doc):
            spans, relations = model.predict_instance(encode_document(doc), table)
            preds.append(PredictedDoc(doc.doc_id, *predictions_to_brat(doc, spans, relations)))
    return preds


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_f1: float
    seconds: float


@dataclass
class TrainResult:
    """Outcome of `train`.

    With dev documents, the model holds the weights of `best_epoch`, the
    epoch with the highest dev end-to-end F1 (ties go earliest). With no dev
    documents there is nothing to select on: the model keeps the weights of
    the final epoch, `best_epoch` is `cfg.epochs` and `best_dev_f1` is 0.0.
    """

    best_epoch: int          # 1-based
    best_dev_f1: float
    history: list[EpochStats]


def _document_pass(model, table, docs: list[Document], instances: list[EncodedInstance], order, state) -> float:
    """One tape, backward and Adam step per document, in the given order;
    `instances[i]` is `docs[i]` encoded. Returns the loss sum. Every error
    names the document (`_in_document`) and comes before its Adam step
    changes a weight; a non-finite loss raises TrainingError before backward."""
    total = 0.0
    for idx in order:
        with _in_document(docs[idx]), Tape() as tape:
            loss, _, _ = model.instance_losses(instances[idx], table)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(f"non-finite loss {value}")
            tape.backward(loss)
            adam_step(model.params, state)
        total += value
        model.params.zero_grad()
    return total


def train(
    model: JNRF,
    table: np.ndarray,
    train_docs: list[Document],
    dev_docs: list[Document],
    cfg: RunConfig,
) -> TrainResult:
    if not train_docs:
        raise TrainingError("empty training corpus")
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.for_params(model.params, lr=cfg.lr)

    for doc in train_docs:
        if len(doc) == 0:
            raise TrainingError(f"document {doc.path or doc.doc_id!r} has no tokens")
    instances = [encode_document(d) for d in train_docs]

    history: list[EpochStats] = []
    best_f1, best_snapshot, best_epoch = -1.0, None, 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(instances))
        loss_sum = _document_pass(model, table, train_docs, instances, order, state)
        dev_f1 = build_report(predict_documents(model, table, dev_docs), dev_docs).e2e.f1 if dev_docs else 0.0
        history.append(EpochStats(epoch, loss_sum / len(instances), dev_f1, time.perf_counter() - t0))
        if dev_docs and dev_f1 > best_f1:
            best_f1, best_epoch = dev_f1, epoch
            best_snapshot = {n: p.data.copy() for n, p in model.params.items()}

    if not dev_docs:
        return TrainResult(cfg.epochs, 0.0, history)
    # epochs >= 1 and every dev F1 >= 0, so the first epoch always sets a best
    for name, arr in best_snapshot.items():
        model.params[name].data[...] = arr
    return TrainResult(best_epoch, best_f1, history)


# --- checkpoint container -------------------------------------------------

_MAGIC = b"JNRFCKPT"
_VERSION = 3  # bump with any change to the file format or the parameter layout


def _write_record(f, name: str, arr: np.ndarray):
    blob = name.encode("utf-8")
    f.write(struct.pack("<I", len(blob)) + blob + struct.pack("<II", *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class _Reader:
    """Cursor over a checkpoint file's bytes; each error names the file."""

    def __init__(self, path: str, data: bytes):
        self.path, self.data, self.at = path, data, 0

    def error(self, message: str) -> CheckpointError:
        return CheckpointError(f"{self.path}: {message}")

    def take(self, n: int, what: str) -> bytes:
        left = len(self.data) - self.at
        if n > left:
            raise self.error(f"truncated checkpoint file: {what} needs {n} bytes, {left} left")
        self.at += n
        return self.data[self.at - n:self.at]

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        return decode_utf8(self.take(n, what), f"{self.path}: {what}", CheckpointError)

    def name(self, i: int) -> str:
        return self.text(self.unpack("<I", f"parameter {i} name length")[0], f"parameter {i} name")

    def record(self, i: int, want: str, shape: tuple[int, int]) -> np.ndarray:
        """Record i, checked to be `want` of `shape` before its values are read."""
        name = self.name(i)
        if name != want:
            raise self.error(f"parameter {i} is {name!r}, the model's is {want!r}")
        dims = self.unpack("<II", f"parameter {name!r} shape")
        if dims != shape:
            raise self.error(f"parameter {name!r}: checkpoint shape {dims} != model {shape}")
        arr = np.frombuffer(self.take(8 * dims[0] * dims[1], f"parameter {name!r} {shape}"), "<f8")
        if not np.isfinite(arr).all():
            raise self.error(f"parameter record {name!r} holds NaN or inf")
        return arr.reshape(shape)


def save_checkpoint(path: str, model: JNRF):
    """Write the model's weights and `model.config` as config text. A model
    built from a bare `ModelConfig` saves its model keys alone; the others
    load as defaults, so `jnrf predict` names the checkpoint and its missing
    `vocab` key. A failure once `<path>.tmp` is open removes that file."""
    tmp = path + ".tmp"
    f = open(tmp, "wb")
    try:
        with f:
            blob = serialize_config(model.config).encode("utf-8")
            f.write(_MAGIC + struct.pack("<II", _VERSION, len(blob)) + blob + struct.pack("<I", len(model.params)))
            for name, p in model.params.items():
                _write_record(f, name, p.data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_checkpoint(path: str) -> JNRF:
    """The model a `save_checkpoint` file holds, built from its config text,
    which `model.config` keeps whole, with the file's weights. A file that is
    not such a checkpoint, in whole, raises CheckpointError naming the path:
    its config text must parse, and each record must be the next of that
    model's layout by name and shape before its values are read. The model
    is drawn only then, so a file makes this allocate about its own size."""
    with open(path, "rb") as f:
        r = _Reader(path, f.read())
    if r.take(len(_MAGIC), "magic") != _MAGIC:
        raise r.error("not a checkpoint file")
    (version,) = r.unpack("<I", "version")
    if version != _VERSION:
        raise r.error(f"checkpoint version {version} != supported {_VERSION}")
    config_text = r.text(r.unpack("<I", "config text length")[0], "config text")
    try:
        cfg = parse_config_text(config_text)
    except ConfigError as exc:
        raise r.error(f"config text does not parse: {exc}") from None
    layout = parameter_layout(cfg)
    (count,) = r.unpack("<I", "parameter count")
    weights = [r.record(i, name, shape) for i, (name, shape) in enumerate(layout[:count])]
    if count < len(layout):
        raise r.error(f"checkpoint is missing parameter {layout[count][0]!r}")
    if count > len(layout):
        raise r.error(f"checkpoint has unknown parameter {r.name(len(layout))!r}")
    if r.at != len(r.data):
        raise r.error("unexpected bytes after the last record")
    model = JNRF(cfg, seed=cfg.seed)
    for (_, p), arr in zip(model.params.items(), weights):
        p.data[...] = arr
    return model
