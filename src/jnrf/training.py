"""Adam training loop with unit batches, dev-set model selection and
binary checkpoints.

Each step is one whole document at its native length: one forward, one
backward and one Adam step, with no padding anywhere. An epoch visits the
training documents once, in a seeded random order.

A checkpoint holds a run's config text and the model's weights, and loads
as the model that text builds: never into a model of another configuration.
"""

from __future__ import annotations

import math
import os
import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .config import ConfigError, ModelConfig, RunConfig, decode_utf8, parse_config_text, serialize_config
from .corpus import Document
from .evaluation import MatchCounts, match_relations
from .model import JNRF, EncodedInstance, encode_document, predictions_to_brat
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


def _in_document(exc: Exception, doc_id: str) -> Exception:
    """`exc`'s kind, its message followed by the document it came from."""
    return type(exc)(f"{exc} in document {doc_id!r}")


def dev_e2e_f1(model: JNRF, table: np.ndarray, docs: list[Document]) -> float:
    """Relation F1 of the model's predictions on `docs`; a ConfigError,
    ShapeError or FloatingPointError from a document's prediction is raised
    again naming it."""
    counts = MatchCounts()
    for doc in docs:
        try:
            spans, relations = model.predict_instance(encode_document(doc), table)
        except (ConfigError, ShapeError, FloatingPointError) as exc:
            raise _in_document(exc, doc.doc_id) from exc
        _, pred_rels = predictions_to_brat(doc, spans, relations)
        for c in match_relations(pred_rels, doc.gold_relations).values():
            counts.add(c)
    return counts.f1


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


def _document_pass(model, table, instances: list[EncodedInstance], order, state) -> float:
    """One tape, backward and Adam step per document, in the given order.
    Returns the loss sum.

    Raises TrainingError, before backward runs on it, when a document's
    loss is not finite, and `adam_step`'s error, naming the document too,
    when a gradient is not. A ConfigError, ShapeError or FloatingPointError
    from a document's forward pass is raised again naming the document,
    before its step."""
    total = 0.0
    for idx in order:
        inst = instances[idx]
        with Tape() as tape:
            try:
                loss, _, _ = model.instance_losses(inst, table)
            except (ConfigError, ShapeError, FloatingPointError) as exc:
                raise _in_document(exc, inst.doc_id) from exc
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(f"non-finite loss {value} in document {inst.doc_id!r}")
            tape.backward(loss)
        total += value
        try:
            adam_step(model.params, state)
        except TrainingError as exc:
            raise _in_document(exc, inst.doc_id) from exc
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

    instances = [encode_document(d) for d in train_docs]
    for inst in instances:
        if len(inst.ids) == 0:
            raise TrainingError(f"document {inst.doc_id!r} has no tokens")

    history: list[EpochStats] = []
    best_f1, best_snapshot, best_epoch = -1.0, None, 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(instances))
        loss_sum = _document_pass(model, table, instances, order, state)
        dev_f1 = dev_e2e_f1(model, table, dev_docs) if dev_docs else 0.0
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

    def records(self, count: int) -> dict:
        """`count` named (rows, cols) float64 parameter records; names must
        differ and every value must be finite."""
        out = {}
        for i in range(count):
            (n,) = self.unpack("<I", f"parameter {i} name length")
            name = self.text(n, f"parameter {i} name")
            rows, cols = self.unpack("<II", f"parameter {name!r} shape")
            data = self.take(8 * rows * cols, f"parameter {name!r} ({rows}, {cols})")
            if name in out:
                raise self.error(f"duplicate parameter record {name!r}")
            arr = np.frombuffer(data, dtype="<f8").reshape(rows, cols).astype(np.float64)
            if not np.isfinite(arr).all():
                raise self.error(f"parameter record {name!r} holds NaN or inf")
            out[name] = arr
        return out


def save_checkpoint(path: str, model: JNRF, cfg: RunConfig):
    """Write the model's weights and `cfg` as config text. `cfg` must set the
    model's own configuration: one of another model raises CheckpointError,
    naming the path and the first key that differs, and writes nothing."""
    for key in (f.name for f in fields(ModelConfig)):
        ours, theirs = getattr(cfg, key), getattr(model.config, key)
        if ours != theirs:
            raise CheckpointError(f"{path}: config key {key!r} is {ours!r} in the config, {theirs!r} in the model")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        blob = serialize_config(cfg).encode("utf-8")
        f.write(_MAGIC + struct.pack("<II", _VERSION, len(blob)) + blob + struct.pack("<I", len(model.params)))
        for name, p in model.params.items():
            _write_record(f, name, p.data)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[RunConfig, JNRF]:
    """The run config of a checkpoint written by `save_checkpoint`, and the
    model that config builds, holding the file's weights. A file that is not
    such a checkpoint, in whole, raises CheckpointError naming the path: its
    config text must parse, and its records must be that model's parameters,
    each by name and shape, none missing and none besides."""
    with open(path, "rb") as f:
        r = _Reader(path, f.read())
    if r.take(len(_MAGIC), "magic") != _MAGIC:
        raise r.error("not a checkpoint file")
    (version,) = r.unpack("<I", "version")
    if version != _VERSION:
        raise r.error(f"checkpoint version {version} != supported {_VERSION}")
    config_text = r.text(r.unpack("<I", "config text length")[0], "config text")
    records = r.records(r.unpack("<I", "parameter count")[0])
    if r.at != len(r.data):
        raise r.error("unexpected bytes after the last record")
    try:
        cfg = parse_config_text(config_text)
    except ConfigError as exc:
        raise r.error(f"config text does not parse: {exc}") from None
    model = JNRF(ModelConfig.from_run_config(cfg), seed=cfg.seed)
    for name, p in model.params.items():
        if name not in records:
            raise r.error(f"checkpoint is missing parameter {name!r}")
        arr = records.pop(name)
        if arr.shape != p.shape:
            raise r.error(f"parameter {name!r}: checkpoint shape {arr.shape} != model {p.shape}")
        p.data[...] = arr
    if records:
        raise r.error(f"checkpoint has unknown parameters {sorted(records)[:3]}")
    return cfg, model
