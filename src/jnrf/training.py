"""Adam training loop with unit batches, dev-set model selection and
binary checkpoints.

Each step is one whole document at its native length: one forward, one
backward and one Adam step, with no padding anywhere. An epoch visits the
training documents once, in a seeded random order.
"""

from __future__ import annotations

import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .corpus import Document
from .embedding import EmbeddingTable
from .evaluation import MatchCounts, match_relations
from .model import JNRF, EncodedInstance, encode_document, predictions_to_brat
from .params import Params
from .tensor import Tape


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step count."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: Params, lr: float = 1e-3, **kw) -> "AdamState":
        state = cls(lr=lr, **kw)
        for name, p in params.items():
            state.m[name] = np.zeros(p.shape)
            state.v[name] = np.zeros(p.shape)
        return state


def adam_step(params: Params, state: AdamState):
    """One bias-corrected update; grads are left as-is (caller zeroes).

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
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def dev_e2e_f1(model: JNRF, table: EmbeddingTable, docs: list[Document]) -> float:
    counts = MatchCounts()
    for doc in docs:
        spans, relations = model.predict_instance(encode_document(doc), table)
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
    loss is not finite."""
    total = 0.0
    for idx in order:
        inst = instances[idx]
        with Tape() as tape:
            loss, _, _ = model.instance_losses(inst, table)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(f"non-finite loss {value} in document {inst.doc_id!r}")
            tape.backward(loss)
        total += value
        adam_step(model.params, state)
        model.params.zero_grad()
    return total


def train(
    model: JNRF,
    table: EmbeddingTable,
    train_docs: list[Document],
    dev_docs: list[Document],
    cfg: RunConfig,
    log_path: str | None = None,
) -> TrainResult:
    if not train_docs:
        raise TrainingError("empty training corpus")
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.for_params(model.params, lr=cfg.lr)

    instances = [encode_document(d) for d in train_docs]

    history: list[EpochStats] = []
    best_f1, best_snapshot, best_epoch = -1.0, None, 0
    log = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            order = rng.permutation(len(instances))
            loss_sum = _document_pass(model, table, instances, order, state)
            dev_f1 = dev_e2e_f1(model, table, dev_docs) if dev_docs else 0.0
            seconds = time.perf_counter() - t0
            stats = EpochStats(epoch, loss_sum / len(instances), dev_f1, seconds)
            history.append(stats)
            if log:
                log.write(f"{epoch}\t{stats.train_loss:.6f}\t{dev_f1:.4f}\t{seconds:.3f}\n")
                log.flush()
            if dev_docs and dev_f1 > best_f1:
                best_f1, best_epoch = dev_f1, epoch
                best_snapshot = {n: p.data.copy() for n, p in model.params.items()}
    finally:
        if log:
            log.close()

    if not dev_docs:
        return TrainResult(cfg.epochs, 0.0, history)
    # epochs >= 1 and every dev F1 >= 0, so the first epoch always sets a best
    for name, arr in best_snapshot.items():
        model.params[name].data[...] = arr
    return TrainResult(best_epoch, best_f1, history)


# --- checkpoint container -------------------------------------------------

_MAGIC = b"JNRFCKPT"
_VERSION = 2  # bump with any change to the file format or the parameter layout


def _write_record(f, name: str, arr: np.ndarray):
    blob = name.encode("utf-8")
    f.write(struct.pack("<I", len(blob)))
    f.write(blob)
    f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
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
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not UTF-8 ({exc.reason} at byte {exc.start})") from None

    def records(self, count: int, section: str) -> dict:
        """`count` named (rows, cols) float64 records; names must differ and
        every value must be finite."""
        out = {}
        for i in range(count):
            (n,) = self.unpack("<I", f"{section} {i} name length")
            name = self.text(n, f"{section} {i} name")
            rows, cols = self.unpack("<II", f"{section} {name!r} shape")
            data = self.take(8 * rows * cols, f"{section} {name!r} ({rows}, {cols})")
            if name in out:
                raise self.error(f"duplicate {section} record {name!r}")
            arr = np.frombuffer(data, dtype="<f8").reshape(rows, cols).astype(np.float64)
            if not np.isfinite(arr).all():
                raise self.error(f"{section} record {name!r} holds NaN or inf")
            out[name] = arr
        return out


def save_checkpoint(path: str, model: JNRF, state: AdamState | None = None,
                    config_text: str = ""):
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        blob = config_text.encode("utf-8")
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(model.params)))
        for name, p in model.params.items():
            _write_record(f, name, p.data)
        if state is None:
            f.write(struct.pack("<B", 0))
        else:
            f.write(struct.pack("<B", 1))
            f.write(struct.pack("<Q", state.step_count))
            f.write(struct.pack("<dddd", state.lr, state.beta1, state.beta2, state.eps))
            for moments in (state.m, state.v):
                for name in model.params:
                    _write_record(f, name, moments[name])
    os.replace(tmp, path)


@dataclass
class Checkpoint:
    path: str  # the file it was loaded from; apply_checkpoint's errors name it
    config_text: str
    params: dict
    optimizer: AdamState | None


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by `save_checkpoint`; any file that is not
    one, in whole, raises CheckpointError naming the path."""
    with open(path, "rb") as f:
        r = _Reader(path, f.read())
    if r.take(len(_MAGIC), "magic") != _MAGIC:
        raise r.error("not a checkpoint file")
    (version,) = r.unpack("<I", "version")
    if version != _VERSION:
        raise r.error(f"checkpoint version {version} != supported {_VERSION}")
    config_text = r.text(r.unpack("<I", "config text length")[0], "config text")
    params = r.records(r.unpack("<I", "parameter count")[0], "parameter")
    (has_optim,) = r.unpack("<B", "optimizer flag")
    optimizer = None
    if has_optim:
        (step_count,) = r.unpack("<Q", "optimizer step count")
        lr, b1, b2, eps = r.unpack("<dddd", "optimizer hyperparameters")
        optimizer = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps, step_count=step_count)
        optimizer.m = _read_moments(r, params, "m")
        optimizer.v = _read_moments(r, params, "v")
    if r.at != len(r.data):
        raise r.error("unexpected bytes after the last record")
    return Checkpoint(path, config_text, params, optimizer)


def _read_moments(r: _Reader, params: dict, which: str) -> dict:
    """One Adam moment record per parameter, each named and shaped like it."""
    moments = r.records(len(params), f"optimizer {which}")
    for name, arr in params.items():
        got = moments.get(name)
        if got is None:
            raise r.error(f"optimizer {which} has no record for parameter {name!r}")
        if got.shape != arr.shape:
            raise r.error(
                f"optimizer {which} for parameter {name!r}: "
                f"shape {got.shape} != parameter {arr.shape}"
            )
    return moments


def apply_checkpoint(model: JNRF, ckpt: Checkpoint):
    """Copy checkpoint weights into the model after validating every name
    and shape, so a rejected checkpoint leaves the model as it was; each
    error starts with the checkpoint's path."""
    for name, p in model.params.items():
        if name not in ckpt.params:
            raise CheckpointError(f"{ckpt.path}: checkpoint is missing parameter {name!r}")
        arr = ckpt.params[name]
        if arr.shape != p.shape:
            raise CheckpointError(
                f"{ckpt.path}: parameter {name!r}: checkpoint shape {arr.shape} != model {p.shape}"
            )
    extra = set(ckpt.params) - set(n for n, _ in model.params.items())
    if extra:
        raise CheckpointError(f"{ckpt.path}: checkpoint has unknown parameters {sorted(extra)[:3]}")
    for name, p in model.params.items():
        p.data[...] = ckpt.params[name]
