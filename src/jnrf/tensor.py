"""Dense 2-D float64 tensors with a reverse-mode gradient tape.

All arithmetic is 64-bit. Operations record themselves onto the innermost
active Tape (opened as a context manager) whenever any input requires a
gradient; the forward recording order is the topological order used for the
reverse sweep. Leaf tensors (those not produced by an op) accumulate into
`.grad`; running backward twice without zeroing doubles every grad.

Elementwise ops (add, mul) take operands of equal shape; nothing broadcasts.
A bias row goes through `linear`, which computes x @ w + b as one node.

gelu uses the tanh approximation as the defined contract:
    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))
Only while a tape records it does gelu also compute its derivative, in the
forward pass, reusing the array that held the tanh; its backward is then
one product. Without a tape (prediction) no derivative is computed.
"""

import numpy as np

from . import fourier
from .instrument import COUNTER


class ShapeError(ValueError):
    """Raised on incompatible operand shapes."""


_TAPES: list["Tape"] = []


def _as2d(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


class Tensor:
    def __init__(self, data, requires_grad: bool = False):
        self.data = _as2d(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._produced = False

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations; reversing it is the backward pass."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def record(self, out: Tensor, parents, backward):
        out._produced = True
        self.nodes.append((out, tuple(parents), backward))

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad."""
        if loss.shape != (1, 1):
            raise ShapeError(f"backward seed must be 1x1, got {loss.shape}")
        if not loss._produced:
            if loss.requires_grad:
                seed = np.ones((1, 1))
                loss.grad = seed if loss.grad is None else loss.grad + seed
            return
        adjoint = {id(loss): np.ones((1, 1))}
        for out, parents, backward in reversed(self.nodes):
            g = adjoint.pop(id(out), None)
            if g is None:
                continue
            for parent, contrib in zip(parents, backward(g)):
                if contrib is None or not parent.requires_grad:
                    continue
                if parent._produced:
                    key = id(parent)
                    if key in adjoint:
                        adjoint[key] += contrib
                    else:
                        adjoint[key] = contrib
                else:
                    parent.grad = contrib if parent.grad is None else parent.grad + contrib


def _recording(parents) -> bool:
    """Whether an op on these inputs will be recorded onto a tape."""
    return bool(_TAPES) and any(p.requires_grad for p in parents)


def _record(out: Tensor, parents, backward) -> Tensor:
    if _recording(parents):
        out.requires_grad = True
        _TAPES[-1].record(out, parents, backward)
    return out


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    COUNTER.add(a.shape[0] * a.shape[1] * b.shape[1])
    return a @ b


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    out = Tensor(_mm(a.data, b.data))

    def backward(g):
        ga = _mm(g, b.data.T) if a.requires_grad else None
        gb = _mm(a.data.T, g) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; b is a (1, w.cols) row added to every row."""
    if x.cols != w.rows:
        raise ShapeError(f"linear: inner dimensions disagree: {x.shape} x {w.shape}")
    if b.shape != (1, w.cols):
        raise ShapeError(f"linear: bias must be (1, {w.cols}), got {b.shape}")
    y = _mm(x.data, w.data)
    y += b.data
    out = Tensor(y)

    def backward(g):
        gx = _mm(g, w.data.T) if x.requires_grad else None
        gw = _mm(x.data.T, g) if w.requires_grad else None
        gb = g.sum(axis=0, keepdims=True) if b.requires_grad else None
        return gx, gw, gb

    return _record(out, (x, w, b), backward)


def _same_shape(op: str, a: Tensor, b: Tensor):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: elementwise ops take equal shapes: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    out = Tensor(a.data + b.data)

    # copies: the tape adds into adjoints in place, so g must not be shared
    def backward(g):
        return g.copy() if a.requires_grad else None, g.copy() if b.requires_grad else None

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    out = Tensor(a.data * b.data)

    def backward(g):
        return g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None

    return _record(out, (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(x.data * s)

    def backward(g):
        return (g * s,)

    return _record(out, (x,), backward)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    v = x.data
    t = v * v
    t *= v
    t *= 0.044715
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    if not _recording((x,)):
        y = v * 0.5
        t += 1.0
        y *= t
        return Tensor(y)

    # d/dv = 0.5 (1 + t) + 0.5 v (1 - t^2) c (1 + 3 * 0.044715 v^2)
    #      = 0.5 (1 + t) (1 + v (1 - t) c (1 + 3 * 0.044715 v^2)),
    # built in t's array, so the closure holds this one array and nothing else
    du = v * v
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    one_plus_t = t + 1.0
    dy = t
    np.subtract(1.0, dy, out=dy)
    dy *= v
    dy *= du
    dy += 1.0
    dy *= one_plus_t
    dy *= 0.5
    # (0.5 v)(1 + t), the same operations as without a tape, bit for bit
    y = np.multiply(v, 0.5, out=du)
    y *= one_plus_t

    def backward(g):
        return (g * dy,)

    return _record(Tensor(y), (x,), backward)


def log_softmax_rows(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = Tensor(y)

    def backward(g):
        return (g - np.exp(y) * g.sum(axis=1, keepdims=True),)

    return _record(out, (x,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return _record(out, (x,), backward)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeError(f"layer norm gain/bias must be (1, {x.cols})")
    xh = x.data - x.data.mean(axis=1, keepdims=True)
    y = np.square(xh)
    inv = 1.0 / np.sqrt(y.mean(axis=1, keepdims=True) + eps)
    xh *= inv
    np.multiply(xh, gain.data, out=y)
    y += bias.data
    out = Tensor(y)

    def backward(g):
        tmp = g * xh
        ggain = tmp.sum(axis=0, keepdims=True) if gain.requires_grad else None
        gbias = g.sum(axis=0, keepdims=True) if bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=1, keepdims=True)
            np.multiply(gx, xh, out=tmp)
            m2 = tmp.mean(axis=1, keepdims=True)
            gx -= m1
            np.multiply(xh, m2, out=tmp)
            gx -= tmp
            gx *= inv
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), backward)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum().reshape(1, 1))

    def backward(g):
        return (np.full(x.shape, g[0, 0]),)

    return _record(out, (x,), backward)


def pick_rows(x: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("pick_rows expects a flat index list")
    out = Tensor(x.data[idx])

    def backward(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(out, (x,), backward)


def span_mean(x: Tensor, starts, ends) -> Tensor:
    """Row i is the mean of x's rows starts[i]..ends[i]-1. Spans may overlap;
    only the rows inside some span are read, and only they get gradient."""
    s = np.asarray(starts, dtype=np.intp)
    e = np.asarray(ends, dtype=np.intp)
    if s.ndim != 1 or s.shape != e.shape or not np.all((0 <= s) & (s < e) & (e <= x.rows)):
        raise ShapeError(f"span_mean: spans must satisfy 0 <= start < end <= {x.rows}")
    lens = e - s
    offsets = np.cumsum(lens) - lens  # where each span starts among the gathered rows
    rows = np.arange(lens.sum()) + np.repeat(s - offsets, lens)
    out = Tensor(np.add.reduceat(x.data[rows], offsets, axis=0) / lens[:, None])

    def backward(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, rows, np.repeat(g / lens[:, None], lens, axis=0))
        return (gx,)

    return _record(out, (x,), backward)


def slice_rows(x: Tensor, i0: int, i1: int) -> Tensor:
    out = Tensor(x.data[i0:i1])

    def backward(g):
        gx = np.zeros(x.shape)
        gx[i0:i1] = g
        return (gx,)

    return _record(out, (x,), backward)


def slice_cols(x: Tensor, j0: int, j1: int) -> Tensor:
    out = Tensor(x.data[:, j0:j1])

    def backward(g):
        gx = np.zeros(x.shape)
        gx[:, j0:j1] = g
        return (gx,)

    return _record(out, (x,), backward)


def concat_rows(parts) -> Tensor:
    parts = tuple(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.rows for p in parts])

    def backward(g):
        return tuple(
            g[offsets[i]:offsets[i + 1]].copy() if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    return _record(out, parts, backward)


def concat_cols(parts) -> Tensor:
    parts = tuple(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    offsets = np.cumsum([0] + [p.cols for p in parts])

    def backward(g):
        return tuple(
            g[:, offsets[i]:offsets[i + 1]].copy() if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    return _record(out, parts, backward)


def reshape(x: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != x.rows * x.cols:
        raise ShapeError(f"cannot reshape {x.shape} to ({rows}, {cols})")
    out = Tensor(x.data.reshape(rows, cols))

    def backward(g):
        return (g.reshape(x.shape),)

    return _record(out, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    out = Tensor(np.ascontiguousarray(x.data.T))

    def backward(g):
        return (np.ascontiguousarray(g.T),)

    return _record(out, (x,), backward)


def fourier_mix(x: Tensor) -> Tensor:
    """Real part of the two-axis DFT (hidden axis, then sequence axis).

    Linear in x; the DFT matrix is symmetric, so the adjoint used as the
    backward rule is the forward map applied to the gradient under the
    same pad/crop geometry.
    """
    out = Tensor(fourier.mix_real2d(x.data))

    def backward(g):
        return (fourier.mix_real2d(g),)

    return _record(out, (x,), backward)
