"""Dense 2-D float64 tensors with a reverse-mode gradient tape.

All arithmetic is 64-bit. Operations record themselves onto the innermost
active Tape (opened as a context manager) whenever any input requires a
gradient; the forward recording order is the topological order used for the
reverse sweep. Leaf tensors (those not produced by an op) accumulate into
`.grad`; running backward twice without zeroing doubles every grad.

gelu uses the tanh approximation as the defined contract:
    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))
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

    def zero_grad(self):
        self.grad = None

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


def _record(out: Tensor, parents, backward) -> Tensor:
    if _TAPES and any(p.requires_grad for p in parents):
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


def _broadcast_ok(x: tuple, y: tuple) -> bool:
    if x == y:
        return True
    small, big = (x, y) if x[0] * x[1] <= y[0] * y[1] else (y, x)
    return small == (1, 1) or small == (1, big[1])


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g.copy()
    if shape == (1, 1):
        return g.sum().reshape(1, 1)
    if shape == (1, g.shape[1]):
        return g.sum(axis=0, keepdims=True)
    raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")


def _elementwise(a: Tensor, b: Tensor, fwd, da, db) -> Tensor:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(
            f"broadcast limited to scalar-with-matrix and row-with-matrix: {a.shape} vs {b.shape}"
        )
    out = Tensor(fwd(a.data, b.data))

    def backward(g):
        ga = _reduce_to(da(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _reduce_to(db(g, a.data, b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(
        a, b,
        lambda x, y: x + y,
        lambda g, x, y: g,
        lambda g, x, y: g,
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(
        a, b,
        lambda x, y: x * y,
        lambda g, x, y: g * y,
        lambda g, x, y: g * x,
    )


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(x.data * s)

    def backward(g):
        return (g * s,)

    return _record(out, (x,), backward)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    v = x.data
    t = np.tanh(_GELU_C * (v + 0.044715 * (v * v * v)))
    out = Tensor(0.5 * v * (1.0 + t))

    # v*v is recomputed here rather than kept from the forward: holding it
    # would keep one more n x d array per gelu on the tape.
    def backward(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * (v * v))
        return (g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du),)

    return _record(out, (x,), backward)


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
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    inv = 1.0 / np.sqrt((xc**2).mean(axis=1, keepdims=True) + eps)
    xh = xc * inv
    out = Tensor(xh * gain.data + bias.data)

    def backward(g):
        gxh = g * gain.data
        gx = None
        if x.requires_grad:
            m1 = gxh.mean(axis=1, keepdims=True)
            m2 = (gxh * xh).mean(axis=1, keepdims=True)
            gx = inv * (gxh - m1 - xh * m2)
        ggain = (g * xh).sum(axis=0, keepdims=True) if gain.requires_grad else None
        gbias = g.sum(axis=0, keepdims=True) if bias.requires_grad else None
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
