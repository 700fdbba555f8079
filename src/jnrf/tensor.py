"""Dense 2-D float64 tensors with a reverse-mode gradient tape.

All arithmetic is 64-bit. Operations record themselves onto the innermost
active Tape (opened as a context manager) whenever any input requires a
gradient; the forward recording order is the topological order used for the
reverse sweep. Leaf tensors (those not produced by an op) accumulate into
`.grad`, so gradients from two tapes add up unless the caller zeroes them.

A tape is single-use: `backward` pops each node as it runs it, so every
array a node saved for its gradient is freed during the sweep, and a second
`backward` on the same tape, or one for a loss the tape did not record,
raises TapeError. Ops save only what their backward reads.

Elementwise ops (add, mul) take operands of equal shape; nothing broadcasts.
A bias row goes through `linear`, which computes x @ w + b as one node, and
a two-layer MLP through `ffn`, gelu(x @ w1 + b1) @ w2 + b2 as one node that
keeps x, the gelu output and its derivative but no pre-activation.
`layer_norm_rows(x, gain, bias, residual=r)` normalizes x + r as one node,
so no residual sum is kept either.

gelu uses the tanh approximation as the defined contract:
    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))
`gelu` and `ffn` share one implementation of it. Only while a tape records
it is the derivative computed too, in the forward pass, so its backward is
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


class TapeError(RuntimeError):
    """Raised on a second backward over a tape, or on a loss it did not record."""


class Tape:
    """Ordered record of operations; reversing it is the backward pass.

    A tape runs backward once: the sweep pops each node as it runs it, so
    the arrays a node saved are freed as soon as its gradient is out."""

    def __init__(self):
        self.nodes = []
        self._spent = False

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
        """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad,
        emptying the tape."""
        if loss.shape != (1, 1):
            raise ShapeError(f"backward seed must be 1x1, got {loss.shape}")
        if self._spent:
            raise TapeError("backward already ran on this tape; record the graph on a new tape")
        if loss._produced and not any(out is loss for out, _, _ in self.nodes):
            raise TapeError("the loss was not recorded on this tape")
        self._spent = True
        if not loss._produced:
            if loss.requires_grad:
                seed = np.ones((1, 1))
                loss.grad = seed if loss.grad is None else loss.grad + seed
            return
        adjoint = {id(loss): np.ones((1, 1))}
        nodes = self.nodes
        while nodes:
            out, parents, backward = nodes.pop()
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


def _check_affine(op: str, x_shape, w: Tensor, b: Tensor):
    if x_shape[1] != w.rows:
        raise ShapeError(f"{op}: inner dimensions disagree: {x_shape} x {w.shape}")
    if b.shape != (1, w.cols):
        raise ShapeError(f"{op}: bias must be (1, {w.cols}), got {b.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; b is a (1, w.cols) row added to every row."""
    _check_affine("linear", x.shape, w, b)
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


def _gelu(v: np.ndarray, out: np.ndarray, derivative: bool):
    """Write gelu(v) into `out`, which may be v itself. With `derivative`,
    also return d gelu/dv as a new array; otherwise return None."""
    t = v * v
    t *= v
    t *= 0.044715
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    dy = None
    if derivative:
        # d/dv = 0.5 (1 + t) + 0.5 v (1 - t^2) c (1 + 3 * 0.044715 v^2)
        #      = 0.5 (1 + t) (1 + v (1 - t) c (1 + 3 * 0.044715 v^2))
        du = v * v
        du *= 3 * 0.044715
        du += 1.0
        du *= _GELU_C
        dy = np.subtract(1.0, t)
        dy *= v
        dy *= du
        dy += 1.0
    t += 1.0
    if derivative:
        dy *= t
        dy *= 0.5
    # (0.5 v)(1 + t), written last since out may be v
    np.multiply(v, 0.5, out=out)
    out *= t
    return dy


def gelu(x: Tensor) -> Tensor:
    y = np.empty_like(x.data)
    dy = _gelu(x.data, y, _recording((x,)))

    def backward(g):
        return (g * dy,)

    return _record(Tensor(y), (x,), backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 as one node. The gelu runs in place over
    the pre-activation, so backward holds x, the gelu output and its
    derivative, and no pre-activation."""
    parents = (x, w1, b1, w2, b2)
    _check_affine("ffn", x.shape, w1, b1)
    _check_affine("ffn", (x.rows, w1.cols), w2, b2)
    h = _mm(x.data, w1.data)
    h += b1.data
    dh = _gelu(h, h, _recording(parents))
    y = _mm(h, w2.data)
    y += b2.data

    def backward(g):
        gw2 = _mm(h.T, g) if w2.requires_grad else None
        gb2 = g.sum(axis=0, keepdims=True) if b2.requires_grad else None
        gx = gw1 = gb1 = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gh = _mm(g, w2.data.T)
            gh *= dh
            gx = _mm(gh, w1.data.T) if x.requires_grad else None
            gw1 = _mm(x.data.T, gh) if w1.requires_grad else None
            gb1 = gh.sum(axis=0, keepdims=True) if b1.requires_grad else None
        return gx, gw1, gb1, gw2, gb2

    return _record(Tensor(y), parents, backward)


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


def layer_norm_rows(
    x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5, residual: Tensor | None = None
) -> Tensor:
    """Row-wise layer norm of x, or of x + residual as one node; each of x
    and residual then gets its own gradient array."""
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeError(f"layer norm gain/bias must be (1, {x.cols})")
    if residual is None:
        parents = (x, gain, bias)
        xh = x.data - x.data.mean(axis=1, keepdims=True)
    else:
        _same_shape("layer_norm_rows residual", x, residual)
        parents = (x, gain, bias, residual)
        xh = x.data + residual.data
        xh -= xh.mean(axis=1, keepdims=True)
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
        if x.requires_grad or residual is not None and residual.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=1, keepdims=True)
            np.multiply(gx, xh, out=tmp)
            m2 = tmp.mean(axis=1, keepdims=True)
            gx -= m1
            np.multiply(xh, m2, out=tmp)
            gx -= tmp
            gx *= inv
        if residual is None:
            return gx, ggain, gbias
        # copies: the tape adds into adjoints in place, so no array is shared
        gr = gx.copy() if x.requires_grad and residual.requires_grad else gx
        return gx, ggain, gbias, gr

    return _record(out, parents, backward)


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
