"""Dense 2-D float64 tensors with a reverse-mode gradient tape.

All arithmetic is 64-bit. Operations record themselves onto the innermost
active Tape (opened as a context manager) whenever any input requires a
gradient; the forward recording order is the topological order used for the
reverse sweep. Leaf tensors (those not produced by an op) accumulate into
`.grad`, so gradients from two tapes add up unless the caller zeroes them.

A tape node is (serial, links, backward). The serial numbers the op's output
on its tape, and adjoints are keyed by it, so a freed tensor whose id() is
reused cannot take over its gradient. A link is the parent's serial if an op
on this tape produced it, the parent itself if it is a leaf that requires a
gradient, or None. Neither nodes nor backward closures hold a produced
Tensor: each closure captures only the arrays and flags its gradient reads,
so an output that no backward reads is freed as soon as its caller drops it.

A tape is single-use: `backward` pops each node as it runs it, so every
array a node saved for its gradient is freed during the sweep, and a second
`backward` on the same tape, a loss the tape did not record, or a gradient
reaching a tensor that another tape recorded raises TapeError. Leaf `.grad`s
are written only once the sweep has finished, so a raising sweep writes none.

Elementwise ops (add, mul) take operands of equal shape; nothing broadcasts.
A bias row goes through `linear`, which computes x @ w + b as one node, and
a two-layer MLP through `ffn`, gelu(x @ w1 + b1) @ w2 + b2 as one node that
keeps x and the pre-activation, and computes gelu and its derivative again
in backward. `layer_norm_rows(x, gain, bias, residual=r)` normalizes x + r as
one node, keeping the normalized rows and each row's inverse deviation.

`windowed_attention` is one node per attention sublayer: it projects q, k
and v once, runs softmax(q k^T) v per window and head into one merged array
and multiplies it by the output projection. It saves x, q, k, v and the
merged array, and backward recomputes each window's probabilities, so no
window x window matrix is kept. It and `softmax_rows` share one softmax.

`ffn` and `layer_norm_rows` run forward and backward over blocks of
_BLOCK = 256 rows: a block of the ffn hidden layer (256 x 128 float64s at the
default width, 256 KB) stays in L2 cache, and their temporaries are
block-sized, so neither training nor prediction builds an n x ffn_hidden
gelu output.

gelu uses the tanh approximation as the defined contract:
    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))
`gelu` and `ffn` share one implementation of it. Both save their input, not
the derivative: the forward computes gelu alone, and the derivative is
computed in backward.
"""

import itertools

import numpy as np

from . import fourier
from .instrument import COUNTER


class ShapeError(ValueError):
    """Raised on incompatible operand shapes."""


_TAPES: list["Tape"] = []
_TAPE_IDS = itertools.count()
_ELSEWHERE = object()  # the link to a tensor that another tape recorded
_BLOCK = 256  # rows per block in ffn and layer_norm_rows


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
        self._node = None  # (tape id, serial) once an op records it

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


class _Serial(int):
    """A node's serial number. Its `data` is an empty buffer because a node
    holds no output: `sum(out.data.nbytes for out, _, _ in tape.nodes)`,
    the bytes the nodes hold in outputs, is 0."""

    data = memoryview(b"")


class TapeError(RuntimeError):
    """Raised on a second backward over a tape, on a loss it did not record,
    or when gradient reaches a tensor that another tape recorded."""


class Tape:
    """Ordered record of operations; reversing it is the backward pass.

    A tape runs backward once: the sweep pops each node as it runs it, so
    the arrays a node saved are freed as soon as its gradient is out."""

    def __init__(self):
        self.nodes = []
        self._id = next(_TAPE_IDS)
        self._serials = itertools.count()
        self._spent = False

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def _link(self, parent: Tensor):
        if parent._node is not None:
            tape, serial = parent._node
            return serial if tape == self._id else _ELSEWHERE
        return parent if parent.requires_grad else None

    def record(self, out: Tensor, parents, backward):
        serial = _Serial(next(self._serials))
        out.requires_grad = True
        out._node = (self._id, serial)
        self.nodes.append((serial, tuple(map(self._link, parents)), backward))

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad,
        emptying the tape."""
        if loss.shape != (1, 1):
            raise ShapeError(f"backward seed must be 1x1, got {loss.shape}")
        if self._spent:
            raise TapeError("backward already ran on this tape; record the graph on a new tape")
        if loss._node is not None and loss._node[0] != self._id:
            raise TapeError("the loss was not recorded on this tape")
        self._spent = True
        if loss._node is None:
            if loss.requires_grad:
                seed = np.ones((1, 1))
                loss.grad = seed if loss.grad is None else loss.grad + seed
            return
        adjoint = {loss._node[1]: np.ones((1, 1))}
        leaf_grads = {}  # leaf Tensor -> its .grad after this sweep
        nodes = self.nodes
        while nodes:
            serial, links, backward = nodes.pop()
            g = adjoint.pop(serial, None)
            if g is None:
                continue
            for link, contrib in zip(links, backward(g)):
                if link is None or contrib is None:
                    continue
                if link is _ELSEWHERE:
                    raise TapeError("gradient reached a tensor that another tape recorded")
                if isinstance(link, Tensor):  # a leaf
                    if link in leaf_grads:
                        leaf_grads[link] += contrib
                    else:
                        leaf_grads[link] = contrib if link.grad is None else link.grad + contrib
                elif link in adjoint:
                    adjoint[link] += contrib
                else:
                    adjoint[link] = contrib
        for leaf, grad in leaf_grads.items():
            leaf.grad = grad


def _recording(parents) -> bool:
    """Whether an op on these inputs will be recorded onto a tape."""
    return bool(_TAPES) and any(p.requires_grad for p in parents)


def _record(out: Tensor, parents, backward) -> Tensor:
    if _recording(parents):
        _TAPES[-1].record(out, parents, backward)
    return out


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    COUNTER.add(a.shape[0] * a.shape[1] * b.shape[1])
    return np.matmul(a, b, out=out)


def _row_blocks(n: int):
    """(rows, buffer rows) per block of _BLOCK rows: the block's slice of an
    n-row array and the matching leading slice of a block-sized buffer."""
    return [(slice(i, min(i + _BLOCK, n)), slice(0, min(_BLOCK, n - i))) for i in range(0, n, _BLOCK)]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    out = Tensor(_mm(a.data, b.data))
    ra, rb = a.requires_grad, b.requires_grad
    ad, bd = a.data if rb else None, b.data if ra else None

    def backward(g):
        return _mm(g, bd.T) if ra else None, _mm(ad.T, g) if rb else None

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
    rx, rw, rb = x.requires_grad, w.requires_grad, b.requires_grad
    xd, wd = x.data if rw else None, w.data if rx else None

    def backward(g):
        gx = _mm(g, wd.T) if rx else None
        gw = _mm(xd.T, g) if rw else None
        gb = g.sum(axis=0, keepdims=True) if rb else None
        return gx, gw, gb

    return _record(Tensor(y), (x, w, b), backward)


def _same_shape(op: str, a: Tensor, b: Tensor):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: elementwise ops take equal shapes: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    out = Tensor(a.data + b.data)
    ra, rb = a.requires_grad, b.requires_grad

    # copies: the tape adds into adjoints in place, so g must not be shared
    def backward(g):
        return g.copy() if ra else None, g.copy() if rb else None

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    out = Tensor(a.data * b.data)
    ra, rb = a.requires_grad, b.requires_grad
    ad, bd = a.data if rb else None, b.data if ra else None

    def backward(g):
        return g * bd if ra else None, g * ad if rb else None

    return _record(out, (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(x.data * s)

    def backward(g):
        return (g * s,)

    return _record(out, (x,), backward)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(v: np.ndarray, out: np.ndarray | None, derivative: bool = False):
    """Write gelu(v) into `out`, which may be v itself, unless it is None.
    With `derivative`, also return d gelu/dv as a new array; otherwise
    return None."""
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
    if out is not None:
        # (0.5 v)(1 + t), written last since out may be v
        np.multiply(v, 0.5, out=out)
        out *= t
    return dy


def gelu(x: Tensor) -> Tensor:
    """Saves its input; the derivative is computed in backward."""
    y = np.empty_like(x.data)
    _gelu(x.data, y)
    xd = x.data

    def backward(g):
        dy = _gelu(xd, None, derivative=True)
        dy *= g
        return (dy,)

    return _record(Tensor(y), (x,), backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 as one node, run over blocks of _BLOCK
    rows with one block-sized hidden buffer.

    On a tape the node saves x and the pre-activation x @ w1 + b1 (n x
    ffn_hidden); backward computes gelu and its derivative again from the
    pre-activation, block by block, and sums the weight and bias gradients
    over the blocks. Without a tape nothing n x ffn_hidden is built."""
    parents = (x, w1, b1, w2, b2)
    _check_affine("ffn", x.shape, w1, b1)
    _check_affine("ffn", (x.rows, w1.cols), w2, b2)
    keep = _recording(parents)
    n, hidden = x.rows, w1.cols
    blocks = _row_blocks(n)
    pre = np.empty((n, hidden)) if keep else None
    h = np.empty((min(n, _BLOCK), hidden))
    y = np.empty((n, w2.cols))
    for rows, part in blocks:
        hb = h[part]
        a = pre[rows] if keep else hb
        _mm(x.data[rows], w1.data, out=a)
        a += b1.data
        _gelu(a, hb)
        yb = _mm(hb, w2.data, out=y[rows])
        yb += b2.data

    rx, rw1, rb1, rw2, rb2 = (p.requires_grad for p in parents)
    inner = rx or rw1 or rb1  # whether gradient goes below the gelu
    xd = x.data if rw1 else None
    w1d = w1.data if rx else None
    w2d = w2.data if inner else None
    x_shape, w1_shape, w2_shape = x.shape, w1.shape, w2.shape

    def backward(g):
        gx = np.empty(x_shape) if rx else None
        gw1 = np.zeros(w1_shape) if rw1 else None
        gb1 = np.zeros((1, hidden)) if rb1 else None
        gw2 = np.zeros(w2_shape) if rw2 else None
        h = np.empty((min(n, _BLOCK), hidden))
        for rows, part in blocks:
            hb, gr = h[part], g[rows]
            dh = _gelu(pre[rows], hb, derivative=inner)
            if rw2:
                gw2 += _mm(hb.T, gr)
            if inner:
                dh *= _mm(gr, w2d.T)
                if rx:
                    _mm(dh, w1d.T, out=gx[rows])
                if rw1:
                    gw1 += _mm(xd[rows].T, dh)
                if rb1:
                    gb1 += dh.sum(axis=0, keepdims=True)
        gb2 = g.sum(axis=0, keepdims=True) if rb2 else None
        return gx, gw1, gb1, gw2, gb2

    return _record(Tensor(y), parents, backward)


def log_softmax_rows(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = Tensor(y)

    def backward(g):
        return (g - np.exp(y) * g.sum(axis=1, keepdims=True),)

    return _record(out, (x,), backward)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of z, written into z, which it returns."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def softmax_rows(x: Tensor) -> Tensor:
    y = _softmax(x.data.copy())
    out = Tensor(y)

    def backward(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return _record(out, (x,), backward)


def windowed_attention(
    x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, window: int, n_heads: int
) -> Tensor:
    """Multi-head self-attention inside non-overlapping windows of `window`
    rows, as one node: q = x @ wq scaled by dk^-0.5, k = x @ wk and
    v = x @ wv are projected once over all n rows; each window and head
    writes softmax(q k^T) v into its cells of one merged array, and the
    result is merged @ wo. No row attends across a window boundary.

    On a tape the node saves x, q, k, v and the merged array. Backward
    recomputes each window's probabilities from q and k with the forward's
    own calls, so they are bit-identical to it, and no window x window
    matrix outlives its window and head."""
    parents = (x, wq, wk, wv, wo)
    d, m = x.cols, wq.cols
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv)):
        if w.shape != (d, m):
            raise ShapeError(f"windowed_attention: {name} must be ({d}, {m}), got {w.shape}")
    if wo.rows != m:
        raise ShapeError(f"windowed_attention: wo must have {m} rows, got {wo.shape}")
    if window < 1 or n_heads < 1 or m % n_heads:
        raise ShapeError(f"windowed_attention: window {window} and {n_heads} heads over width {m}")
    n, dk = x.rows, m // n_heads
    s = dk ** -0.5
    cells = [
        (slice(i, min(i + window, n)), slice(h * dk, (h + 1) * dk))
        for i in range(0, n, window)
        for h in range(n_heads)
    ]
    xd, wqd, wkd, wvd, wod = (t.data for t in parents)
    q = _mm(xd, wqd)
    q *= s
    k, v = _mm(xd, wkd), _mm(xd, wvd)
    merged = np.empty((n, m))
    for rows, cols in cells:
        p = _softmax(_mm(q[rows, cols], k[rows, cols].T))
        _mm(p, v[rows, cols], out=merged[rows, cols])
    rx, rwq, rwk, rwv, rwo = (t.requires_grad for t in parents)

    def backward(g):
        gm = _mm(g, wod.T)
        gq, gk, gv = np.empty((n, m)), np.empty((n, m)), np.empty((n, m))
        for rows, cols in cells:
            qc, kc, gc = q[rows, cols], k[rows, cols], gm[rows, cols]
            p = _softmax(_mm(qc, kc.T))
            _mm(p.T, gc, out=gv[rows, cols])
            gs = _mm(gc, v[rows, cols].T)  # d loss / d p
            gs -= (gs * p).sum(axis=1, keepdims=True)
            gs *= p  # d loss / d (q k^T)
            _mm(gs, kc, out=gq[rows, cols])
            _mm(gs.T, qc, out=gk[rows, cols])
        gq *= s
        gx = None
        if rx:
            gx = _mm(gq, wqd.T)
            gx += _mm(gk, wkd.T)
            gx += _mm(gv, wvd.T)
        return (
            gx,
            _mm(xd.T, gq) if rwq else None,
            _mm(xd.T, gk) if rwk else None,
            _mm(xd.T, gv) if rwv else None,
            _mm(merged.T, g) if rwo else None,
        )

    return _record(Tensor(_mm(merged, wod)), parents, backward)


def layer_norm_rows(
    x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5, residual: Tensor | None = None
) -> Tensor:
    """Row-wise layer norm of x, or of x + residual as one node; each of x
    and residual then gets its own gradient array.

    Forward and backward run over blocks of _BLOCK rows, so their
    temporaries are block-sized. On a tape the node saves the normalized
    rows (n x d) and each row's inverse deviation (n x 1), and no residual
    sum; without a tape the normalized rows are one block-sized buffer."""
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeError(f"layer norm gain/bias must be (1, {x.cols})")
    if residual is None:
        parents = (x, gain, bias)
    else:
        _same_shape("layer_norm_rows residual", x, residual)
        parents = (x, gain, bias, residual)
    keep = _recording(parents)
    n, d = x.shape
    blocks = _row_blocks(n)
    xh = np.empty((n, d) if keep else (min(n, _BLOCK), d))
    inv = np.empty((n, 1))
    y = np.empty((n, d))
    for rows, part in blocks:
        xb, yb, xr = xh[rows if keep else part], y[rows], x.data[rows]
        if residual is None:
            np.subtract(xr, xr.mean(axis=1, keepdims=True), out=xb)
        else:
            np.add(xr, residual.data[rows], out=xb)
            xb -= xb.mean(axis=1, keepdims=True)
        np.square(xb, out=yb)
        inv[rows] = 1.0 / np.sqrt(yb.mean(axis=1, keepdims=True) + eps)
        xb *= inv[rows]
        np.multiply(xb, gain.data, out=yb)
        yb += bias.data

    rx, rgain, rbias = x.requires_grad, gain.requires_grad, bias.requires_grad
    fused = residual is not None
    rres = fused and residual.requires_grad
    gaind = gain.data if rx or rres else None

    def backward(g):
        ggain = np.zeros((1, d)) if rgain else None
        gbias = np.zeros((1, d)) if rbias else None
        gx = np.empty((n, d)) if rx or rres else None
        for rows, _ in blocks:
            gr, xb = g[rows], xh[rows]
            tmp = gr * xb
            if rgain:
                ggain += tmp.sum(axis=0, keepdims=True)
            if rbias:
                gbias += gr.sum(axis=0, keepdims=True)
            if gx is not None:
                gxb = gx[rows]
                np.multiply(gr, gaind, out=gxb)
                m1 = gxb.mean(axis=1, keepdims=True)
                np.multiply(gxb, xb, out=tmp)
                m2 = tmp.mean(axis=1, keepdims=True)
                gxb -= m1
                np.multiply(xb, m2, out=tmp)
                gxb -= tmp
                gxb *= inv[rows]
        if not fused:
            return gx, ggain, gbias
        # copies: the tape adds into adjoints in place, so no array is shared
        gr = gx.copy() if rx and rres else gx
        return gx, ggain, gbias, gr

    return _record(Tensor(y), parents, backward)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum().reshape(1, 1))
    shape = x.shape

    def backward(g):
        return (np.full(shape, g[0, 0]),)

    return _record(out, (x,), backward)


def pick_rows(x: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("pick_rows expects a flat index list")
    out = Tensor(x.data[idx])
    shape = x.shape

    def backward(g):
        gx = np.zeros(shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(out, (x,), backward)


def slice_rows(x: Tensor, i0: int, i1: int) -> Tensor:
    out = Tensor(x.data[i0:i1])
    shape = x.shape

    def backward(g):
        gx = np.zeros(shape)
        gx[i0:i1] = g
        return (gx,)

    return _record(out, (x,), backward)


def concat_rows(parts) -> Tensor:
    parts = tuple(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.rows for p in parts])
    needs = [p.requires_grad for p in parts]

    def backward(g):
        return tuple(
            g[offsets[i]:offsets[i + 1]].copy() if need else None for i, need in enumerate(needs)
        )

    return _record(out, parts, backward)


def reshape(x: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != x.rows * x.cols:
        raise ShapeError(f"cannot reshape {x.shape} to ({rows}, {cols})")
    out = Tensor(x.data.reshape(rows, cols))
    shape = x.shape

    def backward(g):
        return (g.reshape(shape),)

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
