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

The tape alone decides which parents get a gradient: a backward returns one
gradient per parent, in order, and the sweep drops the ones whose link is
None (a backward that returns another number raises). No op reads its
parents' `requires_grad`, except that `ffn` skips its input's gradient when
the input needs none: the input MLP's input is the constant embedding, and
that gradient would cost an n x emb_dim array and one product per row block.
An absent relation head's weights, whose gradient is zero, get None.
A gradient is an array of the parent's shape, except `pick_rows`': its
picked rows alone (`_RowGrad`), so that selective pooling builds no n-row
zero array to scatter a few hundred rows into.

The sweep keeps one adjoint map, keyed by a node's serial or by a leaf, and
one helper adds every contribution into it, the loss's seed of 1 included; a
leaf's sum starts from its `.grad`. It adds out of place (adjoint +
contribution into a new array) and never writes into an array a backward
returned, so a backward may hand one array to two parents, as `add` does and
the fused `layer_norm_rows` does to x and the residual. A row gradient is
added into a copy of the dense adjoint, and made dense (`_dense`) when its
node runs or a leaf takes it. Selective pooling's indices come from
`np.unique`, so each row gets one addition and the sum has the bits of
adding the dense gradient. A leaf's `.grad` is a copy only when another leaf
already holds that array.

A tensor may carry a row source: a function that rebuilds any block of its
rows, bit for bit, from arrays that are kept anyway. A taped
`layer_norm_rows` output has one (its node's normalized rows times the gain,
plus the bias, the forward's own two ops), a taped `ffn` output has one (the
forward's row blocks, rebuilt whole with the forward's own calls from the
input's row source and the weights), and so has an `embed` output (the
table's rows plus the positional encodings). `ffn` and `windowed_attention`,
the ops that read their input again in backward, keep that source in place
of the input's array, so neither holds an n-row copy of a layer norm's, an
ffn's or an embedding's output. Backward rebuilds each block into one
block-sized buffer; a tensor without a source is read from its own data.

A tape is single-use: `backward` pops each node as it runs it, so every
array a node saved for its gradient is freed during the sweep, and a second
`backward` on the same tape, a loss the tape did not record, or a gradient
reaching a tensor that another tape recorded raises TapeError. Leaf `.grad`s
are written only once the sweep has finished, so a raising sweep writes none.

`add`, the one elementwise op, takes operands of equal shape; nothing
broadcasts, and a bias row is added inside the op whose weights it goes
with. A two-layer MLP goes through `ffn`, gelu(x @ w1 + b1) @ w2 + b2 as one
node that keeps x's row source alone: backward computes x @ w1 + b1, gelu
and its derivative again, one row block at a time.
`layer_norm_rows(x, gain, bias, residual=r)` normalizes x + r as one node,
keeping the normalized rows and each row's inverse deviation.

`windowed_attention` is one single-head node per attention sublayer, run
one window at a time: each window projects its own q, k and v, and takes its
queries _BLOCK rows at a time against all of the window's keys, as
memory-efficient exact attention does (Rabe & Staats 2021; FlashAttention,
Dao et al. 2022). One head costs the same multiplies as any split of the
width into heads: rows x window x width for q k^T and again for e v. A
block's exponentials exp(q k^T - max) go into one _BLOCK x window buffer,
and its rows of softmax(q k^T) v, computed as (e v) / sum e, into one
window-sized merged buffer, which is multiplied by the output projection.
It saves x's row source and each row's max and sum alone, two n-long
arrays; backward recomputes each window's q, k and v and each block's
exponentials and merged rows, so no n-row q, k, v or merged array is kept,
and no matrix against a window's keys has more than _BLOCK rows.

`relation_scores` is the whole relation head as one node, from the pooled
rows x to the (|L|, |H|) scores, and `relation_argmax` prediction's row
argmax of the same scores with no node. Both check the operands once
(`_relation_runs`) and run one generator, `_score_blocks`, over each head's
run of attributes: it projects the head's attribute rows of x, x[l_rows] @
wk + bk, and drug rows, x[h_rows] @ wq, and yields the scores _SCORE_ROWS
rows at a time, the projections' product plus the distance polynomial
(a D + b) D, with the token distances D recomputed from integer positions
each time. `relation_scores` writes the blocks into one (|L|, |H|) output
and saves the gathered drug and attribute rows and each block's (head,
rows) alone; backward recomputes the projections and D again.
`relation_argmax` keeps each row's argmax and nothing (|L|, |H|).

`cross_entropy_rows` is each of the model's losses as one node: minus the
log-softmax at a list of target cells, any number per row, summed and
divided by a norm. It builds no dense one-hot target.

`ffn` and `layer_norm_rows` run forward and backward over blocks of
_BLOCK = 256 rows: a block of the ffn hidden layer (256 x 128 float64s at the
default width, 256 KB) stays in L2 cache, and their temporaries are
block-sized, so neither training nor prediction builds an n x ffn_hidden
array.

gelu uses the tanh approximation as the defined contract:
    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))
`gelu` and `ffn` share one implementation of it. `gelu` saves its input and
`ffn` its input's row source, not the derivative: the forward computes gelu
alone, and the derivative is computed in backward.
"""

import itertools
from typing import NamedTuple

import numpy as np

from . import fourier
from .instrument import COUNTER


class ShapeError(ValueError):
    """Raised on incompatible operand shapes."""


_TAPES: list["Tape"] = []
_TAPE_IDS = itertools.count()
_ELSEWHERE = object()  # the link to a tensor that another tape recorded
_BLOCK = 256  # rows per block in ffn and layer_norm_rows, and query rows in attention
_LN_EPS = 1e-5  # added to each row's variance in layer_norm_rows
# rows per block of the relation scores: a block's distances and polynomial,
# two buffers of 128 x |H| float64s (580 KB at |H| = 283), stay in L2 cache
_SCORE_ROWS = 128


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
    """`source`, when given, rebuilds any block of rows of `data` bit for bit
    from arrays that are kept anyway: `source(rows, out)` writes data[rows]
    into `out`, a buffer of that block's shape, and returns it."""

    def __init__(self, data, requires_grad: bool = False, source=None):
        self.data = _as2d(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.source = source
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


class _RowGrad(NamedTuple):
    """A gradient of the given shape that is zero but on some rows: row
    rows[i] is values[i], summed where a row repeats."""

    rows: np.ndarray
    values: np.ndarray
    shape: tuple

    def into(self, dense: np.ndarray) -> np.ndarray:
        np.add.at(dense, self.rows, self.values)
        return dense


def _dense(g) -> np.ndarray:
    """g as an array: a _RowGrad's rows added into zeros, else g itself."""
    return g.into(np.zeros(g.shape)) if isinstance(g, _RowGrad) else g


def _sum(a, b) -> np.ndarray:
    """a + b in a new array, where either may be a _RowGrad: its rows are
    added into a copy of the other."""
    if isinstance(b, _RowGrad):
        a, b = b, a
    if not isinstance(a, _RowGrad):
        return a + b
    return a.into(_dense(b) if isinstance(b, _RowGrad) else b.copy())


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
        emptying the tape. `accumulate` puts every contribution, the loss's
        seed of 1 included, into one adjoint map keyed by a node's serial or
        by a leaf; a leaf's sum starts from its .grad, and a parent linked as
        None gets none. Sums are out of place, never into an array a backward
        returned, so a backward may return one array for two parents; nothing
        else names the old adjoint of a sum, so it is freed at once."""
        if loss.shape != (1, 1):
            raise ShapeError(f"backward seed must be 1x1, got {loss.shape}")
        if self._spent:
            raise TapeError("backward already ran on this tape; record the graph on a new tape")
        if loss._node is not None and loss._node[0] != self._id:
            raise TapeError("the loss was not recorded on this tape")
        self._spent = True
        adjoint = {}

        def accumulate(link, contrib):
            if link is None or contrib is None:
                return
            if link is _ELSEWHERE:
                raise TapeError("gradient reached a tensor that another tape recorded")
            start = adjoint.get(link, link.grad if isinstance(link, Tensor) else None)
            adjoint[link] = contrib if start is None else _sum(start, contrib)

        accumulate(self._link(loss), np.ones((1, 1)))
        nodes = self.nodes
        while nodes:
            serial, links, backward = nodes.pop()
            g = adjoint.pop(serial, None)
            if g is not None:
                for link, contrib in zip(links, backward(_dense(g)), strict=True):
                    accumulate(link, contrib)
            contrib = None  # else the last one lives on through the next node
        held = set()  # ids of the arrays already given to a leaf
        for leaf, grad in adjoint.items():  # leaves alone: each node popped its own
            grad = _dense(grad)
            leaf.grad = grad.copy() if id(grad) in held else grad
            held.add(id(leaf.grad))


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


def _row_blocks(n: int, size: int = _BLOCK, lo: int = 0):
    """(rows, buffer rows) per block of `size` rows from row lo to row n: the
    block's slice of an array and the matching leading slice of a
    block-sized buffer."""
    return [(slice(i, min(i + size, n)), slice(0, min(size, n - i))) for i in range(lo, n, size)]


def _row_source(x: Tensor):
    """The function (rows, out) -> x.data[rows] an op's backward reads
    blocks of x's rows through: x's `source` if it has one, so the node
    keeps no array of x's own, else a view of x.data that leaves the block
    buffer `out` unused."""
    if x.source is not None:
        return x.source
    data = x.data
    return lambda rows, out: data[rows]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    out = Tensor(_mm(a.data, b.data))
    ad, bd = a.data, b.data

    def backward(g):
        return _mm(g, bd.T), _mm(ad.T, g)

    return _record(out, (a, b), backward)


def _check_affine(op: str, x_shape, w: Tensor, b: Tensor):
    if x_shape[1] != w.rows:
        raise ShapeError(f"{op}: inner dimensions disagree: {x_shape} x {w.shape}")
    if b.shape != (1, w.cols):
        raise ShapeError(f"{op}: bias must be (1, {w.cols}), got {b.shape}")


def _same_shape(op: str, a: Tensor, b: Tensor):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: elementwise ops take equal shapes: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    out = Tensor(a.data + b.data)

    def backward(g):
        return g, g

    return _record(out, (a, b), backward)


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

    On a tape the node keeps x's row source (`_row_source`) alone: a layer
    norm's, an ffn's or an embedding's output is rebuilt block by block from
    what its own producer keeps, and only a plain x is held. Backward
    recomputes each block's pre-activation x @ w1 + b1 with the forward's
    own call, so it is bit for bit the same, then gelu and its derivative
    from it, and sums the weight and bias gradients over the blocks. The
    output's `source` runs the forward again on each whole block that the
    rows asked for touch, from the same source and weights. Nothing
    n x ffn_hidden is built, taped or not."""
    parents = (x, w1, b1, w2, b2)
    _check_affine("ffn", x.shape, w1, b1)
    _check_affine("ffn", (x.rows, w1.cols), w2, b2)
    n, hidden = x.rows, w1.cols
    blocks = _row_blocks(n)
    w1d, b1d, w2d, b2d = w1.data, b1.data, w2.data, b2.data

    def pre(xb, h):
        """xb @ w1 + b1 on one block of rows, written into h."""
        _mm(xb, w1d, out=h)
        h += b1d
        return h

    def run(xb, h, out):
        """The forward on one block of rows: written into out, via h."""
        hb = pre(xb, h)
        _gelu(hb, hb)
        yb = _mm(hb, w2d, out=out)
        yb += b2d

    h = np.empty((min(n, _BLOCK), hidden))
    y = np.empty((n, w2.cols))
    for rows, part in blocks:
        run(x.data[rows], h[part], y[rows])

    rx = x.requires_grad  # False on the input MLP's constant embedding: no n x emb_dim gradient
    x_rows = _row_source(x)
    x_shape, w1_shape, w2_shape = x.shape, w1.shape, w2.shape

    source = None
    if _recording(parents):

        def source(rows, out):
            # whole forward blocks, rebuilt by the forward's own calls, so
            # rows that straddle two blocks get the same bits too
            h = np.empty((min(n, _BLOCK), hidden))
            xbuf = np.empty((min(n, _BLOCK), x_shape[1]))
            ybuf = np.empty((min(n, _BLOCK), w2_shape[1]))
            for block, part in blocks[rows.start // _BLOCK:(rows.stop - 1) // _BLOCK + 1]:
                run(x_rows(block, xbuf[part]), h[part], ybuf[part])
                lo, hi = max(block.start, rows.start), min(block.stop, rows.stop)
                out[lo - rows.start:hi - rows.start] = ybuf[lo - block.start:hi - block.start]
            return out

    def backward(g):
        gx = np.empty(x_shape) if rx else None
        gw1, gb1, gw2 = np.zeros(w1_shape), np.zeros((1, hidden)), np.zeros(w2_shape)
        h = np.empty((min(n, _BLOCK), hidden))
        xbuf = np.empty((min(n, _BLOCK), x_shape[1]))  # a rebuilt block of x
        for rows, part in blocks:
            xb, hb, gr = x_rows(rows, xbuf[part]), h[part], g[rows]
            dh = _gelu(pre(xb, hb), hb, derivative=True)
            gw2 += _mm(hb.T, gr)
            dh *= _mm(gr, w2d.T)
            if rx:
                _mm(dh, w1d.T, out=gx[rows])
            gw1 += _mm(xb.T, dh)
            gb1 += dh.sum(axis=0, keepdims=True)
        return gx, gw1, gb1, gw2, g.sum(axis=0, keepdims=True)

    return _record(Tensor(y, source=source), parents, backward)


def softmax_rows(x: Tensor) -> Tensor:
    y = x.data - x.data.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return _record(out, (x,), backward)


def cross_entropy_rows(logits: Tensor, rows, cols, norm: float) -> Tensor:
    """-sum_k log softmax(logits)[rows[k], cols[k]] / norm, as one 1 x 1 node.

    Only the rows that hold a target cell are normalized, and the node saves
    their softmax alone. Backward gives each such row (count * softmax - its
    one-hot target cells) * g / norm, with count its number of cells, and
    every other row 0; no dense one-hot is built."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise ShapeError(f"cross_entropy_rows: rows {rows.shape} and cols {cols.shape} must be equal flat lists")
    (n, c), norm = logits.shape, float(norm)
    if rows.size and not (0 <= rows.min() and rows.max() < n and 0 <= cols.min() and cols.max() < c):
        raise ShapeError(f"cross_entropy_rows: a target cell lies outside {(n, c)}")
    if not norm > 0:
        raise ValueError(f"cross_entropy_rows: norm must be > 0, got {norm}")
    hit, at, count = np.unique(rows, return_inverse=True, return_counts=True)
    z = logits.data[hit]
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    total = p.sum(axis=1, keepdims=True)
    picked = z[at, cols] - np.log(total[at, 0])
    p /= total

    def backward(g):
        s = g[0, 0] / norm
        gx = np.zeros((n, c))
        gx[hit] = p * (count[:, None] * s)
        np.subtract.at(gx, (rows, cols), s)
        return (gx,)

    return _record(Tensor(-picked.sum() / norm), (logits,), backward)


def _exp_scores(qb: np.ndarray, k: np.ndarray, out: np.ndarray, top: np.ndarray | None = None):
    """(e, top): e = exp(qb k^T - top), written into `out`, a buffer of
    (rows of qb, rows of k), and top each row's max of qb k^T unless it is
    given. Fed the forward's top, backward rebuilds the forward's e bit for
    bit."""
    z = _mm(qb, k.T, out=out)
    if top is None:
        top = z.max(axis=1)
    z -= top[:, None]
    np.exp(z, out=z)
    return z, top


def windowed_attention(
    x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, window: int
) -> Tensor:
    """Single-head self-attention inside non-overlapping windows of `window`
    rows, as one node, run one window at a time: each window projects its
    own rows, q = x @ wq scaled by m^-0.5 (m = wq's width), k = x @ wk and
    v = x @ wv, and takes its queries _BLOCK rows at a time against all of
    the window's keys. A block's exponentials e = exp(q k^T - max) go into
    one reused _BLOCK x window buffer, and its merged rows, softmax(q k^T) v
    = (e v) / sum e, into one window-sized buffer, which is then multiplied
    by wo into the window's output rows. No row attends across a window
    boundary.

    On a tape the node saves x's row source (`_row_source`) and each row's
    max and sum, two n-long arrays. Backward walks the windows again, reads
    each window's rows of x once through that source, recomputes its q, k
    and v and each block's exponentials (`_exp_scores`, from the saved max)
    and merged rows with the forward's own calls, so they are bit-identical
    to it, and sums wo's gradient window by window. In neither pass does a
    q, k, v or merged array hold more than one window's rows, or a matrix
    against a window's keys more than _BLOCK query rows."""
    parents = (x, wq, wk, wv, wo)
    d, m = x.cols, wq.cols
    for name, w in (("wq", wq), ("wk", wk), ("wv", wv)):
        if w.shape != (d, m):
            raise ShapeError(f"windowed_attention: {name} must be ({d}, {m}), got {w.shape}")
    if wo.rows != m:
        raise ShapeError(f"windowed_attention: wo must have {m} rows, got {wo.shape}")
    if window < 1:
        raise ShapeError(f"windowed_attention: window must be >= 1, got {window}")
    n = x.rows
    s = m ** -0.5
    windows = _row_blocks(n, window)
    wqd, wkd, wvd, wod = (t.data for t in parents[1:])
    top, total = np.empty((2, n))  # each row's max and sum of e

    def buffers():
        """One window's merged rows and one block's exponentials."""
        return np.empty((min(n, window), m)), np.empty(min(n, _BLOCK) * min(n, window))

    def project(xr):
        q = _mm(xr, wqd)
        q *= s
        return q, _mm(xr, wkd), _mm(xr, wvd)

    def query_blocks(lo, q, k, v, merged, ebuf, saved):
        """The window's query blocks from row lo: writes each block's
        exponentials into ebuf and its merged rows into merged, then yields
        (rows in the window, e, merged rows, sum e). Without `saved` it takes
        each row's max and sum of e and saves them; with it, it reads them
        back."""
        r = k.shape[0]
        for rows, _ in _row_blocks(r):
            at = slice(lo + rows.start, lo + rows.stop)
            out = ebuf[:(rows.stop - rows.start) * r].reshape(-1, r)
            e, t = _exp_scores(q[rows], k, out, top[at] if saved else None)
            if not saved:
                top[at] = t
                e.sum(axis=1, out=total[at])
            tot = total[at, None]
            mb = _mm(e, v, out=merged[rows])
            mb /= tot
            yield rows, e, mb, tot

    y = np.empty((n, wo.cols))
    merged, ebuf = buffers()
    for rows, part in windows:
        q, k, v = project(x.data[rows])
        for _ in query_blocks(rows.start, q, k, v, merged, ebuf, saved=False):
            pass  # the forward needs only the merged rows
        _mm(merged[part], wod, out=y[rows])
    x_rows = _row_source(x)

    def backward(g):
        gx, gwo = np.empty((n, d)), np.zeros(wod.shape)
        gwq, gwk, gwv = (np.zeros((d, m)) for _ in range(3))
        xbuf = np.empty((min(n, window), d))
        merged, ebuf = buffers()
        dbuf = np.empty_like(ebuf)  # one block's d loss / d (q k^T)
        for rows, part in windows:
            xr = x_rows(rows, xbuf[part])
            q, k, v = project(xr)
            gr = g[rows]
            gm = _mm(gr, wod.T)
            gq, gk, gv = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
            for b, e, mb, tot in query_blocks(rows.start, q, k, v, merged, ebuf, saved=True):
                # d loss / d (q k^T) = e (gm v^T - gm . merged) / sum e, with
                # gm scaled by 1 / sum e on the m side
                gl = gm[b] / tot
                gv += _mm(e.T, gl)
                gs = _mm(gl, v.T, out=dbuf[:e.size].reshape(e.shape))
                gs -= (gl * mb).sum(axis=1, keepdims=True)
                gs *= e
                _mm(gs, k, out=gq[b])
                gk += _mm(gs.T, q[b])
            gq *= s
            gxr = _mm(gq, wqd.T, out=gx[rows])
            gxr += _mm(gk, wkd.T)
            gxr += _mm(gv, wvd.T)
            gwq += _mm(xr.T, gq)
            gwk += _mm(xr.T, gk)
            gwv += _mm(xr.T, gv)
            gwo += _mm(merged[part].T, gr)
        return gx, gwq, gwk, gwv, gwo

    return _record(Tensor(y), parents, backward)


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, residual: Tensor | None = None) -> Tensor:
    """Row-wise layer norm of x, or of x + residual as one node; backward
    then returns one gradient array for both.

    Forward and backward run over blocks of _BLOCK rows, so their
    temporaries are block-sized. On a tape the node saves the normalized
    rows xh (n x d) and each row's inverse deviation (n x 1), and no residual
    sum, and the output's `source` rebuilds its rows as xh[rows] * gain +
    bias, the forward's own two ops; without a tape the normalized rows are
    one block-sized buffer."""
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
    gd, bd, n_parents = gain.data, bias.data, len(parents)
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
        inv[rows] = 1.0 / np.sqrt(yb.mean(axis=1, keepdims=True) + _LN_EPS)
        xb *= inv[rows]
        np.multiply(xb, gd, out=yb)
        yb += bd

    source = None
    if keep:

        def source(rows, out):
            np.multiply(xh[rows], gd, out=out)
            out += bd
            return out

    def backward(g):
        ggain, gbias, gx = np.zeros((1, d)), np.zeros((1, d)), np.empty((n, d))
        for rows, _ in blocks:
            gr, xb, gxb = g[rows], xh[rows], gx[rows]
            tmp = gr * xb
            ggain += tmp.sum(axis=0, keepdims=True)
            gbias += gr.sum(axis=0, keepdims=True)
            np.multiply(gr, gd, out=gxb)
            m1 = gxb.mean(axis=1, keepdims=True)
            np.multiply(gxb, xb, out=tmp)
            m2 = tmp.mean(axis=1, keepdims=True)
            gxb -= m1
            np.multiply(xb, m2, out=tmp)
            gxb -= tmp
            gxb *= inv[rows]
        return (gx, ggain, gbias, gx)[:n_parents]  # x and the residual share gx

    return _record(Tensor(y, source=source), parents, backward)


def pick_rows(x: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("pick_rows expects a flat index list")
    out = Tensor(x.data[idx])
    shape = x.shape

    def backward(g):
        return (_RowGrad(idx, g, shape),)

    return _record(out, (x,), backward)


def _distances(pos_l, pos_h):
    """The function (rows, buffer) -> |pos_l[rows] - pos_h|, the token
    distances D of those attributes to every drug, written into the buffer:
    exact, since the positions are integers below 2**53."""
    left = np.asarray(pos_l, dtype=np.float64)[:, None]
    right = np.asarray(pos_h, dtype=np.float64)

    def distances(rows, buffer):
        return np.abs(np.subtract(left[rows], right, out=buffer), out=buffer)

    return distances


def _relation_runs(x: Tensor, l_rows, h_rows, heads, weights, alpha: Tensor, pos_l, pos_h):
    """Check relation scoring's operands. Returns l_rows and h_rows as index
    arrays and (j, run) for each head j present, ascending, with run the
    slice of attributes under head j."""
    l_rows, h_rows, heads = (np.asarray(a, dtype=np.intp) for a in (l_rows, h_rows, heads))
    if l_rows.ndim != 1 or h_rows.ndim != 1 or heads.shape != l_rows.shape:
        raise ShapeError(f"relation_scores: {heads.size} heads for {l_rows.size} attribute rows")
    if np.any(heads[1:] < heads[:-1]) or heads.size and not 0 <= heads[0] <= heads[-1] < len(weights):
        raise ShapeError(
            f"relation_scores: heads must ascend (grouped by head) in [0, {len(weights)}), got {heads.tolist()}"
        )
    if alpha.shape != (len(weights), 2):
        raise ShapeError(f"relation_scores: alpha must hold one (a, b) row per head, got {alpha.shape}")
    if (len(pos_l), len(pos_h)) != (l_rows.size, h_rows.size):
        raise ShapeError(
            f"relation_scores: positions must be (|L|, |H|) = {(l_rows.size, h_rows.size)}, "
            f"got {(len(pos_l), len(pos_h))}"
        )
    both = np.concatenate([l_rows, h_rows])
    if both.size and not (0 <= both.min() and both.max() < x.rows):
        raise ShapeError(f"relation_scores: a row index lies outside x's {x.rows} rows")
    present, starts = np.unique(heads, return_index=True)
    ends = [*starts[1:].tolist(), heads.size]
    runs = [(j, slice(lo, hi)) for j, lo, hi in zip(present.tolist(), starts.tolist(), ends)]
    for j, _ in runs:
        shapes, m = [w.shape for w in weights[j]], weights[j][0].cols
        if shapes != [(x.cols, m), (x.cols, m), (1, m)]:
            raise ShapeError(f"relation_scores: head {j}'s (wq, wk, bk) must be {(x.cols, m)}, "
                             f"{(x.cols, m)} and {(1, m)}, got {shapes}")
    return l_rows, h_rows, runs


def _head_projections(xq, xk, wq, wk, bk):
    """(xq @ wq, xk @ wk + bk): a head's drug and attribute rows projected."""
    k = _mm(xk, wk)
    k += bk
    return _mm(xq, wq), k


def _score_blocks(xq, xk, runs, weights, alpha, pos_l, pos_h, out=None):
    """Yield (head, rows, scores) for each block of at most _SCORE_ROWS rows
    inside a head's run: the block's distances D and polynomial (a D + b) D
    into two block-sized buffers, then its product k[rows] @ q^T, and their
    sum while both are still in cache. xq holds the drugs' rows and xk the
    attributes'; each head projects them once, q = xq @ wq and, for its run,
    k = xk[run] @ wk + bk, and copies q^T into a contiguous array: OpenBLAS's
    AVX-512 kernels sum a product with the transposed view in an order that
    depends on the thread count. The scores are out[rows] when `out` is
    given, else they overwrite the block's distances, and the next block
    overwrites them."""
    distances = _distances(pos_l, pos_h)
    buffers = np.empty((2, min(len(xk), _SCORE_ROWS), len(xq)))
    for j, run in runs:
        q, k = _head_projections(xq, xk[run], *(w.data for w in weights[j]))
        qt = np.ascontiguousarray(q.T)
        a, b = alpha.data[j]
        for rows, part in _row_blocks(run.stop, _SCORE_ROWS, run.start):
            d, t = distances(rows, buffers[0, part]), buffers[1, part]
            np.multiply(d, a, out=t)
            t += b
            t *= d
            s = out[rows] if out is not None else d
            _mm(k[rows.start - run.start:rows.stop - run.start], qt, out=s)
            s += t
            yield j, rows, s


def relation_scores(x: Tensor, l_rows, h_rows, heads, weights, alpha: Tensor, pos_l, pos_h) -> Tensor:
    """Relation scores of attributes against drugs, (|L|, |H|), as one node.

    Attribute l is row l_rows[l] of the pooled rows x, and drug h row
    h_rows[h]; heads[l] is attribute l's head, ascending, and weights[j] =
    (wq, wk, bk) head j's projections. Row l is (x[l_rows[l]] wk + bk)
    (x[h_rows] wq)^T plus (a D + b) D, with (a, b) = alpha[heads[l]] and D
    the token distance |pos_l[l] - pos_h|. `_score_blocks` writes the scores
    straight into the output, _SCORE_ROWS rows at a time. The node keeps the
    drugs' and attributes' rows of x alone.

    Backward recomputes each head's projections with the forward's calls.
    It sums the drugs' gradient over the heads from the last down, and
    scatters the attributes' and then the drugs' rows into one x gradient,
    so a row shared by a drug and an attribute gets both. An absent head's
    weights get no gradient. Row j of alpha's gradient is the sums of g D^2
    and g D over head j's rows, with D recomputed for each block the loop
    visited."""
    l_rows, h_rows, runs = _relation_runs(x, l_rows, h_rows, heads, weights, alpha, pos_l, pos_h)
    nl, nh = len(l_rows), len(h_rows)
    xq, xk = x.data[h_rows], x.data[l_rows]
    out = np.empty((nl, nh))
    layout = [(j, rows) for j, rows, _ in _score_blocks(xq, xk, runs, weights, alpha, pos_l, pos_h, out)]
    distances = _distances(pos_l, pos_h)
    parents = (x, *(w for triple in weights for w in triple), alpha)
    wd = [[w.data for w in triple] for triple in weights]
    x_shape = x.shape

    def backward(g):
        gw = [[None] * 3 for _ in wd]
        gq, gk = np.zeros(xq.shape), np.empty(xk.shape)
        for j, run in reversed(runs):
            wq, wk, bk = wd[j]
            q, k = _head_projections(xq, xk[run], wq, wk, bk)
            gkj, gqj = _mm(g[run], q), _mm(g[run].T, k)
            gw[j] = [_mm(xq.T, gqj), _mm(xk[run].T, gkj), gkj.sum(axis=0, keepdims=True)]
            _mm(gkj, wk.T, out=gk[run])
            gq += _mm(gqj, wq.T)
        gx = np.zeros(x_shape)
        np.add.at(gx, l_rows, gk)
        np.add.at(gx, h_rows, gq)
        galpha = np.zeros((len(wd), 2))
        buffers = np.empty((2, min(nl, _SCORE_ROWS), nh))
        for j, rows in layout:
            d, t = buffers[:, :rows.stop - rows.start]
            np.multiply(g[rows], distances(rows, d), out=t)
            galpha[j, 1] += t.sum()
            t *= d
            galpha[j, 0] += t.sum()
        return (gx, *(grad for triple in gw for grad in triple), galpha)

    return _record(Tensor(out), parents, backward)


def relation_argmax(x: Tensor, l_rows, h_rows, heads, weights, alpha: Tensor, pos_l, pos_h) -> np.ndarray:
    """Each row's argmax of relation_scores(...).data on the same operands,
    ties to the lowest column, from the same block loop and so from the
    same scores bit for bit. No tape: each block's scores live in one
    block-sized buffer, so no (|L|, |H|) array is made."""
    l_rows, h_rows, runs = _relation_runs(x, l_rows, h_rows, heads, weights, alpha, pos_l, pos_h)
    best = np.empty(len(l_rows), dtype=np.intp)
    for _, rows, s in _score_blocks(x.data[h_rows], x.data[l_rows], runs, weights, alpha, pos_l, pos_h):
        np.argmax(s, axis=1, out=best[rows])
    return best


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
