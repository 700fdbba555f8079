import gc
import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from jnrf import fourier, tensor as T
from jnrf.embedding import EmbeddingTable, embed
from jnrf.instrument import COUNTER
from jnrf.tensor import ShapeError, Tape, TapeError, Tensor

from oracles import (
    all_heads_relation_scores,
    composed_cross_entropy_rows,
    concat_rows,
    fd_grad,
    layer_norm_input_grad,
    linear,
    linear_map_matrix,
    mul,
    naive_mix,
    rel_err,
    scalar_gelu,
    scalar_gelu_grad,
    scalar_layer_norm,
    scale,
    sum_all,
    transpose,
)


def grad_check(build, arrs, tol=1e-6, h=1e-5, coords=None):
    """build(tensors) -> scalar Tensor; checks tape grads against central
    finite differences for every input array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrs]
    with Tape() as tape:
        loss = build(*tensors)
    tape.backward(loss)

    def value():
        for t, a in zip(tensors, arrs):
            t.data[...] = a
        with Tape():
            return build(*tensors).item()

    for t, a in zip(tensors, arrs):
        want = fd_grad(value, a, h=h, coords=coords)
        got = t.grad if t.grad is not None else np.zeros_like(a)
        if coords is not None:
            mask = np.zeros(a.size, dtype=bool)
            mask[list(coords)] = True
            want = want.ravel()[mask]
            got = got.ravel()[mask]
        assert rel_err(got, want) < tol, f"gradient mismatch for input of shape {a.shape}"


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_orthogonal_vectors(self):
        out = T.matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [1.0]]))
        assert out.data.shape == (1, 1) and out.item() == 0.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 2))
            grad_check(lambda x, y: sum_all(T.matmul(x, y)), [a, b])


# `linear` is the ffn reference's own tape op (oracles.py); it is checked here
class TestLinear:
    def test_forward_is_numpy_affine(self):
        rng = np.random.default_rng(14)
        x, w, b = (rng.standard_normal(s) for s in [(5, 4), (4, 3), (1, 3)])
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.array_equal(out.data, x @ w + b)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.standard_normal((3, 4))
            w = rng.standard_normal((4, 2))
            row = rng.standard_normal((1, 2))
            c = rng.standard_normal((3, 2))
            grad_check(lambda a, m, r, cc: sum_all(mul(linear(a, m, r), cc)), [x, w, row, c])

    def test_gradients_are_matmul_then_row_sum(self):
        rng = np.random.default_rng(15)
        x, w, b = (rng.standard_normal(s) for s in [(6, 4), (4, 3), (1, 3)])
        g = rng.standard_normal((6, 3))
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        with Tape() as tape:
            loss = sum_all(mul(linear(xt, wt, bt), Tensor(g)))
        tape.backward(loss)
        assert np.array_equal(xt.grad, g @ w.T)
        assert np.array_equal(wt.grad, x.T @ g)
        assert np.array_equal(bt.grad, g.sum(axis=0, keepdims=True))

    def test_inner_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError, match=r"linear: inner dimensions.*\(2, 3\).*\(2, 3\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (1, 1)], ids=lambda s: "%dx%d" % s)
    def test_bias_must_be_one_row_of_output_width(self, shape):
        with pytest.raises(ShapeError, match=r"bias must be \(1, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(shape)))

    def test_counts_multiplies_like_matmul(self):
        x, w, b = (Tensor(np.ones(s), requires_grad=True) for s in [(5, 4), (4, 3), (1, 3)])
        m0 = COUNTER.total
        with Tape() as tape:
            loss = sum_all(linear(x, w, b))
        assert COUNTER.total - m0 == 5 * 4 * 3
        tape.backward(loss)
        assert COUNTER.total - m0 == 3 * 5 * 4 * 3


def composed_ffn(x, w1, b1, w2, b2):
    """The two-node reference for T.ffn: linear, gelu, linear."""
    return linear(T.gelu(linear(x, w1, b1)), w2, b2)


class TestFfn:
    SHAPES = [(7, 5), (5, 9), (1, 9), (9, 4), (1, 4)]

    def arrays(self, seed):
        rng = np.random.default_rng(seed)
        # a pre-activation spread over gelu's curved range
        return [rng.standard_normal(s) * 2.0 for s in self.SHAPES]

    def test_forward_is_the_composition_bit_for_bit(self):
        arrs = self.arrays(30)
        plain = T.ffn(*(Tensor(a) for a in arrs))
        with Tape():
            taped = T.ffn(*(Tensor(a, requires_grad=True) for a in arrs))
        want = composed_ffn(*(Tensor(a) for a in arrs))
        assert taped.requires_grad and not plain.requires_grad
        assert np.array_equal(plain.data, want.data)
        assert np.array_equal(taped.data, want.data)

    def test_gradients_are_the_composition_bit_for_bit(self):
        arrs = self.arrays(31)
        g = np.random.default_rng(32).standard_normal((7, 4))
        grads = []
        for op in (T.ffn, composed_ffn):
            ts = [Tensor(a, requires_grad=True) for a in arrs]
            with Tape() as tape:
                loss = sum_all(mul(op(*ts), Tensor(g)))
            tape.backward(loss)
            grads.append([t.grad for t in ts])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            arrs = [rng.standard_normal(s) for s in self.SHAPES]
            c = rng.standard_normal((7, 4))
            grad_check(lambda *ts: sum_all(mul(T.ffn(*ts[:5]), ts[5])), arrs + [c])

    def test_counts_multiplies_like_two_linears(self):
        ts = [Tensor(np.ones(s), requires_grad=True) for s in self.SHAPES]
        m0 = COUNTER.total
        with Tape() as tape:
            loss = sum_all(T.ffn(*ts))
        forward = 7 * 5 * 9 + 7 * 9 * 4
        assert COUNTER.total - m0 == forward
        tape.backward(loss)
        recomputed = 7 * 5 * 9  # backward rebuilds x @ w1 + b1
        gradients = 2 * (7 * 5 * 9 + 7 * 9 * 4)  # each product's gradient by either operand
        assert COUNTER.total - m0 == forward + recomputed + gradients == 2016

    def test_tape_keeps_no_hidden_array(self):
        """A taped ffn over five row blocks keeps x alone for backward, which
        recomputes the pre-activation: what it leaves live besides its output
        (5.5 KB) is under a sixteenth of one n x hidden array (1.06 MB)."""
        n, d, hidden = 4 * T._BLOCK + 7, 16, 128
        rng = np.random.default_rng(34)
        shapes = [(n, d), (d, hidden), (1, hidden), (hidden, d), (1, d)]
        ts = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = T.ffn(*ts)
            kept = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
        finally:
            if started:
                tracemalloc.stop()
        assert len(tape.nodes) == 1
        assert kept < n * hidden * 8 / 16, f"{kept} bytes kept besides the output"

    @pytest.mark.parametrize("which, shape, match", [
        (1, (4, 9), r"ffn: inner dimensions disagree: \(7, 5\) x \(4, 9\)"),
        (2, (9, 1), r"ffn: bias must be \(1, 9\)"),
        (3, (8, 4), r"ffn: inner dimensions disagree: \(7, 9\) x \(8, 4\)"),
        (4, (1, 5), r"ffn: bias must be \(1, 4\)"),
    ])
    def test_shapes_checked(self, which, shape, match):
        ts = [Tensor(np.zeros(s)) for s in self.SHAPES]
        ts[which] = Tensor(np.zeros(shape))
        with pytest.raises(ShapeError, match=match):
            T.ffn(*ts)


B = T._BLOCK
# one row, the edges of one and two blocks, and a short third block
BLOCK_NS = [1, B - 1, B, B + 1, 2 * B + 3]


def boundary_coords(n: int, d: int) -> list[int]:
    """Flat indices of every entry in the first and last rows and in the
    rows on either side of each block edge."""
    edges = {r for e in range(B, n, B) for r in (e - 1, e)}
    rows = sorted(edges | {0, n - 1})
    return [r * d + j for r in rows for j in range(d)]


class TestRowBlocks:
    """ffn and layer_norm_rows at the edges of their row blocks."""

    FFN_SHAPES = [(5, 9), (1, 9), (9, 4), (1, 4)]  # w1, b1, w2, b2

    @pytest.mark.parametrize("n", BLOCK_NS)
    def test_ffn_equals_the_composition(self, n):
        rng = np.random.default_rng(70 + n)
        arrs = [rng.standard_normal(s) * 2.0 for s in [(n, 5), *self.FFN_SHAPES]]
        g = rng.standard_normal((n, 4))
        results = []
        for op in (T.ffn, composed_ffn):
            ts = [Tensor(a, requires_grad=True) for a in arrs]
            with Tape() as tape:
                y = op(*ts)
                loss = sum_all(mul(y, Tensor(g)))
            tape.backward(loss)
            results.append([y.data] + [t.grad for t in ts])
        for got, want in zip(*results):
            assert rel_err(got, want) < 1e-12
        untaped = T.ffn(*(Tensor(a) for a in arrs))
        assert rel_err(untaped.data, results[1][0]) < 1e-12

    @pytest.mark.parametrize("n", BLOCK_NS)
    def test_ffn_gradients_vs_finite_differences(self, n):
        rng = np.random.default_rng(80 + n)
        x = rng.standard_normal((n, 5))
        ws = [rng.standard_normal(s) for s in self.FFN_SHAPES]
        c = Tensor(rng.standard_normal((n, 4)))
        grad_check(
            lambda xx: sum_all(mul(T.ffn(xx, *(Tensor(w, requires_grad=True) for w in ws)), c)),
            [x], coords=boundary_coords(n, 5),
        )
        xt = Tensor(x)
        grad_check(lambda *wts: sum_all(mul(T.ffn(xt, *wts), c)), ws)

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("n", BLOCK_NS)
    def test_layer_norm_matches_the_oracles(self, n, fused):
        rng = np.random.default_rng(90 + n)
        x, r, g = (rng.standard_normal((n, 6)) for _ in range(3))
        gain, bias = rng.standard_normal((1, 6)), rng.standard_normal((1, 6))
        xt, rt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, r, gain, bias))
        with Tape() as tape:
            y = T.layer_norm_rows(xt, gt, bt, residual=rt if fused else None)
            loss = sum_all(mul(y, Tensor(g)))
        tape.backward(loss)
        s = x + r if fused else x
        assert rel_err(y.data, scalar_layer_norm(s, gain, bias)) < 1e-12
        untaped = T.layer_norm_rows(Tensor(x), Tensor(gain), Tensor(bias),
                                    residual=Tensor(r) if fused else None)
        assert np.array_equal(untaped.data, y.data)
        want_gx = layer_norm_input_grad(s, gain, g)
        assert rel_err(xt.grad, want_gx) < 1e-12
        if fused:
            assert rel_err(rt.grad, want_gx) < 1e-12
        xhat = scalar_layer_norm(s, np.ones((1, 6)), np.zeros((1, 6)))
        assert rel_err(gt.grad, (g * xhat).sum(axis=0, keepdims=True)) < 1e-12
        assert rel_err(bt.grad, g.sum(axis=0, keepdims=True)) < 1e-12

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("n", BLOCK_NS)
    def test_layer_norm_gradients_vs_finite_differences(self, n, fused):
        rng = np.random.default_rng(100 + n)
        x, r = rng.standard_normal((n, 6)), rng.standard_normal((n, 6))
        gain, bias = rng.standard_normal((1, 6)), rng.standard_normal((1, 6))
        c = Tensor(rng.standard_normal((n, 6)))
        gbt = [Tensor(gain, requires_grad=True), Tensor(bias, requires_grad=True)]

        def norm(xx, rr, gg, bb):
            return sum_all(mul(T.layer_norm_rows(xx, gg, bb, residual=rr), c))

        rows = [x, r] if fused else [x]
        grad_check(lambda xx, rr=None: norm(xx, rr, *gbt), rows, coords=boundary_coords(n, 6), tol=1e-5)
        xt, rt = Tensor(x), Tensor(r) if fused else None
        grad_check(lambda gg, bb: norm(xt, rt, gg, bb), [gain, bias], tol=1e-5)


class TestRowSources:
    """A taped layer norm's output, a taped ffn's output and an embedding's
    output rebuild any block of their rows; ffn and windowed_attention fed
    such a tensor keep its source, not its data, and give the same output
    and gradients, bit for bit, as when fed a plain copy of it."""

    N, D = 2 * B + 3, 6

    def sourced(self, kind: str) -> Tensor:
        rng = np.random.default_rng(120)
        if kind == "layer_norm":
            x, gain, bias = (rng.standard_normal(s) for s in [(self.N, self.D), (1, self.D), (1, self.D)])
            with Tape():
                t = T.layer_norm_rows(*(Tensor(a, requires_grad=True) for a in (x, gain, bias)))
        else:
            table = EmbeddingTable(rng.standard_normal((50, 4 if kind == "ffn" else self.D)))
            t = embed(rng.integers(0, 50, self.N), table)
        if kind == "ffn":  # the input MLP: an ffn of an embedding
            ws = [rng.standard_normal(s) for s in [(4, 9), (1, 9), (9, self.D), (1, self.D)]]
            with Tape():
                t = T.ffn(t, *(Tensor(w, requires_grad=True) for w in ws))
        assert t.source is not None
        # rows inside one _BLOCK, across one or two block boundaries, all rows
        for rows in (slice(0, 1), slice(B - 1, B + 2), slice(B - 1, 2 * B + 1),
                     slice(self.N - 5, self.N), slice(0, self.N)):
            out = np.empty((rows.stop - rows.start, self.D))
            assert t.source(rows, out) is out
            assert np.array_equal(out, t.data[rows])
        return t

    @pytest.mark.parametrize("kind", ["layer_norm", "embed", "ffn"])
    @pytest.mark.parametrize("op", ["ffn", "windowed_attention"])
    def test_op_fed_a_row_source_equals_it_fed_a_copy(self, op, kind):
        rng = np.random.default_rng(121)
        n, d = self.N, self.D
        if op == "ffn":
            shapes, g_cols = [(d, 9), (1, 9), (9, 4), (1, 4)], 4
            run = T.ffn
        else:
            shapes, g_cols = [(d, 4)] * 3 + [(4, 5)], 5

            def run(x, *ws):
                return T.windowed_attention(x, *ws, window=100, n_heads=2)
        ws = [rng.standard_normal(s) for s in shapes]
        g = rng.standard_normal((n, g_cols))
        t = self.sourced(kind)
        results = []
        for source in (t.source, None):
            x = Tensor(t.data.copy(), requires_grad=True, source=source)
            params = [Tensor(w, requires_grad=True) for w in ws]
            with Tape() as tape:
                y = run(x, *params)
                loss = sum_all(mul(y, Tensor(g)))
            if source is not None:
                x.data[...] = np.nan  # backward reads the source, not x.data
            tape.backward(loss)
            results.append([y.data, x.grad] + [p.grad for p in params])
        for got, want in zip(*results):
            assert np.array_equal(got, want)
        untaped = run(t, *(Tensor(w) for w in ws))
        assert np.array_equal(untaped.data, results[1][0])

    def test_untaped_layer_norm_output_has_no_source(self):
        x = Tensor(np.random.default_rng(122).standard_normal((5, 4)))
        y = T.layer_norm_rows(x, Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4))))
        assert y.source is None

    def test_untaped_ffn_output_has_no_source(self):
        rng = np.random.default_rng(123)
        shapes = [(5, 4), (4, 3), (1, 3), (3, 2), (1, 2)]
        y = T.ffn(*(Tensor(rng.standard_normal(s)) for s in shapes))
        assert y.source is None


# near zero, and |x| in [1.5, 4] where the cubic term of gelu dominates
GELU_POINTS = np.concatenate([[1e-8, -1e-8], np.linspace(1.5, 4.0, 11), -np.linspace(1.5, 4.0, 11)])
GELU_GRID = np.concatenate([np.linspace(-50.0, 50.0, 2001), GELU_POINTS])


class TestElementwise:
    def test_add(self):
        out = T.add(Tensor([[1.0, 1.0]]), Tensor([[2.0, 3.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_gelu_gradient_at_half(self):
        x = np.concatenate([[0.5], GELU_POINTS]).reshape(1, -1)
        grad_check(lambda a: sum_all(T.gelu(a)), [x])

    def test_gelu_matches_scalar_oracle(self):
        got = T.gelu(Tensor(GELU_GRID.reshape(1, -1))).data.ravel()
        want = [scalar_gelu(float(v)) for v in GELU_GRID]
        # rel_err floors the denominator at 1: below x = -3, 1 + tanh cancels,
        # so no float64 evaluation of the formula is relatively accurate there
        assert rel_err(got, want) < 1e-14

    def test_gelu_forward_is_the_same_under_a_tape(self):
        plain = T.gelu(Tensor(GELU_GRID.reshape(1, -1)))
        with Tape():
            taped = T.gelu(Tensor(GELU_GRID.reshape(1, -1), requires_grad=True))
        assert taped.requires_grad and not plain.requires_grad
        assert np.array_equal(taped.data, plain.data)

    def test_gelu_tape_gradient_matches_scalar_oracle(self):
        x = Tensor(GELU_GRID.reshape(1, -1), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(T.gelu(x))
        tape.backward(loss)
        want = [scalar_gelu_grad(float(v)) for v in GELU_GRID]
        assert rel_err(x.grad.ravel(), want) < 1e-13

    def test_column_broadcast_rejected(self):
        # nothing broadcasts: every operand shape other than (3, 2) is refused
        for op in (T.add, mul):
            for shape in [(3, 1), (1, 2), (1, 1)]:
                for a, b in [((3, 2), shape), (shape, (3, 2))]:
                    with pytest.raises(ShapeError, match="equal shapes"):
                        op(Tensor(np.ones(a)), Tensor(np.ones(b)))

    @pytest.mark.parametrize("op", ["add", "mul", "gelu", "scale"])
    def test_gradients_vs_finite_differences(self, op):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        for _ in range(100):
            x = rng.standard_normal((2, 3)) + 0.05
            binary = {"add": T.add, "mul": mul}
            if op == "gelu":
                grad_check(lambda a: sum_all(T.gelu(a)), [x])
            elif op == "scale":
                grad_check(lambda a: sum_all(scale(a, -1.7)), [x])
            else:
                y = rng.standard_normal((2, 3))
                w = rng.standard_normal((2, 3))
                grad_check(lambda a, b, c: sum_all(mul(binary[op](a, b), c)), [x, y, w])


def random_cells(rng, n: int, c: int):
    """Target cells with 0 to 3 per row, a repeated cell now and then."""
    per_row = rng.integers(0, 4, n)
    rows = np.repeat(np.arange(n), per_row)
    return rows, rng.integers(0, c, rows.size)


class TestLogSoftmax:
    """`T.cross_entropy_rows`, the loss node: minus the log-softmax at its
    target cells, summed and divided by norm."""

    def test_uniform_logits(self):
        # one cell per row and norm n: log C
        loss = T.cross_entropy_rows(Tensor(np.zeros((3, 7))), [0, 1, 2], [6, 0, 3], 3)
        assert abs(loss.item() - math.log(7)) < 1e-12

    def test_stabilized_against_overflow(self):
        loss = T.cross_entropy_rows(Tensor([[1000.0, 0.0]]), [0], [0], 1)
        assert np.isfinite(loss.item()) and abs(loss.item()) < 1e-12
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5))
        rows, cols = [0, 1, 1, 3], [2, 0, 4, 4]
        want = T.cross_entropy_rows(Tensor(x), rows, cols, 4).item()
        shifted = Tensor(x + np.array([[1000.0], [-1000.0], [1000.0], [-1000.0]]), requires_grad=True)
        with Tape() as tape:
            loss = T.cross_entropy_rows(shifted, rows, cols, 4)
        tape.backward(loss)
        assert np.all(np.isfinite(shifted.grad))
        assert abs(loss.item() - want) < 1e-12

    def test_rows_exponentiate_to_one(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((5, 7)) * 10)
        for i in range(5):
            probs = [math.exp(-T.cross_entropy_rows(x, [i], [c], 1).item()) for c in range(7)]
            assert abs(math.fsum(probs) - 1.0) < 1e-9

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal((4, 5))
            rows, cols = random_cells(rng, 4, 5)
            grad_check(lambda a: T.cross_entropy_rows(a, rows, cols, 2.5), [x])

    def test_matches_the_composed_form(self):
        """Loss and gradient against log_softmax_rows times a dense count of
        cells, summed and scaled, over rows with no, one and several cells
        and logits scaled up to 300 times."""
        rng = np.random.default_rng(4)
        for k in range(300):
            n, c = rng.integers(1, 9), rng.integers(1, 8)
            x = rng.standard_normal((n, c)) * [1.0, 30.0, 300.0][k % 3]
            rows, cols = random_cells(rng, n, c)
            results = []
            for op in (T.cross_entropy_rows, composed_cross_entropy_rows):
                xt = Tensor(x, requires_grad=True)
                with Tape() as tape:
                    loss = op(xt, rows, cols, n * c)
                tape.backward(loss)
                results.append((loss.item(), xt.grad))
            (got, got_grad), (want, want_grad) = results
            assert rel_err(got, want) < 1e-12
            assert rel_err(got_grad, want_grad) < 1e-12

    def test_rows_without_a_target_get_zero_gradient(self):
        x = Tensor(np.random.default_rng(5).standard_normal((5, 4)), requires_grad=True)
        with Tape() as tape:
            loss = T.cross_entropy_rows(x, [1, 3, 3], [0, 2, 0], 3)
        tape.backward(loss)
        assert not x.grad[[0, 2, 4]].any()
        assert x.grad[[1, 3]].all()

    def test_no_cells_give_zero_loss_and_gradient(self):
        x = Tensor(np.random.default_rng(6).standard_normal((3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = T.cross_entropy_rows(x, [], [], 12)
        tape.backward(loss)
        assert loss.item() == 0.0
        assert x.grad.shape == (3, 4) and not x.grad.any()

    @pytest.mark.parametrize(
        "rows, cols",
        [([3], [0]), ([-1], [0]), ([0], [4]), ([0], [-1]), ([0, 1], [0]), ([[0]], [[0]])],
        ids=["row-past-end", "negative-row", "col-past-end", "negative-col", "lengths-differ", "not-flat"],
    )
    def test_bad_cells_raise_shape_error(self, rows, cols):
        with pytest.raises(ShapeError, match="cross_entropy_rows"):
            T.cross_entropy_rows(Tensor(np.zeros((3, 4))), rows, cols, 1)

    @pytest.mark.parametrize("norm", [0, -2.0, math.nan])
    def test_norm_must_be_positive(self, norm):
        with pytest.raises(ValueError, match="norm must be > 0"):
            T.cross_entropy_rows(Tensor(np.zeros((3, 4))), [0], [1], norm)


class TestSoftmaxAndNorm:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        out = T.softmax_rows(Tensor(rng.standard_normal((4, 6))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_gradient(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.standard_normal((3, 4))
            w = rng.standard_normal((3, 4))
            grad_check(lambda a, c: sum_all(mul(T.softmax_rows(a), c)), [x, w])

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal((3, 6))
            g = rng.standard_normal((1, 6))
            b = rng.standard_normal((1, 6))
            w = rng.standard_normal((3, 6))
            grad_check(
                lambda a, gg, bb, c: sum_all(mul(T.layer_norm_rows(a, gg, bb), c)),
                [x, g, b, w],
                tol=1e-5,
            )

    def test_layer_norm_matches_fsum_oracle(self):
        rng = np.random.default_rng(17)
        # rows of very different scale and offset; one constant row, whose
        # variance is 0 and whose scale is set by eps alone
        x = rng.standard_normal((5, 7)) * np.array([[1e-3], [1.0], [50.0], [1.0], [0.0]])
        x += np.array([[0.0], [1e3], [-7.0], [0.5], [3.0]])
        gain = rng.standard_normal((1, 7))
        bias = rng.standard_normal((1, 7))
        out = T.layer_norm_rows(Tensor(x), Tensor(gain), Tensor(bias))
        assert rel_err(out.data, scalar_layer_norm(x, gain, bias)) < 1e-12

    def test_layer_norm_input_gradient_matches_jacobian_oracle(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((4, 6)) * np.array([[1e-2], [1.0], [30.0], [1.0]])
        x += np.array([[0.0], [-2.0], [5.0], [1e3]])
        gain = rng.standard_normal((1, 6))
        g = rng.standard_normal((4, 6))
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            y = T.layer_norm_rows(xt, Tensor(gain), Tensor(np.zeros((1, 6))))
            loss = sum_all(mul(y, Tensor(g)))
        tape.backward(loss)
        assert rel_err(xt.grad, layer_norm_input_grad(x, gain, g)) < 1e-10


class TestLayerNormResidual:
    SHAPES = [(5, 6), (5, 6), (1, 6), (1, 6), (5, 6)]  # x, residual, gain, bias, weights

    def arrays(self, rng):
        return [rng.standard_normal(s) for s in self.SHAPES]

    def test_equals_layer_norm_of_the_sum_bit_for_bit(self):
        x, r, gain, bias, g = self.arrays(np.random.default_rng(40))
        results = []
        for fused in (True, False):
            xt, rt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, r, gain, bias))
            with Tape() as tape:
                if fused:
                    y = T.layer_norm_rows(xt, gt, bt, residual=rt)
                else:
                    y = T.layer_norm_rows(T.add(xt, rt), gt, bt)
                loss = sum_all(mul(y, Tensor(g)))
            tape.backward(loss)
            results.append([y.data, xt.grad, rt.grad, gt.grad, bt.grad])
            if fused:
                assert xt.grad is not rt.grad
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_each_parent_gets_its_own_adjoint(self):
        # x gains another contribution (from c, recorded before the norm)
        # after the norm hands x and the residual their gradients; a shared
        # array would pass that contribution on to the residual
        rng = np.random.default_rng(42)

        def build(a, w, gain, bias):
            x, r = T.gelu(a), scale(a, 0.5)
            c = mul(x, w)
            y = T.layer_norm_rows(x, gain, bias, residual=r)
            return sum_all(T.add(mul(y, w), c))

        arrs = [rng.standard_normal(s) for s in [(3, 4), (3, 4), (1, 4), (1, 4)]]
        grad_check(build, arrs, tol=1e-5)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            grad_check(
                lambda a, rr, gg, bb, c: sum_all(
                    mul(T.layer_norm_rows(a, gg, bb, residual=rr), c)
                ),
                self.arrays(rng),
                tol=1e-5,
            )

    def test_residual_shape_must_match(self):
        with pytest.raises(ShapeError, match=r"residual: elementwise ops take equal shapes"):
            T.layer_norm_rows(
                Tensor(np.zeros((3, 4))), Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4))),
                residual=Tensor(np.zeros((2, 4))),
            )


class TestStructuralOps:
    def test_pick_rows_scatter(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 3))
        grad_check(lambda a, c: sum_all(mul(T.pick_rows(a, [4, 0, 4]), c)), [x, w])

    @pytest.mark.parametrize("readers", ["one pick", "two picks", "pick swept first", "dense swept first"])
    def test_picked_rows_of_an_op_output(self, readers):
        """pick_rows' gradient is its rows alone, which the sweep adds into an
        op output's adjoint: as its only adjoint, twice, or with another
        reader's dense gradient arriving after it or before it."""
        rng = np.random.default_rng(10)
        arrs = [rng.standard_normal((5, 3)), rng.standard_normal((2, 3)), rng.standard_normal((5, 3))]

        def build(a, c, v):
            h = scale(a, 3.0)

            def picked(rows):
                return sum_all(mul(T.pick_rows(h, rows), c))

            if readers == "one pick":
                return picked([1, 3])
            if readers == "two picks":
                return T.add(picked([0, 2]), picked([2, 4]))
            if readers == "pick swept first":  # the sweep runs the last recorded op first
                return T.add(sum_all(mul(h, v)), picked([4, 1]))
            return T.add(picked([4, 1]), sum_all(mul(h, v)))

        grad_check(build, arrs)

    # `concat_rows` and `transpose` are the windowed-attention oracle's own
    # tape ops (oracles.py); their gradients are checked here
    def test_slices_and_concat(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((4, 6))

        def build(a, c):
            top = T.pick_rows(a, [0, 1])
            bot = T.pick_rows(a, [2, 3])
            return sum_all(mul(concat_rows([bot, top]), c))

        grad_check(build, [x, w])

    def test_transpose(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 4))
        grad_check(lambda a, c: sum_all(mul(transpose(a), c)), [x, w])


def head_weights(rng, n_heads: int, d: int, m: int):
    """(wq, wk, bk) arrays for each of n_heads relation heads, x's width d
    projected to m."""
    return [[rng.standard_normal(s) for s in ((d, m), (d, m), (1, m))] for _ in range(n_heads)]


def as_weights(arrays):
    return [[Tensor(a, requires_grad=True) for a in triple] for triple in arrays]


class TestRelationScoresOp:
    """x's rows 1 and 4 are both a drug's and an attribute's, row 6 is two
    attributes', and row 2 nobody's; heads 0, 2 and 3 of four are present,
    head 2 with one attribute."""

    L_ROWS, H_ROWS = [0, 1, 6, 4, 6, 5], [3, 1, 7, 4]
    HEADS, POS_L, POS_H = [0, 0, 2, 3, 3, 3], [3, 17, 0, 40, 9, 22], [5, 30, 11, 0]

    def arrays(self, seed, d=5, m=3):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((8, d)), head_weights(rng, 4, d, m),
                rng.standard_normal((4, 2)) * [1e-3, 0.1])

    def scores(self, x, weights, alpha):
        return T.relation_scores(x, self.L_ROWS, self.H_ROWS, self.HEADS, weights, alpha, self.POS_L, self.POS_H)

    def test_scores_match_the_all_heads_oracle(self):
        x, weights, alpha = self.arrays(39)
        psi = self.scores(Tensor(x), as_weights(weights), Tensor(alpha)).data
        params = {"alpha": Tensor(alpha)}
        for j, (wq, wk, bk) in enumerate(weights):
            params.update({f"rel.{j}.q.w": Tensor(wq), f"rel.{j}.k.w": Tensor(wk), f"rel.{j}.k.b": Tensor(bk)})
        planes = all_heads_relation_scores(params, x[self.H_ROWS], x[self.L_ROWS], self.POS_H, self.POS_L)
        assert psi.shape == (6, 4)
        for l, j in enumerate(self.HEADS):
            assert rel_err(psi[l], planes[j, :, l]) < 1e-12, l

    def test_gradients_of_every_parent(self):
        """x (with its shared rows accumulated), every present head's weights
        and alpha against central differences."""
        x, weights, alpha = self.arrays(40)
        c = np.random.default_rng(41).standard_normal((6, 4))
        present, absent = [weights[j] for j in (0, 2, 3)], [Tensor(w) for w in weights[1]]

        def build(x, *rest):
            *flat, a, w = rest
            triples = [flat[i:i + 3] for i in range(0, 9, 3)]
            return sum_all(mul(self.scores(x, [triples[0], absent, *triples[1:]], a), w))

        grad_check(build, [x, *(w for triple in present for w in triple), alpha, c])

    def test_an_absent_head_gets_no_gradient(self):
        x, weights, alpha = self.arrays(42)
        tensors, a = as_weights(weights), Tensor(alpha, requires_grad=True)
        with Tape() as tape:
            loss = sum_all(self.scores(Tensor(x, requires_grad=True), tensors, a))
        tape.backward(loss)
        assert all(w.grad is None for w in tensors[1])
        assert all(w.grad is not None for j in (0, 2, 3) for w in tensors[j])
        assert not a.grad[1].any() and a.grad[[0, 2, 3]].all()

    def test_gradients_past_one_score_block(self):
        """|L| = _SCORE_ROWS + 9 attributes, head 1's run straddling the
        block boundary."""
        rng = np.random.default_rng(43)
        nl, nh, d = T._SCORE_ROWS + 9, 3, 4
        heads = np.repeat([0, 1, 2], [60, 70, nl - 130])
        l_rows, h_rows = rng.integers(0, 40, nl), rng.integers(0, 40, nh)
        pos_l, pos_h = rng.integers(0, 300, nl), rng.integers(0, 300, nh)
        weights = head_weights(rng, 3, d, d)
        arrs = [rng.standard_normal((40, d)), *(w for triple in weights for w in triple),
                rng.standard_normal((3, 2)) * [1e-4, 1e-2], rng.standard_normal((nl, nh))]

        def build(x, *rest):
            *flat, a, w = rest
            triples = [flat[i:i + 3] for i in range(0, 9, 3)]
            return sum_all(mul(T.relation_scores(x, l_rows, h_rows, heads, triples, a, pos_l, pos_h), w))

        grad_check(build, arrs)

    def test_blocks_and_polynomial(self):
        """With wq = wk = I and bk = 0, attribute l against drug h scores
        x[l_rows[l]] . x[h_rows[h]] plus the polynomial."""
        rng = np.random.default_rng(44)
        x, alpha = rng.standard_normal((7, 3)), rng.standard_normal((8, 2))
        l_rows, h_rows, heads = [4, 0, 6, 2, 1], [5, 3], [1, 1, 1, 6, 6]
        pos_l, pos_h = np.array([4, 0, 9, 12, 1]), np.array([7, 2])
        eye = [[Tensor(np.eye(3)), Tensor(np.eye(3)), Tensor(np.zeros((1, 3)))]] * 8
        got = T.relation_scores(Tensor(x), l_rows, h_rows, heads, eye, Tensor(alpha), pos_l, pos_h).data
        for l, j in enumerate(heads):
            for h in range(2):
                dist = abs(int(pos_l[l]) - int(pos_h[h]))
                want = x[l_rows[l]] @ x[h_rows[h]] + alpha[j, 0] * dist**2 + alpha[j, 1] * dist
                assert abs(got[l, h] - want) < 1e-12

    def test_rows_past_one_block(self):
        """More rows than _BLOCK: every row block gets its own distances."""
        n, rng = T._BLOCK + 7, np.random.default_rng(42)
        pos_l, pos_h = rng.integers(0, 9000, n), rng.integers(0, 9000, 3)
        zeros = [[Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2)))]]
        alpha = Tensor(np.array([[0.5, -2.0]]), requires_grad=True)
        g = rng.standard_normal((n, 3))
        with Tape() as tape:
            psi = T.relation_scores(Tensor(np.zeros((4, 2))), np.zeros(n, dtype=int), [1, 2, 3], np.zeros(n),
                                    zeros, alpha, pos_l, pos_h)
            loss = sum_all(mul(psi, Tensor(g)))
        tape.backward(loss)
        dist = np.abs(pos_l[:, None] - pos_h[None, :]).astype(np.float64)
        np.testing.assert_array_equal(psi.data, (0.5 * dist - 2.0) * dist)
        assert rel_err(alpha.grad, [[(g * dist**2).sum(), (g * dist).sum()]]) < 1e-12

    @pytest.mark.parametrize("pos_l, pos_h, q_shape", [
        ([0, 1], [0, 1], (2, 2)),       # 2 positions for 3 attributes
        ([0, 1, 2], [0], (2, 2)),       # 1 position for 2 drugs
        ([0, 1, 2], [0, 1], (2, 3)),    # a drug projection of width 3 against the attributes' 2
    ])
    def test_shapes_must_agree(self, pos_l, pos_h, q_shape):
        weights = [[Tensor(np.zeros(q_shape)), Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2)))]]
        with pytest.raises(ShapeError, match="relation_scores"):
            T.relation_scores(Tensor(np.zeros((5, 2))), [0, 1, 2], [3, 4], [0, 0, 0], weights,
                              Tensor(np.zeros((1, 2))), pos_l, pos_h)

    @pytest.mark.parametrize("l_rows, h_rows, heads, message", [
        ([0, 1], [2], [0, 2], r"heads must ascend \(grouped by head\) in \[0, 2\), got \[0, 2\]"),
        ([0, 1], [2], [-1, 0], r"heads must ascend \(grouped by head\) in \[0, 2\), got \[-1, 0\]"),
        ([0, 3], [2], [0, 0], "a row index lies outside x's 3 rows"),
        ([0, 1], [-1], [0, 0], "a row index lies outside x's 3 rows"),
    ], ids=["head-past-the-weights", "negative-head", "attribute-row", "drug-row"])
    def test_indices_must_lie_in_range(self, l_rows, h_rows, heads, message):
        """A head without weights and a row outside x are rejected, not read
        from the far end by a negative index."""
        weights = [[Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2)))]] * 2
        with pytest.raises(ShapeError, match=message):
            T.relation_scores(Tensor(np.zeros((3, 2))), l_rows, h_rows, heads, weights,
                              Tensor(np.zeros((2, 2))), np.zeros(len(l_rows)), np.zeros(len(h_rows)))

    @pytest.mark.parametrize("op", [T.relation_scores, T.relation_argmax], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "pos_l, pos_h",
        [([0, 1], [0, 1]), ([0, 1, 2], [0]), ([0, 1, 2], [0, 1, 2])],
        ids=["short-pos_l", "short-pos_h", "long-pos_h"],
    )
    def test_positions_must_be_attributes_by_drugs(self, op, pos_l, pos_h):
        """Scoring and its argmax check the positions before the block loop:
        (|L|, |H|) is the attribute rows by the drug rows."""
        weights = [[Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2)))]] * 8
        got = (len(pos_l), len(pos_h))
        message = f"relation_scores: positions must be (|L|, |H|) = (3, 2), got {got}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            op(Tensor(np.zeros((4, 2))), [0, 1, 2], [3, 0], [0, 5, 5], weights, Tensor(np.zeros((8, 2))), pos_l, pos_h)


class TestFourierMixOp:
    def test_1x1(self):
        out = T.fourier_mix(Tensor([[1.0]]))
        assert out.item() == 1.0

    # the last five have columns past dp/2 + 1, which mix_real2d fills from
    # Hermitian symmetry rather than reading them from the transform
    @pytest.mark.parametrize(
        "shape",
        [(7, 5), (1, 5), (9, 1), (33, 17), (7, 7), (8, 6), (1, 7), (5, 64), (16, 64)],
        ids=lambda s: "%dx%d" % s,
    )
    def test_forward_matches_naive(self, shape):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(shape)
        out = T.fourier_mix(Tensor(x))
        want = naive_mix(x)
        assert np.max(np.abs(out.data - want)) / np.max(np.abs(want)) < 1e-9

    @pytest.mark.parametrize("n, d", [(1, 1), (1, 64), (8191, 1), (7, 5), (4097, 64)])
    def test_counts_radix2_multiplies(self, n, d):
        np_, dp = 1 << (n - 1).bit_length(), 1 << (d - 1).bit_length()
        m0 = COUNTER.total
        fourier.mix_real2d(np.ones((n, d)))
        assert COUNTER.total - m0 == 2 * np_ * dp * (math.log2(np_) + math.log2(dp))

    @staticmethod
    def check_backward_against_naive_adjoint(n, d):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((n, d))
        g_out = rng.standard_normal((n, d))
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = T.fourier_mix(xt)
            loss = sum_all(mul(out, Tensor(g_out)))
        tape.backward(loss)
        m = linear_map_matrix(naive_mix, n, d)
        want = (m.T @ g_out.ravel()).reshape(n, d)
        denom = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(xt.grad - want)) / denom < 1e-9

    def test_backward_matches_naive_adjoint(self):
        self.check_backward_against_naive_adjoint(7, 5)

    def test_backward_matches_naive_adjoint_with_hermitian_fill(self):
        self.check_backward_against_naive_adjoint(8, 6)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 3))
        w = rng.standard_normal((3, 3))
        grad_check(lambda a, c: sum_all(mul(T.fourier_mix(a), c)), [x, w])


class TestTapeSemantics:
    def test_accumulation_doubles_without_zeroing(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((2, 3)))
        # a tape runs backward once, so the same graph is recorded twice
        with Tape() as tape:
            loss = sum_all(mul(x, w))
        tape.backward(loss)
        once = x.grad.copy()
        with Tape() as tape:
            loss = sum_all(mul(x, w))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_backward_empties_the_tape(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(T.gelu(scale(x, 2.0)))
        assert len(tape.nodes) == 3
        tape.backward(loss)
        assert tape.nodes == []

    def test_backward_from_a_leaf_loss_empties_the_tape(self):
        """A leaf loss gets its seed of 1 added to its .grad, and the sweep
        still pops every node the tape recorded, freeing what each saved."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        loss = Tensor([[2.0]], requires_grad=True)
        loss.grad = np.array([[0.5]])
        with Tape() as tape:
            sum_all(T.gelu(scale(x, 2.0)))
        assert len(tape.nodes) == 3
        tape.backward(loss)
        assert tape.nodes == []
        assert loss.grad.tolist() == [[1.5]] and x.grad is None

    def test_second_backward_raises(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        tape.backward(loss)
        once = x.grad.copy()
        with pytest.raises(TapeError, match="backward already ran on this tape"):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, once)

    def test_loss_recorded_on_another_tape_raises(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as t1:
            loss = sum_all(mul(x, x))
        with Tape() as t2:
            sum_all(scale(x, 3.0))
        with pytest.raises(TapeError, match="loss was not recorded on this tape"):
            t2.backward(loss)
        assert x.grad is None
        t1.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)

    def test_gradient_reaching_another_tapes_tensor_raises(self):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        v = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape():
            h = scale(w, 3.0)
        with Tape() as tape:
            # v's node runs before h's in the reverse sweep
            loss = sum_all(T.add(scale(h, 1.0), scale(v, 2.0)))
        with pytest.raises(TapeError, match="gradient reached a tensor that another tape recorded"):
            tape.backward(loss)
        assert w.grad is None and v.grad is None

    def test_a_freed_tensors_id_reused_by_a_later_output(self):
        reused = []

        def build(x, w):
            a = mul(x, w)
            freed = id(a)
            b = T.gelu(scale(a, 0.5))  # neither node keeps the Tensor a
            del a
            c = scale(x, 3.0)
            reused.append(id(c) == freed)
            return sum_all(T.add(mul(b, w), mul(c, c)))

        rng = np.random.default_rng(17)
        grad_check(build, [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))])
        assert reused and all(reused)

    def test_no_grad_without_requires(self):
        x = Tensor(np.ones((2, 2)), requires_grad=False)
        y = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, y))
        tape.backward(loss)
        assert x.grad is None
        assert y.grad is not None

    def test_no_recording_outside_tape(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.gelu(x)
        assert out.requires_grad is False

    def test_shared_input_accumulates(self):
        x = Tensor(np.full((2, 2), 3.0), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(T.add(mul(x, x), x))  # d/dx(x^2 + x) = 2x + 1
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)

    def test_one_array_for_two_parents_is_never_written(self):
        # add and the fused norm each hand both parents one gradient array:
        # s and c get one, which add then hands on to x and r; x and r each
        # gain another contribution later in the sweep, from c and d, which
        # must reach that parent alone
        rng = np.random.default_rng(18)
        g = rng.standard_normal((3, 4))
        with Tape() as tape:
            T.add(*(Tensor(g, requires_grad=True) for _ in range(2)))
            T.layer_norm_rows(*(Tensor(a, requires_grad=True) for a in (g, g[:1], g[:1])),
                              residual=Tensor(g, requires_grad=True))
        (gx, gr), (gy, _, _, gres) = (backward(g) for _, _, backward in tape.nodes)
        assert gx is gr is g and gy is gres

        def build(a, b, w, gain, bias):
            x, r = T.gelu(a), scale(b, 0.5)
            c, d = mul(x, w), mul(r, w)
            s = T.add(x, r)
            return sum_all(T.add(mul(T.layer_norm_rows(s, gain, bias, residual=c), w), d))

        arrs = [rng.standard_normal(s) for s in [(3, 4), (3, 4), (3, 4), (1, 4), (1, 4)]]
        grad_check(build, arrs, tol=1e-5)

    def test_two_leaves_handed_one_array_get_one_each(self):
        a, b = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(2))
        w = Tensor(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            loss = sum_all(mul(T.add(a, b), w))
        tape.backward(loss)
        assert a.grad is not b.grad
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, w.data)
        np.testing.assert_array_equal(a.grad, w.data + 1.0)

    def test_add_gives_each_parent_its_own_adjoint(self):
        # a gains a second contribution (from c) after add(a, b) hands both
        # parents their adjoint and before b's node reads its own
        rng = np.random.default_rng(16)

        def build(xx, ww):
            a, b = T.gelu(xx), scale(xx, 2.0)
            c = mul(a, ww)
            return sum_all(T.add(T.add(a, b), c))

        grad_check(build, [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))])

    def test_non_scalar_seed_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = T.gelu(x)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 8))
        runs = []
        for _ in range(2):
            xt = Tensor(x, requires_grad=True)
            with Tape() as tape:
                loss = sum_all(T.gelu(T.fourier_mix(xt)))
            tape.backward(loss)
            runs.append((loss.item(), xt.grad.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_a_backward_returns_one_gradient_per_parent(self):
        a, b = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(2))
        with Tape() as tape:
            loss = sum_all(T._record(Tensor(a.data + b.data), (a, b), lambda g: (g,)))
        with pytest.raises(ValueError, match="zip"):
            tape.backward(loss)
        assert a.grad is None and b.grad is None


def _filter_operands():
    """name -> (op on the parents, the parents' arrays) for each op with more
    than one parent."""
    rng = np.random.default_rng(60)

    def arrays(*shapes):
        return [rng.standard_normal(s) for s in shapes]

    l_rows, h_rows, heads, pos_l, pos_h = [0, 4, 2], [1, 4], [0, 1, 1], [2, 9, 5], [0, 7]

    def relation_scores(x, *rest):
        weights, alpha = [rest[:3], rest[3:6]], rest[6]
        return T.relation_scores(x, l_rows, h_rows, heads, weights, alpha, pos_l, pos_h)

    return {
        "add": (T.add, arrays((3, 4), (3, 4))),
        "matmul": (T.matmul, arrays((3, 4), (4, 2))),
        "ffn": (T.ffn, arrays((5, 4), (4, 6), (1, 6), (6, 3), (1, 3))),
        "windowed_attention": (
            lambda *ts: T.windowed_attention(*ts, window=3, n_heads=2),
            arrays((7, 4), (4, 4), (4, 4), (4, 4), (4, 5)),
        ),
        "layer_norm_rows": (T.layer_norm_rows, arrays((5, 4), (1, 4), (1, 4))),
        "layer_norm_rows_residual": (
            lambda x, gain, bias, r: T.layer_norm_rows(x, gain, bias, residual=r),
            arrays((5, 4), (1, 4), (1, 4), (5, 4)),
        ),
        "relation_scores": (relation_scores, arrays((6, 4), (4, 3), (4, 3), (1, 3), (4, 3), (4, 3), (1, 3), (2, 2))),
    }


FILTER_OPERANDS = _filter_operands()


class TestTapeFilter:
    """A parent that needs no gradient gets none, and every other parent the
    same bytes as when all of them need one: the tape drops the gradient,
    whatever the op computes."""

    @staticmethod
    def grads(name, frozen=None):
        op, arrays = FILTER_OPERANDS[name]
        parents = [Tensor(a, requires_grad=i != frozen) for i, a in enumerate(arrays)]
        with Tape() as tape:
            out = op(*parents)
            c = Tensor(np.random.default_rng(61).standard_normal(out.shape))
            loss = sum_all(mul(out, c))
        tape.backward(loss)
        return [p.grad for p in parents]

    @pytest.mark.parametrize(
        "name, frozen", [(name, i) for name, (_, arrays) in FILTER_OPERANDS.items() for i in range(len(arrays))]
    )
    def test_a_parent_without_requires_grad_gets_none(self, name, frozen):
        every = self.grads(name)
        got = self.grads(name, frozen)
        assert all(g is not None for g in every)
        assert got[frozen] is None
        for i, (want, g) in enumerate(zip(every, got)):
            if i != frozen:
                assert g.tobytes() == want.tobytes(), i
