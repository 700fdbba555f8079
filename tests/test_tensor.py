import math
import zlib

import numpy as np
import pytest

from jnrf import fourier, tensor as T
from jnrf.instrument import COUNTER
from jnrf.tensor import ShapeError, Tape, TapeError, Tensor

from oracles import (
    fd_grad,
    layer_norm_input_grad,
    linear_map_matrix,
    naive_mix,
    rel_err,
    scalar_gelu,
    scalar_gelu_grad,
    scalar_layer_norm,
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
            grad_check(lambda x, y: T.sum_all(T.matmul(x, y)), [a, b])


class TestLinear:
    def test_forward_is_numpy_affine(self):
        rng = np.random.default_rng(14)
        x, w, b = (rng.standard_normal(s) for s in [(5, 4), (4, 3), (1, 3)])
        out = T.linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.array_equal(out.data, x @ w + b)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.standard_normal((3, 4))
            w = rng.standard_normal((4, 2))
            row = rng.standard_normal((1, 2))
            c = rng.standard_normal((3, 2))
            grad_check(lambda a, m, r, cc: T.sum_all(T.mul(T.linear(a, m, r), cc)), [x, w, row, c])

    def test_gradients_are_matmul_then_row_sum(self):
        rng = np.random.default_rng(15)
        x, w, b = (rng.standard_normal(s) for s in [(6, 4), (4, 3), (1, 3)])
        g = rng.standard_normal((6, 3))
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        with Tape() as tape:
            loss = T.sum_all(T.mul(T.linear(xt, wt, bt), Tensor(g)))
        tape.backward(loss)
        assert np.array_equal(xt.grad, g @ w.T)
        assert np.array_equal(wt.grad, x.T @ g)
        assert np.array_equal(bt.grad, g.sum(axis=0, keepdims=True))

    def test_inner_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError, match=r"linear: inner dimensions.*\(2, 3\).*\(2, 3\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (1, 1)], ids=lambda s: "%dx%d" % s)
    def test_bias_must_be_one_row_of_output_width(self, shape):
        with pytest.raises(ShapeError, match=r"bias must be \(1, 2\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(shape)))

    def test_counts_multiplies_like_matmul(self):
        x, w, b = (Tensor(np.ones(s), requires_grad=True) for s in [(5, 4), (4, 3), (1, 3)])
        COUNTER.reset()
        with Tape() as tape:
            loss = T.sum_all(T.linear(x, w, b))
        assert COUNTER.total == 5 * 4 * 3
        tape.backward(loss)
        assert COUNTER.total == 3 * 5 * 4 * 3


def composed_ffn(x, w1, b1, w2, b2):
    """The two-node reference for T.ffn: linear, gelu, linear."""
    return T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2)


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
                loss = T.sum_all(T.mul(op(*ts), Tensor(g)))
            tape.backward(loss)
            grads.append([t.grad for t in ts])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            arrs = [rng.standard_normal(s) for s in self.SHAPES]
            c = rng.standard_normal((7, 4))
            grad_check(lambda *ts: T.sum_all(T.mul(T.ffn(*ts[:5]), ts[5])), arrs + [c])

    def test_counts_multiplies_like_two_linears(self):
        ts = [Tensor(np.ones(s), requires_grad=True) for s in self.SHAPES]
        COUNTER.reset()
        with Tape() as tape:
            loss = T.sum_all(T.ffn(*ts))
        assert COUNTER.total == 7 * 5 * 9 + 7 * 9 * 4
        tape.backward(loss)
        assert COUNTER.total == 3 * (7 * 5 * 9 + 7 * 9 * 4)

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
                loss = T.sum_all(T.mul(y, Tensor(g)))
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
            lambda xx: T.sum_all(T.mul(T.ffn(xx, *(Tensor(w, requires_grad=True) for w in ws)), c)),
            [x], coords=boundary_coords(n, 5),
        )
        xt = Tensor(x)
        grad_check(lambda *wts: T.sum_all(T.mul(T.ffn(xt, *wts), c)), ws)

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("n", BLOCK_NS)
    def test_layer_norm_matches_the_oracles(self, n, fused):
        rng = np.random.default_rng(90 + n)
        x, r, g = (rng.standard_normal((n, 6)) for _ in range(3))
        gain, bias = rng.standard_normal((1, 6)), rng.standard_normal((1, 6))
        xt, rt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, r, gain, bias))
        with Tape() as tape:
            y = T.layer_norm_rows(xt, gt, bt, residual=rt if fused else None)
            loss = T.sum_all(T.mul(y, Tensor(g)))
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
            return T.sum_all(T.mul(T.layer_norm_rows(xx, gg, bb, residual=rr), c))

        rows = [x, r] if fused else [x]
        grad_check(lambda xx, rr=None: norm(xx, rr, *gbt), rows, coords=boundary_coords(n, 6), tol=1e-5)
        xt, rt = Tensor(x), Tensor(r) if fused else None
        grad_check(lambda gg, bb: norm(xt, rt, gg, bb), [gain, bias], tol=1e-5)


# near zero, and |x| in [1.5, 4] where the cubic term of gelu dominates
GELU_POINTS = np.concatenate([[1e-8, -1e-8], np.linspace(1.5, 4.0, 11), -np.linspace(1.5, 4.0, 11)])
GELU_GRID = np.concatenate([np.linspace(-50.0, 50.0, 2001), GELU_POINTS])


class TestElementwise:
    def test_add(self):
        out = T.add(Tensor([[1.0, 1.0]]), Tensor([[2.0, 3.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_gelu_gradient_at_half(self):
        x = np.concatenate([[0.5], GELU_POINTS]).reshape(1, -1)
        grad_check(lambda a: T.sum_all(T.gelu(a)), [x])

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
            loss = T.sum_all(T.gelu(x))
        tape.backward(loss)
        want = [scalar_gelu_grad(float(v)) for v in GELU_GRID]
        assert rel_err(x.grad.ravel(), want) < 1e-13

    def test_column_broadcast_rejected(self):
        # nothing broadcasts: every operand shape other than (3, 2) is refused
        for op in (T.add, T.mul):
            for shape in [(3, 1), (1, 2), (1, 1)]:
                for a, b in [((3, 2), shape), (shape, (3, 2))]:
                    with pytest.raises(ShapeError, match="equal shapes"):
                        op(Tensor(np.ones(a)), Tensor(np.ones(b)))

    @pytest.mark.parametrize("op", ["add", "mul", "gelu", "scale"])
    def test_gradients_vs_finite_differences(self, op):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        for _ in range(100):
            x = rng.standard_normal((2, 3)) + 0.05
            if op == "gelu":
                grad_check(lambda a: T.sum_all(T.gelu(a)), [x])
            elif op == "scale":
                grad_check(lambda a: T.sum_all(T.scale(a, -1.7)), [x])
            else:
                y = rng.standard_normal((2, 3))
                w = rng.standard_normal((2, 3))
                grad_check(
                    lambda a, b, c: T.sum_all(T.mul(getattr(T, op)(a, b), c)), [x, y, w]
                )


class TestLogSoftmax:
    def test_uniform_logits(self):
        out = T.log_softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[-math.log(2)] * 2], atol=1e-12)

    def test_stabilized_against_overflow(self):
        out = T.log_softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0, 0]) < 1e-12

    def test_rows_exponentiate_to_one(self):
        rng = np.random.default_rng(2)
        out = T.log_softmax_rows(Tensor(rng.standard_normal((5, 7)) * 10))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-9)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal((4, 5))
            w = rng.standard_normal((4, 5))
            grad_check(lambda a, c: T.sum_all(T.mul(T.log_softmax_rows(a), c)), [x, w])


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
            grad_check(lambda a, c: T.sum_all(T.mul(T.softmax_rows(a), c)), [x, w])

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal((3, 6))
            g = rng.standard_normal((1, 6))
            b = rng.standard_normal((1, 6))
            w = rng.standard_normal((3, 6))
            grad_check(
                lambda a, gg, bb, c: T.sum_all(T.mul(T.layer_norm_rows(a, gg, bb), c)),
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
            loss = T.sum_all(T.mul(y, Tensor(g)))
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
                loss = T.sum_all(T.mul(y, Tensor(g)))
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
            x, r = T.gelu(a), T.scale(a, 0.5)
            c = T.mul(x, w)
            y = T.layer_norm_rows(x, gain, bias, residual=r)
            return T.sum_all(T.add(T.mul(y, w), c))

        arrs = [rng.standard_normal(s) for s in [(3, 4), (3, 4), (1, 4), (1, 4)]]
        grad_check(build, arrs, tol=1e-5)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            grad_check(
                lambda a, rr, gg, bb, c: T.sum_all(
                    T.mul(T.layer_norm_rows(a, gg, bb, residual=rr), c)
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
        grad_check(lambda a, c: T.sum_all(T.mul(T.pick_rows(a, [4, 0, 4]), c)), [x, w])

    def test_slices_and_concat(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((4, 6))

        def build(a, c):
            top = T.slice_rows(a, 0, 2)
            bot = T.slice_rows(a, 2, 4)
            return T.sum_all(T.mul(T.concat_rows([bot, top]), c))

        grad_check(build, [x, w])

    def test_reshape_transpose(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 6))
        w = rng.standard_normal((4, 3))
        grad_check(
            lambda a, c: T.sum_all(T.mul(T.transpose(T.reshape(a, 3, 4)), c)), [x, w]
        )


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
        COUNTER.reset()
        fourier.mix_real2d(np.ones((n, d)))
        assert COUNTER.total == 2 * np_ * dp * (math.log2(np_) + math.log2(dp))

    @staticmethod
    def check_backward_against_naive_adjoint(n, d):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((n, d))
        g_out = rng.standard_normal((n, d))
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = T.fourier_mix(xt)
            loss = T.sum_all(T.mul(out, Tensor(g_out)))
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
        grad_check(lambda a, c: T.sum_all(T.mul(T.fourier_mix(a), c)), [x, w])


class TestTapeSemantics:
    def test_accumulation_doubles_without_zeroing(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((2, 3)))
        # a tape runs backward once, so the same graph is recorded twice
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, w))
        tape.backward(loss)
        once = x.grad.copy()
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, w))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_backward_empties_the_tape(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.gelu(T.scale(x, 2.0)))
        assert len(tape.nodes) == 3
        tape.backward(loss)
        assert tape.nodes == []

    def test_second_backward_raises(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        tape.backward(loss)
        once = x.grad.copy()
        with pytest.raises(TapeError, match="backward already ran on this tape"):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, once)

    def test_loss_recorded_on_another_tape_raises(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as t1:
            loss = T.sum_all(T.mul(x, x))
        with Tape() as t2:
            T.sum_all(T.scale(x, 3.0))
        with pytest.raises(TapeError, match="loss was not recorded on this tape"):
            t2.backward(loss)
        assert x.grad is None
        t1.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)

    def test_gradient_reaching_another_tapes_tensor_raises(self):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        v = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape():
            h = T.scale(w, 3.0)
        with Tape() as tape:
            # v's node runs before h's in the reverse sweep
            loss = T.sum_all(T.add(T.scale(h, 1.0), T.scale(v, 2.0)))
        with pytest.raises(TapeError, match="gradient reached a tensor that another tape recorded"):
            tape.backward(loss)
        assert w.grad is None and v.grad is None

    def test_a_freed_tensors_id_reused_by_a_later_output(self):
        reused = []

        def build(x, w):
            a = T.mul(x, w)
            freed = id(a)
            b = T.gelu(T.scale(a, 0.5))  # neither node keeps the Tensor a
            del a
            c = T.scale(x, 3.0)
            reused.append(id(c) == freed)
            return T.sum_all(T.add(T.mul(b, w), T.mul(c, c)))

        rng = np.random.default_rng(17)
        grad_check(build, [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))])
        assert reused and all(reused)

    def test_no_grad_without_requires(self):
        x = Tensor(np.ones((2, 2)), requires_grad=False)
        y = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, y))
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
            loss = T.sum_all(T.add(T.mul(x, x), x))  # d/dx(x^2 + x) = 2x + 1
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)

    def test_add_gives_each_parent_its_own_adjoint(self):
        # a gains a second contribution (from c) after add(a, b) hands both
        # parents their adjoint and before b's node reads its own
        rng = np.random.default_rng(16)

        def build(xx, ww):
            a, b = T.gelu(xx), T.scale(xx, 2.0)
            c = T.mul(a, ww)
            return T.sum_all(T.add(T.add(a, b), c))

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
                loss = T.sum_all(T.gelu(T.fourier_mix(xt)))
            tape.backward(loss)
            runs.append((loss.item(), xt.grad.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])
