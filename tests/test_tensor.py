import math

import numpy as np
import pytest

from jnrf import fourier, tensor as T
from jnrf.instrument import COUNTER
from jnrf.tensor import ShapeError, Tape, Tensor

from oracles import fd_grad, linear_map_matrix, naive_mix, rel_err, scalar_gelu


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


# near zero, and |x| in [1.5, 4] where the cubic term of gelu dominates
GELU_POINTS = np.concatenate([[1e-8, -1e-8], np.linspace(1.5, 4.0, 11), -np.linspace(1.5, 4.0, 11)])


class TestElementwise:
    def test_add(self):
        out = T.add(Tensor([[1.0, 1.0]]), Tensor([[2.0, 3.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_gelu_gradient_at_half(self):
        x = np.concatenate([[0.5], GELU_POINTS]).reshape(1, -1)
        grad_check(lambda a: T.sum_all(T.gelu(a)), [x])

    def test_gelu_matches_scalar_oracle(self):
        x = np.concatenate([np.linspace(-50.0, 50.0, 2001), GELU_POINTS])
        got = T.gelu(Tensor(x.reshape(1, -1))).data.ravel()
        want = [scalar_gelu(float(v)) for v in x]
        # rel_err floors the denominator at 1: below x = -3, 1 + tanh cancels,
        # so no float64 evaluation of the formula is relatively accurate there
        assert rel_err(got, want) < 1e-14

    def test_scalar_and_row_broadcast(self):
        x = Tensor(np.ones((3, 2)))
        np.testing.assert_array_equal(T.add(x, Tensor([[1.0]])).data, np.full((3, 2), 2.0))
        np.testing.assert_array_equal(
            T.mul(x, Tensor([[2.0, 3.0]])).data, np.tile([2.0, 3.0], (3, 1))
        )

    def test_column_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 1))))

    @pytest.mark.parametrize("op", ["add", "mul", "gelu", "scale"])
    def test_gradients_vs_finite_differences(self, op):
        rng = np.random.default_rng(hash(op) % 2**32)
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

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4))
        row = rng.standard_normal((1, 4))
        scalar = rng.standard_normal((1, 1))
        w = rng.standard_normal((3, 4))
        grad_check(lambda a, r, c: T.sum_all(T.mul(T.add(a, r), c)), [x, row, w])
        grad_check(lambda a, s, c: T.sum_all(T.mul(T.mul(a, s), c)), [x, scalar, w])


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
            back = T.concat_rows([top, bot])
            left = T.slice_cols(back, 0, 3)
            right = T.slice_cols(back, 3, 6)
            return T.sum_all(T.mul(T.concat_cols([left, right]), c))

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

    @pytest.mark.parametrize("shape", [(7, 5), (1, 5), (9, 1), (33, 17)], ids=lambda s: "%dx%d" % s)
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

    def test_backward_matches_naive_adjoint(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 5))
        g_out = rng.standard_normal((7, 5))
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = T.fourier_mix(xt)
            loss = T.sum_all(T.mul(out, Tensor(g_out)))
        tape.backward(loss)
        m = linear_map_matrix(naive_mix, 7, 5)
        want = (m.T @ g_out.ravel()).reshape(7, 5)
        denom = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(xt.grad - want)) / denom < 1e-9

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 3))
        w = rng.standard_normal((3, 3))
        grad_check(lambda a, c: T.sum_all(T.mul(T.fourier_mix(a), c)), [x, w])


class TestTapeSemantics:
    def test_accumulation_doubles_without_zeroing(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((2, 3)))
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, w))
        tape.backward(loss)
        once = x.grad.copy()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * once)

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
