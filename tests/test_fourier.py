import numpy as np

from jnrf.fourier import mix_real2d, next_pow2

from oracles import naive_mix


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 5, 8, 9, 4097)] == [1, 2, 4, 8, 8, 16, 8192]


class TestMixReal2d:
    def test_1x1_identity(self):
        np.testing.assert_allclose(mix_real2d(np.array([[1.0]])), [[1.0]])

    def test_2x2_all_ones(self):
        # frozen with naive_mix: only the DC bin survives a constant input
        expected = naive_mix(np.ones((2, 2)))
        np.testing.assert_allclose(expected, [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(mix_real2d(np.ones((2, 2))), expected, atol=1e-12)

    def test_7x5_matches_naive_padded(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 5))
        got = mix_real2d(x)
        want = naive_mix(x)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 9))
        y = rng.standard_normal((6, 9))
        a, b = 1.7, -0.3
        lhs = mix_real2d(a * x + b * y)
        rhs = a * mix_real2d(x) + b * mix_real2d(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_no_rows(self):
        got = mix_real2d(np.zeros((0, 6)))
        assert got.shape == (0, 6)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 4))
        first = mix_real2d(x)
        second = mix_real2d(x)
        assert np.array_equal(first, second)

