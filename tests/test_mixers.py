import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from jnrf import tensor as T
from jnrf.config import ModelConfig
from jnrf.instrument import COUNTER
from jnrf.mixers import fnet_block, shared_lm
from jnrf.model import JNRF, parameter_layout
from jnrf.params import Params
from jnrf.tensor import Tape, Tensor

from oracles import composed_windowed_attention, fd_grad, mul, rel_err, sum_all


def make_params(kind="fnet", n_blocks=1, d=8, ffn=12, seed=0, window=512):
    """The `lm.*` entries of the layout, as the model of `seed` draws them."""
    cfg = ModelConfig(mixer=kind, n_blocks=n_blocks, d_model=d, ffn_hidden=ffn, window=window)
    model, params = JNRF(cfg, seed=seed), Params()
    for name, _ in parameter_layout(cfg):
        if name.startswith("lm."):
            params.add(name, model.params[name].data)
    return cfg, params


def test_fnet_block_parameter_count():
    d, ffn = 8, 12
    _, params = make_params(d=d, ffn=ffn)
    expected = 2 * (2 * d) + (d * ffn + ffn) + (ffn * d + d)
    assert sum(p.data.size for _, p in params.items()) == expected


def test_fnet_block_length_one():
    _, params = make_params()
    out = fnet_block(Tensor(np.random.default_rng(1).standard_normal((1, 8))), params, "lm.0")
    assert out.shape == (1, 8)
    assert np.all(np.isfinite(out.data))


def _block_grad_check(kind, tol=1e-5, n=9, d=8, seed=2, **kw):
    """A one-block shared_lm, mix and FFN sublayers both, against finite
    differences for its input and every parameter."""
    cfg, params = make_params(kind=kind, d=d, seed=seed, **kw)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal((n, d))
    xt = Tensor(x, requires_grad=True)

    def run():
        return sum_all(mul(shared_lm(xt, cfg, params), Tensor(w)))

    with Tape() as tape:
        loss = run()
    tape.backward(loss)

    def value():
        xt.data[...] = x
        with Tape():
            return run().item()

    want = fd_grad(value, x)
    assert rel_err(xt.grad, want) < tol
    xt.data[...] = x  # value() last copied x with one entry still moved
    for name, p in params.items():
        base = p.data.copy()

        def pvalue():
            p.data[...] = base
            with Tape():
                return run().item()

        want_p = fd_grad(pvalue, base)
        p.data[...] = base
        assert rel_err(p.grad, want_p) < tol, name


def test_fnet_block_gradients():
    _block_grad_check("fnet")


def test_mlp_block_gradients():
    _block_grad_check("mlp")


def test_attention_block_gradients():
    _block_grad_check("windowed_attention", n=6, window=4)


class TestMlpMixer:
    def test_permutation_equivariance(self):
        cfg, params = make_params(kind="mlp")
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 8))
        perm = rng.permutation(7)
        out = shared_lm(Tensor(x), cfg, params)
        out_p = shared_lm(Tensor(x[perm]), cfg, params)
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)

    def test_duplicate_rows_stay_duplicates(self):
        cfg, params = make_params(kind="mlp")
        row = np.random.default_rng(4).standard_normal(8)
        out = shared_lm(Tensor(np.stack([row, row, row])), cfg, params)
        np.testing.assert_array_equal(out.data[0], out.data[1])
        np.testing.assert_array_equal(out.data[1], out.data[2])


def _full_attention(x, wq, wk, wv, wo):
    """Single-head attention over all rows, then wo, with plain numpy."""
    q, k, v = x @ wq, x @ wk, x @ wv
    scores = (q / np.sqrt(wq.shape[1])) @ k.T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ v @ wo


def _full_attention_oracle(x, params, p):
    """A one-block attention shared_lm over a single window, mix and FFN
    sublayers, recomputed with plain numpy."""
    mixed = _full_attention(x, *(params[f"{p}.{w}"].data for w in ("wq", "wk", "wv", "wo")))

    def ln(z, g, b):
        mu = z.mean(axis=1, keepdims=True)
        var = ((z - mu) ** 2).mean(axis=1, keepdims=True)
        return (z - mu) / np.sqrt(var + 1e-5) * g + b

    h1 = ln(x + mixed, params[f"{p}.ln1.g"].data, params[f"{p}.ln1.b"].data)
    z = h1 @ params[f"{p}.ffn.1.w"].data + params[f"{p}.ffn.1.b"].data
    mid = 0.5 * z * (1 + np.tanh(np.sqrt(2 / np.pi) * (z + 0.044715 * z**3)))
    f = mid @ params[f"{p}.ffn.2.w"].data + params[f"{p}.ffn.2.b"].data
    return ln(h1 + f, params[f"{p}.ln2.g"].data, params[f"{p}.ln2.b"].data)


class TestWindowedAttention:
    def test_single_window_is_full_attention(self):
        cfg, params = make_params(kind="windowed_attention")
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 8))
        want = _full_attention_oracle(x, params, "lm.0")
        for window in (6, 100):
            got = shared_lm(Tensor(x), replace(cfg, window=window), params)
            assert np.max(np.abs(got.data - want)) < 1e-9

    def test_boundary_isolation(self):
        window = 4
        cfg, params = make_params(kind="windowed_attention", window=window)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 8))
        base = shared_lm(Tensor(x), cfg, params).data
        bumped = x.copy()
        bumped[0] += 10.0
        out = shared_lm(Tensor(bumped), cfg, params).data
        # tokens 0..3 share token 0's window and may move; 4.. must not
        assert np.max(np.abs(out[window:] - base[window:])) == 0.0
        assert np.max(np.abs(out[:window] - base[:window])) > 0.0

    def test_segmentation_counts(self):
        # n=1030 at window 512 -> segments of 512, 512 and 6
        cfg, params = make_params(kind="windowed_attention")
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1030, 8))
        base = shared_lm(Tensor(x), cfg, params).data
        bumped = x.copy()
        bumped[1024] += 5.0
        out = shared_lm(Tensor(bumped), cfg, params).data
        changed = np.where(np.abs(out - base).max(axis=1) > 0)[0]
        assert changed.min() >= 1024 and changed.max() <= 1029


WINDOW = 4


def _attention_inputs(n, seed, d=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    weights = [rng.standard_normal((d, d)) * 0.5 for _ in range(4)]
    return x, weights, rng.standard_normal((n, d))


def _attention_run(op, x, weights, c, window):
    """op's output, then the gradients of sum(out * c) for x, wq, wk, wv, wo."""
    xt = Tensor(x, requires_grad=True)
    wt = [Tensor(w, requires_grad=True) for w in weights]
    with Tape() as tape:
        out = op(xt, *wt, window)
        loss = sum_all(mul(out, Tensor(c)))
    tape.backward(loss)
    return [out.data, xt.grad] + [w.grad for w in wt]


BIG = T._BLOCK + 44  # a window of two query blocks, the second one partial
COMPOSED = [(n, WINDOW) for n in (1, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 3)] + [(2 * BIG + 5, BIG)]


class TestWindowedAttentionOp:
    """T.windowed_attention against the per-window composition of
    elementary ops, for lengths around the window edge and around the edge
    of a query block, each on two random draws."""

    @pytest.mark.parametrize("draw", [1, 2])
    @pytest.mark.parametrize("n, window", COMPOSED, ids=[str(n) for n, _ in COMPOSED])
    def test_matches_the_composition(self, n, window, draw):
        x, weights, c = _attention_inputs(n, seed=n + 10 * draw)
        got = _attention_run(T.windowed_attention, x, weights, c, window)
        want = _attention_run(composed_windowed_attention, x, weights, c, window)
        for name, a, b in zip(("out", "x", "wq", "wk", "wv", "wo"), got, want):
            assert rel_err(a, b) < 1e-12, name
        untaped = T.windowed_attention(Tensor(x), *map(Tensor, weights), window)
        np.testing.assert_array_equal(untaped.data, got[0])

    @pytest.mark.parametrize("draw", [1, 2])
    @pytest.mark.parametrize("n", [1, WINDOW, 2 * WINDOW + 3])
    def test_window_at_least_n_is_full_attention(self, n, draw):
        x, weights, _ = _attention_inputs(n, seed=10 * draw + n)
        want = _full_attention(x, *weights)
        for window in (n, n + 5):
            got = T.windowed_attention(Tensor(x), *map(Tensor, weights), window)
            assert rel_err(got.data, want) < 1e-12

    @pytest.mark.parametrize("draw", [1, 2])
    def test_backward_recomputes_the_forward_probabilities_bit_for_bit(self, draw, monkeypatch):
        x, weights, c = _attention_inputs(2 * BIG + 5, seed=29 + draw)
        seen = []

        def exp_scores(*args, _exp_scores=T._exp_scores):
            e, top = _exp_scores(*args)
            seen.append(e.copy())
            return e, top

        monkeypatch.setattr(T, "_exp_scores", exp_scores)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = T.windowed_attention(xt, *map(Tensor, weights), BIG)
            loss = sum_all(mul(out, Tensor(c)))
        cells = 5  # windows of 2, 2 and 1 query blocks
        assert len(seen) == cells
        tape.backward(loss)
        assert len(seen) == 2 * cells
        for forward, recomputed in zip(seen[:cells], seen[cells:]):
            np.testing.assert_array_equal(recomputed, forward)

    def test_multiplies_are_the_closed_form_with_recomputed_projections(self):
        n = 2 * WINDOW + 3
        x, weights, c = _attention_inputs(n, seed=35)
        d = m = x.shape[1]  # wo is (m, d)
        sizes = [WINDOW, WINDOW, 3]
        forward = (
            3 * n * d * m                             # q, k and v, window by window
            + sum(2 * r * r * m for r in sizes)       # q k^T and e v
            + n * m * d                               # merged @ wo
        )
        backward = (
            n * m * d                                 # wo's gradient, merged^T g per window
            + 3 * n * d * m                           # q, k and v again
            + n * d * m                               # gm = g wo^T
            + sum(r * r * m for r in sizes)           # the merged rows again, e v
            + sum(5 * r * r * m for r in sizes)       # q k^T, e^T gm, gm v^T, gs k, gs^T q
            + 3 * n * m * d                           # x's gradient
            + 3 * d * n * m                           # wq's, wk's and wv's gradients
        )
        m0 = COUNTER.total
        _attention_run(T.windowed_attention, x, weights, c, WINDOW)
        assert COUNTER.total - m0 == forward + backward

    def test_prediction_peak_is_about_two_outputs(self):
        """With no tape, attention over n = 8 * 512 + 100 rows at width 64
        allocates the output, one window's q, k, v and merged rows and one
        _BLOCK x window buffer of exponentials. At window 512 that is at most
        3 units of n * d float64s; keeping n-row merged rows and a window's
        probabilities read 3.35, and projecting q, k and v over all n rows
        first 6.0. At window = n, the window's four arrays are a unit each
        and the buffer _BLOCK / d = 4 units, at most 10 in all; a window x
        window matrix of probabilities read 70.6."""
        n, d = 8 * 512 + 100, 64
        rng = np.random.default_rng(36)
        x = Tensor(rng.standard_normal((n, d)))
        weights = [Tensor(rng.standard_normal((d, d)) * d ** -0.5) for _ in range(4)]
        for window, bound in ((512, 3.0), (n, 10.0)):
            gc.collect()
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = T.windowed_attention(x, *weights, window)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if started:
                    tracemalloc.stop()
            assert out.shape == (n, d)
            del out
            units = peak / (n * d * 8)
            assert units <= bound, f"window {window}: peak {units:.2f} units"

    def test_block_node_count_does_not_grow_with_n(self):
        cfg, params = make_params(kind="windowed_attention", window=WINDOW)
        counts = []
        for n in (1, WINDOW, 9 * WINDOW + 1):
            xt = Tensor(np.random.default_rng(n).standard_normal((n, 8)), requires_grad=True)
            with Tape() as tape:
                shared_lm(xt, cfg, params)
            counts.append(len(tape.nodes))
        assert counts == [4, 4, 4]  # attention, two layer norms, ffn

    def test_shape_errors(self):
        x, weights, _ = _attention_inputs(5, seed=40)
        ws = list(map(Tensor, weights))
        with pytest.raises(T.ShapeError, match="wk must be"):
            T.windowed_attention(Tensor(x), ws[0], Tensor(weights[1][:6]), ws[2], ws[3], 4)
        with pytest.raises(T.ShapeError, match="wo must have 8 rows"):
            T.windowed_attention(Tensor(x), *ws[:3], Tensor(weights[3][:6]), 4)
        with pytest.raises(T.ShapeError, match="window must be >= 1, got 0"):
            T.windowed_attention(Tensor(x), *ws, 0)


class TestSharedLm:
    def test_both_branches_bit_identical(self):
        cfg, params = make_params(n_blocks=2)
        x = np.random.default_rng(8).standard_normal((5, 8))
        en = shared_lm(Tensor(x), cfg, params)
        re = shared_lm(Tensor(x), cfg, params)
        assert np.array_equal(en.data, re.data)

    def test_single_weight_set(self):
        d, ffn, blocks = 8, 12, 2
        cfg, params = make_params(n_blocks=blocks, d=d, ffn=ffn)
        per_block = 2 * (2 * d) + (d * ffn + ffn) + (ffn * d + d)
        assert sum(p.data.size for _, p in params.items()) == blocks * per_block  # one branch, not two

    def test_gradients_sum_across_losses(self):
        cfg, params = make_params(n_blocks=1)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 8))
        wa = rng.standard_normal((4, 8))
        wb = rng.standard_normal((4, 8))
        name = "lm.0.ffn.1.w"

        def run_loss(weights):
            out = shared_lm(Tensor(x), cfg, params)
            return sum_all(mul(out, Tensor(weights)))

        grads = []
        for w in ([wa], [wb], [wa, wb]):
            params.zero_grad()
            with Tape() as tape:
                losses = [run_loss(wi) for wi in w]
                total = losses[0] if len(losses) == 1 else T.add(*losses)
            tape.backward(total)
            grads.append(params[name].grad.copy())
        np.testing.assert_allclose(grads[2], grads[0] + grads[1], atol=1e-12)
