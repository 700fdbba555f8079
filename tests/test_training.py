import numpy as np
import pytest

from jnrf.config import RunConfig
from jnrf.model import JNRF, encode_document, encode_sentences
from jnrf.params import Params
from jnrf.tensor import Tape
from jnrf.training import AdamState, TrainingError, _accumulate_pass, adam_step, train

from test_model import TINY, build_toy_doc, tiny_table


class TestAdamStep:
    @pytest.mark.parametrize("bad, kind", [(np.inf, "inf"), (np.nan, "NaN")])
    def test_non_finite_gradient_rejected_before_any_update(self, bad, kind):
        params = Params()
        params.add("a", np.ones((1, 2)))
        params.add("b", np.ones((2, 2)))
        state = AdamState.for_params(params)
        params["a"].grad = np.full((1, 2), 0.5)
        grad = np.zeros((2, 2))
        grad[1, 0] = bad
        params["b"].grad = grad
        with pytest.raises(TrainingError, match=rf"^{kind} gradient in parameter 'b'$"):
            adam_step(params, state)
        assert state.step_count == 0
        for name in ("a", "b"):
            np.testing.assert_array_equal(params[name].data, 1.0)
            np.testing.assert_array_equal(state.m[name], 0.0)
            np.testing.assert_array_equal(state.v[name], 0.0)


def test_train_without_dev_docs_keeps_final_weights():
    doc, vocab = build_toy_doc()
    table = tiny_table(len(vocab))
    cfg = RunConfig(epochs=3, lr=0.05)

    # reference: three epochs of one document each, one Adam step per epoch
    ref = JNRF(TINY, seed=21)
    state = AdamState.for_params(ref.params, lr=cfg.lr)
    inst = encode_document(doc)
    after = []
    for _ in range(cfg.epochs):
        with Tape() as tape:
            loss, _, _ = ref.instance_losses(inst, table)
            tape.backward(loss)
        adam_step(ref.params, state)
        ref.params.zero_grad()
        after.append({n: p.data.copy() for n, p in ref.params.items()})

    model = JNRF(TINY, seed=21)
    result = train(model, table, [doc], [], cfg)
    assert result.best_epoch == 3 and result.best_dev_f1 == 0.0
    assert len(result.history) == 3
    assert any(not np.array_equal(after[0][n], after[2][n]) for n in after[2])
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, after[2][name], err_msg=name)


class TestNonFiniteLoss:
    def _nan_model(self):
        # alpha only enters the relation scores, so only an instance that
        # pools both a drug and an attribute gets a NaN loss
        model = JNRF(TINY, seed=22)
        model.params["alpha"].data[0, 2] = np.nan
        return model

    def test_sentence_loss_rejected_before_backward(self):
        doc, vocab = build_toy_doc()
        table = tiny_table(len(vocab))
        model = self._nan_model()
        before = {n: p.data.copy() for n, p in model.params.items()}
        state = AdamState.for_params(model.params, lr=0.05)
        # sentence 1 holds no drug: its loss is finite and its backward runs;
        # sentence 0 pools a drug and its attributes
        instances = encode_sentences(doc)
        with pytest.raises(
            TrainingError, match=r"^non-finite loss nan in document 'toy', sentence 0$"
        ):
            _accumulate_pass(model, table, instances, [1, 0], state, batch=64)
        assert model.params["alpha"].grad is None  # sentence 0 never ran backward
        assert state.step_count == 0
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)
            np.testing.assert_array_equal(state.m[name], 0.0)
            np.testing.assert_array_equal(state.v[name], 0.0)

    def test_train_names_the_document(self):
        doc, vocab = build_toy_doc()
        model = self._nan_model()
        before = {n: p.data.copy() for n, p in model.params.items()}
        with pytest.raises(TrainingError, match=r"^non-finite loss nan in document 'toy'$"):
            train(model, tiny_table(len(vocab)), [doc], [], RunConfig(epochs=1))
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)
