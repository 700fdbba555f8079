import hashlib
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from jnrf import tensor as T
from jnrf.config import ConfigError, ModelConfig, RunConfig
from jnrf.corpus import Tokens, parse_brat
from jnrf.evaluation import PredictedDoc, build_report
from jnrf.model import JNRF, encode_document, predictions_to_brat
from jnrf.params import Params
from jnrf.tensor import ShapeError, Tape, Tensor
from jnrf.tokenizer import Vocab, prepare
from jnrf.training import (
    AdamState,
    TrainingError,
    _document_pass,
    adam_step,
    predict_documents,
    train,
)

from oracles import scalar_adam
from test_model import TINY, build_toy_doc, tiny_table


class TestAdamStep:
    @pytest.mark.parametrize("bad, kind", [(np.inf, "inf"), (np.nan, "NaN")])
    def test_non_finite_gradient_rejected_before_any_update(self, bad, kind):
        params = Params()
        params.add("a", np.ones((1, 2)))
        params.add("b", np.ones((2, 2)))
        state = AdamState.for_params(params, lr=1e-3)
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

    def test_three_steps_match_the_scalar_oracle(self):
        rng = np.random.default_rng(4)
        params = Params()
        params.add("a", rng.standard_normal((1, 2)))
        params.add("b", rng.standard_normal((2, 3)))
        start = {name: p.data.copy() for name, p in params.items()}
        state = AdamState.for_params(params, lr=0.01)
        grads = {name: [] for name in start}
        for _ in range(3):
            for name, p in params.items():
                # spans 1e-9 to 10, so eps changes the smallest updates
                p.grad = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-9, 2, p.shape)
                grads[name].append(p.grad)
            adam_step(params, state)
        assert state.step_count == 3
        for name, p in params.items():
            for idx in np.ndindex(p.shape):
                want = scalar_adam(
                    float(start[name][idx]), [float(g[idx]) for g in grads[name]], lr=0.01
                )
                assert p.data[idx] == want, (name, idx)


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


class TestForwardErrorsNameTheDocument:
    @pytest.mark.parametrize("rows, width, error, match", [
        (5, 6, ConfigError, r"vocab id \d+ out of range \[0, 5\)"),
        (12, 4, ShapeError, r"ffn: inner dimensions disagree: \(\d+, 4\) x \(6, 8\)"),
    ], ids=["vocab-id", "table-width"])
    def test_train_and_dev_f1_name_the_document(self, rows, width, error, match):
        doc, vocab = build_toy_doc()
        assert len(vocab) == 12
        table = tiny_table(rows, d=width)
        model = JNRF(TINY, seed=24)
        before = {n: p.data.copy() for n, p in model.params.items()}
        with pytest.raises(error, match=rf"^{match} in document 'toy'$"):
            train(model, table, [doc], [], RunConfig(epochs=1))
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)
            assert p.grad is None, name
        with pytest.raises(error, match=rf"^{match} in document 'toy'$"):
            predict_documents(model, table, [doc])


class TestNonFiniteLoss:
    def _nan_model(self):
        # alpha only enters the relation scores, so only an instance that
        # pools both a drug and an attribute gets a NaN loss
        model = JNRF(TINY, seed=22)
        model.params["alpha"].data[0, 1] = np.nan
        return model

    def test_document_loss_rejected_before_backward(self):
        doc, vocab = build_toy_doc()
        table = tiny_table(len(vocab))
        model = self._nan_model()
        before = {n: p.data.copy() for n, p in model.params.items()}
        state = AdamState.for_params(model.params, lr=0.05)
        # the toy document pools a drug and its attributes; the pass stops
        # there, before its backward and before the second document
        instances = [encode_document(doc), encode_document(doc)]
        with pytest.raises(TrainingError, match=r"^non-finite loss nan in document 'toy'$"):
            _document_pass(model, table, [doc, doc], instances, [0, 1], state)
        assert model.params["alpha"].grad is None  # backward never ran
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

    def test_gradient_error_names_the_document(self, monkeypatch):
        doc, vocab = build_toy_doc()
        model = JNRF(TINY, seed=22)
        before = {n: p.data.copy() for n, p in model.params.items()}
        state = AdamState.for_params(model.params, lr=0.05)
        alpha = model.params["alpha"]

        def losses(inst, table):
            # a finite loss whose one node sends an inf into alpha's gradient
            loss = Tensor([[0.5]])
            T._record(loss, (alpha,), lambda g: (np.full(alpha.shape, np.inf),))
            return loss, loss, None

        monkeypatch.setattr(model, "instance_losses", losses)
        with pytest.raises(
            TrainingError, match=r"^inf gradient in parameter 'alpha' in document 'toy'$"
        ):
            _document_pass(model, tiny_table(len(vocab)), [doc], [encode_document(doc)], [0], state)
        assert state.step_count == 0
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)

    def test_backward_error_names_the_document(self, monkeypatch):
        doc, vocab = build_toy_doc()
        model = JNRF(TINY, seed=22)
        before = {n: p.data.copy() for n, p in model.params.items()}
        state = AdamState.for_params(model.params, lr=0.05)
        alpha = model.params["alpha"]

        def overflow(g):
            raise FloatingPointError("overflow encountered in multiply")

        def losses(inst, table):
            # a finite loss whose one node overflows in backward
            loss = Tensor([[0.5]])
            T._record(loss, (alpha,), overflow)
            return loss, loss, None

        monkeypatch.setattr(model, "instance_losses", losses)
        with pytest.raises(
            FloatingPointError, match=r"^overflow encountered in multiply in document 'toy'$"
        ):
            _document_pass(model, tiny_table(len(vocab)), [doc], [encode_document(doc)], [0], state)
        assert state.step_count == 0
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)


@pytest.mark.parametrize("mixer", ["fnet", "mlp", "windowed_attention"])
def test_train_rejects_a_document_with_no_tokens_before_any_forward(mixer, monkeypatch):
    doc, vocab = build_toy_doc()
    blank = prepare(parse_brat("   \n ", "", "blank"), vocab)
    assert len(blank.tokens) == 0
    cfg = RunConfig(emb_dim=6, d_model=6, ffn_hidden=8, n_blocks=1, mixer=mixer, epochs=1)
    model = JNRF(ModelConfig.from_run_config(cfg), seed=24)
    before = {n: p.data.copy() for n, p in model.params.items()}
    forwards = []
    losses = model.instance_losses
    monkeypatch.setattr(model, "instance_losses", lambda *a: forwards.append(1) or losses(*a))
    with pytest.raises(TrainingError, match=r"^document 'blank' has no tokens$"):
        train(model, tiny_table(len(vocab)), [doc, blank], [], cfg)
    assert forwards == []
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)


_DRUGS = ("metoprin", "lisinol", "warfex")
_FREQS = ("daily", "weekly")
_REASONS = ("nausea", "pain", "cough")
_ADES = ("rash", "fever")
_FILLER = ("the", "patient", "developed", "mg", "for", ".")


def synthetic_docs(n_docs: int, seed: int):
    """Small BRAT documents of 3-5 sentences. Each sentence is either
    "<drug> <n> mg <freq> for <reason>." (three attributes of that drug) or
    "the patient developed <ade>." (an ADE of the previous sentence's drug,
    a relation across a sentence boundary)."""
    rng = random.Random(seed)
    numbers = ("10", "25", "50")
    vocab = Vocab(["[UNK]", *_DRUGS, *_FREQS, *_REASONS, *_ADES, *_FILLER, *numbers])
    docs = []
    for d in range(n_docs):
        text, ents, rels, drug = "", [], [], None

        def mention(etype, surface):
            nonlocal text
            start = len(text)
            text += surface
            ents.append(f"T{len(ents) + 1}\t{etype} {start} {len(text)}\t{surface}")
            return f"T{len(ents)}"

        for s in range(rng.randint(3, 5)):
            if text:
                text += " "
            if s > 0 and rng.random() < 0.3:
                text += "the patient developed "
                ade = mention("ADE", rng.choice(_ADES))
                rels.append(("ADE-Drug", ade, drug))
            else:
                drug = mention("Drug", rng.choice(_DRUGS))
                text += " "
                attrs = [("Strength", mention("Strength", f"{rng.choice(numbers)} mg"))]
                text += " "
                attrs.append(("Frequency", mention("Frequency", rng.choice(_FREQS))))
                text += " for "
                attrs.append(("Reason", mention("Reason", rng.choice(_REASONS))))
                rels.extend((f"{etype}-Drug", t, drug) for etype, t in attrs)
            text += "."
        ann = "\n".join(
            ents + [f"R{i + 1}\t{r} Arg1:{a} Arg2:{b}" for i, (r, a, b) in enumerate(rels)]
        )
        doc = parse_brat(text, ann + "\n", f"synth{d}")
        prepare(doc, vocab)
        docs.append(doc)
    return docs, vocab


def test_the_pipeline_reads_token_columns_only(monkeypatch):
    """From prepare to the report nothing iterates doc.tokens, which has no
    row indexing."""

    def no_rows(*_):
        raise AssertionError("row access on doc.tokens")

    monkeypatch.setattr(Tokens, "__iter__", no_rows)
    docs, vocab = synthetic_docs(3, seed=5)
    cfg = RunConfig(emb_dim=6, d_model=6, ffn_hidden=8, n_blocks=1, epochs=1, lr=0.05)
    table = tiny_table(len(vocab))
    model = JNRF(ModelConfig.from_run_config(cfg), seed=23)
    train(model, table, docs[:2], docs[2:], cfg)
    build_report(predict_documents(model, table, docs), docs)
    gold_spans = []
    for doc in docs:
        inst = encode_document(doc)
        relations = [(drug, attr) for attr, drug in inst.relations]
        gold_spans.append(PredictedDoc(doc.doc_id, *predictions_to_brat(doc, inst.spans, relations)))
    # the gold token spans map back onto the gold characters
    assert build_report(gold_spans, docs).e2e.f1 == 1.0


def training_run():
    """Weights, history (without wall-clock seconds) and predictions of a
    2-epoch run with a dev document."""
    docs, vocab = synthetic_docs(3, seed=5)
    cfg = RunConfig(emb_dim=6, d_model=6, ffn_hidden=8, n_blocks=1, epochs=2, lr=0.05)
    table = tiny_table(len(vocab))
    model = JNRF(ModelConfig.from_run_config(cfg), seed=23)
    result = train(model, table, docs[:2], docs[2:], cfg)
    history = [(s.epoch, s.train_loss, s.dev_f1) for s in result.history]
    predictions = [model.predict_instance(encode_document(d), table) for d in docs]
    weights = {n: p.data.copy() for n, p in model.params.items()}
    return weights, (result.best_epoch, result.best_dev_f1, history), predictions


def run_digest() -> str:
    weights, outcome, predictions = training_run()
    h = hashlib.sha256()
    for name, arr in weights.items():
        h.update(name.encode())
        h.update(arr.tobytes())
    h.update(repr((outcome, predictions)).encode())
    return h.hexdigest()


def test_dev_e2e_f1_equals_the_report():
    docs, vocab = synthetic_docs(3, seed=5)
    by_doc = {}
    for i, doc in enumerate(docs):
        inst = encode_document(doc)
        spans = inst.spans
        drugs = [j for j, s in enumerate(spans) if s[2] == "Drug"]
        relations = []  # (drug span index, attribute span index)
        for r, (attr, drug) in enumerate(inst.relations):
            if r % 3 == i:
                continue  # a missed relation
            if r % 3 == (i + 1) % 3 and len(drugs) > 1:
                # a relation to the wrong drug
                wrong = next(d for d in drugs if d != drug)
                relations.append((wrong, attr))
            else:
                relations.append((drug, attr))
        by_doc[doc.doc_id] = (spans, relations)
    # stands in for a model that predicts these spans and relations, one
    # document per call, in order
    answers = iter(by_doc[d.doc_id] for d in docs)
    model = SimpleNamespace(predict_instance=lambda inst, table: next(answers))

    got = build_report(predict_documents(model, tiny_table(len(vocab)), docs), docs).e2e.f1
    preds = [PredictedDoc(d.doc_id, *predictions_to_brat(d, *by_doc[d.doc_id])) for d in docs]
    want = build_report(preds, docs).e2e.f1
    assert 0 < want < 1
    assert got == want


class TestDeterminism:
    def test_train_is_bit_identical_within_a_process(self):
        (w1, out1, pred1), (w2, out2, pred2) = training_run(), training_run()
        assert list(w1) == list(w2)
        for name in w1:
            assert np.array_equal(w1[name], w2[name]), name
        assert out1 == out2
        assert pred1 == pred2

    def test_train_is_bit_identical_across_hash_seeds(self):
        """Each subprocess sets another hash seed and another BLAS thread
        count; every run, this one included, gives the same digest."""
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        code = (
            f"import sys; sys.path[:0] = [{src!r}, {here!r}]; "
            "from test_training import run_digest; print(run_digest())"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "OPENBLAS_NUM_THREADS": threads},
            ).stdout.strip()
            for hash_seed, threads in (("1", "1"), ("2", "2"))
        }
        assert digests == {run_digest()}
