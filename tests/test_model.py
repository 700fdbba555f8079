import math

import numpy as np
import pytest

from jnrf import tensor as T
from jnrf.corpus import NUM_LABELS, bio_label, parse_brat
from jnrf.embedding import EmbeddingTable
from jnrf.model import (
    JNRF,
    ModelConfig,
    build_relation_targets,
    decode_bio,
    distance_matrix,
    encode_document,
    joint_loss,
    ner_loss,
    predict_relations,
    predictions_to_brat,
    re_loss,
    selective_pool,
)
from jnrf.tensor import Tape, Tensor
from jnrf.tokenizer import Vocab, prepare

from oracles import (
    all_heads_relation_scores,
    fd_grad,
    rel_err,
    scalar_ner_loss,
    scalar_re_loss,
)

TINY = ModelConfig(emb_dim=6, d_model=6, ffn_hidden=8, mixer="fnet", n_blocks=1)


def tiny_table(vocab_size=20, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(rng.standard_normal((vocab_size, d)))


class TestNerHead:
    def test_permutation_equivariance(self):
        model = JNRF(TINY, seed=1)
        rng = np.random.default_rng(2)
        e2 = rng.standard_normal((7, 6))
        perm = rng.permutation(7)
        out = model.ner_head(Tensor(e2)).data
        out_p = model.ner_head(Tensor(e2[perm])).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 224, 13990])
    def test_output_shape(self, n):
        model = JNRF(TINY, seed=1)
        out = model.ner_head(Tensor(np.zeros((n, 6))))
        assert out.shape == (n, NUM_LABELS)

    def test_gradient(self):
        model = JNRF(TINY, seed=1)
        rng = np.random.default_rng(3)
        e2 = rng.standard_normal((4, 6))
        w = rng.standard_normal((4, NUM_LABELS))
        x = Tensor(e2, requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(model.ner_head(x), Tensor(w)))
        tape.backward(loss)

        def value():
            x.data[...] = e2
            with Tape():
                return T.sum_all(T.mul(model.ner_head(x), Tensor(w))).item()

        assert rel_err(x.grad, fd_grad(value, e2)) < 1e-6


class TestDecodeBio:
    def logits_for(self, labels):
        out = np.zeros((len(labels), NUM_LABELS))
        for i, lab in enumerate(labels):
            out[i, lab] = 5.0
        return out

    def test_b_then_i(self):
        labs = [bio_label("Drug", True), bio_label("Drug", False), 0]
        _, spans = decode_bio(self.logits_for(labs))
        assert spans == [(0, 2, "Drug")]

    def test_bare_i_opens_span(self):
        labs = [0, bio_label("Drug", False)]
        _, spans = decode_bio(self.logits_for(labs))
        assert spans == [(1, 2, "Drug")]

    def test_adjacent_b_b(self):
        labs = [bio_label("Drug", True), bio_label("Drug", True)]
        _, spans = decode_bio(self.logits_for(labs))
        assert spans == [(0, 1, "Drug"), (1, 2, "Drug")]

    def test_type_change_reopens(self):
        labs = [bio_label("Drug", True), bio_label("Route", False)]
        _, spans = decode_bio(self.logits_for(labs))
        assert spans == [(0, 1, "Drug"), (1, 2, "Route")]

    def test_ties_take_lowest_class(self):
        labels, spans = decode_bio(np.zeros((3, NUM_LABELS)))
        assert list(labels) == [0, 0, 0] and spans == []


class TestSelectivePooling:
    def test_basic_pool(self):
        rng = np.random.default_rng(4)
        e3 = rng.standard_normal((8, 6))
        spans = [(2, 3, "Drug"), (5, 6, "Strength")]
        pooled = selective_pool(Tensor(e3), spans)
        assert len(pooled.h_spans) == 1 and len(pooled.l_spans) == 1
        np.testing.assert_array_equal(pooled.q.data[0], e3[2])
        np.testing.assert_array_equal(pooled.k.data[0], e3[5])

    def test_no_drugs_is_empty(self):
        pooled = selective_pool(Tensor(np.zeros((4, 6))), [(0, 1, "Route")])
        assert pooled.empty and pooled.q is None

    def test_candidate_pair_count(self):
        spans = [(i, i + 1, "Drug") for i in range(3)] + [
            (10 + i, 11 + i, "Dosage") for i in range(4)
        ]
        pooled = selective_pool(Tensor(np.zeros((20, 6))), spans)
        assert len(pooled.h_spans) * len(pooled.l_spans) == 12

    def test_mean_pooling(self):
        e3 = np.arange(24, dtype=float).reshape(4, 6)
        pooled = selective_pool(
            Tensor(e3), [(0, 2, "Drug"), (2, 3, "Form")], pool="mean"
        )
        np.testing.assert_allclose(pooled.q.data[0], e3[:2].mean(axis=0))


class TestDistanceMatrix:
    def test_values(self):
        d = distance_matrix(np.array([2, 10]), np.array([5, 7]))
        np.testing.assert_array_equal(d, [[3, 5], [5, 3]])

    def test_coincident(self):
        assert distance_matrix(np.array([4]), np.array([4]))[0, 0] == 0

    def test_table_scale_extreme(self):
        assert distance_matrix(np.array([0]), np.array([13989]))[0, 0] == 13989


class TestRelationScores:
    def zeroed_model(self):
        model = JNRF(TINY, seed=5)
        for j in range(8):
            for side in ("q", "k"):
                model.params[f"rel.{j}.{side}.w"].data[...] = 0.0
                model.params[f"rel.{j}.{side}.b"].data[...] = 0.0
        return model

    def test_pure_quadratic_term(self):
        model = self.zeroed_model()
        model.params["alpha"].data[0] = [1.0, 0.0, 0.0]
        psi = model.relation_scores(
            Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 6))), np.array([[2.0]]), [0]
        )
        assert psi.item() == 4.0

    def test_constant_term_via_ones(self):
        model = self.zeroed_model()
        model.params["alpha"].data[3] = [0.0, 0.0, 5.0]
        d = np.array([[1.0, 7.0], [3.0, 0.0]])
        psi = model.relation_scores(
            Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6))), d, [3, 3]
        )
        np.testing.assert_array_equal(psi.data, np.full((2, 2), 5.0))

    def test_alpha_zero_equals_plain_scores(self):
        model = JNRF(TINY, seed=6)
        rng = np.random.default_rng(7)
        q, k = rng.standard_normal((2, 6)), rng.standard_normal((3, 6))
        d = distance_matrix(np.array([1, 2, 9]), np.array([0, 5]))
        for j in range(8):
            psi = model.relation_scores(Tensor(q), Tensor(k), d, [j] * 3)
            qj = q @ model.params[f"rel.{j}.q.w"].data + model.params[f"rel.{j}.q.b"].data
            kj = k @ model.params[f"rel.{j}.k.w"].data + model.params[f"rel.{j}.k.b"].data
            np.testing.assert_array_equal(psi.data, kj @ qj.T)

    def test_alpha_gradient_vs_finite_differences(self):
        model = JNRF(TINY, seed=8)
        rng = np.random.default_rng(9)
        q, k = rng.standard_normal((2, 6)), rng.standard_normal((4, 6))
        d = distance_matrix(np.array([2, 8, 3, 11]), np.array([1, 4]))
        heads = [0, 3, 3, 7]
        w = rng.standard_normal((4, 2))
        alpha = model.params["alpha"]
        base = alpha.data.copy()

        def run():
            psi = model.relation_scores(Tensor(q), Tensor(k), d, heads)
            return T.sum_all(T.mul(psi, Tensor(w)))

        with Tape() as tape:
            loss = run()
        tape.backward(loss)

        def value():
            alpha.data[...] = base
            with Tape():
                return run().item()

        assert rel_err(alpha.grad, fd_grad(value, base)) < 1e-6

    def test_rows_match_all_heads_oracle(self):
        """Row l is the oracle's plane heads[l], column l: types interleaved,
        heads 1, 3 and 5 absent, a nonzero distance polynomial."""
        model = JNRF(TINY, seed=22)
        rng = np.random.default_rng(23)
        model.params["alpha"].data[...] = rng.standard_normal((8, 3)) * [1e-3, 0.1, 1.0]
        q, k = rng.standard_normal((3, 6)), rng.standard_normal((7, 6))
        pos_h, pos_l = np.array([4, 30, 17]), np.array([0, 9, 21, 40, 5, 33, 12])
        heads = [4, 0, 4, 7, 0, 2, 6]
        psi = model.relation_scores(Tensor(q), Tensor(k), distance_matrix(pos_l, pos_h), heads)
        planes = all_heads_relation_scores(model.params, q, k, distance_matrix(pos_h, pos_l))
        assert psi.shape == (7, 3)
        for l, j in enumerate(heads):
            assert rel_err(psi.data[l], planes[j, :, l]) < 1e-12, l


class TestLosses:
    def test_ner_uniform_logits(self):
        loss = ner_loss(Tensor(np.zeros((5, NUM_LABELS))), np.zeros(5, dtype=int))
        assert abs(loss.item() - math.log(19)) < 1e-12

    def test_ner_perfect_margin_monotone(self):
        labels = np.array([3, 0, 7])
        last = None
        for margin in (2.0, 5.0, 10.0, 30.0):
            logits = np.zeros((3, NUM_LABELS))
            logits[np.arange(3), labels] = margin
            val = ner_loss(Tensor(logits), labels).item()
            if last is not None:
                assert val < last
            last = val
        assert last < 1e-10

    def test_ner_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((50, NUM_LABELS)) * 3
        labels = rng.integers(0, NUM_LABELS, size=50)
        got = ner_loss(Tensor(logits), labels).item()
        assert abs(got - scalar_ner_loss(logits, labels)) < 1e-12

    def test_re_uniform_column(self):
        nl, nh = 3, 2  # one row per attribute, uniform over its drugs
        targets = np.zeros((nl, nh))
        targets[0, 1] = 1.0
        got = re_loss(Tensor(np.zeros((nl, nh))), targets).item()
        assert abs(got - math.log(2) / (nh * nl)) < 1e-12

    def test_re_all_zero_targets(self):
        psi = Tensor(np.random.default_rng(11).standard_normal((2, 2)))
        assert re_loss(psi, np.zeros((2, 2))).item() == 0.0

    def test_re_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        psi = rng.standard_normal((4, 3))
        targets = np.zeros((4, 3))
        for p, h in enumerate([1, 2, 0, 1]):
            targets[p, h] = 1.0
        got = re_loss(Tensor(psi), targets).item()
        # the oracle takes (t, H, L) planes: one plane, drugs by attributes
        assert abs(got - scalar_re_loss(psi.T[None], targets.T[None])) < 1e-12

    def test_re_rows_match_scalar_oracle_on_full_planes(self):
        """Targets only at each attribute's own head: the loss on the rows
        equals the loss on every head's plane."""
        model = JNRF(TINY, seed=24)
        rng = np.random.default_rng(25)
        model.params["alpha"].data[...] = rng.standard_normal((8, 3)) * [1e-3, 0.1, 1.0]
        q, k = rng.standard_normal((3, 6)), rng.standard_normal((6, 6))
        pos_h, pos_l = np.array([2, 19, 40]), np.array([7, 0, 25, 33, 11, 45])
        heads = [5, 1, 5, 0, 7, 1]
        gold_drug = {0: 2, 1: 0, 3: 1, 4: 1, 5: 2}  # attribute 2 has no relation
        psi = model.relation_scores(Tensor(q), Tensor(k), distance_matrix(pos_l, pos_h), heads)
        planes = all_heads_relation_scores(model.params, q, k, distance_matrix(pos_h, pos_l))
        rows, full = np.zeros((6, 3)), np.zeros((8, 3, 6))
        for l, h in gold_drug.items():
            rows[l, h] = full[heads[l], h, l] = 1.0
        got = re_loss(psi, rows).item()
        assert rel_err(got, scalar_re_loss(planes, full)) < 1e-12

    def test_joint_sum(self):
        assert joint_loss(Tensor([[2.0]]), Tensor([[0.5]])).item() == 2.5

    def test_joint_degenerate_is_ner(self):
        lner = Tensor([[1.25]])
        assert joint_loss(lner, None) is lner


class TestPredictRelations:
    def test_argmax_selects_highest(self):
        from jnrf.corpus import relation_head

        j = relation_head("Form-Drug")
        triples = predict_relations(np.array([[0.1, 3.2]]), [j])
        assert triples == [(1, 0, j)]

    def test_single_drug_takes_all(self):
        psi = np.random.default_rng(13).standard_normal((3, 1))
        triples = predict_relations(psi, [2, 4, 6])  # Dosage, Route, Reason
        assert triples == [(0, 0, 2), (0, 1, 4), (0, 2, 6)]

    def test_tie_takes_lowest_drug(self):
        triples = predict_relations(np.zeros((1, 3)), [7])  # ADE
        assert triples[0][0] == 0

    def test_column_shift_invariance(self):
        rng = np.random.default_rng(14)
        psi = rng.standard_normal((3, 4))
        heads = [1, 4, 7]  # Form, Route, ADE
        base = predict_relations(psi, heads)
        shifted = psi + rng.standard_normal((3, 1))  # constant per attribute
        assert predict_relations(shifted, heads) == base


def build_toy_doc():
    text = "metoprin 50 mg daily for nausea. the patient developed rash."
    ann = (
        "T1\tDrug 0 8\tmetoprin\n"
        "T2\tStrength 9 14\t50 mg\n"
        "T3\tFrequency 15 20\tdaily\n"
        "T4\tReason 25 31\tnausea\n"
        "T5\tADE 55 59\trash\n"
        "R1\tStrength-Drug Arg1:T2 Arg2:T1\n"
        "R2\tFrequency-Drug Arg1:T3 Arg2:T1\n"
        "R3\tReason-Drug Arg1:T4 Arg2:T1\n"
        "R4\tADE-Drug Arg1:T5 Arg2:T1\n"
    )
    vocab = Vocab(
        ["[UNK]", "metoprin", "50", "mg", "daily", "for", "nausea", ".",
         "the", "patient", "developed", "rash"]
    )
    doc = parse_brat(text, ann, "toy")
    prepare(doc, vocab)
    return doc, vocab


class TestEndToEnd:
    def test_teacher_forced_loss_finite(self):
        doc, vocab = build_toy_doc()
        inst = encode_document(doc)
        model = JNRF(TINY, seed=15)
        table = tiny_table(len(vocab))
        with Tape() as tape:
            loss, lner, lre = model.instance_losses(inst, table)
        tape.backward(loss)
        assert np.isfinite(loss.item()) and lre is not None
        assert abs(loss.item() - (lner.item() + lre.item())) < 1e-12
        assert model.params["alpha"].grad is not None

    def test_joint_gradient_is_sum_of_per_loss_gradients(self):
        doc, vocab = build_toy_doc()
        inst = encode_document(doc)
        model = JNRF(TINY, seed=16)
        table = tiny_table(len(vocab))
        name = "lm.0.ffn.1.w"
        grads = {}
        for which in ("ner", "re", "joint"):
            model.params.zero_grad()
            with Tape() as tape:
                loss, lner, lre = model.instance_losses(inst, table)
                target = {"ner": lner, "re": lre, "joint": loss}[which]
            tape.backward(target)
            grads[which] = model.params[name].grad.copy()
        np.testing.assert_allclose(grads["joint"], grads["ner"] + grads["re"], atol=1e-12)

    def test_full_model_gradient_check(self):
        doc, vocab = build_toy_doc()
        inst = encode_document(doc)
        assert len(inst.ids) == 12  # covers the 12-token toy contract
        model = JNRF(TINY, seed=17)
        table = tiny_table(len(vocab))
        with Tape() as tape:
            loss, _, _ = model.instance_losses(inst, table)
        tape.backward(loss)
        rng = np.random.default_rng(18)
        for name in ("in.1.w", "lm.0.ffn.2.w", "ner.2.w", "re.1.w", "rel.3.q.w", "alpha"):
            p = model.params[name]
            base = p.data.copy()
            coords = rng.choice(base.size, size=min(6, base.size), replace=False)

            def value():
                p.data[...] = base
                with Tape():
                    return model.instance_losses(inst, table)[0].item()

            want = fd_grad(value, base, coords=coords)
            got = np.where(np.isin(np.arange(base.size).reshape(base.shape), coords), p.grad, 0)
            assert rel_err(got.ravel()[coords], want.ravel()[coords]) < 1e-4, name

    def test_no_drug_instance_uses_ner_only(self):
        text = "patient developed rash."
        ann = "T1\tADE 18 22\trash\n"
        vocab = Vocab(["[UNK]", "patient", "developed", "rash", "."])
        doc = prepare(parse_brat(text, ann), vocab)
        model = JNRF(TINY, seed=19)
        loss, lner, lre = model.instance_losses(encode_document(doc), tiny_table(len(vocab)))
        assert lre is None and loss is lner

    def test_decode_round_trip_from_gold(self):
        doc, _ = build_toy_doc()
        inst = encode_document(doc)
        logits = np.zeros((len(inst.ids), NUM_LABELS))
        logits[np.arange(len(inst.ids)), inst.labels] = 4.0
        _, spans = decode_bio(logits)
        assert spans == inst.spans

    def test_predictions_to_brat_round_trip(self):
        doc, _ = build_toy_doc()
        inst = encode_document(doc)
        spans = inst.spans
        relations = [
            (spans[0], spans[1], 0),  # Strength-Drug
            (spans[0], spans[3], 6),  # Reason-Drug
        ]
        entities, rels = predictions_to_brat(doc, spans, relations)
        from jnrf.corpus import render_ann

        reparsed = parse_brat(doc.text, render_ann(entities, rels), doc.doc_id)
        assert [(e.etype, e.start, e.end) for e in reparsed.gold_entities] == [
            (e.etype, e.start, e.end) for e in doc.gold_entities
        ]
        assert [(r.rtype, r.arg1.etype) for r in reparsed.gold_relations] == [
            ("Strength-Drug", "Strength"),
            ("Reason-Drug", "Reason"),
        ]


def test_relation_targets_hold_one_hot_invariant():
    doc, _ = build_toy_doc()
    inst = encode_document(doc)
    pooled = selective_pool(Tensor(np.zeros((len(inst.ids), 6))), inst.spans)
    r = build_relation_targets(pooled, inst.spans, inst.relations)
    assert r.shape == (4, 1)
    sums = r.sum(axis=1)  # over drugs, per attribute
    assert set(np.unique(sums)) <= {0.0, 1.0}
    assert r.sum() == 4.0


def test_relation_targets_mark_each_attribute_row_at_its_drug():
    text = "aspirin 50 mg then ibuprofen daily."
    ann = (
        "T1\tDrug 0 7\taspirin\n"
        "T2\tStrength 8 13\t50 mg\n"
        "T3\tDrug 19 28\tibuprofen\n"
        "T4\tFrequency 29 34\tdaily\n"
        "R1\tStrength-Drug Arg1:T2 Arg2:T1\n"
        "R2\tFrequency-Drug Arg1:T4 Arg2:T3\n"
    )
    vocab = Vocab(["[UNK]", "aspirin", "50", "mg", "then", "ibuprofen", "daily", "."])
    inst = encode_document(prepare(parse_brat(text, ann), vocab))
    e3 = Tensor(np.zeros((len(inst.ids), 6)))
    pooled = selective_pool(e3, inst.spans)
    r = build_relation_targets(pooled, inst.spans, inst.relations)
    np.testing.assert_array_equal(r, [[1.0, 0.0], [0.0, 1.0]])
    # a relation whose drug is not pooled leaves its attribute's row empty
    pooled = selective_pool(e3, [s for s in inst.spans if s[0] != inst.spans[2][0]])
    r = build_relation_targets(pooled, inst.spans, inst.relations)
    np.testing.assert_array_equal(r, [[1.0], [0.0]])
