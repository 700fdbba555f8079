import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from jnrf import tensor as T
from jnrf.corpus import ATTRIBUTE_TYPES, NUM_LABELS, bio_label, parse_brat
from jnrf.embedding import EmbeddingTable
from jnrf.model import (
    JNRF,
    EncodedInstance,
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
from jnrf.tensor import ShapeError, Tape, Tensor
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

    def test_attributes_grouped_by_head(self):
        """Interleaved attribute types come out grouped by relation head,
        ascending, in the given order within a head; drugs keep their order."""
        e3 = np.random.default_rng(26).standard_normal((30, 6))
        spans = [
            (0, 2, "Route"), (3, 4, "Drug"), (5, 7, "Strength"), (8, 9, "Route"),
            (10, 13, "ADE"), (14, 15, "Strength"), (16, 18, "Drug"), (20, 21, "Form"),
            (22, 25, "Route"),
        ]
        pooled = selective_pool(Tensor(e3), spans)
        want = [
            (5, 7, "Strength"), (14, 15, "Strength"), (20, 21, "Form"),
            (0, 2, "Route"), (8, 9, "Route"), (22, 25, "Route"), (10, 13, "ADE"),
        ]
        assert pooled.l_spans == want
        assert pooled.h_spans == [(3, 4, "Drug"), (16, 18, "Drug")]
        np.testing.assert_array_equal(pooled.pos_l, [s for s, _, _ in want])
        np.testing.assert_array_equal(pooled.heads, [0, 0, 1, 4, 4, 4, 7])
        np.testing.assert_array_equal(pooled.k.data, e3[[s for s, _, _ in want]])


    def test_embed_on_gathered_rows_equals_embed_then_pool(self):
        """The relation FFN runs on the rows pooling reads alone: the same
        q and k as embedding every row first, and the same gradients up to
        the order BLAS sums the weight gradients' rows in."""
        model = JNRF(TINY, seed=27)
        rng = np.random.default_rng(28)
        e2 = rng.standard_normal((30, 6))
        # overlapping and nested spans, a drug and an attribute starting on
        # one row, and rows outside every span
        spans = [
            (2, 5, "Drug"), (4, 8, "Route"), (4, 5, "Drug"), (10, 11, "Strength"),
            (12, 16, "ADE"), (13, 14, "Drug"), (20, 23, "Route"), (20, 21, "Form"),
        ]
        cq, ck = rng.standard_normal((3, 6)), rng.standard_normal((5, 6))
        seen = []

        def gathered(x):
            seen.append(x.rows)
            return model.re_embed(x)

        results = []
        for build in (
            lambda x: selective_pool(x, spans, gathered),
            lambda x: selective_pool(model.re_embed(x), spans),
        ):
            model.params.zero_grad()
            x = Tensor(e2, requires_grad=True)
            with Tape() as tape:
                pooled = build(x)
                loss = T.add(T.sum_all(T.mul(pooled.q, Tensor(cq))), T.sum_all(T.mul(pooled.k, Tensor(ck))))
            tape.backward(loss)
            results.append((pooled, x.grad, {n: model.params[n].grad for n in ("re.1.w", "re.2.w")}))
        (got, gx, gw), (want, wx, ww) = results
        assert np.array_equal(got.q.data, want.q.data)
        assert np.array_equal(got.k.data, want.k.data)
        assert rel_err(gx, wx) < 1e-14
        for name in gw:
            assert rel_err(gw[name], ww[name]) < 1e-14, name
        read = {s for s, _, _ in spans}
        assert seen == [len(read)]
        assert np.count_nonzero(np.abs(gx).sum(axis=1)) == len(read)


class TestDistanceMatrix:
    def test_values(self):
        d = distance_matrix(np.array([2, 10]), np.array([5, 7]))
        np.testing.assert_array_equal(d, [[3, 5], [5, 3]])

    def test_coincident(self):
        assert distance_matrix(np.array([4]), np.array([4]))[0, 0] == 0

    def test_table_scale_extreme(self):
        assert distance_matrix(np.array([0]), np.array([13989]))[0, 0] == 13989


    def test_bit_identical_to_the_integer_formula(self):
        rng = np.random.default_rng(29)
        rows, cols = rng.integers(0, 20000, 300), rng.integers(0, 20000, 40)
        old = np.abs(rows.reshape(-1, 1) - cols.reshape(1, -1)).astype(np.float64)
        got = distance_matrix(rows, cols)
        assert got.dtype == np.float64 and got.shape == (300, 40)
        assert np.array_equal(got, old)


class TestRelationScores:
    def zeroed_model(self):
        model = JNRF(TINY, seed=5)
        for j in range(8):
            for name in ("q.w", "k.w", "k.b"):
                model.params[f"rel.{j}.{name}"].data[...] = 0.0
        return model

    def test_pure_quadratic_term(self):
        model = self.zeroed_model()
        model.params["alpha"].data[0] = [1.0, 0.0]
        psi = model.relation_scores(
            Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 6))), np.array([[2.0]]), [0]
        )
        assert psi.item() == 4.0

    def test_alpha_zero_equals_plain_scores(self):
        model = JNRF(TINY, seed=6)
        rng = np.random.default_rng(7)
        q, k = rng.standard_normal((2, 6)), rng.standard_normal((3, 6))
        d = distance_matrix(np.array([1, 2, 9]), np.array([0, 5]))
        for j in range(8):
            psi = model.relation_scores(Tensor(q), Tensor(k), d, [j] * 3)
            qj = q @ model.params[f"rel.{j}.q.w"].data
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

    def test_heads_must_ascend(self):
        model = JNRF(TINY, seed=5)
        q, k = Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 6)))
        with pytest.raises(ShapeError, match=r"heads must ascend .*\[4, 0, 4\]"):
            model.relation_scores(q, k, np.zeros((3, 2)), [4, 0, 4])

    def test_heads_must_match_attribute_rows(self):
        model = JNRF(TINY, seed=5)
        q, k = Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 6)))
        with pytest.raises(ShapeError, match=r"relation_scores: 2 heads for 3 attribute rows"):
            model.relation_scores(q, k, np.zeros((3, 2)), [0, 0])

    @pytest.mark.parametrize("shape", [(2, 2), (5, 2), (3, 1), (2, 3)], ids=lambda s: "%dx%d" % s)
    def test_dist_must_be_attributes_by_drugs(self, shape):
        model = JNRF(TINY, seed=5)
        q, k = Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 6)))
        with pytest.raises(ShapeError, match=re.escape(f"= (3, 2), got {shape}")):
            model.relation_scores(q, k, np.zeros(shape), [0, 0, 0])

    def test_rows_match_all_heads_oracle(self):
        """Row l is the oracle's plane heads[l], column l: heads grouped,
        heads 1, 3 and 5 absent, a nonzero distance polynomial."""
        model = JNRF(TINY, seed=22)
        rng = np.random.default_rng(23)
        model.params["alpha"].data[...] = rng.standard_normal((8, 2)) * [1e-3, 0.1]
        q, k = rng.standard_normal((3, 6)), rng.standard_normal((7, 6))
        pos_h, pos_l = np.array([4, 30, 17]), np.array([0, 9, 21, 40, 5, 33, 12])
        heads = [0, 0, 2, 4, 4, 6, 7]
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
        model.params["alpha"].data[...] = rng.standard_normal((8, 2)) * [1e-3, 0.1]
        q, k = rng.standard_normal((3, 6)), rng.standard_normal((6, 6))
        pos_h, pos_l = np.array([2, 19, 40]), np.array([7, 0, 25, 33, 11, 45])
        heads = [0, 1, 1, 5, 5, 7]
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


class TestRowConstantCancels:
    """A term that adds the same amount to every drug in an attribute's row
    reaches neither the loss nor the decoder: why the drug projection has no
    bias and the distance polynomial no constant term."""

    def cases(self):
        """Random scores; rows with a target and rows without one."""
        rng = np.random.default_rng(31)
        for nl, nh in [(1, 1), (2, 1), (4, 3), (9, 7), (30, 12)]:
            psi = rng.standard_normal((nl, nh)) * 3
            targets = np.zeros((nl, nh))
            rows = np.flatnonzero(np.arange(nl) % 2 == 0)  # odd rows have none
            targets[rows, rng.integers(0, nh, rows.size)] = 1.0
            yield rng, psi, targets

    def test_re_loss_gradient_rows_sum_to_zero(self):
        for _, psi, targets in self.cases():
            x = Tensor(psi, requires_grad=True)
            with Tape() as tape:
                loss = re_loss(x, targets)
            tape.backward(loss)
            assert x.grad.any() or psi.shape[1] == 1
            assert np.abs(x.grad.sum(axis=1)).max() <= 1e-15, psi.shape

    def test_row_constant_changes_neither_loss_nor_prediction(self):
        for rng, psi, targets in self.cases():
            heads = np.sort(rng.integers(0, 8, psi.shape[0]))
            shifted = psi + rng.standard_normal((psi.shape[0], 1)) * 10
            base = re_loss(Tensor(psi), targets).item()
            assert abs(re_loss(Tensor(shifted), targets).item() - base) <= 1e-14, psi.shape
            assert predict_relations(shifted, heads) == predict_relations(psi, heads)


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

    def test_relation_ffn_runs_on_pooled_rows_only(self):
        doc, vocab = build_toy_doc()
        inst = encode_document(doc)
        model = JNRF(TINY, seed=20)
        seen, re_embed = [], model.re_embed

        def counted(x):
            seen.append(x.rows)
            return re_embed(x)

        model.re_embed = counted
        with Tape():
            model.instance_losses(inst, tiny_table(len(vocab)))
        read = {s for s, _, _ in inst.spans}
        assert seen == [len(read)] and len(read) < len(inst.ids)

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


def synthetic_instance(n: int, rng) -> EncodedInstance:
    """n tokens with entities of 1-3 tokens about every 8 tokens, a third of
    them drugs, each attribute related to a random drug."""
    spans, labels = [], np.zeros(n, dtype=np.intp)
    pos = 0
    while pos + 12 < n:
        pos += int(rng.integers(3, 12))
        length = int(rng.integers(1, 4))
        etype = "Drug" if rng.random() < 1 / 3 else ATTRIBUTE_TYPES[rng.integers(len(ATTRIBUTE_TYPES))]
        spans.append((pos, pos + length, etype))
        labels[pos] = bio_label(etype, True)
        labels[pos + 1:pos + length] = bio_label(etype, False)
        pos += length
    drugs = [i for i, s in enumerate(spans) if s[2] == "Drug"]
    relations = [(i, drugs[rng.integers(len(drugs))]) for i, s in enumerate(spans) if s[2] != "Drug"]
    return EncodedInstance(rng.integers(0, 50, n), labels, spans, relations)


class TestTrainStepMemory:
    # Bytes live after the forward of one default-config fnet training step
    # on this instance, in units of n * d_model float64s: 51.7 while every
    # FFN kept its pre-activation, every layer norm its residual sum and the
    # relation FFN ran on all n rows; 33.3 without them; 17.8 once the tape
    # held no op outputs and each FFN kept only x and its pre-activation
    # (no gelu output or derivative).
    # windowed_attention (window 512, so four windows): 43.9 while the tape
    # held every window's slices, projections and probabilities; 27.8 with
    # one node per block that keeps x, q, k, v and the merged heads (five
    # n x d arrays per block, two blocks) and recomputes the probabilities.
    BUDGET = {"fnet": 19.5, "windowed_attention": 29.5}

    def test_forward_holds_only_what_backward_reads(self):
        self._check("fnet")

    def test_attention_forward_holds_only_what_backward_reads(self):
        self._check("windowed_attention")

    def _check(self, mixer):
        n, cfg = 2048, ModelConfig(mixer=mixer)
        model = JNRF(cfg, seed=0)
        rng = np.random.default_rng(50)
        table = EmbeddingTable(rng.standard_normal((50, cfg.emb_dim)))
        inst = synthetic_instance(n, rng)
        model.instance_losses(inst, table)  # untaped: fills the positional-encoding cache
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss, _, _ = model.instance_losses(inst, table)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        tape.backward(loss)
        assert tape.nodes == []
        units = live / (n * cfg.d_model * 8)
        assert units < self.BUDGET[mixer], f"{units:.1f} units live after the forward"


def _produced(obj) -> bool:
    return isinstance(obj, Tensor) and obj._node is not None


class TestTapeKeepsNoOutputs:
    def test_forward_leaves_op_outputs_to_their_callers(self, monkeypatch):
        cfg = ModelConfig()
        model = JNRF(cfg, seed=0)
        rng = np.random.default_rng(52)
        table = EmbeddingTable(rng.standard_normal((50, cfg.emb_dim)))
        inst = synthetic_instance(300, rng)  # two row blocks
        refs = {"fourier_mix": [], "ffn": []}
        for name, kept in refs.items():
            def traced(*args, _op=getattr(T, name), _kept=kept, **kwargs):
                out = _op(*args, **kwargs)
                _kept.append(weakref.ref(out.data))
                return out

            monkeypatch.setattr(T, name, traced)
        with Tape() as tape:
            model.instance_losses(inst, table)
        assert len(refs["fourier_mix"]) == cfg.n_blocks
        assert len(refs["ffn"]) == cfg.n_blocks + 3  # input, NER head and RE embedding too
        for name, kept in refs.items():
            assert all(r() is None for r in kept), f"a {name} output outlived its caller"
        for serial, links, backward in tape.nodes:
            assert not isinstance(serial, Tensor)
            assert not any(_produced(link) for link in links)
            for cell in backward.__closure__ or ():
                held = cell.cell_contents
                items = held if isinstance(held, (tuple, list)) else (held,)
                assert not any(isinstance(item, Tensor) for item in items), backward.__qualname__
