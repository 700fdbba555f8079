import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnrf import model as M
from jnrf import tensor as T
from jnrf.bench import step_memory, synthetic_instance
from jnrf.corpus import NUM_LABELS, bio_label, parse_brat
from jnrf.model import (
    JNRF,
    EncodedInstance,
    ModelConfig,
    Pooled,
    build_relation_targets,
    decode_bio,
    encode_document,
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
    composed_cross_entropy_rows,
    fd_grad,
    mul,
    rel_err,
    scalar_decode_bio,
    scalar_ner_loss,
    scalar_re_loss,
    sum_all,
)

TINY = ModelConfig(emb_dim=6, d_model=6, ffn_hidden=8, mixer="fnet", n_blocks=1)


def tiny_table(vocab_size=20, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((vocab_size, d))


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
            loss = sum_all(mul(model.ner_head(x), Tensor(w)))
        tape.backward(loss)

        def value():
            x.data[...] = e2
            with Tape():
                return sum_all(mul(model.ner_head(x), Tensor(w))).item()

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

    def test_no_tokens(self):
        labels, spans = decode_bio(np.zeros((0, NUM_LABELS)))
        assert labels.shape == (0,) and spans == []

    @settings(max_examples=300, deadline=None)
    @given(labs=st.lists(st.integers(0, NUM_LABELS - 1), max_size=60))
    def test_matches_scalar_oracle(self, labs):
        labels, spans = decode_bio(self.logits_for(labs))
        assert labels.tolist() == labs
        assert spans == scalar_decode_bio(labs)
        assert all(type(x) is int for s, e, _ in spans for x in (s, e))


class TestSelectivePooling:
    def test_basic_pool(self):
        rng = np.random.default_rng(4)
        e3 = rng.standard_normal((8, 6))
        spans = [(2, 3, "Drug"), (5, 6, "Strength")]
        pooled = selective_pool(Tensor(e3), spans)
        assert len(pooled.h_spans) == 1 and len(pooled.l_spans) == 1
        np.testing.assert_array_equal(pooled.x.data[pooled.h_rows[0]], e3[2])
        np.testing.assert_array_equal(pooled.x.data[pooled.l_rows[0]], e3[5])

    def test_no_drugs_is_empty(self):
        pooled = selective_pool(Tensor(np.zeros((4, 6))), [(0, 1, "Route")])
        assert pooled.empty and pooled.x is None

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
        np.testing.assert_array_equal(pooled.x.data[pooled.l_rows], e3[[s for s, _, _ in want]])
        np.testing.assert_array_equal(pooled.x.data[pooled.h_rows], e3[[3, 16]])


    def test_embed_on_gathered_rows_equals_embed_then_pool(self):
        """The relation FFN runs on the rows pooling reads alone: the same
        drug and attribute rows as embedding every row first, and the same
        gradients up to the order BLAS sums the weight gradients' rows in."""
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
                drugs, attrs = T.pick_rows(pooled.x, pooled.h_rows), T.pick_rows(pooled.x, pooled.l_rows)
                loss = T.add(sum_all(mul(drugs, Tensor(cq))), sum_all(mul(attrs, Tensor(ck))))
            tape.backward(loss)
            results.append((pooled, x.grad, {n: model.params[n].grad for n in ("re.1.w", "re.2.w")}))
        (got, gx, gw), (want, wx, ww) = results
        for rows in ("h_rows", "l_rows"):
            assert np.array_equal(got.x.data[getattr(got, rows)], want.x.data[getattr(want, rows)])
        assert rel_err(gx, wx) < 1e-14
        for name in gw:
            assert rel_err(gw[name], ww[name]) < 1e-14, name
        read = {s for s, _, _ in spans}
        assert seen == [len(read)]
        assert np.count_nonzero(np.abs(gx).sum(axis=1)) == len(read)


def node_distances(pos_l, pos_h) -> np.ndarray:
    """The token distances D that the relation-score node adds as
    (0 D + 1) D, read off its output with every bilinear term zero."""
    nl, nh = len(pos_l), len(pos_h)
    zeros = [[Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1)))]]
    return T.relation_scores(Tensor(np.zeros((1, 1))), np.zeros(nl, dtype=int), np.zeros(nh, dtype=int),
                             np.zeros(nl), zeros, Tensor([[0.0, 1.0]]), pos_l, pos_h).data


class TestDistanceMatrix:
    def test_values(self):
        d = node_distances([2, 10], [5, 7])
        np.testing.assert_array_equal(d, [[3, 5], [5, 3]])

    def test_coincident(self):
        assert node_distances([4], [4])[0, 0] == 0

    def test_table_scale_extreme(self):
        assert node_distances([0], [13989])[0, 0] == 13989

    def test_bit_identical_to_the_integer_formula(self):
        rng = np.random.default_rng(29)
        rows, cols = rng.integers(0, 20000, 300), rng.integers(0, 20000, 40)
        old = np.abs(rows.reshape(-1, 1) - cols.reshape(1, -1)).astype(np.float64)
        got = node_distances(rows, cols)
        assert got.dtype == np.float64 and got.shape == (300, 40)
        assert np.array_equal(got, old)


def pooled_rows(q, k, pos_l, pos_h, heads, requires_grad: bool = False) -> Pooled:
    """Pooling of drugs q and attributes k, arrays of rows: x is q's rows
    then k's."""
    nh, nl = len(q), len(k)
    x = Tensor(np.concatenate([q, k]), requires_grad=requires_grad)
    return Pooled(x, np.arange(nh), nh + np.arange(nl), np.asarray(pos_h), np.asarray(pos_l),
                  np.asarray(heads), np.arange(nh), np.arange(nl), [])


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
        psi = model.relation_scores(pooled_rows(np.zeros((1, 6)), np.zeros((1, 6)), [3], [5], [0]))
        assert psi.item() == 4.0

    def test_alpha_zero_equals_plain_scores(self):
        model = JNRF(TINY, seed=6)
        rng = np.random.default_rng(7)
        q, k = rng.standard_normal((2, 6)), rng.standard_normal((3, 6))
        for j in range(8):
            psi = model.relation_scores(pooled_rows(q, k, [1, 2, 9], [0, 5], [j] * 3))
            qj = q @ model.params[f"rel.{j}.q.w"].data
            kj = k @ model.params[f"rel.{j}.k.w"].data + model.params[f"rel.{j}.k.b"].data
            np.testing.assert_array_equal(psi.data, kj @ qj.T)

    def test_alpha_gradient_vs_finite_differences(self):
        model = JNRF(TINY, seed=8)
        rng = np.random.default_rng(9)
        q, k = rng.standard_normal((2, 6)), rng.standard_normal((4, 6))
        pos_l, pos_h = np.array([2, 8, 3, 11]), np.array([1, 4])
        heads = [0, 3, 3, 7]
        w = rng.standard_normal((4, 2))
        alpha = model.params["alpha"]
        base = alpha.data.copy()

        def run():
            psi = model.relation_scores(pooled_rows(q, k, pos_l, pos_h, heads))
            return sum_all(mul(psi, Tensor(w)))

        with Tape() as tape:
            loss = run()
        tape.backward(loss)

        def value():
            alpha.data[...] = base
            with Tape():
                return run().item()

        assert rel_err(alpha.grad, fd_grad(value, base)) < 1e-6

    def test_every_parent_gradient_vs_finite_differences(self):
        """Heads 2, 5 and 6 present, head 2 with one row; the pooled rows,
        each present head's projections and alpha against central
        differences, and no gradient reaching an absent head's projections."""
        model = JNRF(TINY, seed=30)
        rng = np.random.default_rng(31)
        model.params["alpha"].data[...] = rng.standard_normal((8, 2)) * [1e-3, 0.1]
        q0, k0 = rng.standard_normal((3, 6)), rng.standard_normal((6, 6))
        pos_l, pos_h = np.array([7, 0, 25, 33, 11, 45]), np.array([2, 19, 40])
        heads = [2, 5, 5, 6, 6, 6]
        w = rng.standard_normal((6, 3))
        pooled = pooled_rows(q0, k0, pos_l, pos_h, heads, requires_grad=True)

        def run():
            psi = model.relation_scores(pooled)
            return sum_all(mul(psi, Tensor(w)))

        model.params.zero_grad()
        with Tape() as tape:
            loss = run()
        tape.backward(loss)
        checked = {"x": pooled.x, "alpha": model.params["alpha"]}
        for j in (2, 5, 6):
            for name in ("q.w", "k.w", "k.b"):
                checked[f"rel.{j}.{name}"] = model.params[f"rel.{j}.{name}"]
        for name, t in checked.items():
            base = t.data.copy()

            def value():
                t.data[...] = base
                with Tape():
                    return run().item()

            want = fd_grad(value, base)
            t.data[...] = base  # the last difference left one entry moved
            assert rel_err(t.grad, want) < 1e-6, name
        for j in (0, 1, 3, 4, 7):
            for name in ("q.w", "k.w", "k.b"):
                assert model.params[f"rel.{j}.{name}"].grad is None, (j, name)

    def test_heads_must_ascend(self):
        model = JNRF(TINY, seed=5)
        q, k = np.zeros((2, 6)), np.zeros((3, 6))
        with pytest.raises(ShapeError, match=r"heads must ascend .*\[4, 0, 4\]"):
            model.relation_scores(pooled_rows(q, k, [0, 1, 2], [0, 1], [4, 0, 4]))

    def test_heads_must_match_attribute_rows(self):
        model = JNRF(TINY, seed=5)
        q, k = np.zeros((2, 6)), np.zeros((3, 6))
        with pytest.raises(ShapeError, match=r"relation_scores: 2 heads for 3 attribute rows"):
            model.relation_scores(pooled_rows(q, k, [0, 1, 2], [0, 1], [0, 0]))

    @pytest.mark.parametrize("shape", [(2, 2), (5, 2), (3, 1), (2, 3)], ids=lambda s: "%dx%d" % s)
    def test_dist_must_be_attributes_by_drugs(self, shape):
        """The positions give distances of shape (len(pos_l), len(pos_h))."""
        model = JNRF(TINY, seed=5)
        q, k = np.zeros((2, 6)), np.zeros((3, 6))
        with pytest.raises(ShapeError, match=re.escape(f"= (3, 2), got {shape}")):
            model.relation_scores(pooled_rows(q, k, np.arange(shape[0]), np.arange(shape[1]), [0, 0, 0]))

    def test_rows_match_all_heads_oracle(self):
        """Row l is the oracle's plane heads[l], column l: heads grouped,
        heads 1, 3 and 5 absent, a nonzero distance polynomial."""
        model = JNRF(TINY, seed=22)
        rng = np.random.default_rng(23)
        model.params["alpha"].data[...] = rng.standard_normal((8, 2)) * [1e-3, 0.1]
        q, k = rng.standard_normal((3, 6)), rng.standard_normal((7, 6))
        pos_h, pos_l = np.array([4, 30, 17]), np.array([0, 9, 21, 40, 5, 33, 12])
        heads = [0, 0, 2, 4, 4, 6, 7]
        psi = model.relation_scores(pooled_rows(q, k, pos_l, pos_h, heads))
        planes = all_heads_relation_scores(model.params, q, k, pos_h, pos_l)
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
        got = re_loss(Tensor(np.zeros((nl, nh))), ([0], [1])).item()
        assert abs(got - math.log(2) / (nh * nl)) < 1e-12

    def test_re_all_zero_targets(self):
        psi = Tensor(np.random.default_rng(11).standard_normal((2, 2)))
        assert re_loss(psi, ([], [])).item() == 0.0

    def test_re_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        psi = rng.standard_normal((4, 3))
        cells = (np.arange(4), np.array([1, 2, 0, 1]))
        targets = np.zeros((4, 3))
        targets[cells] = 1.0
        got = re_loss(Tensor(psi), cells).item()
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
        psi = model.relation_scores(pooled_rows(q, k, pos_l, pos_h, heads))
        planes = all_heads_relation_scores(model.params, q, k, pos_h, pos_l)
        full = np.zeros((8, 3, 6))
        for l, h in gold_drug.items():
            full[heads[l], h, l] = 1.0
        got = re_loss(psi, (list(gold_drug), list(gold_drug.values()))).item()
        assert rel_err(got, scalar_re_loss(planes, full)) < 1e-12


class TestRelationScoresMemory:
    def test_prediction_peak_is_about_the_output(self):
        """With no tape, scoring |L| = 2000 attributes against |H| = 200
        drugs allocates the output, two buffers of _SCORE_ROWS rows and the
        projections (small at width 6): at most 1.25 times the output's
        bytes. Building D, D^2, their stack and the polynomial as whole
        (|L|, |H|) arrays, then adding and concatenating the blocks, peaked
        at 3.3 times."""
        model = JNRF(TINY, seed=32)
        rng = np.random.default_rng(33)
        nl, nh = 2000, 200
        model.params["alpha"].data[...] = rng.standard_normal((8, 2))
        q, k = rng.standard_normal((nh, 6)), rng.standard_normal((nl, 6))
        heads = np.sort(rng.integers(0, 8, nl))
        pos_l, pos_h = rng.integers(0, 8000, nl), rng.integers(0, 8000, nh)
        pooled = pooled_rows(q, k, pos_l, pos_h, heads)
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            psi = model.relation_scores(pooled)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert psi.shape == (nl, nh)
        ratio = peak / psi.data.nbytes
        assert ratio <= 1.25, f"peak {ratio:.2f} times the output"

    def test_prediction_peak_is_a_few_score_blocks(self, monkeypatch):
        """`predict_instance` on |L| = 2000 attributes against |H| = 200
        drugs allocates at most a quarter of an (|L|, |H|) array: two buffers
        of _SCORE_ROWS rows, the projections (small at width 6) and the
        output lists. Scoring into an (|L|, |H|) array and taking its row
        argmax peaked at 1.2 times that array."""
        model = JNRF(TINY, seed=32)
        rng = np.random.default_rng(33)
        nl, nh = 2000, 200
        model.params["alpha"].data[...] = rng.standard_normal((8, 2))
        q, k = rng.standard_normal((nh, 6)), rng.standard_normal((nl, 6))
        heads = np.sort(rng.integers(0, 8, nl))
        pos_l, pos_h = rng.integers(0, 8000, nl), rng.integers(0, 8000, nh)
        pooled = pooled_rows(q, k, pos_l, pos_h, heads)
        monkeypatch.setattr(M, "selective_pool", lambda e2, spans, embed=None: pooled)
        inst = EncodedInstance(np.arange(8), np.zeros(8, dtype=np.intp), [], [])
        table = tiny_table()
        model.predict_instance(inst, table)  # fills the positional-encoding cache
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _, relations = model.predict_instance(inst, table)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(relations) == nl
        ratio = peak / (nl * nh * 8)
        assert ratio <= 0.25, f"peak {ratio:.2f} times an (|L|, |H|) array"


class TestRowConstantCancels:
    """A term that adds the same amount to every drug in an attribute's row
    reaches neither the loss nor the decoder: why the drug projection has no
    bias and the distance polynomial no constant term."""

    def cases(self):
        """Random scores; rows with a target and rows without one."""
        rng = np.random.default_rng(31)
        for nl, nh in [(1, 1), (2, 1), (4, 3), (9, 7), (30, 12)]:
            psi = rng.standard_normal((nl, nh)) * 3
            rows = np.flatnonzero(np.arange(nl) % 2 == 0)  # odd rows have none
            yield rng, psi, (rows, rng.integers(0, nh, rows.size))

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
            assert predict_on(shifted, heads) == predict_on(psi, heads)


def predict_on(psi: np.ndarray, heads):
    """`predict_relations` on operands whose scores are exactly psi: the
    attributes' rows are psi's and the drugs' the identity's, every head's
    weights are the identity and a zero bias, and alpha is zero, so the
    distance polynomial adds 0."""
    nl, nh = psi.shape
    eye = [[Tensor(np.eye(nh)), Tensor(np.eye(nh)), Tensor(np.zeros((1, nh)))]] * 8
    operands = (Tensor(np.concatenate([psi, np.eye(nh)])), np.arange(nl), nl + np.arange(nh), heads, eye,
                Tensor(np.zeros((8, 2))), np.zeros(nl), np.zeros(nh))
    assert np.array_equal(T.relation_scores(*operands).data, psi)
    return predict_relations(*operands)


class TestPredictRelations:
    def test_argmax_selects_highest(self):
        from jnrf.corpus import relation_head

        j = relation_head("Form-Drug")
        assert predict_on(np.array([[0.1, 3.2]]), [j]) == [(1, 0)]

    def test_single_drug_takes_all(self):
        psi = np.random.default_rng(13).standard_normal((3, 1))
        assert predict_on(psi, [2, 4, 6]) == [(0, 0), (0, 1), (0, 2)]  # Dosage, Route, Reason

    def test_tie_takes_lowest_drug(self):
        assert predict_on(np.zeros((1, 3)), [7]) == [(0, 0)]  # ADE

    def test_column_shift_invariance(self):
        rng = np.random.default_rng(14)
        psi = rng.standard_normal((3, 4))
        heads = [1, 4, 7]  # Form, Route, ADE
        base = predict_on(psi, heads)
        shifted = psi + rng.standard_normal((3, 1))  # constant per attribute
        assert predict_on(shifted, heads) == base

    @pytest.mark.parametrize(
        "sizes, nh, ties",
        [
            ([T._SCORE_ROWS + 1], 7, False),  # one head, one row past a block
            ([3, 2 * T._SCORE_ROWS + 5, 1, 90], 40, False),  # several heads
            ([60, 200], 1, False),  # one drug
            ([T._SCORE_ROWS, 75, 130], 12, True),  # whole rows of exact ties
        ],
        ids=["one-head", "several-heads", "one-drug", "ties"],
    )
    def test_equals_the_argmax_of_the_scores(self, sizes, nh, ties):
        """Exactly argmax(T.relation_scores(...).data, axis=1), ties to the
        lowest drug, with |L| not a multiple of _SCORE_ROWS. With ties the
        operands are small integers, so every score is exact, and each drug
        row is repeated at the same position: every row ties in pairs."""
        rng = np.random.default_rng(sum(sizes) + nh)
        nl, present = sum(sizes), np.sort(rng.choice(8, len(sizes), replace=False))
        shapes = ((6, 6), (6, 6), (1, 6))
        if ties:
            draw = lambda shape, top: rng.integers(-top, top + 1, shape).astype(float)  # noqa: E731
            drugs, attrs = np.repeat(draw((nh // 2, 6), 3), 2, axis=0), draw((nl, 6), 3)
            weights = [[Tensor(draw(s, 2)) for s in shapes] for _ in range(8)]
            alpha = Tensor(draw((8, 2), 2))
            pos_h = np.repeat(rng.integers(0, 500, nh // 2), 2)
        else:
            drugs, attrs = rng.standard_normal((nh, 6)), rng.standard_normal((nl, 6))
            weights = [[Tensor(rng.standard_normal(s)) for s in shapes] for _ in range(8)]
            alpha = Tensor(rng.standard_normal((8, 2)) * [1e-3, 0.1])
            pos_h = rng.integers(0, 8000, nh)
        pos_l = rng.integers(0, 8000, nl)
        heads = np.repeat(present, sizes)
        operands = (Tensor(np.concatenate([attrs, drugs])), np.arange(nl), nl + np.arange(nh), heads, weights,
                    alpha, pos_l, pos_h)
        psi = T.relation_scores(*operands).data
        if ties:
            assert np.array_equal(psi[:, 0::2], psi[:, 1::2])
        assert predict_relations(*operands) == list(zip(np.argmax(psi, axis=1).tolist(), range(nl)))

    def test_model_prediction_equals_the_argmax_of_its_scores(self, monkeypatch):
        model = JNRF(TINY, seed=34)
        rng = np.random.default_rng(35)
        model.params["alpha"].data[...] = rng.standard_normal((8, 2)) * [1e-3, 0.1]
        q, k = rng.standard_normal((9, 6)), rng.standard_normal((300, 6))
        heads = np.sort(rng.integers(0, 8, 300))
        pos_l, pos_h = rng.integers(0, 8000, 300), rng.integers(0, 8000, 9)
        pooled = pooled_rows(q, k, pos_l, pos_h, heads)
        psi = model.relation_scores(pooled).data
        monkeypatch.setattr(M, "selective_pool", lambda e2, spans, embed=None: pooled)
        inst = EncodedInstance(np.arange(8), np.zeros(8, dtype=np.intp), [], [])
        _, pairs = model.predict_instance(inst, tiny_table())
        assert pairs == list(zip(np.argmax(psi, axis=1).tolist(), range(300)))


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


def build_two_drug_doc():
    """17 tokens in three sentences: two drugs, each with its own strength
    and frequency, a reason of the first and an ADE of the second."""
    text = "metoprin 50 mg daily for nausea. lisinol 10 mg weekly. the patient developed rash."
    ann = (
        "T1\tDrug 0 8\tmetoprin\n"
        "T2\tStrength 9 14\t50 mg\n"
        "T3\tFrequency 15 20\tdaily\n"
        "T4\tReason 25 31\tnausea\n"
        "T5\tDrug 33 40\tlisinol\n"
        "T6\tStrength 41 46\t10 mg\n"
        "T7\tFrequency 47 53\tweekly\n"
        "T8\tADE 77 81\trash\n"
        "R1\tStrength-Drug Arg1:T2 Arg2:T1\n"
        "R2\tFrequency-Drug Arg1:T3 Arg2:T1\n"
        "R3\tReason-Drug Arg1:T4 Arg2:T1\n"
        "R4\tStrength-Drug Arg1:T6 Arg2:T5\n"
        "R5\tFrequency-Drug Arg1:T7 Arg2:T5\n"
        "R6\tADE-Drug Arg1:T8 Arg2:T5\n"
    )
    vocab = Vocab(
        ["[UNK]", "metoprin", "50", "mg", "daily", "for", "nausea", ".",
         "lisinol", "10", "weekly", "the", "patient", "developed", "rash"]
    )
    doc = parse_brat(text, ann, "two-drug")
    prepare(doc, vocab)
    return doc, vocab


class TestEndToEnd:
    def test_teacher_forced_loss_finite(self):
        doc, vocab = build_toy_doc()
        inst = encode_document(doc)
        assert len(inst.ids) == 12  # covers the 12-token toy contract
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

    def _gradient_check(self, cfg, names):
        """The tape's gradient of the joint loss against central differences
        at 6 coordinates per parameter, on a document with two drugs, so every
        relation softmax has two candidates and the RE loss moves."""
        doc, vocab = build_two_drug_doc()
        inst = encode_document(doc)
        model = JNRF(cfg, seed=17)
        table = tiny_table(len(vocab))
        with Tape() as tape:
            loss, _, _ = model.instance_losses(inst, table)
        tape.backward(loss)
        rng = np.random.default_rng(18)
        for name in names:
            p = model.params[name]
            base = p.data.copy()
            coords = rng.choice(base.size, size=min(6, base.size), replace=False)

            def value():
                p.data[...] = base
                with Tape():
                    return model.instance_losses(inst, table)[0].item()

            # alpha's terms scale with D^2 (up to 15^2 here): a step of 1e-5
            # leaves a truncation error of 1.6e-8 there, 1e-6 one of 2e-10
            want = fd_grad(value, base, h=1e-6, coords=coords)
            p.data[...] = base  # fd_grad restores base, not the parameter
            got = p.grad.ravel()[coords]
            assert np.abs(want.ravel()[coords]).max() > 1e-4, f"{name}: the check compares zeros"
            assert rel_err(got, want.ravel()[coords]) < 1e-8, name

    _CHECKED = ("in.1.w", "lm.0.ffn.2.w", "ner.2.w", "re.1.w", "rel.3.q.w", "alpha")

    def test_full_model_gradient_check(self):
        self._gradient_check(TINY, self._CHECKED)

    def test_attention_model_gradient_check(self):
        cfg = dataclasses.replace(TINY, mixer="windowed_attention", window=5)
        assert len(encode_document(build_two_drug_doc()[0]).ids) > 3 * cfg.window  # 4 windows
        self._gradient_check(cfg, (*self._CHECKED, "lm.0.wq", "lm.0.wk", "lm.0.wv", "lm.0.wo"))

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
            (0, 1),  # Strength-Drug: drug span 0, attribute span 1
            (0, 3),  # Reason-Drug
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


@pytest.mark.parametrize("mixer", ["fnet", "mlp", "windowed_attention"])
def test_predict_on_a_document_with_no_tokens(mixer):
    vocab = Vocab(["[UNK]", "rash"])
    doc = prepare(parse_brat("   \n ", "", "blank"), vocab)
    model = JNRF(dataclasses.replace(TINY, mixer=mixer), seed=21)
    spans, relations = model.predict_instance(encode_document(doc), tiny_table(len(vocab)))
    assert (spans, relations) == ([], [])
    assert predictions_to_brat(doc, spans, relations) == ([], [])


class TestPredictedTrainPooling:
    """`train_pooling = predicted` pools the spans `decode_bio` reads off the
    NER logits. The NER head is patched to add 100 to the logit of a chosen
    label per token, so the decoded spans are known."""

    def losses(self, pooling, labels):
        doc, vocab = build_toy_doc()
        inst = encode_document(doc)
        model = JNRF(dataclasses.replace(TINY, train_pooling=pooling), seed=24)
        bump = np.zeros((len(labels), NUM_LABELS))
        bump[np.arange(len(labels)), labels] = 100.0
        head = model.ner_head
        model.ner_head = lambda e2: T.add(head(e2), Tensor(bump))
        with Tape() as tape:
            joint, lner, lre = model.instance_losses(inst, tiny_table(len(vocab)))
            tape.backward(joint)
        grads = {n: p.grad for n, p in model.params.items()}
        return joint, lner, lre, grads

    def test_gold_decode_gives_the_gold_pooling_losses(self):
        labels = encode_document(build_toy_doc()[0]).labels
        gold = self.losses("gold", labels)
        predicted = self.losses("predicted", labels)
        assert gold[2] is not None
        assert [x.item() for x in predicted[:3]] == [x.item() for x in gold[:3]]
        for name, g in gold[3].items():
            np.testing.assert_array_equal(predicted[3][name], g, err_msg=name)

    def test_no_decoded_drug_gives_no_re_loss(self):
        inst = encode_document(build_toy_doc()[0])
        labels = inst.labels.copy()
        for start, end, etype in inst.spans:
            if etype == "Drug":
                labels[start:end] = 0  # O
        joint, lner, lre, _ = self.losses("predicted", labels)
        assert lre is None and joint is lner
        # the gold drug is still in the instance: gold pooling pairs it
        assert self.losses("gold", labels)[2] is not None


def build_two_target_doc():
    """One attribute, Arg1 of relations to both drugs, and one of those
    relations repeated under a second id."""
    text = "aspirin or ibuprofen for pain."
    ann = (
        "T1\tDrug 0 7\taspirin\n"
        "T2\tDrug 11 20\tibuprofen\n"
        "T3\tReason 25 29\tpain\n"
        "R1\tReason-Drug Arg1:T3 Arg2:T1\n"
        "R2\tReason-Drug Arg1:T3 Arg2:T2\n"
        "R3\tReason-Drug Arg1:T3 Arg2:T1\n"
    )
    vocab = Vocab(["[UNK]", "aspirin", "or", "ibuprofen", "for", "pain", "."])
    return encode_document(prepare(parse_brat(text, ann, "two-target"), vocab))


def gold_targets(inst):
    pooled = selective_pool(Tensor(np.zeros((len(inst.ids), 6))), inst.spans)
    return pooled, build_relation_targets(pooled, inst.spans, inst.relations)


def test_relation_target_cells_are_distinct_and_in_range():
    for inst, count in [(encode_document(build_toy_doc()[0]), 4), (build_two_target_doc(), 2)]:
        pooled, (rows, cols) = gold_targets(inst)
        cells = list(zip(rows.tolist(), cols.tolist()))
        assert len(cells) == count and cells == sorted(set(cells))
        assert all(0 <= l < len(pooled.l_index) and 0 <= h < len(pooled.h_index) for l, h in cells)


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
    rows, cols = build_relation_targets(pooled, inst.spans, inst.relations)
    assert (rows.tolist(), cols.tolist()) == ([0, 1], [0, 1])
    # a relation whose drug is not pooled leaves its attribute's row empty
    pooled = selective_pool(e3, [s for s in inst.spans if s[0] != inst.spans[2][0]])
    rows, cols = build_relation_targets(pooled, inst.spans, inst.relations)
    assert (rows.tolist(), cols.tolist()) == ([0], [0])


def test_an_attribute_related_to_two_drugs_targets_both():
    """The Reason row holds both drugs' cells, and the repeated relation
    counts once: the loss is the oracle's over the 0/1 target plane, and its
    gradient the composed form's. One target column per row would keep only
    one of the two cells."""
    pooled, cells = gold_targets(build_two_target_doc())
    assert (cells[0].tolist(), cells[1].tolist()) == ([0, 0], [0, 1])
    psi = np.array([[0.7, -1.9]])
    results = []
    for op in (lambda x: re_loss(x, cells), lambda x: composed_cross_entropy_rows(x, *cells, 2)):
        x = Tensor(psi, requires_grad=True)
        with Tape() as tape:
            loss = op(x)
        tape.backward(loss)
        results.append((loss.item(), x.grad))
    (got, got_grad), (want, want_grad) = results
    assert rel_err(got, scalar_re_loss(psi.T[None], np.ones((1, 2, 1)))) < 1e-12
    assert rel_err(got, want) < 1e-12 and rel_err(got_grad, want_grad) < 1e-12


@pytest.mark.parametrize("mixer", ["fnet", "windowed_attention"])
def test_a_training_step_records_16_tape_nodes(mixer):
    """Each loss is one node, so the losses and their sum take 3 of them,
    and the relation scores one whatever heads are present: pooling's
    gather and the relation FFN 2 more, the input MLP 1, each of the two
    blocks 4 and the NER head 1. The second instance's attributes are all
    of one type, so one head is present, against all eight in the first."""
    cfg = ModelConfig(mixer=mixer)
    rng = np.random.default_rng(51)
    table = rng.standard_normal((50, cfg.emb_dim))
    every_head = synthetic_instance(2048, rng)
    one_head = dataclasses.replace(every_head, spans=[
        (s, e, etype if etype == "Drug" else "Route") for s, e, etype in every_head.spans
    ])
    for inst, present in ((every_head, 8), (one_head, 1)):
        with Tape() as tape:
            JNRF(cfg, seed=0).instance_losses(inst, table)
        assert len(np.unique(selective_pool(Tensor(np.zeros((2048, 1))), inst.spans).heads)) == present
        assert len(tape.nodes) == 16


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
    # n x d arrays per block, two blocks) and recomputes the probabilities;
    # 21.6 once the node keeps only x and the merged heads and backward
    # recomputes each window's q, k and v as well.
    # The peak during backward, from the same start: fnet 20.4;
    # windowed_attention 31.0 while backward built n-row gm, gq, gk and gv,
    # 24.4 once it works one window at a time.
    # Once each FFN keeps only x and backward recomputes x @ w1 + b1 block by
    # block (the four FFNs' pre-activations were 8 units): fnet and mlp 9.1
    # live, 12.4 at the backward peak; windowed_attention 13.1 and 20.1.
    # Once the FFNs and the attention keep a layer norm's or the embedding's
    # output as its row source (the input MLP's, each block's FFN's and the
    # NER head's inputs, and the second attention block's, were one unit
    # each): fnet and mlp 5.1 live, 8.5 at the backward peak;
    # windowed_attention 8.1 and 17.3.
    # Once the attention keeps each row's softmax max and sum in place of
    # the merged heads (one unit per block) and takes its queries _BLOCK rows
    # at a time: windowed_attention 6.2 and 12.2; full attention (window =
    # n = 2048) 6.2 and 25.2, where window x window scores and probabilities
    # read 8.1 and 82.0.
    # The forward's own peak, from the same start, was then 9.15 for fnet and
    # mlp, 11.22 for windowed_attention and 14.19 for full attention. Once
    # each n-row array is freed at its last reader (the embedding's output
    # when the input MLP returns, the attention output when the layer norm
    # does, and the input MLP's output, which the first attention keeps as a
    # row source), and the fused residual's gradient is one array for both
    # parents: fnet and mlp 5.10 live, 8.15 forward peak, 8.50 backward
    # peak; windowed_attention 5.17, 8.22 and 10.24 (were 6.17 and 12.24);
    # full attention 5.17, 12.19 and 23.24 (were 6.17 and 25.24).
    # Once each block drops its input when its first layer norm returns,
    # rather than holding it through the FFN sublayer: forward peak fnet and
    # mlp 7.15, windowed_attention 7.22; full attention, whose peak the
    # attention op sets, stays at 12.19.
    # Once selective pooling's gradient is its rows alone, added into a copy
    # of the encoder output's adjoint, rather than an n-row zero array with
    # the rows scattered in and summed out of place: backward peak fnet and
    # mlp 7.61 (was 8.50); windowed_attention's and full attention's own
    # backward sets theirs, which stay at 10.24 and 23.24.
    BUDGET = {"fnet": 6.0, "mlp": 6.0, "windowed_attention": 5.7, "full_attention": 5.7}
    FORWARD_BUDGET = {"fnet": 7.6, "mlp": 7.6, "windowed_attention": 7.7, "full_attention": 12.7}
    BACKWARD_BUDGET = {"fnet": 8.0, "mlp": 8.0, "windowed_attention": 10.7, "full_attention": 23.7}

    def test_forward_holds_only_what_backward_reads(self):
        self._check("fnet")

    def test_mlp_forward_holds_only_what_backward_reads(self):
        self._check("mlp")

    def test_attention_forward_holds_only_what_backward_reads(self):
        self._check("windowed_attention")

    def test_full_attention_forward_holds_only_what_backward_reads(self):
        self._check("windowed_attention", window=2048)

    def _check(self, mixer, window=512):
        n, cfg = 2048, ModelConfig(mixer=mixer, window=window)
        case = "full_attention" if window == n else mixer
        model = JNRF(cfg, seed=0)
        rng = np.random.default_rng(50)
        table = rng.standard_normal((50, cfg.emb_dim))
        inst = synthetic_instance(n, rng)
        model.instance_losses(inst, table)  # untaped: fills the positional-encoding cache
        got = step_memory(model, inst, table)
        live, forward, backward = got["live_units"], got["forward_peak_units"], got["backward_peak_units"]
        assert live < self.BUDGET[case], f"{live:.2f} units live after the forward"
        assert forward < self.FORWARD_BUDGET[case], f"{forward:.2f} units at the forward peak"
        assert backward < self.BACKWARD_BUDGET[case], f"{backward:.2f} units at the backward peak"


def gradient_digests() -> dict[str, str]:
    """sha256 of each gradient's bytes after the backward of the joint loss
    of a default-config training step on a 6000-token `synthetic_instance`,
    for the fnet and the windowed-attention mixer."""
    digests = {}
    for mixer in ("fnet", "windowed_attention"):
        cfg = ModelConfig(mixer=mixer)
        rng = np.random.default_rng(53)
        table = rng.standard_normal((50, cfg.emb_dim))
        model = JNRF(cfg, seed=0)
        with Tape() as tape:
            loss, _, lre = model.instance_losses(synthetic_instance(6000, rng), table)
        assert lre is not None
        tape.backward(loss)
        digests.update({
            f"{mixer} {name}": hashlib.sha256(p.grad.tobytes()).hexdigest()
            for name, p in model.params.items() if p.grad is not None
        })
    return digests


def test_joint_gradients_have_the_same_bytes_under_1_and_2_blas_threads():
    """Every product whose inner dimension grows with the document is summed
    in an order that does not depend on the BLAS thread count: wo's gradient
    window by window, and each relation score block against a contiguous
    copy of q^T. One product merged^T g over all n rows gave lm.0.wo and
    lm.1.wo other bytes under 2 threads than under 1, and with OpenBLAS's
    AVX-512 kernels so did k @ q^T against the transposed view of q over an
    odd number of drugs, which reaches every weight's gradient."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = (
        f"import sys, json; sys.path[:0] = [{src!r}, {here!r}]; "
        "from test_model import gradient_digests; print(json.dumps(gradient_digests()))"
    )
    one, two = (
        json.loads(subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        ).stdout)
        for threads in ("1", "2")
    )
    assert sorted(one) == sorted(two) and len(one) > 100
    assert [name for name in one if one[name] != two[name]] == []


def _produced(obj) -> bool:
    return isinstance(obj, Tensor) and obj._node is not None


class TestTapeKeepsNoOutputs:
    def test_forward_leaves_op_outputs_to_their_callers(self, monkeypatch):
        cfg = ModelConfig()
        model = JNRF(cfg, seed=0)
        rng = np.random.default_rng(52)
        table = rng.standard_normal((50, cfg.emb_dim))
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

    @pytest.mark.parametrize("mixer", ["fnet", "windowed_attention"])
    def test_each_n_row_array_is_freed_before_the_next_mixer(self, monkeypatch, mixer):
        """When a block's mixer op is called, the embedding's output and
        every earlier ffn and mixer output but the mixer's own input are
        already freed, and when an ffn is called, the embedding's, every
        mixer's and every earlier ffn's output: each goes when its last
        reader returns. The NER head's output is freed by the NER loss,
        before the RE embedding runs."""
        cfg = ModelConfig(mixer=mixer, window=100)
        model = JNRF(cfg, seed=0)
        rng = np.random.default_rng(54)
        table = rng.standard_normal((50, cfg.emb_dim))
        inst = synthetic_instance(300, rng)
        mixer_op = "fourier_mix" if mixer == "fnet" else "windowed_attention"
        kept, calls = [], []  # (op, weakref to its output's data); (op, ops whose outputs are alive)

        def traced(*args, _name, _op, **kwargs):
            calls.append((_name, [name for name, r in kept if r() is not None and r() is not args[0].data]))
            out = _op(*args, **kwargs)
            kept.append((_name, weakref.ref(out.data)))
            return out

        for owner, name in ((M, "embed"), (T, "ffn"), (T, mixer_op)):
            monkeypatch.setattr(owner, name, functools.partial(traced, _name=name, _op=getattr(owner, name)))
        with Tape():
            model.instance_losses(inst, table)
        assert [alive for name, alive in calls if name == mixer_op] == [[]] * cfg.n_blocks
        assert [alive for name, alive in calls if name == "ffn"] == [[]] * (cfg.n_blocks + 3)

    @pytest.mark.parametrize("pooling", ["gold", "predicted"])
    def test_encoder_output_and_logits_are_freed_before_the_relation_scores(self, monkeypatch, pooling):
        """Selective pooling is the encoder output's last reader, and the
        NER loss, or with predicted pooling `decode_bio`, the logits' last:
        neither is alive when the relation head scores."""
        cfg = ModelConfig(train_pooling=pooling)
        model = JNRF(cfg, seed=0)
        rng = np.random.default_rng(55)
        table = rng.standard_normal((50, cfg.emb_dim))
        inst = synthetic_instance(300, rng)
        refs, alive = {}, []
        for name in ("encode", "ner_head"):
            def traced(*args, _name=name, _op=getattr(model, name)):
                out = _op(*args)
                refs[_name] = weakref.ref(out)
                return out

            monkeypatch.setattr(model, name, traced)

        def scores(*args, _op=T.relation_scores):
            alive.append(sorted(name for name, r in refs.items() if r() is not None))
            return _op(*args)

        monkeypatch.setattr(T, "relation_scores", scores)
        with Tape():
            _, _, lre = model.instance_losses(inst, table)
        assert lre is not None
        assert sorted(refs) == ["encode", "ner_head"] and alive == [[]]
