from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from jnrf import evaluation
from jnrf.corpus import ENTITY_TYPES, RELATION_TYPES, Document, EntitySpan, Relation, Token, parse_brat
from jnrf.evaluation import (
    EvaluationError,
    PredictedDoc,
    build_report,
    fd_length_bins,
    match_entities,
    match_relations,
    render_report_text,
    sentence_distance,
    sentence_ends,
)
from jnrf.tokenizer import Vocab, prepare

from oracles import fd_bins, naive_greedy_counts, scan_sentence_index_of_char, token_columns

# A few types on a short stretch of text, so that spans collide often.
TYPES = ("Drug", "Strength", "Route")
HYPOTHESIS = settings(max_examples=100, deadline=None)


def entity_order(e):
    return (e.start, e.end, e.etype)


def entity_same(p, g):
    return p.etype == g.etype and p.start < g.end and g.start < p.end


def relation_order(r):
    return (r.arg1.start, r.arg1.end, r.arg2.start, r.arg2.end, r.rtype)


def relation_same(p, g):
    return p.rtype == g.rtype and entity_same(p.arg1, g.arg1) and entity_same(p.arg2, g.arg2)


def naive_entities(pred, gold):
    return naive_greedy_counts(pred, gold, entity_order, entity_same)


def naive_relations(pred, gold):
    return naive_greedy_counts(pred, gold, relation_order, relation_same)


def as_tuple(counts):
    return counts.tp, counts.fp, counts.fn


def summed(triples):
    return tuple(map(sum, zip((0, 0, 0), *triples)))


# Zero-width spans, and widths up to 12 so that spans nest and a gold item
# that no later prediction can reach sits behind one that is still open.
# Starts crowd into 0..3 half of the time, so many spans share one start.
spans = st.tuples(
    st.one_of(st.integers(0, 3), st.integers(0, 30)), st.integers(0, 12)
).map(lambda sw: (sw[0], sw[0] + sw[1]))


@st.composite
def entities(draw, types=TYPES):
    out = []
    for i, (s, e) in enumerate(draw(st.lists(spans, max_size=10))):
        out.append(EntitySpan(f"T{i}", draw(st.sampled_from(types)), s, e))
    return out


@st.composite
def relations(draw):
    """Relations whose first arguments often overlap while their second
    arguments, drawn over a wider stretch, often do not."""
    out = []
    wide = st.tuples(st.integers(0, 60), st.integers(0, 4)).map(lambda sw: (sw[0], sw[0] + sw[1]))
    for (s1, e1), (s2, e2) in draw(st.lists(st.tuples(spans, st.one_of(spans, wide)), max_size=8)):
        attr = draw(st.sampled_from(("Strength", "Route")))
        out.append(Relation(f"{attr}-Drug", EntitySpan("A", attr, s1, e1), EntitySpan("D", "Drug", s2, e2)))
    return out


@st.composite
def layouts(draw, doc_id="d"):
    """A document with tokens laid out in text order over about 40
    characters and sentence starts at some tokens, not always at the first;
    it may have no tokens."""
    tokens, pos = [], 0
    for gap, width in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=15)):
        pos += gap
        tokens.append(Token(f"t{len(tokens)}", pos, pos + width))
        pos += width
    starts = sorted(draw(st.sets(st.integers(0, len(tokens) - 1)))) if tokens else []
    return Document(doc_id, "", tokens=token_columns(tokens), sentence_starts=starts)


@st.composite
def documents(draw, doc_id="d"):
    """A gold document laid out by `layouts`, with annotations, and a
    prediction for it."""
    gold = draw(layouts(doc_id))
    gold.gold_entities, gold.gold_relations = draw(entities()), draw(relations())
    return PredictedDoc(doc_id, draw(entities()), draw(relations())), gold


def report_of(pred_ents, gold_ents, pred_rels=(), gold_rels=()):
    gold = Document("d", "", list(gold_ents), list(gold_rels))
    return build_report([PredictedDoc("d", list(pred_ents), list(pred_rels))], [gold])


class TestGreedyMatching:
    @HYPOTHESIS
    @given(pred=entities(), gold=entities())
    def test_entities_follow_the_greedy_rule(self, pred, gold):
        assert as_tuple(report_of(pred, gold).ner) == naive_entities(pred, gold)

    @HYPOTHESIS
    @given(pred=relations(), gold=relations())
    def test_relations_follow_the_greedy_rule(self, pred, gold):
        assert as_tuple(report_of([], [], pred, gold).e2e) == naive_relations(pred, gold)

    def test_one_gold_entity_is_matched_once(self):
        gold = [EntitySpan("T1", "Drug", 0, 10)]
        pred = [EntitySpan("P1", "Drug", 0, 2), EntitySpan("P2", "Drug", 5, 7)]
        assert as_tuple(report_of(pred, gold).ner) == (1, 1, 0)

    def test_earliest_gold_is_taken_first(self):
        # the first prediction takes gold T1 although it also overlaps T2, so
        # the second prediction, which overlaps only T1, finds nothing left
        gold = [EntitySpan("T1", "Drug", 0, 2), EntitySpan("T2", "Drug", 3, 6)]
        pred = [EntitySpan("P1", "Drug", 0, 4), EntitySpan("P2", "Drug", 1, 2)]
        assert as_tuple(report_of(pred, gold).ner) == (1, 1, 1)

    def test_types_must_agree(self):
        gold = [EntitySpan("T1", "Drug", 0, 4)]
        pred = [EntitySpan("P1", "Route", 0, 4)]
        assert as_tuple(report_of(pred, gold).ner) == (0, 1, 1)

    def test_an_unreachable_gold_item_behind_an_open_one(self):
        # G1's first argument overlaps every prediction's, but only P3 names
        # its drug. G2, behind G1, is dropped when P2 starts past its end, and
        # G3, behind both, is taken by P2. G1 must still be open for P3.
        def rel(a, d):
            return Relation("Strength-Drug", EntitySpan("A", "Strength", *a), EntitySpan("D", "Drug", *d))

        gold = [rel((0, 10), (50, 52)), rel((1, 2), (60, 62)), rel((3, 9), (70, 72))]
        pred = [rel((1, 3), (80, 81)), rel((5, 6), (70, 71)), rel((6, 7), (50, 51))]
        assert as_tuple(match_relations(pred, gold)["Strength-Drug"]) == (2, 1, 1)
        assert naive_relations(pred, gold) == (2, 1, 1)


def counted(monkeypatch, name):
    """Replace the pair predicate `evaluation.<name>` by one that counts its
    calls in the returned list's only element."""
    calls = [0]
    inner = getattr(evaluation, name)

    def counting(p, g):
        calls[0] += 1
        return inner(p, g)

    monkeypatch.setattr(evaluation, name, counting)
    return calls


class TestMatchingWork:
    """With P = G = 2,000 items of one type, the matcher calls its pair
    predicate at most P + G times when the spans that decide overlap never
    overlap, or overlap one to one; testing every open gold item for each
    prediction would call it P * G = 4,000,000 times."""

    N = 2000

    @pytest.mark.parametrize("every", [0, 2], ids=["never", "every-other"])
    def test_entities(self, monkeypatch, every):
        # prediction i covers [4i, 4i + 2); gold i lies at [4i + 2, 4i + 3),
        # past it, except that with every = 2 each even one moves inside it
        def gold_at(i):
            s = 4 * i + (1 if every and i % every == 0 else 2)
            return EntitySpan(f"T{i}", "Drug", s, s + 1)

        pred = [EntitySpan(f"P{i}", "Drug", 4 * i, 4 * i + 2) for i in range(self.N)]
        gold = [gold_at(i) for i in range(self.N)]
        calls = counted(monkeypatch, "_overlap")
        got = as_tuple(match_entities(pred, gold)["Drug"])
        tp = self.N // every if every else 0
        assert got == (tp, self.N - tp, self.N - tp)
        assert calls[0] <= 2 * self.N

    def test_relations_whose_first_arguments_never_overlap(self, monkeypatch):
        def rel(a, d):
            return Relation("Route-Drug", EntitySpan("A", "Route", a, a + 1), EntitySpan("D", "Drug", d, d + 1))

        pred = [rel(4 * i, 4 * i + 2) for i in range(self.N)]
        gold = [rel(4 * i + 2, 4 * i + 2) for i in range(self.N)]
        calls = counted(monkeypatch, "_arguments_match")
        assert as_tuple(match_relations(pred, gold)["Route-Drug"]) == (0, self.N, self.N)
        assert calls[0] <= 2 * self.N


class TestContainersPerKey:
    """The matcher and the report build a type's or a stratum's containers
    when its first item arrives, not once per item."""

    def test_one_match_counts_per_type(self, monkeypatch):
        made = []

        class Counting(evaluation.MatchCounts):
            def __init__(self, *args, **kwargs):
                made.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(evaluation, "MatchCounts", Counting)
        # 50 predictions of 3 types, one of which has no gold entity
        pred = [EntitySpan(f"P{i}", TYPES[i % 3], 2 * i, 2 * i + 1) for i in range(50)]
        gold = [EntitySpan(f"T{i}", TYPES[i % 2], 3 * i, 3 * i + 2) for i in range(20)]
        by_type = match_entities(pred, gold)
        assert sorted(by_type) == sorted(TYPES)
        for t in TYPES:
            alone = naive_entities([e for e in pred if e.etype == t], [e for e in gold if e.etype == t])
            assert as_tuple(by_type[t]) == alone
        assert len(made) <= len(TYPES)

    def test_a_predicted_entity_of_a_type_with_no_gold_entity_is_one_false_positive(self):
        gold = [EntitySpan("T1", "Drug", 0, 4)]
        pred = [EntitySpan("P1", "Route", 0, 4), EntitySpan("P2", "Drug", 0, 4)]
        by_type = match_entities(pred, gold)
        assert as_tuple(by_type["Route"]) == (0, 1, 0) and as_tuple(by_type["Drug"]) == (1, 0, 0)
        assert as_tuple(report_of(pred, gold).ner_by_type["Route"]) == (0, 1, 0)

    def test_a_predicted_relation_at_a_distance_no_gold_relation_has(self):
        # the gold relation is within sentence 0; the predicted one joins
        # "oral" in sentence 2 to the drug in sentence 0, distance -2
        doc = parse_brat(
            "aspirin 5 mg daily. take it. oral.",
            "T1\tDrug 0 7\taspirin\nT2\tStrength 8 12\t5 mg\nT3\tRoute 29 33\toral\n"
            "R1\tStrength-Drug Arg1:T2 Arg2:T1\n",
            "d",
        )
        prepare(doc, Vocab(["[UNK]", "aspirin", "daily", "take", "5", "mg", "oral", "."]))
        drug, _, route = doc.gold_entities
        pred = PredictedDoc("d", list(doc.gold_entities), [Relation("Route-Drug", route, drug)])
        report = build_report([pred], [doc])
        assert {d: as_tuple(c) for d, c in report.by_sentence_distance.items()} == {-2: (0, 1, 0), 0: (0, 0, 1)}
        assert report.distance_gold_counts == {0: 1}


class TestCountsByType:
    @HYPOTHESIS
    @given(pred=entities(), gold=entities(), pred_rels=relations(), gold_rels=relations())
    def test_each_type_counts_as_if_matched_alone(self, pred, gold, pred_rels, gold_rels):
        report = report_of(pred, gold, pred_rels, gold_rels)
        assert list(report.ner_by_type) == list(ENTITY_TYPES)
        assert list(report.e2e_by_type) == list(RELATION_TYPES)
        for t in ENTITY_TYPES:
            alone = naive_entities([e for e in pred if e.etype == t], [e for e in gold if e.etype == t])
            assert as_tuple(report.ner_by_type[t]) == alone
        for t in RELATION_TYPES:
            alone = naive_relations([r for r in pred_rels if r.rtype == t], [r for r in gold_rels if r.rtype == t])
            assert as_tuple(report.e2e_by_type[t]) == alone
        assert summed(map(as_tuple, report.ner_by_type.values())) == as_tuple(report.ner)
        assert summed(map(as_tuple, report.e2e_by_type.values())) == as_tuple(report.e2e)

    @HYPOTHESIS
    @given(pred=entities(ENTITY_TYPES), gold=entities(ENTITY_TYPES))
    def test_match_entities_counts_by_type(self, pred, gold):
        by_type = match_entities(pred, gold)
        for t in ENTITY_TYPES:
            alone = naive_entities([e for e in pred if e.etype == t], [e for e in gold if e.etype == t])
            assert (as_tuple(by_type[t]) if t in by_type else (0, 0, 0)) == alone
        assert set(by_type) <= {e.etype for e in pred + gold}

    @HYPOTHESIS
    @given(pred=relations(), gold=relations())
    def test_match_relations_counts_by_type(self, pred, gold):
        by_type = match_relations(pred, gold)
        for t in RELATION_TYPES:
            alone = naive_relations([r for r in pred if r.rtype == t], [r for r in gold if r.rtype == t])
            assert (as_tuple(by_type[t]) if t in by_type else (0, 0, 0)) == alone


class TestReordering:
    @HYPOTHESIS
    @given(docs=st.lists(documents(), min_size=1, max_size=3), rng=st.randoms(use_true_random=False))
    def test_counts_do_not_depend_on_list_order(self, docs, rng):
        for i, (p, g) in enumerate(docs):
            p.doc_id = g.doc_id = f"d{i}"
        report = build_report([p for p, _ in docs], [g for _, g in docs])
        shuffled = [
            (PredictedDoc(p.doc_id, rng.sample(p.entities, len(p.entities)), rng.sample(p.relations, len(p.relations))),
             Document(g.doc_id, g.text, rng.sample(g.gold_entities, len(g.gold_entities)),
                      rng.sample(g.gold_relations, len(g.gold_relations)), g.tokens, g.sentence_starts))
            for p, g in docs
        ]
        rng.shuffle(shuffled)
        again = build_report([p for p, _ in shuffled], [g for _, g in shuffled])
        assert again.ner == report.ner and again.e2e == report.e2e
        assert again.ner_by_type == report.ner_by_type and again.e2e_by_type == report.e2e_by_type
        assert again.by_sentence_distance == report.by_sentence_distance
        assert again.distance_gold_counts == report.distance_gold_counts
        assert again.by_length_bin == report.by_length_bin


class TestStrata:
    @HYPOTHESIS
    @given(docs=st.lists(documents(), min_size=2, max_size=4))
    def test_distance_and_length_strata(self, docs):
        for i, (p, g) in enumerate(docs):
            p.doc_id = g.doc_id = f"d{i}"
        report = build_report([p for p, _ in docs], [g for _, g in docs])

        def distance(r, g):
            drug = scan_sentence_index_of_char(g.tokens, g.sentence_starts, r.arg2.start)
            attr = scan_sentence_index_of_char(g.tokens, g.sentence_starts, r.arg1.start)
            return drug - attr

        want, gold_counts = {}, Counter()
        for p, g in docs:
            for d in {distance(r, g) for r in p.relations + g.gold_relations}:
                want.setdefault(d, []).append(naive_relations(
                    [r for r in p.relations if distance(r, g) == d],
                    [r for r in g.gold_relations if distance(r, g) == d],
                ))
            gold_counts.update(distance(r, g) for r in g.gold_relations)
        assert list(report.by_sentence_distance) == sorted(want)
        assert {d: as_tuple(c) for d, c in report.by_sentence_distance.items()} == {
            d: summed(parts) for d, parts in want.items()
        }
        assert report.distance_gold_counts == dict(gold_counts)

        lengths = [len(g.tokens) for _, g in docs]
        want_bins = []
        for lo, hi in fd_bins(lengths):
            inside = [(p, g) for p, g in docs if lo <= len(g.tokens) < hi]
            if inside:
                counts = summed(naive_relations(p.relations, g.gold_relations) for p, g in inside)
                want_bins.append((lo, hi, len(inside), counts))
        assert [(lo, hi, n, as_tuple(c)) for lo, hi, n, c in report.by_length_bin] == want_bins

    def test_one_document_has_no_length_bins(self):
        assert report_of([], []).by_length_bin == []


class TestLengthBins:
    @HYPOTHESIS
    @given(st.lists(st.integers(0, 10_000), min_size=2, max_size=40))
    def test_bins_follow_the_docstring_formula(self, lengths):
        assert fd_length_bins(lengths) == fd_bins(lengths)

    def test_width_below_one_gives_one_bin(self):
        assert fd_length_bins([7, 7, 7]) == [(0, 8)]

    def test_known_width(self):
        # IQR of 0..9 is 4.5; 2 * 4.5 * 10^(-1/3) = 4.18, rounded to 4
        assert fd_length_bins(range(10)) == [(0, 4), (4, 8), (8, 12)]

    def test_needs_two_documents(self):
        with pytest.raises(EvaluationError, match="at least 2"):
            fd_length_bins([5])


class TestSentenceDistance:
    @settings(max_examples=300, deadline=None)
    @given(doc=layouts(), attr=st.integers(-2, 45), drug=st.integers(-2, 45))
    def test_sentences_of_positions_follow_the_scan(self, doc, attr, drug):
        rel = Relation("Route-Drug", EntitySpan("A", "Route", attr, attr + 1), EntitySpan("D", "Drug", drug, drug + 1))
        want = (scan_sentence_index_of_char(doc.tokens, doc.sentence_starts, drug)
                - scan_sentence_index_of_char(doc.tokens, doc.sentence_starts, attr))
        assert sentence_distance(rel, doc) == want
        assert sentence_distance(rel, doc, sentence_ends(doc)) == want

    def test_gaps_and_ends(self):
        # tokens "ab" at 1..3 and "c" at 5..6: characters in the gap belong to
        # the next token's sentence, those after the last token to the last
        doc = Document("d", "", tokens=token_columns([Token("ab", 1, 3), Token("c", 5, 6)]), sentence_starts=[0, 1])
        assert sentence_ends(doc) == [3]
        from_start = [
            sentence_distance(Relation("Route-Drug", EntitySpan("A", "Route", 0, 1), EntitySpan("D", "Drug", p, p + 1)), doc)
            for p in range(8)
        ]
        assert from_start == [0, 0, 0, 1, 1, 1, 1, 1]

    def test_no_tokens(self):
        doc = Document("d", "")
        assert sentence_ends(doc) == []
        rel = Relation("Route-Drug", EntitySpan("A", "Route", 9, 10), EntitySpan("D", "Drug", 0, 4))
        assert sentence_distance(rel, doc) == 0

    def make(self, text, ann):
        doc = parse_brat(text, ann)
        prepare(doc, Vocab(["[UNK]", "aspirin", "daily", "take", "5", "mg", "oral", "."]))
        return doc

    def test_negative_when_the_drug_comes_first(self):
        doc = self.make(
            "aspirin daily. take it. 5 mg.",
            "T1\tDrug 0 7\taspirin\nT2\tStrength 24 28\t5 mg\nR1\tStrength-Drug Arg1:T2 Arg2:T1\n",
        )
        assert sentence_distance(doc.gold_relations[0], doc) == -2

    def test_positive_when_the_attribute_comes_first(self):
        doc = self.make(
            "5 mg. take aspirin daily.",
            "T1\tDrug 11 18\taspirin\nT2\tStrength 0 4\t5 mg\nR1\tStrength-Drug Arg1:T2 Arg2:T1\n",
        )
        assert sentence_distance(doc.gold_relations[0], doc) == 1

    def test_zero_in_the_same_sentence(self):
        doc = self.make(
            "take aspirin 5 mg daily.",
            "T1\tDrug 5 12\taspirin\nT2\tStrength 13 17\t5 mg\nR1\tStrength-Drug Arg1:T2 Arg2:T1\n",
        )
        assert sentence_distance(doc.gold_relations[0], doc) == 0


class TestDocumentIds:
    def test_mismatched_ids_are_rejected(self):
        with pytest.raises(EvaluationError, match="disagree"):
            build_report([PredictedDoc("a", [], [])], [Document("b", "")])

    @pytest.mark.parametrize("side", ["pred", "gold"])
    def test_duplicate_ids_are_rejected(self, side):
        gold = Document("d1", "", [EntitySpan("T1", "Drug", 0, 3)])
        p_full = PredictedDoc("d1", [EntitySpan("P1", "Drug", 0, 3)], [])
        p_empty = PredictedDoc("d1", [], [])
        preds, golds = ([p_full, p_empty], [gold]) if side == "pred" else ([p_full], [gold, gold])
        with pytest.raises(EvaluationError, match="duplicate.*'d1'"):
            build_report(preds, golds)


class TestRenderReportText:
    def report(self):
        vocab = Vocab(["[UNK]", "aspirin", "daily", "take", "5", "mg", "oral", "."])
        golds = []
        for doc_id, text, ann in [
            ("a", "take aspirin 5 mg daily. oral aspirin.",
             "T1\tDrug 5 12\taspirin\nT2\tStrength 13 17\t5 mg\nT3\tFrequency 18 23\tdaily\n"
             "T4\tRoute 25 29\toral\nT5\tDrug 30 37\taspirin\n"
             "R1\tStrength-Drug Arg1:T2 Arg2:T1\nR2\tFrequency-Drug Arg1:T3 Arg2:T1\n"
             "R3\tRoute-Drug Arg1:T4 Arg2:T5\n"),
            ("b", "5 mg. take aspirin daily.",
             "T1\tDrug 11 18\taspirin\nT2\tStrength 0 4\t5 mg\n"
             "R1\tStrength-Drug Arg1:T2 Arg2:T1\n"),
        ]:
            doc = parse_brat(text, ann, doc_id)
            prepare(doc, vocab)
            golds.append(doc)
        a, b = golds
        drug, strength, freq, _, drug2 = a.gold_entities
        route_as_form = EntitySpan("P4", "Form", 25, 29)
        pred_a = PredictedDoc("a", [drug, strength, freq, route_as_form, drug2], [
            a.gold_relations[0],
            Relation("Frequency-Drug", freq, drug2),
            Relation("Form-Drug", route_as_form, drug2),
        ])
        pred_b = PredictedDoc("b", list(b.gold_entities), list(b.gold_relations))
        return build_report([pred_a, pred_b], golds)

    def test_sections_rows_and_percentages(self):
        report = self.report()
        text = render_report_text(report)
        sections = [block.splitlines() for block in text.split("\n\n")]
        assert [lines[0] for lines in sections] == [
            "NER (lenient micro)", "E2E NER+RE (lenient micro)",
            "By document length", "By sentence distance",
        ]
        want_rows = [
            [*report.ner_by_type.items(), ("Overall", report.ner)],
            [*report.e2e_by_type.items(), ("Overall", report.e2e)],
            [(f"[{lo}, {hi})", c) for lo, hi, _, c in report.by_length_bin],
            [(str(d), c) for d, c in report.by_sentence_distance.items()],
        ]
        assert [k for k, _ in want_rows[0]] == [*ENTITY_TYPES, "Overall"]
        assert [k for k, _ in want_rows[1]] == [*RELATION_TYPES, "Overall"]
        assert [k for k, _ in want_rows[3]] == ["0", "1"]
        for lines, rows in zip(sections, want_rows):
            assert lines[1].split() == ["P(%)", "R(%)", "F1(%)"]
            assert [line[:18].strip() for line in lines[2:]] == [k for k, _ in rows]
            for line, (_, counts) in zip(lines[2:], rows):
                shown = [float(line[i:i + 9]) for i in (18, 27, 36)]
                assert shown == [round(100 * x, 2) for x in counts.prf()], line
        # the rows above are not all trivially 0 or 100
        assert 0 < report.ner.f1 < 1 and 0 < report.e2e.f1 < 1
