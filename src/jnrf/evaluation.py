"""Lenient micro-averaged scoring for NER and end-to-end NER+RE.

A predicted entity matches a gold entity when their character spans overlap
by at least one character and the types agree; a predicted relation matches
when its type agrees and both arguments match leniently. Matching is greedy
one-to-one in document order. Undefined precision/recall (zero denominators)
is reported as 0.

Three stratified views mirror the analysis tables: per entity/relation
type, per document-length bin (Freedman-Diaconis widths anchored at 0),
and per signed sentence distance (negative when the drug comes first).

A report costs a sort and then work linear in its input. The matcher sweeps
each type's gold items once in document order instead of rescanning them for
every prediction; only gold relations whose first argument overlaps a
prediction's but that fail the full test are looked at again. A position's
sentence is one bisect on a list of sentence ends built once per document.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .corpus import (
    Document,
    ENTITY_TYPES,
    EntitySpan,
    Relation,
    RELATION_TYPES,
)


class EvaluationError(ValueError):
    pass


@dataclass
class MatchCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def add(self, other: "MatchCounts"):
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        return self

    def prf(self) -> tuple[float, float, float]:
        return self.precision, self.recall, self.f1


def _overlap(a: EntitySpan, b: EntitySpan) -> bool:
    return a.start < b.end and b.start < a.end


def _entity_matches(p: EntitySpan, g: EntitySpan) -> bool:
    return p.etype == g.etype and _overlap(p, g)


def _entity_order(e: EntitySpan):
    return (e.start, e.end, e.etype)


def _relation_order(r: Relation):
    return (r.arg1.start, r.arg1.end, r.arg2.start, r.arg2.end, r.rtype)


def _arguments_match(p: Relation, g: Relation) -> bool:
    return _entity_matches(p.arg1, g.arg1) and _entity_matches(p.arg2, g.arg2)


def _greedy_match(pred, gold, order, type_of, same) -> dict[str, MatchCounts]:
    """Greedy one-to-one matching, counted per type: with both lists sorted
    by `order`, each prediction in turn takes the earliest gold item of its
    type that no earlier prediction took and that `same` accepts. A match
    needs equal types, so each type's counts are exactly those of matching
    that type's items alone.

    `order` begins with the start and end of a span that `same` requires to
    overlap the prediction's. So each prediction walks its type's open gold
    items from the front and
      - stops at the first item that starts at or after its end: that item
        and every later one start at least as late, and none overlaps it;
      - drops, as a miss, an item that ends at or before its start: no later
        prediction starts earlier, so none can overlap that item either;
      - takes the first remaining item that `same` accepts.
    Stopping and dropping pass over only items `same` rejects, so the taken
    item is the earliest open match. The open items form a linked list, so
    an item leaves it from the middle in O(1). After the sort, the work is
    linear in P + G: each item is dropped or taken once, and a walk ends at
    one item. Relations add a rescan of the gold items whose first argument
    overlaps but whose other fields `same` rejects.

    A type's list, sweep and counts are built when its first item arrives,
    not once per item; a prediction of a type with no gold item is a false
    positive with no walk."""
    open_gold: dict[str, list] = defaultdict(list)
    for g in sorted(gold, key=order):
        open_gold[type_of(g)].append(g)
    sweeps, counts = {}, {}
    for t, items in open_gold.items():
        keys = [order(g) for g in items]
        # link[i] is the next open item after i; link[n] is the first one,
        # and n also marks the end of the list
        link = [*range(1, len(items) + 1), 0]
        sweeps[t] = items, [k[0] for k in keys], [k[1] for k in keys], link
        counts[t] = MatchCounts(fn=len(items))
    for p in sorted(pred, key=order):
        t = type_of(p)
        if t not in sweeps:  # no gold item of this type
            if t in counts:
                counts[t].fp += 1
            else:
                counts[t] = MatchCounts(fp=1)
            continue
        c = counts[t]
        items, starts, ends, link = sweeps[t]
        lo, hi = order(p)[:2]
        n = len(items)
        prev, i = n, link[n]
        while i < n and starts[i] < hi:
            if ends[i] <= lo:
                i = link[prev] = link[i]
            elif same(p, items[i]):
                link[prev] = link[i]
                c.tp += 1
                c.fn -= 1
                break
            else:
                prev, i = i, link[i]
        else:
            c.fp += 1
    return counts


def match_entities(pred, gold) -> dict[str, MatchCounts]:
    return _greedy_match(pred, gold, _entity_order, attrgetter("etype"), _overlap)


def match_relations(pred, gold) -> dict[str, MatchCounts]:
    return _greedy_match(pred, gold, _relation_order, attrgetter("rtype"), _arguments_match)


def _tally(by_type: dict[str, MatchCounts], per_type: dict | None = None) -> MatchCounts:
    """Sum of the per-type counts; each type listed in per_type is also
    added to its entry there."""
    total = MatchCounts()
    for t, c in by_type.items():
        total.add(c)
        if per_type is not None and t in per_type:
            per_type[t].add(c)
    return total


def fd_length_bins(lengths) -> list[tuple[int, int]]:
    """Histogram edges anchored at 0 with the Freedman-Diaconis width
    2 * IQR * N^(-1/3), rounded to the nearest whole token count."""
    lengths = sorted(lengths)
    if len(lengths) < 2:
        raise EvaluationError("length binning needs at least 2 documents")
    iqr = float(np.quantile(lengths, 0.75) - np.quantile(lengths, 0.25))
    width = int(round(2.0 * iqr * len(lengths) ** (-1.0 / 3.0)))
    if width < 1:
        return [(0, lengths[-1] + 1)]
    top = lengths[-1] // width + 1
    return [(k * width, (k + 1) * width) for k in range(top)]


def sentence_ends(doc: Document) -> list[int]:
    """Character end of the last token of every sentence but the last, read
    off the document's `end` column."""
    ends = doc.tokens.end
    return [ends[s - 1] for s in doc.sentence_starts[1:]]


def sentence_distance(rel: Relation, doc: Document, ends: list[int] | None = None) -> int:
    """Signed sentence count from attribute to drug: negative when the drug
    is mentioned before the related attribute.

    The sentence of a character position is the number of sentence ends at
    or before it, capped at the last sentence; leaving the last sentence's
    end out of `sentence_ends` is the cap. That is the sentence of the first
    token ending after the position, or of the last token when none does.
    A caller measuring many relations of one document passes
    `sentence_ends(doc)` as `ends` so that it is built once."""
    if ends is None:
        ends = sentence_ends(doc)
    return bisect_right(ends, rel.arg2.start) - bisect_right(ends, rel.arg1.start)


@dataclass
class EvalReport:
    ner: MatchCounts = field(default_factory=MatchCounts)
    ner_by_type: dict = field(default_factory=dict)
    e2e: MatchCounts = field(default_factory=MatchCounts)
    e2e_by_type: dict = field(default_factory=dict)
    by_length_bin: list = field(default_factory=list)  # (lo, hi, doc count, MatchCounts)
    by_sentence_distance: dict = field(default_factory=dict)
    distance_gold_counts: dict = field(default_factory=dict)


@dataclass
class PredictedDoc:
    doc_id: str
    entities: list
    relations: list


def _by_id(docs, side: str) -> dict:
    by_id = {}
    for d in docs:
        if d.doc_id in by_id:
            raise EvaluationError(f"duplicate {side} document id {d.doc_id!r}")
        by_id[d.doc_id] = d
    return by_id


def build_report(pred_docs: list[PredictedDoc], gold_docs: list[Document]) -> EvalReport:
    preds = _by_id(pred_docs, "pred")
    golds = _by_id(gold_docs, "gold")
    missing = sorted(set(golds) ^ set(preds))
    if missing:
        raise EvaluationError(f"pred/gold document ids disagree: {missing}")

    report = EvalReport()
    report.ner_by_type = {t: MatchCounts() for t in ENTITY_TYPES}
    report.e2e_by_type = {t: MatchCounts() for t in RELATION_TYPES}
    per_doc_e2e: dict[str, MatchCounts] = {}
    by_distance: dict[int, MatchCounts] = defaultdict(MatchCounts)

    for doc_id, gold in sorted(golds.items()):
        pred = preds[doc_id]
        report.ner.add(_tally(match_entities(pred.entities, gold.gold_entities), report.ner_by_type))
        doc_counts = _tally(match_relations(pred.relations, gold.gold_relations), report.e2e_by_type)
        per_doc_e2e[doc_id] = doc_counts
        report.e2e.add(doc_counts)
        # distance strata: gold relations keyed by gold distance, predictions
        # by their own distance, matched within the stratum
        strata: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))  # distance -> (pred, gold)
        ends = sentence_ends(gold)
        for r in gold.gold_relations:
            d = sentence_distance(r, gold, ends)
            strata[d][1].append(r)
            report.distance_gold_counts[d] = report.distance_gold_counts.get(d, 0) + 1
        for r in pred.relations:
            strata[sentence_distance(r, gold, ends)][0].append(r)
        for d, (p, g) in strata.items():
            by_distance[d].add(_tally(match_relations(p, g)))
    report.by_sentence_distance = dict(sorted(by_distance.items()))

    lengths = {doc_id: len(golds[doc_id]) for doc_id in golds}
    if len(golds) >= 2:
        for lo, hi in fd_length_bins(list(lengths.values())):
            in_bin = [doc_id for doc_id, n in lengths.items() if lo <= n < hi]
            if not in_bin:
                continue
            counts = MatchCounts()
            for doc_id in sorted(in_bin):
                counts.add(per_doc_e2e[doc_id])
            report.by_length_bin.append((lo, hi, len(in_bin), counts))
    return report


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def render_report_text(report: EvalReport) -> str:
    lines = []

    def table(title, rows):
        lines.append(title)
        lines.append(f"{'':<18}{'P(%)':>9}{'R(%)':>9}{'F1(%)':>9}")
        for key, counts, extra in rows:
            p, r, f = counts.prf()
            suffix = f"  {extra}" if extra else ""
            lines.append(f"{key:<18}{_pct(p):>9}{_pct(r):>9}{_pct(f):>9}{suffix}")
        lines.append("")

    table(
        "NER (lenient micro)",
        [(t, c, "") for t, c in report.ner_by_type.items()] + [("Overall", report.ner, "")],
    )
    table(
        "E2E NER+RE (lenient micro)",
        [(t, c, "") for t, c in report.e2e_by_type.items()] + [("Overall", report.e2e, "")],
    )
    table(
        "By document length",
        [
            (f"[{lo}, {hi})", c, f"docs={n}")
            for lo, hi, n, c in report.by_length_bin
        ],
    )
    table(
        "By sentence distance",
        [
            (str(d), c, f"gold={report.distance_gold_counts.get(d, 0)}")
            for d, c in sorted(report.by_sentence_distance.items())
        ],
    )
    return "\n".join(lines)

