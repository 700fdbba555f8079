"""Joint NER + RE model: shared language model, token-wise heads, argmax
BIO decoding, selective pooling into drug/attribute sets, per-relation-type
bilinear scoring with a trainable polynomial distance bias, and the two
cross-entropy losses summed into the training objective.

Relation scoring runs over pooled entities only: one (|L|, |H|) score
matrix, attributes by drugs. An attribute of type X can only be in an X-Drug
relation (`parse_brat` rejects any other pairing), so scoring row l under
that one head is exact. Pooling groups the attributes by head, so each
head's rows are one block: its projected attributes against its projected
drugs, plus a_j*D^2 + b_j*D. The cost is |H| * |L| scores plus, per head
present, projections of the drugs and of that head's attributes; it never
grows with the square of the document length. The relation loss's
log-softmax runs over each row, the drug axis, so the model has no term that
is constant along a row (a drug bias, a constant c_j): it would cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .corpus import (
    ATTRIBUTE_TYPES,
    Document,
    EntitySpan,
    NUM_LABELS,
    Relation,
    RELATION_TYPES,
    label_parts,
    relation_head,
)
from .embedding import EmbeddingTable, embed
from .mixers import ffn, init_mixer_params, shared_lm
from .params import Params, add_linear, linear_init
from .tensor import ShapeError, Tensor

N_REL_HEADS = len(RELATION_TYPES)
# type X can only be Arg1 of an X-Drug relation
_HEAD_OF = {t: relation_head(f"{t}-Drug") for t in ATTRIBUTE_TYPES}


@dataclass
class EncodedInstance:
    """A document or single sentence, ready for the forward pass."""

    ids: np.ndarray                     # vocab ids, length n
    labels: np.ndarray                  # BIO label ids, length n
    spans: list[tuple[int, int, str]]   # gold (tok_start, tok_end, etype)
    relations: list[tuple[int, int]]    # (attr span idx, drug span idx)
    doc_id: str = ""
    sentence: int | None = None         # sentence index; None for a whole document


def encode_document(doc: Document) -> EncodedInstance:
    ids = np.array([t.vocab_id for t in doc.tokens], dtype=np.intp)
    labels = np.array(doc.bio_labels, dtype=np.intp)
    spans = [
        (s, e, ent.etype) for (s, e), ent in zip(doc.entity_token_spans, doc.gold_entities)
    ]
    index_of = {id(ent): i for i, ent in enumerate(doc.gold_entities)}
    relations = [(index_of[id(r.arg1)], index_of[id(r.arg2)]) for r in doc.gold_relations]
    return EncodedInstance(ids, labels, spans, relations, doc.doc_id)


def encode_sentences(doc: Document) -> list[EncodedInstance]:
    """One instance per sentence; entities clipped to those fully inside,
    relations to those with both arguments inside the same sentence."""
    out = []
    starts = doc.sentence_starts or [0]
    bounds = list(starts) + [len(doc.tokens)]
    full = encode_document(doc)
    for s in range(len(starts)):
        lo, hi = bounds[s], bounds[s + 1]
        if hi <= lo:
            continue
        keep = [i for i, (ts, te, _) in enumerate(full.spans) if ts >= lo and te <= hi]
        remap = {old: new for new, old in enumerate(keep)}
        spans = [(ts - lo, te - lo, et) for ts, te, et in (full.spans[i] for i in keep)]
        rels = [(remap[a], remap[d]) for a, d in full.relations if a in remap and d in remap]
        out.append(
            EncodedInstance(full.ids[lo:hi], full.labels[lo:hi], spans, rels, doc.doc_id, s)
        )
    return out


def decode_bio(logits: np.ndarray):
    """Row argmax (ties to the lowest class id) assembled into typed spans.

    B-X opens a span; I-X extends an open X span; I-X after O or another
    type opens a new X span; O closes."""
    labels = np.argmax(logits, axis=1)
    spans = []
    open_start, open_type = None, None
    for i, lab in enumerate(labels):
        parts = label_parts(int(lab))
        if parts is None:
            if open_type is not None:
                spans.append((open_start, i, open_type))
                open_start = open_type = None
            continue
        etype, is_begin = parts
        if is_begin or open_type != etype:
            if open_type is not None:
                spans.append((open_start, i, open_type))
            open_start, open_type = i, etype
    if open_type is not None:
        spans.append((open_start, len(labels), open_type))
    return labels, spans


@dataclass
class Pooled:
    """Selective pooling output: drugs (queries) and attributes (keys).
    `heads[l]` is the relation head of attribute l; it ascends."""

    q: Tensor | None
    k: Tensor | None
    pos_h: np.ndarray
    pos_l: np.ndarray
    heads: np.ndarray
    h_spans: list[tuple[int, int, str]] = field(default_factory=list)
    l_spans: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return len(self.h_spans) == 0 or len(self.l_spans) == 0


def selective_pool(e2: Tensor, spans, pool: str = "first", embed=None) -> Pooled:
    """Drugs in the order given; attributes grouped by relation head, in the
    order given within a head (a stable sort), so each head's rows of the
    relation scores are one block.

    Only the rows pooling reads are gathered: the span starts for `first`,
    every row inside a span for `mean`. `embed`, a row-wise map, runs on
    those rows alone, which equals pooling `embed(e2)`."""
    h_spans = [s for s in spans if s[2] == "Drug"]
    l_spans = sorted((s for s in spans if s[2] != "Drug"), key=lambda s: _HEAD_OF[s[2]])
    heads = np.array([_HEAD_OF[s[2]] for s in l_spans], dtype=np.intp)
    pos_h = np.array([s[0] for s in h_spans], dtype=np.intp)
    pos_l = np.array([s[0] for s in l_spans], dtype=np.intp)
    if not h_spans or not l_spans:
        return Pooled(None, None, pos_h, pos_l, heads, h_spans, l_spans)
    starts = np.concatenate([pos_h, pos_l])
    if pool == "first":
        ends = starts + 1
    else:  # mean over the span's rows
        ends = np.array([s[1] for s in h_spans + l_spans], dtype=np.intp)
    lens = ends - starts
    # every span's rows end to end, each run counting up from its start
    read = np.unique(np.repeat(ends - np.cumsum(lens), lens) + np.arange(lens.sum()))
    rows = T.pick_rows(e2, read)
    if embed is not None:
        rows = embed(rows)
    # a span's rows are contiguous in `read`, from where its start is
    lo = np.searchsorted(read, starts)
    nh = len(h_spans)
    if pool == "first":
        q, k = T.pick_rows(rows, lo[:nh]), T.pick_rows(rows, lo[nh:])
    else:
        hi = lo + lens
        q, k = T.span_mean(rows, lo[:nh], hi[:nh]), T.span_mean(rows, lo[nh:], hi[nh:])
    return Pooled(q, k, pos_h, pos_l, heads, h_spans, l_spans)


def distance_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Absolute token distance |rows[i] - cols[j]| between pooled entities;
    a constant in the graph (no gradient flows into positions). Positions
    are integers, so their float64 differences are exact."""
    d = np.subtract.outer(np.asarray(rows, dtype=np.float64), np.asarray(cols, dtype=np.float64))
    return np.abs(d, out=d)


def build_relation_targets(pooled: Pooled, spans, relations) -> np.ndarray:
    """(|L|, |H|) target array, at most one 1 per attribute row. Pooled
    spans are matched to gold spans by exact token range and type; relations
    whose arguments are not pooled contribute nothing."""
    r = np.zeros((len(pooled.l_spans), len(pooled.h_spans)))
    h_index = {s: i for i, s in enumerate(pooled.h_spans)}
    l_index = {s: i for i, s in enumerate(pooled.l_spans)}
    for attr_idx, drug_idx in relations:
        h = h_index.get(spans[drug_idx])
        l = l_index.get(spans[attr_idx])
        if h is not None and l is not None:
            r[l, h] = 1.0
    return r


def ner_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    n = logits.rows
    onehot = np.zeros(logits.shape)
    onehot[np.arange(n), labels] = 1.0
    picked = T.mul(T.log_softmax_rows(logits), Tensor(onehot))
    return T.scale(T.sum_all(picked), -1.0 / n)


def re_loss(psi: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax (over the drug axis, one row per attribute)
    at the target cells, normalized by |H| * |L| exactly as the objective is
    written."""
    nl, nh = psi.shape
    picked = T.sum_all(T.mul(T.log_softmax_rows(psi), Tensor(targets)))
    return T.scale(picked, -1.0 / (nh * nl))


def joint_loss(lner: Tensor, lre: Tensor | None) -> Tensor:
    if lre is None:
        return lner
    return T.add(lner, lre)


def predict_relations(psi: np.ndarray, heads) -> list[tuple[int, int, int]]:
    """Forced-argmax inference: each pooled attribute (row) picks the
    highest-scoring drug under its own head (ties to the lowest index); needs
    at least one drug. Returns (drug idx in H, attr idx in L, head) triples."""
    return list(zip(np.argmax(psi, axis=1).tolist(), range(len(heads)), np.asarray(heads).tolist()))


class JNRF:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params = Params()
        rng = np.random.default_rng(seed)
        c = config
        add_linear(self.params, rng, "in.1", c.emb_dim, c.ffn_hidden)
        add_linear(self.params, rng, "in.2", c.ffn_hidden, c.d_model)
        init_mixer_params(self.params, c, rng, prefix="lm")
        add_linear(self.params, rng, "ner.1", c.d_model, c.ffn_hidden)
        add_linear(self.params, rng, "ner.2", c.ffn_hidden, NUM_LABELS)
        add_linear(self.params, rng, "re.1", c.d_model, c.ffn_hidden)
        add_linear(self.params, rng, "re.2", c.ffn_hidden, c.d_model)
        for j in range(N_REL_HEADS):
            self.params.add(f"rel.{j}.q.w", linear_init(rng, c.d_model, c.d_model))
            add_linear(self.params, rng, f"rel.{j}.k", c.d_model, c.d_model)
        # distance polynomial coefficients, one (a, b) row per head;
        # zero-initialized so training starts distance-agnostic
        self.params.add("alpha", np.zeros((N_REL_HEADS, 2)))

    def encode(self, emb: Tensor) -> Tensor:
        """Token-wise input MLP followed by the weight-shared language model;
        the single output feeds both heads."""
        return shared_lm(ffn(emb, self.params, "in"), self.config, self.params, "lm")

    def ner_head(self, e2: Tensor) -> Tensor:
        return ffn(e2, self.params, "ner")

    def re_embed(self, e2: Tensor) -> Tensor:
        return ffn(e2, self.params, "re")

    def relation_scores(self, q: Tensor, k: Tensor, dist: np.ndarray, heads) -> Tensor:
        """(|L|, |H|) scores: attribute l against every drug under its own
        head j = heads[l], the bilinear form (k_l W_k^j + bias) (q W_q^j)^T
        plus alpha[j] . (D^2, D). dist is (|L|, |H|). heads must ascend, as
        `selective_pool` orders them, so each head's rows are one block."""
        heads = np.asarray(heads, dtype=np.intp)
        if len(heads) != k.rows:
            raise ShapeError(f"relation_scores: {len(heads)} heads for {k.rows} attribute rows")
        if dist.shape != (k.rows, q.rows):
            raise ShapeError(
                f"relation_scores: dist must be (|L|, |H|) = {(k.rows, q.rows)}, got {dist.shape}"
            )
        if np.any(heads[1:] < heads[:-1]):
            raise ShapeError(
                f"relation_scores: heads must ascend (grouped by head), got {heads.tolist()}"
            )
        alpha = self.params["alpha"]
        present, starts = np.unique(heads, return_index=True)
        blocks = []
        for j, lo, hi in zip(present, starts, [*starts[1:], len(heads)]):
            qj = T.matmul(q, self.params[f"rel.{j}.q.w"])
            kj = T.linear(
                T.slice_rows(k, lo, hi), self.params[f"rel.{j}.k.w"], self.params[f"rel.{j}.k.b"]
            )
            d = dist[lo:hi].ravel()
            poly = T.matmul(T.slice_rows(alpha, j, j + 1), Tensor(np.stack([d**2, d])))
            bilinear = T.matmul(kj, T.transpose(qj))
            blocks.append(T.add(bilinear, T.reshape(poly, hi - lo, q.rows)))
        return blocks[0] if len(blocks) == 1 else T.concat_rows(blocks)

    def instance_losses(self, inst: EncodedInstance, table: EmbeddingTable):
        """(joint, ner, re) loss tensors for one document or sentence."""
        e2 = self.encode(embed(inst.ids, table))
        logits = self.ner_head(e2)
        lner = ner_loss(logits, inst.labels)

        if self.config.train_pooling == "predicted":
            _, spans = decode_bio(logits.data)
        else:
            spans = inst.spans
        pooled = selective_pool(e2, spans, self.config.pool, self.re_embed)
        if pooled.empty:
            return lner, lner, None
        psi = self.relation_scores(
            pooled.q, pooled.k, distance_matrix(pooled.pos_l, pooled.pos_h), pooled.heads
        )
        targets = build_relation_targets(pooled, inst.spans, inst.relations)
        lre = re_loss(psi, targets)
        return joint_loss(lner, lre), lner, lre

    def predict_instance(self, inst: EncodedInstance, table: EmbeddingTable):
        """Decode spans and relations with no tape; relations use predicted
        spans and forced argmax drug selection."""
        e2 = self.encode(embed(inst.ids, table))
        logits = self.ner_head(e2)
        _, spans = decode_bio(logits.data)
        pooled = selective_pool(e2, spans, self.config.pool, self.re_embed)
        if pooled.empty:
            return spans, []
        psi = self.relation_scores(
            pooled.q, pooled.k, distance_matrix(pooled.pos_l, pooled.pos_h), pooled.heads
        )
        triples = predict_relations(psi.data, pooled.heads)
        relations = [(pooled.h_spans[h], pooled.l_spans[p], j) for h, p, j in triples]
        return spans, relations


def predictions_to_brat(doc: Document, spans, relations):
    """Map token-level predictions back to character offsets as standoff
    entities/relations ready for rendering."""
    entities = []
    span_to_entity = {}
    for i, (ts, te, etype) in enumerate(spans):
        start = doc.tokens[ts].start
        end = doc.tokens[te - 1].end
        ent = EntitySpan(f"T{i + 1}", etype, start, end, doc.text[start:end])
        entities.append(ent)
        span_to_entity[(ts, te, etype)] = ent
    rels = [
        Relation(RELATION_TYPES[j], span_to_entity[l_span], span_to_entity[h_span])
        for h_span, l_span, j in relations
    ]
    return entities, rels
