"""Joint NER + RE model: shared language model, token-wise heads, argmax
BIO decoding, selective pooling into drug/attribute sets, per-relation-type
bilinear scoring with a trainable polynomial distance bias, and the two
cross-entropy losses summed into the training objective.

Relation scoring runs over pooled entities only, so its cost scales with
t * |H| * |L| and never with the square of the document length. The
log-softmax inside the relation loss runs over the drug axis for each fixed
(attribute, relation-type) pair: every attribute selects its drug.
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
from .mixers import init_mixer_params, shared_lm
from .params import Params, add_linear
from .tensor import Tape, Tensor

N_REL_HEADS = len(RELATION_TYPES)


@dataclass
class EncodedInstance:
    """A document or single sentence, ready for the forward pass."""

    ids: np.ndarray                     # vocab ids, length n
    labels: np.ndarray                  # BIO label ids, length n
    spans: list[tuple[int, int, str]]   # gold (tok_start, tok_end, etype)
    relations: list[tuple[int, int, int]]  # (attr span idx, drug span idx, head)
    doc_id: str = ""
    sentence: int | None = None         # sentence index; None for a whole document


def encode_document(doc: Document) -> EncodedInstance:
    ids = np.array([t.vocab_id for t in doc.tokens], dtype=np.intp)
    labels = np.array(doc.bio_labels, dtype=np.intp)
    spans = [
        (s, e, ent.etype) for (s, e), ent in zip(doc.entity_token_spans, doc.gold_entities)
    ]
    index_of = {id(ent): i for i, ent in enumerate(doc.gold_entities)}
    relations = [
        (index_of[id(r.arg1)], index_of[id(r.arg2)], relation_head(r.rtype))
        for r in doc.gold_relations
    ]
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
        spans = [
            (ts - lo, te - lo, et)
            for ts, te, et in (full.spans[i] for i in keep)
        ]
        rels = [
            (remap[a], remap[d], j)
            for a, d, j in full.relations
            if a in remap and d in remap
        ]
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
    """Selective pooling output: drugs (queries) and attributes (keys)."""

    q: Tensor | None
    k: Tensor | None
    pos_h: np.ndarray
    pos_l: np.ndarray
    h_spans: list[tuple[int, int, str]] = field(default_factory=list)
    l_spans: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return len(self.h_spans) == 0 or len(self.l_spans) == 0


def selective_pool(e3: Tensor, spans, pool: str = "first") -> Pooled:
    h_spans = [s for s in spans if s[2] == "Drug"]
    l_spans = [s for s in spans if s[2] != "Drug"]
    pos_h = np.array([s[0] for s in h_spans], dtype=np.intp)
    pos_l = np.array([s[0] for s in l_spans], dtype=np.intp)
    if not h_spans or not l_spans:
        return Pooled(None, None, pos_h, pos_l, h_spans, l_spans)
    if pool == "first":
        q = T.pick_rows(e3, pos_h)
        k = T.pick_rows(e3, pos_l)
    else:  # mean over the span's rows
        q = T.matmul(Tensor(_mean_matrix(h_spans, e3.rows)), e3)
        k = T.matmul(Tensor(_mean_matrix(l_spans, e3.rows)), e3)
    return Pooled(q, k, pos_h, pos_l, h_spans, l_spans)


def _mean_matrix(spans, n: int) -> np.ndarray:
    w = np.zeros((len(spans), n))
    for i, (ts, te, _) in enumerate(spans):
        w[i, ts:te] = 1.0 / (te - ts)
    return w


def distance_matrix(pos_h: np.ndarray, pos_l: np.ndarray) -> np.ndarray:
    """Absolute token distance between pooled entities; a constant in the
    graph (no gradient flows into positions)."""
    return np.abs(pos_h.reshape(-1, 1) - pos_l.reshape(1, -1)).astype(np.float64)


def build_relation_targets(pooled: Pooled, spans, relations) -> np.ndarray:
    """(t, |H|, |L|) one-hot-per-(key, head) target array. Pooled spans are
    matched to gold spans by exact token range and type; relations whose
    arguments are not pooled contribute all-zero slices."""
    t = N_REL_HEADS
    r = np.zeros((t, len(pooled.h_spans), len(pooled.l_spans)))
    h_index = {s: i for i, s in enumerate(pooled.h_spans)}
    l_index = {s: i for i, s in enumerate(pooled.l_spans)}
    for attr_idx, drug_idx, head in relations:
        h = h_index.get(spans[drug_idx])
        l = l_index.get(spans[attr_idx])
        if h is not None and l is not None:
            r[head, h, l] = 1.0
    return r


def ner_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    n = logits.rows
    onehot = np.zeros(logits.shape)
    onehot[np.arange(n), labels] = 1.0
    picked = T.mul(T.log_softmax_rows(logits), Tensor(onehot))
    return T.scale(T.sum_all(picked), -1.0 / n)


def re_loss(psis: list[Tensor], targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax (over the drug axis) at the target cells,
    normalized by |H| * |L| exactly as the objective is written."""
    nh, nl = psis[0].shape
    total = None
    for j, psi in enumerate(psis):
        ls = T.transpose(T.log_softmax_rows(T.transpose(psi)))
        picked = T.sum_all(T.mul(ls, Tensor(targets[j])))
        total = picked if total is None else T.add(total, picked)
    return T.scale(total, -1.0 / (nh * nl))


def joint_loss(lner: Tensor, lre: Tensor | None) -> Tensor:
    if lre is None:
        return lner
    return T.add(lner, lre)


def predict_relations(psis: np.ndarray, l_spans) -> list[tuple[int, int, int]]:
    """Forced-argmax inference: each pooled attribute of type X picks the
    highest-scoring drug under the X-Drug head (ties to the lowest index).
    Returns (drug idx in H, attr idx in L, head) triples."""
    out = []
    if psis.shape[1] == 0:
        return out
    for p, (_, _, etype) in enumerate(l_spans):
        j = relation_head(f"{etype}-Drug")
        h = int(np.argmax(psis[j, :, p]))
        out.append((h, p, j))
    return out


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
            add_linear(self.params, rng, f"rel.{j}.q", c.d_model, c.d_model)
            add_linear(self.params, rng, f"rel.{j}.k", c.d_model, c.d_model)
        # distance polynomial coefficients, one (a, b, c) row per head;
        # zero-initialized so training starts distance-agnostic
        self.params.add("alpha", np.zeros((N_REL_HEADS, 3)))

    def _mlp(self, x: Tensor, prefix: str) -> Tensor:
        h = T.gelu(T.add(T.matmul(x, self.params[f"{prefix}.1.w"]), self.params[f"{prefix}.1.b"]))
        return T.add(T.matmul(h, self.params[f"{prefix}.2.w"]), self.params[f"{prefix}.2.b"])

    def encode(self, emb: Tensor) -> Tensor:
        """Token-wise input MLP followed by the weight-shared language model;
        the single output feeds both heads."""
        return shared_lm(self._mlp(emb, "in"), self.config, self.params, "lm")

    def ner_head(self, e2: Tensor) -> Tensor:
        return self._mlp(e2, "ner")

    def re_embed(self, e2: Tensor) -> Tensor:
        return self._mlp(e2, "re")

    def relation_scores(self, q: Tensor, k: Tensor, dist: np.ndarray) -> list[Tensor]:
        """Per-head bilinear scores plus the trainable distance polynomial
        a*D^2 + b*D + c (c acts through an all-ones matrix)."""
        nh, nl = dist.shape
        basis = Tensor(np.stack([dist.ravel() ** 2, dist.ravel(), np.ones(nh * nl)]))
        alpha = self.params["alpha"]
        out = []
        for j in range(N_REL_HEADS):
            qj = T.add(T.matmul(q, self.params[f"rel.{j}.q.w"]), self.params[f"rel.{j}.q.b"])
            kj = T.add(T.matmul(k, self.params[f"rel.{j}.k.w"]), self.params[f"rel.{j}.k.b"])
            a = T.matmul(qj, T.transpose(kj))
            poly = T.reshape(T.matmul(T.pick_rows(alpha, [j]), basis), nh, nl)
            out.append(T.add(a, poly))
        return out

    def instance_losses(self, inst: EncodedInstance, table: EmbeddingTable):
        """(joint, ner, re) loss tensors for one document or sentence."""
        e2 = self.encode(embed(inst.ids, table))
        logits = self.ner_head(e2)
        lner = ner_loss(logits, inst.labels)

        if self.config.train_pooling == "predicted":
            _, spans = decode_bio(logits.data)
        else:
            spans = inst.spans
        pooled = selective_pool(self.re_embed(e2), spans, self.config.pool)
        if pooled.empty:
            return lner, lner, None
        psis = self.relation_scores(
            pooled.q, pooled.k, distance_matrix(pooled.pos_h, pooled.pos_l)
        )
        targets = build_relation_targets(pooled, inst.spans, inst.relations)
        lre = re_loss(psis, targets)
        return joint_loss(lner, lre), lner, lre

    def predict_instance(self, inst: EncodedInstance, table: EmbeddingTable):
        """Decode spans and relations with no tape; relations use predicted
        spans and forced argmax drug selection."""
        e2 = self.encode(embed(inst.ids, table))
        logits = self.ner_head(e2)
        _, spans = decode_bio(logits.data)
        pooled = selective_pool(self.re_embed(e2), spans, self.config.pool)
        if pooled.empty:
            return spans, []
        psis_t = self.relation_scores(
            pooled.q, pooled.k, distance_matrix(pooled.pos_h, pooled.pos_l)
        )
        psis = np.stack([p.data for p in psis_t])
        triples = predict_relations(psis, pooled.l_spans)
        relations = [
            (pooled.h_spans[h], pooled.l_spans[p], j) for h, p, j in triples
        ]
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
    rels = []
    for h_span, l_span, j in relations:
        rels.append(
            Relation(
                RELATION_TYPES[j],
                span_to_entity[l_span],
                span_to_entity[h_span],
            )
        )
    return entities, rels


__all__ = [
    "ATTRIBUTE_TYPES",
    "EncodedInstance",
    "JNRF",
    "ModelConfig",
    "Pooled",
    "build_relation_targets",
    "decode_bio",
    "distance_matrix",
    "encode_document",
    "encode_sentences",
    "joint_loss",
    "ner_loss",
    "predict_relations",
    "predictions_to_brat",
    "re_loss",
    "selective_pool",
]
