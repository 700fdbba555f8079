"""Joint NER + RE model: shared language model, token-wise heads, argmax
BIO decoding, selective pooling into drug/attribute sets, per-relation-type
bilinear scoring with a trainable polynomial distance bias, and the two
cross-entropy losses summed into the training objective, each one
`T.cross_entropy_rows` node over its target cells.

Relation scoring runs over pooled entities only: one (|L|, |H|) score
matrix, attributes by drugs. An attribute of type X can only be in an X-Drug
relation (`parse_brat` rejects any other pairing), so scoring row l under
that one head is exact. Pooling keeps one re-embedded row per distinct span
start and each drug's and attribute's row index, with the attributes
grouped by head, so each head's rows are one block: its projected
attributes against its projected drugs, plus (a_j*D + b_j)*D. The cost is
|H| * |L| scores plus, per head present, projections of the drugs and of
that head's attributes; it never grows with the square of the document
length. In training one tape node (`T.relation_scores`) gathers and
projects each head's rows, writes every block straight into the score
matrix and adds the polynomial from the integer token positions,
recomputing D per block of rows, so the scores are the only (|L|, |H|)
array it makes.
Prediction (`predict_relations`) runs the same block loop into one
block-sized buffer and keeps each row's argmax alone, so it makes no
(|L|, |H|) array at all. The relation loss's log-softmax runs over
each row, the drug axis, so the model has no term that is constant along a
row (a drug bias, a constant c_j): it would cancel.

Prediction stays in arrays up to its output: `decode_bio` finds span
boundaries with whole-array comparisons, and a predicted relation is a
(drug span index, attribute span index) pair into the decoded spans, which
`predictions_to_brat` turns into standoff entities and relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .corpus import (
    ATTRIBUTE_TYPES,
    Document,
    ENTITY_TYPES,
    EntitySpan,
    NUM_LABELS,
    Relation,
    RELATION_TYPES,
    label_parts,
    relation_head,
)
from .embedding import embed
from .mixers import ffn, shared_lm
from .params import Params
from .tensor import Tensor

N_REL_HEADS = len(RELATION_TYPES)
# type X can only be Arg1 of an X-Drug relation; -1 marks a drug
_HEAD_OF = {"Drug": -1, **{t: relation_head(f"{t}-Drug") for t in ATTRIBUTE_TYPES}}
# per BIO label id: the index of its entity type in _TYPE_NAMES (0 for O),
# and whether it is a B- tag
_TYPE_NAMES = np.array(["", *ENTITY_TYPES], dtype=object)
_PARTS = [label_parts(lab) or ("", False) for lab in range(NUM_LABELS)]
_LABEL_TYPE = np.array([list(_TYPE_NAMES).index(etype) for etype, _ in _PARTS])
_LABEL_BEGIN = np.array([begin for _, begin in _PARTS])


@dataclass
class EncodedInstance:
    """A whole document, ready for the forward pass: training and
    prediction both take one document at its native length."""

    ids: np.ndarray                     # vocab ids, length n
    labels: np.ndarray                  # BIO label ids, length n
    spans: list[tuple[int, int, str]]   # gold (tok_start, tok_end, etype)
    relations: list[tuple[int, int]]    # (attr span idx, drug span idx)


def encode_document(doc: Document) -> EncodedInstance:
    ids = np.array(doc.tokens.vocab_id, dtype=np.intp)
    labels = np.array(doc.bio_labels, dtype=np.intp)
    spans = [
        (s, e, ent.etype) for (s, e), ent in zip(doc.entity_token_spans, doc.gold_entities)
    ]
    index_of = {id(ent): i for i, ent in enumerate(doc.gold_entities)}
    relations = [(index_of[id(r.arg1)], index_of[id(r.arg2)]) for r in doc.gold_relations]
    return EncodedInstance(ids, labels, spans, relations)


def decode_bio(logits: np.ndarray):
    """Row argmax (ties to the lowest class id) assembled into typed spans.

    B-X opens a span; I-X extends an open X span; I-X after O or another
    type opens a new X span; O closes. In array form: a span boundary falls
    before token i where the entity type changes or a B- tag stands, and
    before n; a span opens at each boundary on a typed token and ends at
    the next boundary."""
    labels = np.argmax(logits, axis=1)
    n = len(labels)
    types = _LABEL_TYPE[labels]
    cut = np.ones(n + 1, dtype=bool)
    np.not_equal(types[1:], types[:-1], out=cut[1:n])
    cut[:n] |= _LABEL_BEGIN[labels]
    bounds = np.flatnonzero(cut)
    opens = np.flatnonzero(types[bounds[:-1]])
    starts = bounds[opens]
    spans = list(zip(starts.tolist(), bounds[opens + 1].tolist(), _TYPE_NAMES[types[starts]].tolist()))
    return labels, spans


@dataclass
class Pooled:
    """Selective pooling output: the pooled rows `x`, one per distinct span
    start, with drug h at row `h_rows[h]` and attribute l at row `l_rows[l]`.
    `h_index` and `l_index` are the pooled spans' indices in `spans`;
    `heads[l]` is the relation head of attribute l, and it ascends."""

    x: Tensor | None
    h_rows: np.ndarray
    l_rows: np.ndarray
    pos_h: np.ndarray
    pos_l: np.ndarray
    heads: np.ndarray
    h_index: np.ndarray
    l_index: np.ndarray
    spans: list[tuple[int, int, str]]

    @property
    def h_spans(self) -> list[tuple[int, int, str]]:
        return [self.spans[i] for i in self.h_index.tolist()]

    @property
    def l_spans(self) -> list[tuple[int, int, str]]:
        return [self.spans[i] for i in self.l_index.tolist()]

    @property
    def empty(self) -> bool:
        return len(self.h_index) == 0 or len(self.l_index) == 0


def selective_pool(e2: Tensor, spans, embed=None) -> Pooled:
    """Drugs in the order given; attributes grouped by relation head, in the
    order given within a head (a stable sort), so each head's rows of the
    relation scores are one block.

    A span's vector is its first token's row. Only the distinct span starts
    are gathered, and `embed`, a row-wise map, runs on those rows alone,
    which equals pooling `embed(e2)`."""
    head = np.array([_HEAD_OF[s[2]] for s in spans], dtype=np.intp)  # -1 for a drug
    first = np.array([s[0] for s in spans], dtype=np.intp)
    h_index = np.flatnonzero(head < 0)
    l_index = np.flatnonzero(head >= 0)
    l_index = l_index[np.argsort(head[l_index], kind="stable")]
    pos_h, pos_l = first[h_index], first[l_index]
    read, at = np.unique(np.concatenate([pos_h, pos_l]), return_inverse=True)
    nh = len(h_index)
    pooled = Pooled(None, at[:nh], at[nh:], pos_h, pos_l, head[l_index], h_index, l_index, spans)
    if pooled.empty:
        return pooled
    pooled.x = T.pick_rows(e2, read)
    if embed is not None:
        pooled.x = embed(pooled.x)
    return pooled


def build_relation_targets(pooled: Pooled, spans, relations) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the distinct target cells of the (|L|, |H|) scores in
    row-major order. An attribute row holds a cell per drug it is related
    to, which may be several or none. Pooled spans are matched to gold spans
    by exact token range and type; relations whose arguments are not pooled
    contribute nothing."""
    h_index = {s: i for i, s in enumerate(pooled.h_spans)}
    l_index = {s: i for i, s in enumerate(pooled.l_spans)}
    cells = sorted({
        (l_index[spans[a]], h_index[spans[d]])
        for a, d in relations
        if spans[a] in l_index and spans[d] in h_index
    })
    return tuple(np.array(cells, dtype=np.intp).reshape(-1, 2).T)


def ner_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of each token's row at its BIO label."""
    n = logits.rows
    return T.cross_entropy_rows(logits, np.arange(n), labels, n)


def re_loss(psi: Tensor, targets: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Negative log-softmax (over the drug axis, one row per attribute)
    summed over the target cells `build_relation_targets` returns, and
    normalized by |H| * |L| exactly as the objective is written."""
    nl, nh = psi.shape
    return T.cross_entropy_rows(psi, *targets, nh * nl)


def predict_relations(x: Tensor, l_rows, h_rows, heads, weights, alpha: Tensor, pos_l, pos_h):
    """Forced-argmax inference on the operands of `T.relation_scores`: each
    pooled attribute (row) picks the highest-scoring drug under its own head
    (ties to the lowest index); needs at least one drug. `T.relation_argmax`
    takes each row's argmax block by block, so no (|L|, |H|) array is made.
    Returns (drug idx in H, attr idx in L) pairs; the attribute's type
    names the relation."""
    best = T.relation_argmax(x, l_rows, h_rows, heads, weights, alpha, pos_l, pos_h)
    return list(zip(best.tolist(), range(len(best))))


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    """Every parameter's name and shape, in the order `JNRF` draws them and
    a checkpoint stores them; `alpha` holds each relation head's (a, b)."""
    e, d, f = config.emb_dim, config.d_model, config.ffn_hidden

    def linear(p, fan_in, fan_out):
        return [(f"{p}.w", (fan_in, fan_out)), (f"{p}.b", (1, fan_out))]

    def norm(p):
        return [(f"{p}.g", (1, d)), (f"{p}.b", (1, d))]

    layout = linear("in.1", e, f) + linear("in.2", f, d)
    for b in range(config.n_blocks):
        p = f"lm.{b}"
        layout += norm(f"{p}.ln1") + linear(f"{p}.ffn.1", d, f) + linear(f"{p}.ffn.2", f, d) + norm(f"{p}.ln2")
        if config.mixer == "windowed_attention":
            layout += [(f"{p}.{w}", (d, d)) for w in ("wq", "wk", "wv", "wo")]
    layout += linear("ner.1", d, f) + linear("ner.2", f, NUM_LABELS) + linear("re.1", d, f) + linear("re.2", f, d)
    for j in range(N_REL_HEADS):
        layout += [(f"rel.{j}.q.w", (d, d))] + linear(f"rel.{j}.k", d, d)
    return layout + [("alpha", (N_REL_HEADS, 2))]


class JNRF:
    def __init__(self, config: ModelConfig, seed: int = 0):
        """Draws `parameter_layout(config)` in order from one generator: a name
        whose last part starts with `w` draws standard normals / sqrt(fan_in),
        a gain `g` starts at 1, and a bias `b` and `alpha` at 0."""
        self.config = config
        self.params = Params()
        rng = np.random.default_rng(seed)
        for name, shape in parameter_layout(config):
            last = name.rsplit(".", 1)[-1]
            if last.startswith("w"):
                self.params.add(name, rng.standard_normal(shape) / np.sqrt(shape[0]))
            else:
                self.params.add(name, np.full(shape, 1.0 if last == "g" else 0.0))

    def encode(self, ids, table: np.ndarray) -> Tensor:
        """Embedding, token-wise input MLP, then the weight-shared language
        model; the single output feeds both heads. The embedding is made
        here, so nothing holds its output once the input MLP has returned."""
        return shared_lm(ffn(embed(ids, table), self.params, "in"), self.config, self.params)

    def ner_head(self, e2: Tensor) -> Tensor:
        return ffn(e2, self.params, "ner")

    def re_embed(self, e2: Tensor) -> Tensor:
        return ffn(e2, self.params, "re")

    def relation_scores(self, pooled: Pooled) -> Tensor:
        """(|L|, |H|) scores: attribute l against every drug under its own
        head j = heads[l], the bilinear form (k_l W_k^j + bias) (q W_q^j)^T
        plus (a_j D + b_j) D, where k_l and q are the attribute's and the
        drugs' pooled rows and D = |pos_l[l] - pos_h| the token distance from
        the integer start positions; one `T.relation_scores` node."""
        return T.relation_scores(*self._relation_operands(pooled))

    def _relation_operands(self, pooled: Pooled):
        """The operands of `T.relation_scores` and `predict_relations`."""
        p = self.params
        weights = [(p[f"rel.{j}.q.w"], p[f"rel.{j}.k.w"], p[f"rel.{j}.k.b"]) for j in range(N_REL_HEADS)]
        return (pooled.x, pooled.l_rows, pooled.h_rows, pooled.heads, weights, p["alpha"],
                pooled.pos_l, pooled.pos_h)

    def instance_losses(self, inst: EncodedInstance, table: np.ndarray):
        """(joint, ner, re) loss tensors for one document. The encoder output
        and the NER logits are dropped once their last reader has run, so
        neither is alive while the relation head scores."""
        e2 = self.encode(inst.ids, table)
        logits = self.ner_head(e2)
        lner = ner_loss(logits, inst.labels)
        if self.config.train_pooling == "predicted":
            _, spans = decode_bio(logits.data)
        else:
            spans = inst.spans
        del logits
        pooled = selective_pool(e2, spans, self.re_embed)
        del e2
        if pooled.empty:
            return lner, lner, None
        psi = self.relation_scores(pooled)
        targets = build_relation_targets(pooled, inst.spans, inst.relations)
        lre = re_loss(psi, targets)
        return T.add(lner, lre), lner, lre

    def predict_instance(self, inst: EncodedInstance, table: np.ndarray):
        """Decode spans and relations with no tape; relations use predicted
        spans and forced argmax drug selection. Returns the spans and the
        relations as (drug span index, attribute span index) pairs, both
        indices into the spans."""
        e2 = self.encode(inst.ids, table)
        logits = self.ner_head(e2)
        _, spans = decode_bio(logits.data)
        pooled = selective_pool(e2, spans, self.re_embed)
        if pooled.empty:
            return spans, []
        pairs = predict_relations(*self._relation_operands(pooled))
        drug, attr = pooled.h_index.tolist(), pooled.l_index.tolist()
        return spans, [(drug[h], attr[l]) for h, l in pairs]


def predictions_to_brat(doc: Document, spans, relations):
    """Map token-level predictions back to character offsets as standoff
    entities/relations ready for rendering. Relations are (drug span index,
    attribute span index) pairs, as `predict_instance` returns them; the
    attribute's type X names the relation X-Drug."""
    starts, ends, text = doc.tokens.start, doc.tokens.end, doc.text
    entities = []
    for i, (ts, te, etype) in enumerate(spans, 1):
        start, end = starts[ts], ends[te - 1]
        entities.append(EntitySpan(f"T{i}", etype, start, end, text[start:end]))
    rels = [Relation(f"{entities[l].etype}-Drug", entities[l], entities[h]) for h, l in relations]
    return entities, rels
