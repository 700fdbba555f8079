"""Seeded synthetic BRAT corpus for the benchmark.

Everything here is pure Python driven by one `random.Random(seed)`, so the
same seed gives byte-identical text, annotation and vocabulary.

The vocabulary is built so the tokenizer does real work: filler words follow
a Zipf distribution, some words split into a stem plus a `##` continuation,
and words containing a letter absent from the vocabulary fall back to
`[UNK]`. The generator carries its own greedy longest-match tokenizer so it
knows every document's exact token count and sentence layout; the
benchmark's tests compare that against `jnrf.tokenizer.prepare`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

UNK = "[UNK]"
ENTITY_TYPES = (
    "Drug", "Strength", "Form", "Dosage", "Frequency",
    "Route", "Duration", "Reason", "ADE",
)
# weights of the mentions after a sentence's first, which is always a drug
TYPE_WEIGHTS = (0.1, 0.16, 0.12, 0.11, 0.13, 0.1, 0.08, 0.11, 0.09)

_CONSONANTS = "bcdfghklmnprstvw"
_VOWELS = "aeiou"
_OOV_LETTER = "z"  # no vocabulary entry contains it
_PUNCT = (".", ",", ";")


@dataclass(frozen=True)
class CorpusSpec:
    """Generator parameters of one workload."""

    n_docs: int
    len_min: int                 # tokens per document, inclusive
    len_max: int
    entity_density: float = 12.0  # entities per 100 tokens
    distance_profile: tuple = ((0, 0.8), (-1, 0.15), (1, 0.05))
    sentence_min: int = 8        # tokens per sentence, '.' included
    sentence_max: int = 22


@dataclass
class GenEntity:
    etype: str
    start: int
    end: int
    sentence: int


@dataclass
class GenDoc:
    doc_id: str
    text: str
    ann: str
    n_tokens: int
    sentence_starts: list[int]       # token index of each sentence
    entities: list[GenEntity] = field(default_factory=list)
    relations: list[tuple[int, int]] = field(default_factory=list)  # (attr idx, drug idx)
    free_spans: list[tuple[int, int]] = field(default_factory=list)  # filler words


@dataclass
class Corpus:
    vocab: list[str]
    docs: list[GenDoc]


def greedy_pieces(word: str, vocab: set) -> int:
    """Token count of one pre-token under greedy longest-match wordpiece,
    1 when the word falls back to [UNK]."""
    pos, pieces = 0, 0
    while pos < len(word):
        for stop in range(len(word), pos, -1):
            cand = word[pos:stop] if pos == 0 else "##" + word[pos:stop]
            if cand in vocab:
                pieces += 1
                pos = stop
                break
        else:
            return 1
    return pieces


def _pseudo_word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))


class _Lexicon:
    """Word types with known token counts and Zipf-weighted filler words."""

    def __init__(self, rng: random.Random, n_fillers=820, n_phrases=24):
        seen: set[str] = set()

        def fresh(lo, hi):
            while True:
                w = _pseudo_word(rng, rng.randint(lo, hi))
                if w not in seen:
                    seen.add(w)
                    return w

        # Filler ranks follow a fixed pattern of whole, split and unknown
        # words, and the vocabulary lists words in rank order, so on every
        # seed the word of a given frequency rank has the same vocabulary id
        # and the same embedding row. Only the words themselves change.
        kinds = ["oov" if r % 14 == 13 else "split" if r % 5 == 4 else "whole" for r in range(n_fillers)]
        common = [fresh(1, 3) for k in kinds if k == "whole"]
        stems = [fresh(2, 3) for k in kinds if k == "split"]
        suffixes = [fresh(1, 2) for _ in range(len(stems) // 4)]
        numbers = [str(n) for n in (1, 2, 3, 4, 5, 10, 20, 25, 50, 100, 250, 500, 1000)]
        vocab = [UNK, *_PUNCT, *numbers, *common, *stems, *("##" + s for s in suffixes)]
        self.vocab = vocab
        vocab_set = set(vocab)

        split = [s + rng.choice(suffixes) for s in stems]
        oov = []
        for k in kinds:
            if k == "oov":
                w = fresh(1, 3)
                i = rng.randrange(len(w) + 1)
                oov.append(w[:i] + _OOV_LETTER + w[i:])
        self.tokens_of = {w: greedy_pieces(w, vocab_set) for w in common + split + oov + numbers}
        self.tokens_of.update({p: 1 for p in _PUNCT})

        # Zipf(1) over the ranks
        pools = {"whole": iter(common), "split": iter(split), "oov": iter(oov)}
        self.fillers = [next(pools[k]) for k in kinds]
        self.filler_cum = []
        acc = 0.0
        for rank in range(1, n_fillers + 1):
            acc += 1.0 / rank
            self.filler_cum.append(acc)
        self.single = [w for w in common if self.tokens_of[w] == 1]

        # a few fixed phrases per entity type, 1-3 words, numbers for amounts
        pool = common + split + oov
        self.phrases: dict[str, list[list[str]]] = {}
        for etype in ENTITY_TYPES:
            phrases = []
            for _ in range(n_phrases):
                n_words = rng.choice((1, 1, 2, 2, 3))
                words = [rng.choice(pool) for _ in range(n_words)]
                if etype in ("Strength", "Dosage", "Duration"):
                    words[0] = rng.choice(numbers)
                phrases.append(words)
            self.phrases[etype] = phrases

    def filler(self, rng: random.Random) -> str:
        return rng.choices(self.fillers, cum_weights=self.filler_cum)[0]

    def count(self, words) -> int:
        return sum(self.tokens_of[w] for w in words)


def _sentence_lengths(rng: random.Random, total: int, lo: int, hi: int) -> list[int]:
    """Split `total` tokens into sentences of lo..hi tokens; the last takes
    the remainder, which is never a lone '.'."""
    out, left = [], total
    while left > 0:
        n = rng.randint(lo, hi)
        if n >= left - 1:
            n = left
        out.append(n)
        left -= n
    return out


def _sentence_items(rng, lex: _Lexicon, n_tokens: int, density: float):
    """Filler words and entity phrases in random order, totalling exactly
    n_tokens - 1 tokens (the closing '.' is the last)."""
    budget = n_tokens - 1
    items = []  # (etype or None, words)
    for k in range(int(density * n_tokens / 100.0 + rng.random())):
        # a sentence's first mention is its drug, so attributes find one
        etype = "Drug" if k == 0 else rng.choices(ENTITY_TYPES, weights=TYPE_WEIGHTS)[0]
        words = rng.choice(lex.phrases[etype])
        if lex.count(words) > budget:
            break
        items.append((etype, words))
        budget -= lex.count(words)
    while budget > 0:
        w = lex.filler(rng) if rng.random() > 0.08 else rng.choice((",", ";"))
        if lex.tokens_of[w] > budget:
            w = rng.choice(lex.single)
        items.append((None, [w]))
        budget -= lex.tokens_of[w]
    rng.shuffle(items)
    return items


def generate_document(rng, lex: _Lexicon, doc_id: str, n_tokens: int, spec: CorpusSpec) -> GenDoc:
    parts: list[str] = []
    pos = tok = 0
    sentence_starts: list[int] = []
    entities: list[GenEntity] = []
    free_spans: list[tuple[int, int]] = []
    lengths = _sentence_lengths(rng, n_tokens, spec.sentence_min, spec.sentence_max)
    for s, n in enumerate(lengths):
        sentence_starts.append(tok)
        for etype, words in _sentence_items(rng, lex, n, spec.entity_density):
            surface = " ".join(words)
            if etype is not None:
                entities.append(GenEntity(etype, pos, pos + len(surface), s))
            else:
                free_spans.append((pos, pos + len(surface)))
            parts.append(surface + " ")
            pos += len(surface) + 1
            tok += lex.count(words)
        end = ".\n" if rng.random() < 0.15 else ". "
        parts.append(end)
        pos += len(end)
        tok += 1
    text = "".join(parts)
    if tok != n_tokens:
        raise AssertionError(f"{doc_id}: built {tok} tokens, wanted {n_tokens}")
    relations = _link(rng, entities, spec.distance_profile)
    ann = _render(rng, entities, relations, text)
    return GenDoc(doc_id, text, ann, n_tokens, sentence_starts, entities, relations, free_spans)


def _link(rng, entities, profile) -> list[tuple[int, int]]:
    """Each attribute links to at most one drug, at a sentence distance drawn
    from the profile; other distances of the profile are tried in order of
    weight when the drawn sentence has no drug."""
    drugs_in: dict[int, list[int]] = {}
    for i, e in enumerate(entities):
        if e.etype == "Drug":
            drugs_in.setdefault(e.sentence, []).append(i)
    by_weight = [d for d, _ in sorted(profile, key=lambda dp: -dp[1])]
    out = []
    for i, e in enumerate(entities):
        if e.etype == "Drug":
            continue
        first = rng.choices([d for d, _ in profile], weights=[p for _, p in profile])[0]
        for d in [first] + [d for d in by_weight if d != first]:
            cands = drugs_in.get(e.sentence + d)
            if cands:
                out.append((i, rng.choice(cands)))
                break
    return out


def _render(rng, entities, relations, text) -> str:
    lines = []
    for i, e in enumerate(entities, start=1):
        lines.append(f"T{i}\t{e.etype} {e.start} {e.end}\t{text[e.start:e.end]}")
        if rng.random() < 0.05:
            lines.append(f"#{i}\tAnnotatorNotes T{i}\tgenerated")
    for j, (a, d) in enumerate(relations, start=1):
        lines.append(f"R{j}\t{entities[a].etype}-Drug Arg1:T{a + 1} Arg2:T{d + 1}")
    return "\n".join(lines) + "\n"


def stratified_lengths(rng, n: int, lo: int, hi: int) -> list[int]:
    """n document lengths spread across [lo, hi] in antithetic pairs
    (L, lo + hi - L), so every seed gives the same token total and nearly
    the same sum of squared lengths; an odd n adds one mid-range document."""
    out = []
    for i in range(n // 2):
        u = (i + 0.375 + 0.25 * rng.random()) / n
        a = lo + int(round(u * (hi - lo)))
        out += [a, lo + hi - a]
    if n % 2:
        out.append((lo + hi) // 2)
    rng.shuffle(out)
    return out


def generate_corpus(spec: CorpusSpec, seed: int) -> Corpus:
    rng = random.Random(seed)
    lex = _Lexicon(rng)
    docs = [
        generate_document(rng, lex, f"doc{i:03d}", n, spec)
        for i, n in enumerate(stratified_lengths(rng, spec.n_docs, spec.len_min, spec.len_max))
    ]
    return Corpus(lex.vocab, docs)


@dataclass
class NoisyPrediction:
    """A prediction made from the gold annotation by seeded edits, with the
    match counts those edits imply under lenient one-to-one matching."""

    entities: list[tuple[str, int, int]]   # (etype, start, end)
    relations: list[tuple[str, int, int]]  # (rtype, arg1 index, arg2 index) into entities
    ner: tuple[int, int, int]              # expected (tp, fp, fn)
    e2e: tuple[int, int, int]


def noisy_prediction(rng: random.Random, doc: GenDoc) -> NoisyPrediction:
    """Drop, shift and retype gold entities and add spurious ones on filler
    words; drop, retype and re-point gold relations and add spurious ones.

    Gold entities never overlap, a shifted span stays inside its gold span
    and a spurious one overlaps none, so every predicted entity can match at
    most one gold entity and the expected counts follow from the edits."""
    ents: list[tuple[str, int, int]] = []
    pred_of: dict[int, int] = {}   # gold entity index -> predicted index
    intact: set[int] = set()       # gold indices predicted with their own type
    for i, e in enumerate(doc.entities):
        r = rng.random()
        if r < 0.10:
            continue
        start, end, etype = e.start, e.end, e.etype
        if r < 0.15:
            etype = rng.choice([t for t in ENTITY_TYPES if t != e.etype])
        else:
            intact.add(i)
            if r < 0.25 and end - start >= 2:
                start, end = (start + 1, end) if rng.random() < 0.5 else (start, end - 1)
        pred_of[i] = len(ents)
        ents.append((etype, start, end))
    n_spurious = len(doc.entities) // 20
    for start, end in rng.sample(doc.free_spans, min(n_spurious, len(doc.free_spans))):
        ents.append((rng.choice(ENTITY_TYPES), start, end))
    ner_tp = len(intact)
    ner = (ner_tp, len(ents) - ner_tp, len(doc.entities) - ner_tp)

    rels: list[tuple[str, int, int]] = []
    drugs = [j for j, (etype, _, _) in enumerate(ents) if etype == "Drug"]
    e2e_tp = 0
    for a, d in doc.relations:
        if a not in pred_of or d not in pred_of:
            continue
        rtype = f"{doc.entities[a].etype}-Drug"
        arg2 = pred_of[d]
        r = rng.random()
        if r < 0.08:
            continue
        if r < 0.13:
            rtype = rng.choice([f"{t}-Drug" for t in ENTITY_TYPES[1:] if f"{t}-Drug" != rtype])
        elif r < 0.18 and len(drugs) > 1:
            arg2 = rng.choice([x for x in drugs if x != arg2])
        elif a in intact and d in intact:
            e2e_tp += 1
        rels.append((rtype, pred_of[a], arg2))
    gold_pairs = {(pred_of.get(a), pred_of.get(d)) for a, d in doc.relations}
    attrs = [j for j, (etype, _, _) in enumerate(ents) if etype != "Drug"]
    for _ in range(len(doc.relations) // 20):
        if not attrs or not drugs:
            break
        a, d = rng.choice(attrs), rng.choice(drugs)
        if (a, d) not in gold_pairs:
            rels.append((f"{ents[a][0]}-Drug", a, d))
    e2e = (e2e_tp, len(rels) - e2e_tp, len(doc.relations) - e2e_tp)
    return NoisyPrediction(ents, rels, ner, e2e)
