"""Medication-extraction schema and the BRAT standoff wire format.

Entity lines look like "T1\tDrug 0 7\taspirin", relation lines like
"R1\tStrength-Drug Arg1:T2 Arg2:T1". Discontinuous spans ("s e;s e") are
collapsed to their envelope. Relations always point from an attribute
entity (arg1) to a drug (arg2).

A document keeps its tokens as parallel columns (`Tokens`): surfaces,
character starts, character ends and vocabulary ids, in text order. A
`Token` row is built only when a caller iterates the columns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .config import decode_utf8, read_text

ENTITY_TYPES = (
    "Drug", "Strength", "Form", "Dosage", "Frequency",
    "Route", "Duration", "Reason", "ADE",
)
ATTRIBUTE_TYPES = ENTITY_TYPES[1:]
RELATION_TYPES = tuple(f"{t}-Drug" for t in ATTRIBUTE_TYPES)

# BIO label ids: O = 0, then B/I pairs in ENTITY_TYPES order
NUM_LABELS = 2 * len(ENTITY_TYPES) + 1
_TYPE_INDEX = {t: i for i, t in enumerate(ENTITY_TYPES)}
_HEAD_INDEX = {rt: j for j, rt in enumerate(RELATION_TYPES)}


def bio_label(etype: str, first: bool) -> int:
    i = _TYPE_INDEX[etype]
    return 1 + 2 * i + (0 if first else 1)


def label_parts(label: int):
    """Return (etype, is_begin) for a B/I label, or None for O."""
    if label == 0:
        return None
    i, rem = divmod(label - 1, 2)
    return ENTITY_TYPES[i], rem == 0


def relation_head(rtype: str) -> int:
    return _HEAD_INDEX[rtype]


class BratParseError(ValueError):
    """Malformed standoff annotation; the message carries the 1-based line
    number, after the .ann path when the text came from a file."""


@dataclass(slots=True)
class EntitySpan:
    id: str
    etype: str
    start: int
    end: int
    surface: str = ""


@dataclass(slots=True)
class Relation:
    rtype: str
    arg1: EntitySpan  # attribute
    arg2: EntitySpan  # drug


@dataclass(slots=True)
class Token:
    """One row of `Tokens`, built on demand by iteration."""

    surface: str
    start: int
    end: int
    vocab_id: int = -1


@dataclass(slots=True)
class Tokens:
    """A document's tokens as four parallel lists in text order; entry i of
    each describes token i, which covers characters [start[i], end[i])."""

    surface: list[str] = field(default_factory=list)
    start: list[int] = field(default_factory=list)
    end: list[int] = field(default_factory=list)
    vocab_id: list[int] = field(default_factory=list)

    def __len__(self):
        return len(self.start)

    def __iter__(self):
        return map(Token, self.surface, self.start, self.end, self.vocab_id)


@dataclass
class Document:
    doc_id: str
    text: str
    gold_entities: list[EntitySpan] = field(default_factory=list)
    gold_relations: list[Relation] = field(default_factory=list)
    tokens: Tokens = field(default_factory=Tokens)
    sentence_starts: list[int] = field(default_factory=list)
    bio_labels: list[int] = field(default_factory=list)
    # token index range per gold entity, aligned with gold_entities
    entity_token_spans: list[tuple[int, int]] = field(default_factory=list)
    path: str = ""  # the .txt file it was read from, if any; errors name it

    def __len__(self):
        return len(self.tokens)


def _parse_offsets(chunk: str, lineno: int):
    """The envelope (smallest start, largest end) of one or more "s e" spans."""
    lo = hi = None
    for part in chunk.split(";"):
        fields = part.split()
        if len(fields) != 2:
            raise BratParseError(f"line {lineno}: bad offset field {chunk!r}")
        try:
            start, end = int(fields[0]), int(fields[1])
        except ValueError:
            raise BratParseError(f"line {lineno}: non-integer offsets in {chunk!r}") from None
        if lo is None:
            lo, hi = start, end
        else:
            lo, hi = min(lo, start), max(hi, end)
    return lo, hi


def parse_brat(text: str, ann: str, doc_id: str = "doc") -> Document:
    """Ingest a .txt/.ann pair; entity and relation lines only."""
    entities: dict[str, EntitySpan] = {}
    relation_ids = set()
    pending_relations = []
    for lineno, line in enumerate(ann.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        tag = fields[0]
        if tag.startswith("T"):
            if len(fields) < 2:
                raise BratParseError(f"line {lineno}: entity line needs a type field")
            head = fields[1].split(None, 1)
            if len(head) != 2:
                raise BratParseError(f"line {lineno}: malformed entity header {fields[1]!r}")
            etype, offsets = head
            if etype not in _TYPE_INDEX:
                raise BratParseError(f"line {lineno}: unknown entity type {etype!r}")
            start, end = _parse_offsets(offsets, lineno)
            if not (0 <= start < end <= len(text)):
                raise BratParseError(
                    f"line {lineno}: span {start}..{end} outside document of length {len(text)}"
                )
            if tag in entities:
                raise BratParseError(f"line {lineno}: duplicate entity id {tag}")
            entities[tag] = EntitySpan(tag, etype, start, end, text[start:end])
        elif tag.startswith("R"):
            if len(fields) < 2:
                raise BratParseError(f"line {lineno}: relation line needs a body")
            body = fields[1].split()
            if len(body) != 3 or not body[1].startswith("Arg1:") or not body[2].startswith("Arg2:"):
                raise BratParseError(f"line {lineno}: malformed relation {fields[1]!r}")
            rtype = body[0]
            if rtype not in _HEAD_INDEX:
                raise BratParseError(f"line {lineno}: unknown relation type {rtype!r}")
            if tag in relation_ids:
                raise BratParseError(f"line {lineno}: duplicate relation id {tag}")
            relation_ids.add(tag)
            pending_relations.append((lineno, rtype, body[1][5:], body[2][5:]))
        else:
            # events, attributes, notes etc. are out of scope; ignore
            continue

    doc = Document(doc_id=doc_id, text=text, gold_entities=list(entities.values()))
    for lineno, rtype, a1, a2 in pending_relations:
        if a1 not in entities or a2 not in entities:
            missing = a1 if a1 not in entities else a2
            raise BratParseError(f"line {lineno}: dangling reference {missing}")
        arg1, arg2 = entities[a1], entities[a2]
        if arg2.etype != "Drug":
            raise BratParseError(f"line {lineno}: Arg2 of {rtype} must be a Drug, got {arg2.etype}")
        if rtype != f"{arg1.etype}-Drug":
            raise BratParseError(
                f"line {lineno}: Arg1 type {arg1.etype} does not match relation {rtype}"
            )
        if arg1 is arg2:
            raise BratParseError(f"line {lineno}: relation arguments must differ")
        doc.gold_relations.append(Relation(rtype, arg1, arg2))
    return doc


def render_ann(entities, relations) -> str:
    """Serialize spans and relations back to the standoff grammar."""
    lines = []
    ids = {}
    for i, e in enumerate(entities, start=1):
        ids[id(e)] = f"T{i}"
        # every break parse_brat's splitlines() honours, not only "\n"
        surface = " ".join(e.surface.splitlines())
        lines.append(f"T{i}\t{e.etype} {e.start} {e.end}\t{surface}")
    for i, r in enumerate(relations, start=1):
        lines.append(f"R{i}\t{r.rtype} Arg1:{ids[id(r.arg1)]} Arg2:{ids[id(r.arg2)]}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_brat_file(txt_path: str) -> Document:
    """The .txt/.ann pair at one stem, with the stem as doc id; a parse
    error names the .ann file. The text is read as written, line ends and
    all, since standoff offsets count its characters; the .ann drops a byte
    order mark, which would otherwise hide its first line's tag."""
    stem = os.path.splitext(txt_path)[0]
    ann_path = stem + ".ann"
    with open(txt_path, "rb") as f:
        text = decode_utf8(f.read(), txt_path, BratParseError)
    ann = read_text(ann_path, BratParseError)
    try:
        return replace(parse_brat(text, ann, os.path.basename(stem)), path=txt_path)
    except BratParseError as exc:
        raise BratParseError(f"{ann_path}: {exc}") from None


def load_brat_dir(dirpath: str) -> list[Document]:
    docs = []
    for name in sorted(os.listdir(dirpath)):
        if name.endswith(".txt"):
            docs.append(load_brat_file(os.path.join(dirpath, name)))
    if not docs:
        raise BratParseError(f"no .txt documents under {dirpath}")
    return docs
