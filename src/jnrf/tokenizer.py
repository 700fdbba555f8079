"""Greedy wordpiece tokenization, rule-based sentence splitting, BIO alignment.

The tokenizer pre-splits on whitespace and punctuation (every non-alphanumeric
character is its own pre-token), then decomposes each pre-token greedily
longest-match-first against the vocabulary, prefixing continuations with
"##". A pre-token with no match becomes a single [UNK] token covering its
whole span, so character offsets always cover the non-whitespace text.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter

from .corpus import Document, Token, bio_label

UNK = "[UNK]"


class VocabError(ValueError):
    pass


class AlignmentError(ValueError):
    """A token overlaps two gold entities; the data, not the code, is wrong."""


class Vocab:
    def __init__(self, tokens):
        self.id_of = {}
        for tok in tokens:
            if tok in self.id_of:
                raise VocabError(f"duplicate vocab token {tok!r}")
            self.id_of[tok] = len(self.id_of)
        if UNK not in self.id_of:
            raise VocabError(f"vocabulary must contain {UNK}")
        self.tokens = list(self.id_of)
        self.unk_id = self.id_of[UNK]

    def __len__(self):
        return len(self.id_of)

    def __contains__(self, tok):
        return tok in self.id_of

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, encoding="utf-8") as f:
            return cls([line.rstrip("\n") for line in f if line.rstrip("\n")])

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")


def _pretokens(text: str):
    """Yield (surface, start, end) split on whitespace and punctuation."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalnum():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            yield text[i:j], i, j
            i = j
        else:
            yield ch, i, i + 1
            i += 1


def wordpiece_tokenize(text: str, vocab: Vocab) -> list[Token]:
    if len(vocab) == 0:
        raise VocabError("empty vocabulary")
    out = []
    for word, start, end in _pretokens(text):
        pieces = []
        pos = 0
        ok = True
        while pos < len(word):
            best = None
            for stop in range(len(word), pos, -1):
                cand = word[pos:stop]
                if pos > 0:
                    cand = "##" + cand
                if cand in vocab:
                    best = (cand, stop)
                    break
            if best is None:
                ok = False
                break
            piece, stop = best
            pieces.append(Token(piece, start + pos, start + stop, vocab.id_of[piece]))
            pos = stop
        if ok:
            out.extend(pieces)
        else:
            out.append(Token(UNK, start, end, vocab.unk_id))
    return out


def split_sentences(doc: Document) -> list[int]:
    """Sentence starts: a boundary falls after any token whose surface ends
    with '.', '!' or '?', or that is followed by at least one newline."""
    tokens = doc.tokens
    starts = [0] if tokens else []
    for i, tok in enumerate(tokens[:-1]):
        boundary = tok.surface.endswith((".", "!", "?"))
        if not boundary and "\n" in doc.text[tok.end:tokens[i + 1].start]:
            boundary = True
        if boundary:
            starts.append(i + 1)
    return starts


def token_range(tokens: list[Token], start: int, end: int) -> tuple[int, int]:
    """Index range [first, stop) of the tokens that overlap characters
    [start, end); first >= stop when none does.

    Relies on the order wordpiece_tokenize guarantees: tokens are in text
    order and do not overlap, so their starts and their ends both ascend.
    """
    first = bisect_right(tokens, start, key=attrgetter("end"))
    return first, bisect_left(tokens, end, key=attrgetter("start"))


def align_bio(doc: Document) -> list[int]:
    """Project gold character spans onto tokens: overlap means inside, the
    first overlapped token is B-, the rest I-. Also records the token range
    of every gold entity on the document."""
    labels = [0] * len(doc.tokens)
    owner = [None] * len(doc.tokens)
    doc.entity_token_spans = []
    for ent in doc.gold_entities:
        first, stop = token_range(doc.tokens, ent.start, ent.end)
        if first >= stop:
            raise AlignmentError(
                f"{doc.doc_id}: entity {ent.id} ({ent.etype} {ent.start}..{ent.end}) covers no token"
            )
        for i in range(first, stop):
            if owner[i] is not None:
                other = owner[i]
                raise AlignmentError(
                    f"{doc.doc_id}: token {i} ({doc.tokens[i].surface!r}) overlaps both "
                    f"{other.id} ({other.etype}) and {ent.id} ({ent.etype})"
                )
            owner[i] = ent
            labels[i] = bio_label(ent.etype, first=i == first)
        doc.entity_token_spans.append((first, stop))
    return labels


def prepare(doc: Document, vocab: Vocab) -> Document:
    """Tokenize, split sentences and align BIO labels in place."""
    doc.tokens = wordpiece_tokenize(doc.text, vocab)
    doc.sentence_starts = split_sentences(doc)
    doc.bio_labels = align_bio(doc)
    return doc


def sentence_index_of_token(doc: Document, tok: int) -> int:
    """Index of the sentence containing a token."""
    return max(bisect_right(doc.sentence_starts, tok) - 1, 0)


def sentence_index_of_char(doc: Document, pos: int) -> int:
    """Sentence of the first token ending after a character position, or of
    the last token when none does (no sentence starts past the last token)."""
    return sentence_index_of_token(doc, token_range(doc.tokens, pos, pos + 1)[0])
