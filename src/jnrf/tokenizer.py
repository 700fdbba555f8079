r"""Wordpiece tokenization, rule-based sentence splitting, BIO alignment.

Pre-tokens come from one pass of a compiled regex over the text: each maximal
run of alphanumeric characters is one pre-token, and so is every other
character that is not whitespace. The split is exactly the one that
`str.isalnum` and `str.isspace` define, because on every code point `[^\W_]`
matches precisely the characters that `str.isalnum` accepts and `\s` those
that `str.isspace` accepts (the tests check all 0x110000).

A pre-token that is itself a vocabulary entry is looked up whole and becomes
one token. Only the others are decomposed greedily longest-match-first
against the vocabulary, prefixing continuations with "##"; the whole-word
lookup gives what that search would, since it tries the whole word first. A
pre-token with no full decomposition becomes a single [UNK] token covering
its whole span, so character offsets always cover the non-whitespace text.

The tokens go straight into the four columns of a `corpus.Tokens`; the
sentence splitter and the BIO aligner bisect its `end` and `start` columns.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right

from .config import read_text
from .corpus import Document, Tokens, bio_label

UNK = "[UNK]"

# leading whitespace, then a pre-token: an alphanumeric run or one other
# non-whitespace character
_PRETOKEN = re.compile(r"(\s*)([^\W_]+|\S)")
_SPACE = re.compile(r"\s")
_BOUNDARY = re.compile(r"[.!?]|\n")


class VocabError(ValueError):
    """A malformed vocabulary; `index` is the position in the input of the
    token at fault, or None when no single token is."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class AlignmentError(ValueError):
    """A token overlaps two gold entities; the data, not the code, is wrong."""


class Vocab:
    def __init__(self, tokens):
        self.id_of = {}
        for i, tok in enumerate(tokens):
            if tok in self.id_of:
                raise VocabError(f"duplicate vocab token {tok!r}", i)
            if _SPACE.search(tok):
                # no pre-token holds whitespace, so this could never match
                raise VocabError(f"vocab token {tok!r} contains whitespace", i)
            self.id_of[tok] = i
        if UNK not in self.id_of:
            raise VocabError(f"vocabulary must contain {UNK}")
        self.tokens = list(self.id_of)
        self.unk_id = self.id_of[UNK]
        # no wordpiece candidate longer than this, "##" aside, can match
        self.longest = max(len(tok.removeprefix("##")) for tok in self.tokens)

    def __len__(self):
        return len(self.id_of)

    def __contains__(self, tok):
        return tok in self.id_of

    @classmethod
    def load(cls, path: str) -> "Vocab":
        """One token per line; blank lines and a UTF-8 byte order mark are
        skipped. Errors name the file and the line."""
        lines = [(n, tok) for n, tok in enumerate(read_text(path, VocabError).split("\n"), start=1) if tok]
        try:
            return cls(tok for _, tok in lines)
        except VocabError as exc:
            where = path if exc.index is None else f"{path}:{lines[exc.index][0]}"
            raise VocabError(f"{where}: {exc}", exc.index) from None


def _greedy_pieces(word: str, vocab: Vocab) -> list[tuple[str, int, int, int]]:
    """(surface, start, end, vocab id) of each greedy longest-match piece of a
    pre-token, offsets relative to it; one [UNK] over the whole pre-token
    when some position has no match."""
    ids, longest, n = vocab.id_of, vocab.longest, len(word)
    pieces = []
    pos = 0
    while pos < n:
        for stop in range(min(n, pos + longest), pos, -1):
            piece = word[pos:stop] if pos == 0 else "##" + word[pos:stop]
            if piece in ids:
                break
        else:
            return [(UNK, 0, n, vocab.unk_id)]
        pieces.append((piece, pos, stop, ids[piece]))
        pos = stop
    return pieces


def wordpiece_tokenize(text: str, vocab: Vocab) -> Tokens:
    lookup = vocab.id_of.get
    out = Tokens()
    surface, starts, ends, ids = out.surface, out.start, out.end, out.vocab_id
    end = 0
    for space, word in _PRETOKEN.findall(text):
        # matches are contiguous: each starts where the last one ended
        start = end + len(space)
        end = start + len(word)
        vid = lookup(word)
        if vid is not None:
            surface.append(word)
            starts.append(start)
            ends.append(end)
            ids.append(vid)
            continue
        for piece, a, b, pid in _greedy_pieces(word, vocab):
            surface.append(piece)
            starts.append(start + a)
            ends.append(start + b)
            ids.append(pid)
    return out


def split_sentences(doc: Document) -> list[int]:
    """Sentence starts: a boundary falls after any token whose last
    character is '.', '!' or '?', or that is followed by a newline before
    the next token.

    The text is searched for those characters instead of testing every
    token. In the tokens `wordpiece_tokenize` makes of the text, each of
    '.', '!' and '?' is a pre-token of its own, so it is the last character
    of exactly one token, in or out of the vocabulary; a newline lies
    between two tokens or outside all of them. Both are placed by a bisect
    of the document's `end` column.
    """
    ends, text = doc.tokens.end, doc.text
    if not ends:
        return []
    last = len(ends) - 1
    starts = [0]
    for m in _BOUNDARY.finditer(text):
        pos = m.start()
        if text[pos] == "\n":
            i = bisect_right(ends, pos) - 1  # the last token before it
        else:
            i = bisect_left(ends, pos + 1)  # the token it ends
        # boundaries come in text order; a run of newlines repeats one
        if 0 <= i < last and starts[-1] <= i:
            starts.append(i + 1)
    return starts


def align_bio(doc: Document) -> list[int]:
    """Project gold character spans onto tokens: overlap means inside, the
    first overlapped token is B-, the rest I-. Also records the token range
    of every gold entity on the document.

    The tokens overlapping characters [start, end) are found by two bisects
    on the document's `end` and `start` columns: they begin after the last
    token ending at or before `start` and stop before the first token
    starting at or after `end`. This relies on the order wordpiece_tokenize
    guarantees: tokens are in text order and do not overlap, so their starts
    and their ends both ascend."""
    tokens = doc.tokens
    starts, ends = tokens.start, tokens.end
    labels = [0] * len(starts)
    owner = [None] * len(starts)
    doc.entity_token_spans = spans = []
    for ent in doc.gold_entities:
        first, stop = bisect_right(ends, ent.start), bisect_left(starts, ent.end)
        if first >= stop:
            raise AlignmentError(
                f"{doc.doc_id}: entity {ent.id} ({ent.etype} {ent.start}..{ent.end}) covers no token"
            )
        inside = bio_label(ent.etype, first=False)
        for i in range(first, stop):
            if owner[i] is not None:
                other = owner[i]
                raise AlignmentError(
                    f"{doc.doc_id}: token {i} ({tokens.surface[i]!r}) overlaps both "
                    f"{other.id} ({other.etype}) and {ent.id} ({ent.etype})"
                )
            owner[i] = ent
            labels[i] = inside
        labels[first] = bio_label(ent.etype, first=True)
        spans.append((first, stop))
    return labels


def prepare(doc: Document, vocab: Vocab) -> Document:
    """Tokenize, split sentences and align BIO labels in place."""
    doc.tokens = wordpiece_tokenize(doc.text, vocab)
    doc.sentence_starts = split_sentences(doc)
    doc.bio_labels = align_bio(doc)
    return doc

