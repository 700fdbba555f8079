import random
import re
import string
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

import synth
from jnrf import corpus, tokenizer
from jnrf.corpus import Document, EntitySpan, Token, bio_label, parse_brat
from jnrf.evaluation import sentence_ends
from jnrf.tokenizer import (
    UNK,
    AlignmentError,
    Vocab,
    VocabError,
    align_bio,
    prepare,
    split_sentences,
    wordpiece_tokenize,
)

from oracles import (
    scan_align_bio,
    scan_pretokens,
    scan_split_sentences,
    scan_wordpiece_tokenize,
    token_columns,
)


def vocab_of(*tokens):
    return Vocab([UNK, *tokens])


def test_greedy_longest_match():
    v = vocab_of("un", "##able", "able")
    toks = wordpiece_tokenize("unable", v)
    assert [(t.surface, t.start, t.end) for t in toks] == [("un", 0, 2), ("##able", 2, 6)]


def test_whitespace_offsets():
    v = vocab_of("x", "y")
    toks = wordpiece_tokenize("x y", v)
    assert [(t.surface, t.start, t.end) for t in toks] == [("x", 0, 1), ("y", 2, 3)]


def test_unk_fallback_covers_pretoken():
    v = vocab_of("a")
    toks = wordpiece_tokenize("qqq", v)
    assert [(t.surface, t.start, t.end, t.vocab_id) for t in toks] == [(UNK, 0, 3, 0)]


def test_punctuation_is_its_own_pretoken():
    v = vocab_of("mg", ".", "50")
    toks = wordpiece_tokenize("50 mg.", v)
    assert [t.surface for t in toks] == ["50", "mg", "."]
    assert [(t.start, t.end) for t in toks] == [(0, 2), (3, 5), (5, 6)]


def test_offsets_cover_non_whitespace():
    v = vocab_of("ab", "##c", "d")
    text = "abc  d \n zz"
    toks = wordpiece_tokenize(text, v)
    covered = set()
    for t in toks:
        covered.update(range(t.start, t.end))
    expected = {i for i, ch in enumerate(text) if not ch.isspace()}
    assert covered == expected
    # offset-based detokenization reproduces the non-whitespace text
    joined = "".join(text[t.start:t.end] for t in toks)
    assert joined == "".join(ch for ch in text if not ch.isspace())


def test_whitespace_in_a_vocab_token_is_rejected():
    with pytest.raises(VocabError, match="'a b' contains whitespace"):
        vocab_of("a", "a b")
    with pytest.raises(VocabError, match="contains whitespace"):
        vocab_of("##\xa0")  # no-break space


def test_vocab_load_errors_name_the_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text(f"{UNK}\nmg\n\nper day\n", encoding="utf-8")
    with pytest.raises(VocabError, match=f"^{re.escape(str(path))}:4: vocab token 'per day' contains whitespace$"):
        Vocab.load(str(path))
    path.write_text(f"{UNK}\nmg\n\nmg\n", encoding="utf-8")
    with pytest.raises(VocabError, match=f"^{re.escape(str(path))}:4: duplicate vocab token 'mg'$"):
        Vocab.load(str(path))
    path.write_text("mg\n", encoding="utf-8")
    with pytest.raises(VocabError, match=f"^{re.escape(str(path))}: vocabulary must contain"):
        Vocab.load(str(path))
    path.write_text(f"{UNK}\nmg\n##g\n", encoding="utf-8")
    assert Vocab.load(str(path)).tokens == [UNK, "mg", "##g"]
    # an editor's byte order mark is not part of the first token
    path.write_text(f"mg\n{UNK}\n", encoding="utf-8-sig")
    assert Vocab.load(str(path)).tokens == ["mg", UNK]


class CountingIds(dict):
    """A vocabulary's token -> id map that counts membership tests and fails
    at the first one over `budget`, so a tokenizer that searches too far
    fails at once instead of running for hours."""

    lookups, budget = 0, 0

    def __contains__(self, tok):
        self.lookups += 1
        assert self.lookups <= self.budget, f"more than {self.budget} vocabulary lookups"
        return super().__contains__(tok)


def test_lookups_stay_linear_in_a_long_alphanumeric_run():
    chars = string.ascii_lowercase + string.digits
    v = vocab_of(*chars, *("##" + c for c in chars), "ab", "##abc")
    v.id_of = ids = CountingIds(v.id_of)
    rng = random.Random(0)
    text = "".join(rng.choice(chars) for _ in range(20_000))
    ids.budget = len(text) * max(len(tok.removeprefix("##")) for tok in v.tokens)
    tokens = wordpiece_tokenize(text, v)
    assert "".join(t.surface.removeprefix("##") for t in tokens) == text
    assert ids.lookups >= len(tokens)


class TestAlignBio:
    def make_doc(self, text, entities):
        doc = Document(doc_id="d", text=text)
        doc.gold_entities = [
            EntitySpan(f"T{i+1}", et, s, e, text[s:e]) for i, (et, s, e) in enumerate(entities)
        ]
        return doc

    def test_two_token_entity(self):
        doc = self.make_doc("ibuprofe", [("Drug", 0, 7)])
        v = vocab_of("ibu", "##pro", "##fe")
        doc.tokens = wordpiece_tokenize("ibuprofe", v)
        assert [(t.start, t.end) for t in doc.tokens] == [(0, 3), (3, 6), (6, 8)]
        doc.gold_entities = [EntitySpan("T1", "Drug", 0, 7)]
        labels = align_bio(doc)
        assert labels == [bio_label("Drug", True), bio_label("Drug", False), bio_label("Drug", False)]

    def test_no_entities_all_outside(self):
        doc = self.make_doc("a b", [])
        doc.tokens = wordpiece_tokenize("a b", vocab_of("a", "b"))
        assert align_bio(doc) == [0, 0]

    def test_middle_entity(self):
        doc = self.make_doc("abc defg hi", [("Dosage", 4, 8)])
        doc.tokens = wordpiece_tokenize("abc defg hi", vocab_of("abc", "defg", "hi"))
        assert align_bio(doc) == [0, bio_label("Dosage", True), 0]

    def test_token_overlapping_two_entities_is_an_error(self):
        doc = self.make_doc("abcd", [("Drug", 0, 2), ("Strength", 1, 4)])
        doc.tokens = wordpiece_tokenize("abcd", vocab_of("abcd"))
        with pytest.raises(AlignmentError, match="T1.*T2"):
            align_bio(doc)

    def test_entity_token_spans_recorded(self):
        doc = self.make_doc("one two three", [("Drug", 0, 3), ("Route", 8, 13)])
        doc.tokens = wordpiece_tokenize("one two three", vocab_of("one", "two", "three"))
        align_bio(doc)
        assert doc.entity_token_spans == [(0, 1), (2, 3)]


class TestSentenceSplit:
    def tokenized(self, text, *vocab):
        doc = Document(doc_id="d", text=text)
        doc.tokens = wordpiece_tokenize(text, vocab_of(*vocab))
        return doc

    def test_terminator(self):
        doc = self.tokenized("A. B", "A", "B", ".")
        assert split_sentences(doc) == [0, 2]

    def test_single_sentence(self):
        doc = self.tokenized("a b c", "a", "b", "c")
        assert split_sentences(doc) == [0]

    def test_blank_line_is_a_boundary(self):
        doc = self.tokenized("one fragment\n\nanother one", "one", "fragment", "another")
        assert split_sentences(doc) == [0, 2]

    def test_out_of_vocabulary_terminator_is_a_boundary(self):
        # the '?' becomes [UNK], but its character still ends the sentence
        doc = self.tokenized("take it? now it. take", "take", "it", "now", ".")
        assert doc.tokens.surface[2] == UNK
        assert split_sentences(doc) == [0, 3, 6]
        with_mark = self.tokenized("take it? now it. take", "take", "it", "now", ".", "?")
        assert split_sentences(with_mark) == [0, 3, 6]

    def test_sentence_lookup(self):
        doc = self.tokenized("a. b. c", "a", "b", "c", ".")
        doc.sentence_starts = split_sentences(doc)
        assert doc.sentence_starts == [0, 2, 4]
        # "a." ends at 2 and "b." at 5; the last sentence's end is left out
        assert sentence_ends(doc) == [2, 5]


def test_prepare_round_trip_through_brat():
    text = "metoprin 50 mg taken daily.\npatient stable."
    ann = (
        "T1\tDrug 0 8\tmetoprin\n"
        "T2\tStrength 9 14\t50 mg\n"
        "R1\tStrength-Drug Arg1:T2 Arg2:T1\n"
    )
    doc = parse_brat(text, ann)
    v = vocab_of("metoprin", "50", "mg", "taken", "daily", ".", "patient", "stable")
    prepare(doc, v)
    assert doc.sentence_starts == [0, 6]
    b_drug, b_str, i_str = bio_label("Drug", True), bio_label("Strength", True), bio_label("Strength", False)
    assert doc.bio_labels[:3] == [b_drug, b_str, i_str]
    assert all(lab == 0 for lab in doc.bio_labels[3:])
    assert doc.entity_token_spans == [(0, 1), (1, 3)]


def test_prepare_builds_no_token_row(monkeypatch):
    c = synth.generate_corpus(synth.CorpusSpec(n_docs=1, len_min=300, len_max=300), 1)
    g = c.docs[0]
    built = []
    init = corpus.Token.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(corpus.Token, "__init__", counted)
    doc = prepare(parse_brat(g.text, g.ann, g.doc_id), Vocab(c.vocab))
    assert len(doc.tokens) == g.n_tokens and doc.sentence_starts == g.sentence_starts
    assert built == []
    # a row is built on demand, and the counter sees it
    assert next(iter(doc.tokens)).end == doc.tokens.end[0]
    assert len(built) == 1


@st.composite
def token_layouts(draw):
    """Tokens in text order that do not overlap, with gaps of 0 to 3
    characters (also before the first); the document may have no tokens."""
    tokens, pos = [], 0
    for gap, width in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=12)):
        pos += gap
        tokens.append(Token(f"t{len(tokens)}", pos, pos + width))
        pos += width
    return token_columns(tokens)


char_positions = st.integers(-2, 45)


class TestLookupsAgainstScans:
    @settings(max_examples=300, deadline=None)
    @given(
        tokens=token_layouts(),
        spans=st.lists(st.tuples(char_positions, st.integers(1, 6), st.sampled_from(("Drug", "Route"))), max_size=5),
    )
    def test_align_bio(self, tokens, spans):
        doc = Document("d", "", tokens=tokens)
        doc.gold_entities = [EntitySpan(f"T{i}", t, s, s + w) for i, (s, w, t) in enumerate(spans)]

        def outcome(align):
            try:
                return align()
            except AlignmentError as exc:
                return str(exc)

        want = outcome(lambda: scan_align_bio(doc, AlignmentError))
        got = outcome(lambda: (align_bio(doc), doc.entity_token_spans))
        assert got == want

    def test_gaps_and_ends(self):
        # tokens "ab" at 1..3 and "c" at 5..6: an entity inside the gap
        # overlaps neither
        doc = Document("d", "", tokens=token_columns([Token("ab", 1, 3), Token("c", 5, 6)]))
        doc.gold_entities = [EntitySpan("T1", "Drug", 3, 5)]
        with pytest.raises(AlignmentError, match="T1 .*covers no token"):
            align_bio(doc)

    def test_no_tokens(self):
        doc = Document("d", "")
        assert align_bio(doc) == []


# letters, digits, punctuation, '#', mixed whitespace (str.isspace) and
# non-ASCII alphanumerics: a Latin letter with an accent, a titlecase
# digraph and an Arabic-Indic digit
FUZZ_ALPHABET = "abzXY019" + ".,;-/()" + "#" + " \t\n\r\x0b\x0c\x1c\xa0\u2028\u3000" + "éǅ٣"


@st.composite
def texts_and_vocabs(draw):
    """A text, and a vocabulary of pieces cut from it (some with '##') plus
    short random strings, so that lookups both hit and miss."""
    text = draw(st.text(FUZZ_ALPHABET, max_size=60))
    cuts = draw(
        st.lists(st.tuples(st.integers(0, 60), st.integers(1, 5), st.booleans()), max_size=12)
    )
    pieces = {("##" if cont else "") + text[i:i + n] for i, n, cont in cuts if text[i:i + n]}
    # a vocabulary rejects whitespace, which no pre-token holds
    pieces = {p for p in pieces if not any(ch.isspace() for ch in p)}
    visible = "".join(ch for ch in FUZZ_ALPHABET if not ch.isspace())
    pieces |= draw(st.sets(st.text(visible, min_size=1, max_size=3), max_size=6))
    return text, Vocab([UNK, *sorted(pieces - {UNK})])


class TestTokenizerFuzz:
    @settings(max_examples=500, deadline=None)
    @given(case=texts_and_vocabs())
    def test_character_offsets(self, case):
        text, vocab = case
        tokens = list(wordpiece_tokenize(text, vocab))
        for a, b in zip(tokens, tokens[1:]):
            assert a.end <= b.start  # ascending, no overlap
        covered = [i for t in tokens for i in range(t.start, t.end)]
        # no token covers whitespace, and every other character is covered
        assert covered == [i for i, ch in enumerate(text) if not ch.isspace()]
        for t in tokens:
            assert t.vocab_id == vocab.id_of[t.surface]
            if t.surface == UNK:
                continue
            assert t.surface.removeprefix("##") == text[t.start:t.end]
            # '##' marks exactly the pieces that continue an alphanumeric run
            continues = t.start > 0 and text[t.start - 1].isalnum() and text[t.start].isalnum()
            assert t.surface.startswith("##") == continues


def _fields(tokens):
    return [(t.surface, t.start, t.end, t.vocab_id) for t in tokens]


class TestTokenizerAgainstScan:
    """The regex pass, whole-word lookup and bounded greedy split give what
    a character-by-character scan with an unbounded greedy search gives."""

    @settings(max_examples=500, deadline=None)
    @given(case=texts_and_vocabs())
    def test_fuzzed_texts(self, case):
        text, vocab = case
        tokens = wordpiece_tokenize(text, vocab)
        assert _fields(tokens) == _fields(scan_wordpiece_tokenize(text, vocab))
        doc = Document("d", text, tokens=tokens)
        assert split_sentences(doc) == scan_split_sentences(doc)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_corpora(self, seed):
        # the benchmark's long documents: 3 of 4097 to 8191 tokens
        c = synth.generate_corpus(synth.CorpusSpec(n_docs=3, len_min=4097, len_max=8191), seed)
        vocab = Vocab(c.vocab)
        for g in c.docs:
            doc = Document(g.doc_id, g.text, tokens=wordpiece_tokenize(g.text, vocab))
            assert _fields(doc.tokens) == _fields(scan_wordpiece_tokenize(g.text, vocab))
            assert split_sentences(doc) == scan_split_sentences(doc) == g.sentence_starts

    def test_pretoken_classes_are_isalnum_and_isspace_on_every_code_point(self):
        # every code point between two letters: an alphanumeric one joins
        # the letters' run, whitespace separates them, and any other
        # character is a pre-token of its own, so a code point the pattern
        # classes differently from str.isalnum or str.isspace changes the split
        text = "a" + "a".join(map(chr, range(0x110000))) + "a"
        regex = ((m[2], m.start(2), m.end(2)) for m in tokenizer._PRETOKEN.finditer(text))
        for got, want in zip_longest(regex, scan_pretokens(text)):
            assert got == want
