import re

import pytest
from hypothesis import given, settings, strategies as st

from jnrf.corpus import (
    BratParseError,
    ENTITY_TYPES,
    NUM_LABELS,
    RELATION_TYPES,
    EntitySpan,
    Relation,
    bio_label,
    label_parts,
    load_brat_dir,
    load_brat_file,
    parse_brat,
    render_ann,
)

HYPOTHESIS = settings(max_examples=100, deadline=None)
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_schema_sizes():
    assert len(ENTITY_TYPES) == 9
    assert len(RELATION_TYPES) == 8
    assert NUM_LABELS == 19


def test_label_round_trip():
    seen = set()
    for etype in ENTITY_TYPES:
        for first in (True, False):
            lab = bio_label(etype, first)
            assert 1 <= lab < NUM_LABELS
            assert label_parts(lab) == (etype, first)
            seen.add(lab)
    assert len(seen) == 18 and label_parts(0) is None


def test_entity_line():
    doc = parse_brat("aspirin daily", "T1\tDrug 0 7\taspirin\n")
    (ent,) = doc.gold_entities
    assert (ent.etype, ent.start, ent.end, ent.surface) == ("Drug", 0, 7, "aspirin")


def test_relation_line():
    text = "aspirin 50 mg"
    ann = "T1\tDrug 0 7\taspirin\nT2\tStrength 8 13\t50 mg\nR1\tStrength-Drug Arg1:T2 Arg2:T1\n"
    doc = parse_brat(text, ann)
    (rel,) = doc.gold_relations
    assert rel.rtype == "Strength-Drug"
    assert rel.arg1.etype == "Strength" and rel.arg2.etype == "Drug"


def test_dangling_reference_reports_line():
    text = "aspirin 50 mg"
    ann = "R1\tStrength-Drug Arg1:T9 Arg2:T1\nT1\tDrug 0 7\taspirin\n"
    with pytest.raises(BratParseError, match="line 1.*T9"):
        parse_brat(text, ann)


def test_unknown_types_rejected():
    with pytest.raises(BratParseError, match="line 1"):
        parse_brat("x", "T1\tGadget 0 1\tx\n")
    ann = "T1\tDrug 0 1\tx\nT2\tStrength 0 1\tx\nR1\tMade-Up Arg1:T2 Arg2:T1\n"
    with pytest.raises(BratParseError, match="line 3"):
        parse_brat("x", ann)


def test_duplicate_entity_id_rejected():
    ann = "T1\tDrug 0 7\taspirin\nT1\tDrug 8 10\t50\n"
    with pytest.raises(BratParseError, match="^line 2: duplicate entity id T1$"):
        parse_brat("aspirin 50 mg", ann)


def test_duplicate_relation_id_rejected():
    entities = "T1\tDrug 0 7\taspirin\nT2\tStrength 8 13\t50 mg\n"
    relation = "Strength-Drug Arg1:T2 Arg2:T1\n"
    with pytest.raises(BratParseError, match="^line 4: duplicate relation id R1$"):
        parse_brat("aspirin 50 mg", f"{entities}R1\t{relation}R1\t{relation}")
    # the same relation under a second id stays legal
    doc = parse_brat("aspirin 50 mg", f"{entities}R1\t{relation}R2\t{relation}")
    assert len(doc.gold_relations) == 2


def test_offsets_outside_text_rejected():
    with pytest.raises(BratParseError, match="line 1"):
        parse_brat("ab", "T1\tDrug 0 7\tlonger\n")


def test_discontinuous_span_collapsed_to_envelope():
    doc = parse_brat("aspirin and more", "T1\tDrug 0 7;12 16\taspirin more\n")
    (ent,) = doc.gold_entities
    assert (ent.start, ent.end) == (0, 16)


def test_schema_violations_fail_parsing():
    text = "drug strength"
    base = "T1\tDrug 0 4\tdrug\nT2\tStrength 5 13\tstrength\n"
    with pytest.raises(BratParseError, match="must be a Drug"):
        parse_brat(text, base + "R1\tStrength-Drug Arg1:T1 Arg2:T2\n")
    with pytest.raises(BratParseError, match="does not match"):
        parse_brat(text, base + "R1\tDosage-Drug Arg1:T2 Arg2:T1\n")


def test_render_ann_round_trip():
    text = "aspirin 50 mg tablet"
    ann = (
        "T1\tDrug 0 7\taspirin\n"
        "T2\tStrength 8 13\t50 mg\n"
        "T3\tForm 14 20\ttablet\n"
        "R1\tStrength-Drug Arg1:T2 Arg2:T1\n"
        "R2\tForm-Drug Arg1:T3 Arg2:T1\n"
    )
    doc = parse_brat(text, ann)
    rendered = render_ann(doc.gold_entities, doc.gold_relations)
    again = parse_brat(text, rendered)
    assert [(e.etype, e.start, e.end) for e in again.gold_entities] == [
        (e.etype, e.start, e.end) for e in doc.gold_entities
    ]
    assert [(r.rtype, r.arg1.start, r.arg2.start) for r in again.gold_relations] == [
        (r.rtype, r.arg1.start, r.arg2.start) for r in doc.gold_relations
    ]


def test_blank_and_comment_like_lines_ignored():
    doc = parse_brat("aspirin", "\nT1\tDrug 0 7\taspirin\n#1\tAnnotatorNotes T1\tnote\n")
    assert len(doc.gold_entities) == 1


def write_pair(dirpath, stem, text, ann):
    (dirpath / f"{stem}.txt").write_text(text, encoding="utf-8")
    (dirpath / f"{stem}.ann").write_text(ann, encoding="utf-8")


class TestLoadBrat:
    def test_dir_loads_txt_files_in_sorted_order_with_stem_ids(self, tmp_path):
        write_pair(tmp_path, "b", "aspirin daily", "T1\tDrug 0 7\taspirin\n")
        write_pair(tmp_path, "a10", "warfarin", "T1\tDrug 0 8\twarfarin\n")
        write_pair(tmp_path, "a2", "rest", "")
        (tmp_path / "notes.ann").write_text("T1\tDrug 0 1\tx\n", encoding="utf-8")
        (tmp_path / "README.md").write_text("not a document\n", encoding="utf-8")
        docs = load_brat_dir(str(tmp_path))
        assert [d.doc_id for d in docs] == ["a10", "a2", "b"]
        assert [d.text for d in docs] == ["warfarin", "rest", "aspirin daily"]
        surfaces = [[e.surface for e in d.gold_entities] for d in docs]
        assert surfaces == [["warfarin"], [], ["aspirin"]]

    def test_crlf_line_ends_count_in_the_offsets(self, tmp_path):
        """Offsets count the characters of the file as written, so each
        CRLF is two of them."""
        (tmp_path / "d.txt").write_bytes(b"take\r\naspirin now\r\n")
        (tmp_path / "d.ann").write_text("T1\tDrug 6 13\taspirin\n", encoding="utf-8")
        doc = load_brat_file(str(tmp_path / "d.txt"))
        assert doc.text == "take\r\naspirin now\r\n"
        assert [e.surface for e in doc.gold_entities] == ["aspirin"]

    def test_byte_order_mark_on_the_ann_keeps_its_first_entity(self, tmp_path):
        """A BOM read as text would make line 1's tag "\\ufeffT1", a line
        that is skipped, and then R1's reference to T1 dangles."""
        (tmp_path / "d.txt").write_text("take aspirin 50 mg", encoding="utf-8")
        ann = "T1\tDrug 5 12\taspirin\nT2\tStrength 13 18\t50 mg\nR1\tStrength-Drug Arg1:T2 Arg2:T1\n"
        (tmp_path / "d.ann").write_text(ann, encoding="utf-8-sig")
        doc = load_brat_file(str(tmp_path / "d.txt"))
        assert [e.surface for e in doc.gold_entities] == ["aspirin", "50 mg"]
        (rel,) = doc.gold_relations
        assert (rel.arg1.surface, rel.arg2.surface) == ("50 mg", "aspirin")

    def test_empty_dir_is_named(self, tmp_path):
        (tmp_path / "a.ann").write_text("", encoding="utf-8")
        with pytest.raises(BratParseError, match=rf"^no \.txt documents under {re.escape(str(tmp_path))}$"):
            load_brat_dir(str(tmp_path))

    def test_parse_error_names_the_ann_file(self, tmp_path):
        write_pair(tmp_path, "good", "aspirin", "T1\tDrug 0 7\taspirin\n")
        write_pair(tmp_path, "bad", "aspirin daily", "T1\tDrug 0 7\taspirin\nT2\tBogus 8 13\tdaily\n")
        ann = re.escape(str(tmp_path / "bad.ann"))
        message = rf"^{ann}: line 2: unknown entity type 'Bogus'$"
        with pytest.raises(BratParseError, match=message):
            load_brat_file(str(tmp_path / "bad.txt"))
        with pytest.raises(BratParseError, match=message):
            load_brat_dir(str(tmp_path))


@st.composite
def annotated_texts(draw):
    """A text of any characters, 1 to 8 entities of any type inside it, and
    relations from attributes to drugs, as `render_ann` takes them. Tabs and
    every character str.splitlines() breaks at are drawn often."""
    chars = st.one_of(st.sampled_from(LINE_BREAKS + "\t "), st.characters())
    text = draw(st.text(chars, min_size=1, max_size=60))
    n = len(text)
    ents = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(st.integers(0, n - 1))
        end = draw(st.integers(start + 1, n))
        ents.append(EntitySpan("", draw(st.sampled_from(ENTITY_TYPES)), start, end, text[start:end]))
    drugs = [e for e in ents if e.etype == "Drug"]
    attrs = [e for e in ents if e.etype != "Drug"]
    rels = []
    if drugs and attrs:
        for a, d in draw(st.lists(st.tuples(st.sampled_from(attrs), st.sampled_from(drugs)), max_size=6)):
            rels.append(Relation(f"{a.etype}-Drug", a, d))
    return text, ents, rels


def _index(entities, ent) -> int:
    return next(i for i, e in enumerate(entities) if e is ent)


class TestBratFuzz:
    @HYPOTHESIS
    @given(case=annotated_texts())
    def test_render_parse_round_trip(self, case):
        text, ents, rels = case
        doc = parse_brat(text, render_ann(ents, rels))
        assert [(e.etype, e.start, e.end) for e in doc.gold_entities] == [
            (e.etype, e.start, e.end) for e in ents
        ]
        assert [
            (r.rtype, _index(doc.gold_entities, r.arg1), _index(doc.gold_entities, r.arg2))
            for r in doc.gold_relations
        ] == [(r.rtype, _index(ents, r.arg1), _index(ents, r.arg2)) for r in rels]

    @HYPOTHESIS
    @given(case=annotated_texts())
    def test_offsets_slice_the_text(self, case):
        text, ents, rels = case
        doc = parse_brat(text, render_ann(ents, rels))
        assert all(e.surface == doc.text[e.start:e.end] for e in doc.gold_entities)
        assert [e.surface for e in doc.gold_entities] == [e.surface for e in ents]

    @HYPOTHESIS
    @given(case=annotated_texts(), pick=st.integers(0, 10**6), how=st.integers(0, 5))
    def test_corrupted_line_is_named(self, case, pick, how):
        text, ents, rels = case
        lines = render_ann(ents, rels).split("\n")[:-1]
        k = pick % len(lines)
        if k < len(ents):  # "T<i>\t<type> <start> <end>\t<surface>"
            tag, header, surface = lines[k].split("\t", 2)
            etype, start, _ = header.split(" ")
            lines[k] = [
                tag,
                f"{tag}\t{etype}\t{surface}",
                f"{tag}\tGadget {header.split(' ', 1)[1]}\t{surface}",
                f"{tag}\t{etype} {start} x\t{surface}",
                f"{tag}\t{etype} {start}\t{surface}",
                f"{tag}\t{etype} {start} {len(text) + 1}\t{surface}",
            ][how]
        else:  # "R<j>\t<type> Arg1:T<a> Arg2:T<d>"
            tag, header = lines[k].split("\t")
            rtype, arg1, arg2 = header.split(" ")
            lines[k] = [
                tag,
                f"{tag}\tMade-Up {arg1} {arg2}",
                f"{tag}\t{rtype} {arg1}",
                f"{tag}\t{rtype} Arg1:T0 {arg2}",
                f"{tag}\t{rtype} Arg1:{arg2[5:]} Arg2:{arg1[5:]}",
                f"{tag}\t{rtype} {arg1} Arg2:T0",
            ][how]
        with pytest.raises(BratParseError, match=rf"^line {k + 1}: "):
            parse_brat(text, "\n".join(lines) + "\n")
