"""Tests of the benchmark's synthetic corpus generator against the program's
own ingest (`parse_brat` + `prepare`) and evaluation (`build_report`)."""

import random

import pytest

import synth
from jnrf import corpus, evaluation, tokenizer

SPEC = synth.CorpusSpec(n_docs=5, len_min=150, len_max=600)


def _prepared(c: synth.Corpus):
    vocab = tokenizer.Vocab(c.vocab)
    return [tokenizer.prepare(corpus.parse_brat(g.text, g.ann, g.doc_id), vocab) for g in c.docs]


def test_same_seed_gives_identical_bytes():
    a, b = synth.generate_corpus(SPEC, 7), synth.generate_corpus(SPEC, 7)
    assert a.vocab == b.vocab
    assert [(g.text, g.ann) for g in a.docs] == [(g.text, g.ann) for g in b.docs]
    c = synth.generate_corpus(SPEC, 8)
    assert [g.text for g in a.docs] != [g.text for g in c.docs]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_documents_parse_and_align_as_generated(seed):
    c = synth.generate_corpus(SPEC, seed)
    for g, doc in zip(c.docs, _prepared(c)):
        assert len(doc.tokens) == g.n_tokens
        assert doc.sentence_starts == g.sentence_starts
        assert [(e.etype, e.start, e.end) for e in doc.gold_entities] == [
            (e.etype, e.start, e.end) for e in g.entities
        ]
        assert len(doc.gold_relations) == len(g.relations)
        assert len(doc.entity_token_spans) == len(g.entities)


def test_tokenizer_splits_words_and_falls_back_to_unk():
    c = synth.generate_corpus(SPEC, 3)
    surfaces = [t.surface for doc in _prepared(c) for t in doc.tokens]
    assert sum(s.startswith("##") for s in surfaces) > 0.01 * len(surfaces)
    assert sum(s == synth.UNK for s in surfaces) > 0.01 * len(surfaces)


def test_lengths_are_stratified_with_a_constant_total():
    for seed in range(5):
        lengths = synth.stratified_lengths(random.Random(seed), 4, 4097, 8191)
        assert sum(lengths) == 2 * (4097 + 8191)
        assert all(4097 <= n <= 8191 for n in lengths)
    assert synth.stratified_lengths(random.Random(0), 3, 100, 200).count(150) == 1


def test_density_and_distance_profile_follow_the_parameters():
    spec = synth.CorpusSpec(n_docs=6, len_min=400, len_max=800, entity_density=20.0,
                            distance_profile=((0, 0.5), (-1, 0.5)))
    c = synth.generate_corpus(spec, 4)
    docs = _prepared(c)
    tokens = sum(len(d.tokens) for d in docs)
    entities = sum(len(d.gold_entities) for d in docs)
    assert 15.0 < 100.0 * entities / tokens < 25.0
    dists = [evaluation.sentence_distance(r, d) for d in docs for r in d.gold_relations]
    assert set(dists) <= {0, -1}
    assert 0.35 < dists.count(0) / len(dists) < 0.65


@pytest.mark.parametrize("seed", [0, 5])
def test_noisy_prediction_counts_match_build_report(seed):
    c = synth.generate_corpus(SPEC, seed)
    docs = _prepared(c)
    rng = random.Random(seed)
    pred_docs, ner, e2e = [], [0, 0, 0], [0, 0, 0]
    for g, doc in zip(c.docs, docs):
        p = synth.noisy_prediction(rng, g)
        ents = [corpus.EntitySpan(f"T{i}", t, s, e, doc.text[s:e]) for i, (t, s, e) in enumerate(p.entities)]
        rels = [corpus.Relation(rt, ents[a], ents[d]) for rt, a, d in p.relations]
        pred_docs.append(evaluation.PredictedDoc(doc.doc_id, ents, rels))
        ner = [x + y for x, y in zip(ner, p.ner)]
        e2e = [x + y for x, y in zip(e2e, p.e2e)]
    report = evaluation.build_report(pred_docs, docs)
    assert [report.ner.tp, report.ner.fp, report.ner.fn] == ner
    assert [report.e2e.tp, report.e2e.fp, report.e2e.fn] == e2e
    assert min(ner) > 0 and min(e2e) > 0  # every kind of edit happened
