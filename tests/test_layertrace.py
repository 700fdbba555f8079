"""The benchmark's tracer finds every function it wraps.

`perfbench/layertrace.py` replaces functions by module or class attribute,
so a renamed or moved function is silently not traced and its per-layer
row reads 0. These tests read the tracer as it is and fail instead."""

import json
from pathlib import Path

import layertrace
import synth
from jnrf import corpus, tokenizer

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_every_target_is_an_attribute_of_its_owner():
    for owner, attr, name in layertrace.targets():
        assert attr in owner.__dict__, f"{name}: {owner.__name__} has no attribute {attr!r} of its own"
        assert callable(owner.__dict__[attr]), name


def test_traced_prepare_calls_every_prepare_layer():
    per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
    layers = [
        m["name"].removeprefix("prepare.").removesuffix("_s")
        for m in per_layer
        if m["name"].startswith("prepare.") and m["name"].endswith("_s")
    ]
    assert layers, "the benchmark reports no prepare layer"
    c = synth.generate_corpus(synth.CorpusSpec(n_docs=1, len_min=300, len_max=300), 1)
    g = c.docs[0]
    vocab = tokenizer.Vocab(c.vocab)
    originals = {name: getattr(tokenizer, name) for name in ("prepare", "wordpiece_tokenize")}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.span("prepare"):
            tokenizer.prepare(corpus.parse_brat(g.text, g.ann, g.doc_id), vocab)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for layer in layers:
        assert summary.get(("prepare", layer), (0.0, 0))[1] > 0, f"prepare.{layer}_s is never called"
    assert {name: getattr(tokenizer, name) for name in originals} == originals
