"""Outside-in layer tracing for the benchmark.

`Tracer.install` replaces module attributes and class methods of the `jnrf`
package with timing wrappers; `uninstall` puts the originals back. Nothing
under `src/` changes: a call is traced only when the caller looks the name up
at call time (`T.gelu(...)`, `fourier.mix_real2d(...)`, `self.encode(...)`),
which is how every target below is called inside the package.

Spans are kept in memory as parallel lists (name, start, end, parent). A
span's self time is its duration minus the durations of its direct children;
spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def targets():
    """(owner, attribute, span name) for every traced function."""
    import jnrf.corpus as corpus
    import jnrf.evaluation as evaluation
    import jnrf.fourier as fourier
    import jnrf.mixers as mixers
    import jnrf.model as model
    import jnrf.tensor as tensor
    import jnrf.tokenizer as tokenizer
    import jnrf.training as training

    return [
        (corpus, "parse_brat", "corpus.parse_brat"),
        (tokenizer, "prepare", "tokenizer.prepare"),
        (tokenizer, "wordpiece_tokenize", "tokenizer.wordpiece_tokenize"),
        (tokenizer, "split_sentences", "tokenizer.split_sentences"),
        (tokenizer, "align_bio", "tokenizer.align_bio"),
        (training, "train", "training.train"),
        (training, "adam_step", "training.adam_step"),
        (training, "encode_document", "model.encode_document"),
        (model, "encode_document", "model.encode_document"),
        (model, "embed", "embedding.embed"),  # the model module's own reference
        (model.JNRF, "encode", "model.encode"),
        (model.JNRF, "ner_head", "model.ner_head"),
        (model.JNRF, "re_embed", "model.re_embed"),
        (model.JNRF, "relation_scores", "model.relation_scores"),
        (model.JNRF, "instance_losses", "model.instance_losses"),
        (model.JNRF, "predict_instance", "model.predict_instance"),
        (model, "selective_pool", "model.selective_pool"),
        (model, "ner_loss", "model.losses"),
        (model, "re_loss", "model.losses"),
        (model, "build_relation_targets", "model.losses"),
        (model, "decode_bio", "model.decode_bio"),
        (model, "predict_relations", "model.predict_relations"),
        (model, "predictions_to_brat", "model.predictions_to_brat"),
        (mixers, "fnet_block", "mixers.fnet_block"),
        (mixers, "windowed_attention_block", "mixers.windowed_attention_block"),
        (fourier, "mix_real2d", "fourier.mix_real2d"),
        (tensor, "gelu", "tensor.gelu"),
        (tensor, "matmul", "tensor.matmul"),
        (tensor, "layer_norm_rows", "tensor.layer_norm_rows"),
        (tensor, "softmax_rows", "tensor.softmax_rows"),
        (tensor.Tape, "backward", "tensor.backward"),
        (evaluation, "build_report", "evaluation.build_report"),
        (evaluation, "match_entities", "evaluation.match_entities"),
        (evaluation, "match_relations", "evaluation.match_relations"),
        (evaluation, "sentence_distance", "evaluation.sentence_distance"),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # per tape at backward: (node count, bytes held by node outputs)
        self.tapes: list[tuple[int, int]] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_backward(self, fn):
        timed = self.wrap(fn, "tensor.backward")

        def backward(tape, loss):
            # counted under a span of its own so the scan is not charged
            # to the caller's self time
            with self.span("trace.tape_count"):
                nodes = tape.nodes
                self.tapes.append((len(nodes), sum(out.data.nbytes for out, _, _ in nodes)))
            return timed(tape, loss)

        return backward

    def install(self):
        for owner, attr, name in targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if name == "tensor.backward":
                setattr(owner, attr, self._wrap_backward(original))
            else:
                setattr(owner, attr, self.wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[tuple[str, str], list]:
        """{(root span name, span name): [summed self seconds, call count]}."""
        n = len(self.names)
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
                root[i] = root[p]
            else:
                root[i] = i
        out: dict[tuple[str, str], list] = {}
        for i in range(n):
            entry = out.setdefault((self.names[root[i]], self.names[i]), [0.0, 0])
            entry[0] += (self.ends[i] - self.starts[i]) - child[i]
            entry[1] += 1
        return out
