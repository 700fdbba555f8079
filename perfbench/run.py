"""JNRF end-to-end benchmark: BRAT ingest, one training epoch, prediction
and the evaluation report, on seeded synthetic workloads.

    python3 perfbench/run.py --workload long_fnet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from anywhere in a checkout of the repository: the program is imported
from the checkout's `src/`. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. The full
result, with the facts that identify the input and an environment record, is
written to `perfbench/out/`. README.md lists the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from process start

import os  # noqa: E402
import sys  # noqa: E402

# One process with BLAS pinned to one thread. numpy reads these when it is
# first imported, which must come after this point.
THREAD_VARS = {
    v: "1"
    for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import synth  # noqa: E402  (pure Python; does not import numpy)


@dataclass(frozen=True)
class Workload:
    corpus: synth.CorpusSpec
    config: str  # RunConfig text; `epochs = 1` is added


# The RunConfig seed stays at its default, so the model's initial weights,
# the embedding table and the training order are the same on every workload
# seed: an untrained model's span count, and with it the cost of relation
# scoring at prediction, swings by several times between weight seeds.
# Three documents, an antithetic length pair and one of mid length: 18432
# tokens on every seed, each padded to 8192 by the Fourier mixer.
LONG_DOCS = synth.CorpusSpec(n_docs=3, len_min=4097, len_max=8191)
WORKLOADS = {
    # the paper's regime: whole long documents through the Fourier mixer
    "long_fnet": Workload(LONG_DOCS, "mixer = fnet\ngranularity = document\n"),
    # the paper's baseline on the same documents; never calls the FFT
    "long_attn": Workload(
        LONG_DOCS, "mixer = windowed_attention\nwindow = 512\ngranularity = document\n"
    ),
}

# Share of --seconds each phase is repeated for; every phase runs at least
# MIN_REPS times. Every phase is timed per document, and a phase's time is
# the sum over documents of each one's fastest repetition. On the shared
# 2-core VM this benchmark was tuned on, each CPU ran the pure-Python object
# loops of prepare and eval at one of two speeds, 2x apart, switching every
# few seconds and independently of the other CPU (a 4631-token prepare took
# about 0.10 s or 0.20 s), while a process left to the scheduler could stay
# on a slow CPU for a whole run. So a phase's repetitions alternate between
# the CPUs the process may use, and prepare and eval, the phases that swing
# most, get the larger shares; at 40 s train and predict run about MIN_REPS
# times on long_fnet.
PHASE_SHARE = {"prepare": 0.36, "train": 0.22, "predict": 0.18, "eval": 0.24}
MIN_REPS = 3
SETUP_SAMPLES = 3  # this process plus two fresh child processes
MAX_TRACE_PAIRS = 4

END_TO_END = {
    "setup_s": "s",
    "prepare_tokens_per_s": "tok/s",
    "train_tokens_per_s": "tok/s",
    "predict_tokens_per_s": "tok/s",
    "eval_relations_per_s": "rel/s",
    "peak_rss_mb": "MB",
}

# Traced self time per phase, reported as "<phase>.<layer>_s".
LAYERS = {
    "prepare": (
        "corpus.parse_brat", "tokenizer.wordpiece_tokenize",
        "tokenizer.split_sentences", "tokenizer.align_bio",
    ),
    "train": (
        "training.train", "model.encode_document",
        "model.instance_losses", "embedding.embed", "model.encode",
        "mixers.fnet_block", "mixers.windowed_attention_block", "fourier.mix_real2d",
        "tensor.gelu", "tensor.matmul", "tensor.layer_norm_rows", "tensor.softmax_rows",
        "tensor.backward", "model.ner_head", "model.re_embed", "model.selective_pool",
        "model.relation_scores", "model.losses", "training.adam_step",
    ),
    "predict": (
        "model.encode_document", "model.predict_instance", "embedding.embed",
        "model.encode", "mixers.fnet_block", "mixers.windowed_attention_block",
        "fourier.mix_real2d", "tensor.gelu", "tensor.matmul", "tensor.layer_norm_rows",
        "tensor.softmax_rows", "model.ner_head", "model.re_embed",
        "model.selective_pool", "model.relation_scores", "model.decode_bio",
        "model.predict_relations", "model.predictions_to_brat",
    ),
    "eval": (
        "evaluation.build_report", "evaluation.match_entities",
        "evaluation.match_relations", "evaluation.sentence_distance",
    ),
}
LAYER_COUNTS = {
    "train.training.adam_steps": "count",
    "train.tensor.tape_nodes": "count",
    "train.tensor.tape_mb": "MB",
    "instrument.mults_per_token_train": "count",
    "instrument.mults_per_token_predict": "count",
    **{f"trace.overhead_{phase}": "ratio" for phase in PHASE_SHARE},
}
NOT_CALLED = {
    "fourier.mix_real2d": "the windowed_attention mixer never calls the Fourier transform",
    "mixers.fnet_block": "this workload's mixer is windowed_attention",
    "mixers.windowed_attention_block": "this workload's mixer is fnet",
    "tensor.softmax_rows": "only the attention mixer calls softmax_rows",
    "model.relation_scores": "no predicted drug and attribute spans to pair",
    "model.predict_relations": "no predicted drug and attribute spans to pair",
}
MIB = 2.0 ** 20


def import_program():
    """Import the package from the checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "jnrf" / "__init__.py").is_file():
        sys.exit(f"run.py: no program source at {src / 'jnrf'}; run inside a checkout")
    sys.path.insert(0, str(src))
    global np, config, corpus, embedding, evaluation, instrument, M, tensor, tokenizer, training
    import numpy as np
    from jnrf import config, corpus, embedding, evaluation, instrument, tensor, tokenizer, training
    from jnrf import model as M


def signature(predicted):
    """Comparable form of [(entities, relations)] per document."""
    return [
        (
            [(e.etype, e.start, e.end) for e in ents],
            [(r.rtype, r.arg1.start, r.arg1.end, r.arg2.start, r.arg2.end) for r in rels],
        )
        for ents, rels in predicted
    ]


class Bench:
    """One workload at one seed: inputs, set-up, phases and their checks."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        w = WORKLOADS[name]
        t = time.perf_counter()
        self.gen = synth.generate_corpus(w.corpus, seed)
        self.config_text = w.config + "epochs = 1\n"
        self.gen_s = time.perf_counter() - t
        self.attempted = 0
        self.failures: list[str] = []
        self.facts: dict = {}

    # -- bookkeeping ------------------------------------------------------

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Config, vocabulary, embedding table, model, and one untimed
        warm-up step and predict on the longest document, which fill the
        program's lazy caches. Returns its seconds."""
        t = time.perf_counter()
        self.cfg = config.parse_config_text(self.config_text)
        self.vocab = tokenizer.Vocab(self.gen.vocab)
        self.table = embedding.random_table(self.vocab, self.cfg.emb_dim, self.cfg.seed)
        self.model = M.JNRF(M.ModelConfig.from_run_config(self.cfg), seed=self.cfg.seed)
        longest = max(self.gen.docs, key=lambda g: g.n_tokens)
        doc = tokenizer.prepare(corpus.parse_brat(longest.text, longest.ann, longest.doc_id), self.vocab)
        inst = M.encode_document(doc)
        with tensor.Tape() as tape:
            loss, _, _ = self.model.instance_losses(inst, self.table)
            tape.backward(loss)
        self.model.params.zero_grad()
        self.model.predict_instance(inst, self.table)
        self.initial = {n: p.data.copy() for n, p in self.model.params.items()}
        return time.perf_counter() - t

    # -- phases: each appends the seconds of each document to `ops` and
    # -- returns its output; checks are separate and untimed --------------

    def prepare(self, ops: list):
        docs = []
        for g in self.gen.docs:
            t = time.perf_counter()
            doc = corpus.parse_brat(g.text, g.ann, g.doc_id)
            tokenizer.prepare(doc, self.vocab)
            ops.append(time.perf_counter() - t)
            docs.append(doc)
        return docs

    def restore_weights(self):
        for n, p in self.model.params.items():
            p.data[...] = self.initial[n]

    def train(self, ops: list):
        """One epoch of `training.train` per document, each from the initial
        weights, which are restored again at the end so that prediction
        never depends on training."""
        results = []
        for doc in self.docs:
            self.restore_weights()
            t = time.perf_counter()
            results.append(training.train(self.model, self.table, [doc], [], self.cfg))
            ops.append(time.perf_counter() - t)
        self.restore_weights()
        return results

    def predict(self, ops: list):
        out = []
        for doc in self.docs:
            t = time.perf_counter()
            spans, rels = self.model.predict_instance(M.encode_document(doc), self.table)
            out.append(M.predictions_to_brat(doc, spans, rels))
            ops.append(time.perf_counter() - t)
        return out

    def eval(self, ops: list):
        reports = []
        for pred, doc in zip(self.noisy, self.docs):
            t = time.perf_counter()
            reports.append(evaluation.build_report([pred], [doc]))
            ops.append(time.perf_counter() - t)
        return reports

    # -- checks -----------------------------------------------------------

    def check_prepare(self, docs):
        for g, doc in zip(self.gen.docs, docs):
            self.op(
                len(doc.tokens) == g.n_tokens
                and doc.sentence_starts == g.sentence_starts
                and len(doc.gold_entities) == len(g.entities)
                and len(doc.gold_relations) == len(g.relations),
                f"prepare {g.doc_id}: tokens, sentences or annotations differ from the generator's",
            )

    def check_train(self, results):
        losses = [h.train_loss for r in results for h in r.history]
        loss_sum = sum(losses)
        first = self.facts.setdefault("loss_sum", loss_sum)
        self.op(
            all(math.isfinite(x) for x in losses) and loss_sum == first,
            f"train: loss sum {loss_sum!r} is not finite or differs from the first repetition's {first!r}",
        )

    def check_predict(self, predicted):
        sig = signature(predicted)
        if "predicted" not in self.facts:
            self.facts["predicted"] = sig
            self.facts["predicted_spans"] = sum(len(e) for e, _ in sig)
            self.facts["predicted_relations"] = sum(len(r) for _, r in sig)
            for doc, (ents, rels), want in zip(self.docs, predicted, sig):
                try:
                    back = corpus.parse_brat(doc.text, corpus.render_ann(ents, rels), doc.doc_id)
                    got = signature([(back.gold_entities, back.gold_relations)])[0]
                except corpus.BratParseError as exc:
                    got = str(exc)
                self.op(got == want, f"predict {doc.doc_id}: render_ann -> parse_brat changed the prediction")
        else:
            for doc, got, want in zip(self.docs, sig, self.facts["predicted"]):
                self.op(got == want, f"predict {doc.doc_id}: prediction differs between repetitions")

    def check_eval(self, reports):
        for doc, r, want in zip(self.docs, reports, self.expected):
            got = (r.ner.tp, r.ner.fp, r.ner.fn, r.e2e.tp, r.e2e.fp, r.e2e.fn)
            self.op(got == want, f"eval {doc.doc_id}: counts {got} != injected {want}")

    def make_eval_inputs(self):
        """Seeded noisy predictions from the gold annotation, and the check
        that the gold annotation scores exactly 1.0 against itself."""
        rng = random.Random(self.seed + 1_000_003)
        self.noisy, self.expected = [], []
        for g, doc in zip(self.gen.docs, self.docs):
            p = synth.noisy_prediction(rng, g)
            ents = [corpus.EntitySpan(f"T{i}", t, s, e, doc.text[s:e]) for i, (t, s, e) in enumerate(p.entities, 1)]
            rels = [corpus.Relation(rt, ents[a], ents[d]) for rt, a, d in p.relations]
            self.noisy.append(evaluation.PredictedDoc(doc.doc_id, ents, rels))
            self.expected.append(p.ner + p.e2e)
        gold = [evaluation.PredictedDoc(d.doc_id, d.gold_entities, d.gold_relations) for d in self.docs]
        report = evaluation.build_report(gold, self.docs)
        self.op(report.ner.f1 == 1.0 and report.e2e.f1 == 1.0, "eval: gold against gold is not F1 1.0")

    def record_facts(self):
        docs = self.docs
        dist: dict[int, int] = {}
        for d in docs:
            for r in d.gold_relations:
                k = evaluation.sentence_distance(r, d)
                dist[k] = dist.get(k, 0) + 1
        self.facts.update(
            documents=len(docs),
            doc_tokens=[len(d.tokens) for d in docs],
            tokens=sum(len(d.tokens) for d in docs),
            entities=sum(len(d.gold_entities) for d in docs),
            gold_relations=sum(len(d.gold_relations) for d in docs),
            relations_by_sentence_distance={str(k): v for k, v in sorted(dist.items())},
            train_instances=len(docs),  # document granularity
            vocab_size=len(self.vocab),
        )

    # -- driving ----------------------------------------------------------

    def first_pass(self):
        """Untimed first prepare that the other phases and checks build on."""
        self.docs = self.prepare([])
        self.check_prepare(self.docs)
        self.record_facts()
        self.make_eval_inputs()

    def run_phase(self, phase: str, tracer=None):
        """One repetition of a phase, then its checks. Returns the seconds of
        each op (one per document) and the multiplies counted. With a tracer,
        the phase runs under a root span named after it."""
        gc.collect()
        run = getattr(self, phase)
        ops: list[float] = []
        m0 = instrument.COUNTER.total
        if tracer is None:
            out = run(ops)
        else:
            with tracer.span(phase):
                out = run(ops)
        mults = instrument.COUNTER.total - m0
        getattr(self, f"check_{phase}")(out)
        return ops, mults

    def measure(self, seconds: float) -> dict[str, list[list[float]]]:
        """Repeat the phases interleaved, each time running the phase that
        is furthest below its share of the time so far, until `seconds` have
        passed; after that, only phases with fewer than MIN_REPS
        repetitions run, until none is left. Interleaving spreads each
        phase's repetitions over the whole run and, with the alternation of
        CPUs, over many spells of each CPU."""
        cpus = sorted(os.sched_getaffinity(0))
        times: dict[str, list[list[float]]] = {p: [] for p in PHASE_SHARE}
        spent = dict.fromkeys(PHASE_SHARE, 0.0)
        until = time.perf_counter() + seconds
        try:
            while True:
                due = list(PHASE_SHARE)
                if time.perf_counter() >= until:
                    due = [p for p in due if len(times[p]) < MIN_REPS]
                    if not due:
                        break
                phase = min(due, key=lambda p: (spent[p] / PHASE_SHARE[p], len(times[p])))
                os.sched_setaffinity(0, {cpus[len(times[phase]) % len(cpus)]})
                ops = self.run_phase(phase)[0]
                times[phase].append(ops)
                spent[phase] += sum(ops)
        finally:
            os.sched_setaffinity(0, cpus)
        return times


def phase_seconds(reps: list[list[float]]) -> float:
    """Sum over a phase's ops of each op's fastest repetition."""
    return sum(min(op) for op in zip(*reps))


def end_to_end(bench: Bench, setup_samples: list[float], times) -> dict:
    tokens, relations = bench.facts["tokens"], bench.facts["gold_relations"]
    work = {"prepare": tokens, "train": tokens, "predict": tokens, "eval": relations}
    rate = {p: work[p] / phase_seconds(reps) for p, reps in times.items()}
    values = {
        "setup_s": statistics.median(setup_samples),
        "prepare_tokens_per_s": rate["prepare"],
        "train_tokens_per_s": rate["train"],
        "predict_tokens_per_s": rate["predict"],
        "eval_relations_per_s": rate["eval"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_run(bench: Bench, seconds: float):
    """Repeat pairs of passes over the four phases for `seconds` (at least
    one pair, at most MAX_TRACE_PAIRS), each pair pinned to the next CPU.
    In a pair every phase runs untraced and traced back to back, untraced
    first in even pairs and traced first in odd ones, since the second of
    two like runs starts with warmer caches. For each phase the fastest
    traced repetition gives the per-layer self times, and the overhead is
    the median over pairs of traced over untraced time, minus 1. Returns the per-layer metrics, notes, and detail for the result
    file."""
    from layertrace import Tracer

    cpus = sorted(os.sched_getaffinity(0))
    ratios: dict[str, list[float]] = {p: [] for p in PHASE_SHARE}
    passes = []
    until = time.perf_counter() + seconds
    try:
        while not passes or (time.perf_counter() < until and len(passes) < MAX_TRACE_PAIRS):
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            tracer = Tracer()
            traced = {}
            plain_first = len(passes) % 2 == 0
            for phase in PHASE_SHARE:
                if plain_first:
                    plain_ops, plain_mults = bench.run_phase(phase)
                tracer.install()
                try:
                    ops, mults = bench.run_phase(phase, tracer)
                finally:
                    tracer.uninstall()
                if not plain_first:
                    plain_ops, plain_mults = bench.run_phase(phase)
                traced[phase] = (sum(ops), mults, sum(plain_ops))
                ratios[phase].append(sum(ops) / sum(plain_ops))
                bench.op(
                    mults == plain_mults,
                    f"trace: {phase} multiply counts differ between traced and untraced passes",
                )
            passes.append((tracer.summary(), traced, tracer))
    finally:
        os.sched_setaffinity(0, cpus)

    metrics, notes, self_times = {}, [], {}
    best = {}
    for phase, layers in LAYERS.items():
        summary, traced, tracer = best[phase] = min(passes, key=lambda pt: pt[1][phase][0])
        for layer in layers:
            self_s, calls = summary.get((phase, layer), (0.0, 0))
            metrics[f"{phase}.{layer}_s"] = self_s
            if not calls:
                notes.append(f"{phase}.{layer}_s not applicable: {NOT_CALLED.get(layer, 'not called')}")
        self_times.update({f"{root}.{name}": {"self_s": s, "calls": c}
                           for (root, name), (s, c) in sorted(summary.items()) if root == phase})
        overhead = statistics.median(ratios[phase]) - 1.0
        metrics[f"trace.overhead_{phase}"] = overhead
        phase_self = sum(s for (root, _), (s, _) in summary.items() if root == phase)
        notes.append(
            f"{phase}: self times of the fastest traced pass sum to {phase_self:.4f} s; "
            f"the untraced pass of its pair took {traced[phase][2]:.4f} s; median tracing "
            f"overhead over {len(passes)} pairs {100 * overhead:+.1f}%"
        )

    summary, traced, tracer = best["train"]
    nodes = [n for n, _ in tracer.tapes]
    metrics["train.training.adam_steps"] = summary[("train", "training.adam_step")][1]
    metrics["train.tensor.tape_nodes"] = sum(nodes) / len(nodes)
    metrics["train.tensor.tape_mb"] = max(b for _, b in tracer.tapes) / MIB
    metrics["instrument.mults_per_token_train"] = traced["train"][1] / bench.facts["tokens"]
    metrics["instrument.mults_per_token_predict"] = best["predict"][1]["predict"][1] / bench.facts["tokens"]

    units = {**{f"{p}.{layer}_s": "s" for p, ls in LAYERS.items() for layer in ls}, **LAYER_COUNTS}
    result = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    spans = {
        "names": tracer.names,
        "start": tracer.starts,
        "end": tracer.ends,
        "parent": tracer.parents,
    }
    return result, notes, {"self_times": self_times, "train_spans": spans}


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git, or
    'unknown' when the checkout is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def setup_in_children(bench: Bench, args) -> list[float]:
    """Set-up seconds measured in fresh processes, one after another; each
    child is one op."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        bench.op(proc.returncode == 0, f"setup: child exited with {proc.returncode}: {proc.stderr[-300:]}")
        if proc.returncode == 0:
            out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode and not lines:
            sys.stderr.write(proc.stderr)
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<44} {m['value']:>16.6g} {m['unit']}")
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="measure set-up once and print {'setup_s': ...}")
    args = ap.parse_args(argv)

    import_program()
    import_s = time.perf_counter() - _T0
    if args.workload == "all":
        return run_all(args)

    bench = Bench(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": import_s + bench.setup()}))
        return 0

    samples = [] if args.trace else setup_in_children(bench, args)
    samples.append(import_s + bench.setup())
    bench.first_pass()

    notes: list[str] = []
    detail: dict = {}
    if args.trace:
        metrics, notes, detail = traced_run(bench, args.seconds)
    else:
        times = bench.measure(args.seconds)
        metrics = end_to_end(bench, samples, times)
        detail = {"setup_samples_s": samples, "rep_seconds": times}
    facts = {k: v for k, v in bench.facts.items() if k != "predicted"}
    env = environment(args.workload, args.seed)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    full = {**result, "failures": bench.failures, "facts": facts, "environment": env,
            "config": bench.config_text, "generation_s": bench.gen_s, "notes": notes, **detail}
    path.write_text(json.dumps(full, indent=1) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"facts: {json.dumps(facts)}")
    for line in notes:
        print(f"note: {line}")
    for msg in bench.failures[:20]:
        print(f"FAILED: {msg}")
    for k, m in metrics.items():
        print(f"{k:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"full result: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
