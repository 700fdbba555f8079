"""Train-step and prediction cost of every mixer by document length.

    python -m jnrf.bench [--lengths 2048 4096 8192] [--repeats 5] [--out PATH]

For each length n, four cells run the default-config model on
`synthetic_instance(n)`: `fnet` and `mlp`, whose window is null since they
have none, and windowed attention at window 512 and at window = n, full
attention. Each cell runs in a fresh process, so its ru_maxrss is its own:
`predict_instance` first, then one training step (forward and backward, no
Adam), each `--repeats` times, with the median and quartiles of each time
and ru_maxrss after each phase. The training step's reading is the
process's peak, which includes prediction's. Once that is read, one more,
untimed training step is traced with tracemalloc (`step_memory`), in units
of one n x d_model float64 array. The result goes to BENCH_scaling.json at
the repository root, with the BLAS build and the BLAS thread variables the
cells ran under; a variable that is not set runs as "1", one thread.
"""

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from .corpus import ATTRIBUTE_TYPES, bio_label
from .model import JNRF, EncodedInstance, ModelConfig
from .tensor import Tape

OUT = Path(__file__).resolve().parents[2] / "BENCH_scaling.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def synthetic_instance(n: int, rng) -> EncodedInstance:
    """n tokens with entities of 1-3 tokens about every 8 tokens, a third of
    them drugs, each attribute related to a random drug if there is one;
    token ids < 50."""
    spans, labels = [], np.zeros(n, dtype=np.intp)
    pos = 0
    while pos + 12 < n:
        pos += int(rng.integers(3, 12))
        length = int(rng.integers(1, 4))
        etype = "Drug" if rng.random() < 1 / 3 else ATTRIBUTE_TYPES[rng.integers(len(ATTRIBUTE_TYPES))]
        spans.append((pos, pos + length, etype))
        labels[pos] = bio_label(etype, True)
        labels[pos + 1:pos + length] = bio_label(etype, False)
        pos += length
    drugs = [i for i, s in enumerate(spans) if s[2] == "Drug"]
    relations = [(i, drugs[rng.integers(len(drugs))]) for i, s in enumerate(spans) if s[2] != "Drug" and drugs]
    return EncodedInstance(rng.integers(0, 50, n), labels, spans, relations)


def step_memory(model: JNRF, inst: EncodedInstance, table: np.ndarray) -> dict:
    """One training step's memory from tracemalloc, in units of one
    n x d_model float64 array, counted from just before the forward: what is
    live once the forward has returned, the forward's peak, and the peak
    during backward. Fill the program's caches first (one step, taped or
    not), or the forward's figures include them."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with Tape() as tape:
            loss, _, _ = model.instance_losses(inst, table)
        live, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tape.backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
        model.params.zero_grad()
    unit = len(inst.ids) * model.config.d_model * 8
    return {
        "live_units": (live - before) / unit,
        "forward_peak_units": (forward_peak - before) / unit,
        "backward_peak_units": (backward_peak - before) / unit,
    }


def run_cell(mixer: str, n: int, window: int | None, repeats: int) -> dict:
    """One cell in this process: each phase's times in seconds and this
    process's ru_maxrss in MB once the phase is done, then the training
    step's `step_memory`. `window` is None for a mixer without one."""
    cfg = ModelConfig(mixer=mixer) if window is None else ModelConfig(mixer=mixer, window=window)
    rng = np.random.default_rng(1)
    inst = synthetic_instance(n, rng)
    table = rng.standard_normal((50, cfg.emb_dim))
    model = JNRF(cfg, seed=0)
    cell = {"mixer": mixer, "n": n, "window": window, "repeats": repeats}
    for phase in ("predict", "train"):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            if phase == "predict":
                model.predict_instance(inst, table)
            else:
                with Tape() as tape:
                    loss, _, _ = model.instance_losses(inst, table)
                tape.backward(loss)
            times.append(time.perf_counter() - start)
            model.params.zero_grad()
        q1, median, q3 = np.percentile(times, [25, 50, 75]).tolist()
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cell[phase] = {"median_s": median, "q1_s": q1, "q3_s": q3, "maxrss_mb": maxrss}
    cell["train"].update(step_memory(model, inst, table))
    return cell


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--lengths", type=int, nargs="+", default=[2048, 4096, 8192])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path, default=OUT)
    ap.add_argument("--cell", nargs=3, metavar=("MIXER", "N", "WINDOW"),
                    help="run one cell in this process and print it as JSON (WINDOW null for fnet and mlp)")
    args = ap.parse_args(argv)
    if args.cell:
        mixer, n, window = args.cell
        print(json.dumps(run_cell(mixer, int(n), json.loads(window), args.repeats)))
        return 0
    threads = {v: os.environ.get(v, "1") for v in THREAD_VARS}
    cells = []
    for n in args.lengths:
        for mixer, window in (("fnet", None), ("mlp", None),
                              ("windowed_attention", 512), ("windowed_attention", n)):
            cell = [mixer, str(n), json.dumps(window)]
            print("cell", *cell, file=sys.stderr, flush=True)
            done = subprocess.run(
                [sys.executable, "-m", "jnrf.bench", "--cell", *cell, "--repeats", str(args.repeats)],
                check=True, stdout=subprocess.PIPE, text=True, env={**os.environ, **threads},
            )
            cells.append(json.loads(done.stdout))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "command": " ".join(["python -m jnrf.bench", *(sys.argv[1:] if argv is None else argv)]),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cells": cells,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
