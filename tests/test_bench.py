import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from jnrf.bench import synthetic_instance

SRC = Path(__file__).resolve().parents[1] / "src"


def test_a_tiny_run_writes_every_key(tmp_path):
    """`python -m jnrf.bench` on one short length: an `fnet` and an `mlp`
    cell with no window, and attention cells at window 512 and at window =
    n, each from its own process, then the file. The encoder is timed
    apart, and prediction counts the spans it decodes, drugs and
    attributes. The training step's memory is in n x d_model units: what is
    live after the forward is part of both peaks."""
    out = tmp_path / "bench.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-m", "jnrf.bench", "--lengths", "40", "--repeats", "2", "--out", str(out)],
        check=True, capture_output=True, env=env,
    )
    record = json.loads(out.read_text())
    assert sorted(record) == ["blas", "cells", "command", "cpus", "machine", "numpy", "python", "threads"]
    assert record["blas"]["name"] and record["threads"]["OPENBLAS_NUM_THREADS"]
    assert [(c["mixer"], c["n"], c["window"]) for c in record["cells"]] == [
        ("fnet", 40, None), ("mlp", 40, None), ("windowed_attention", 40, 512), ("windowed_attention", 40, 40),
    ]
    for cell in record["cells"]:
        assert cell["repeats"] == 2
        for phase in ("encode", "predict", "train"):
            t = cell[phase]
            assert 0 < t["q1_s"] <= t["median_s"] <= t["q3_s"]
            assert t["maxrss_mb"] > 0
        assert cell["train"]["maxrss_mb"] >= cell["predict"]["maxrss_mb"] >= cell["encode"]["maxrss_mb"]
        predict = cell["predict"]
        assert predict["spans"] == predict["drugs"] + predict["attributes"] >= 0
        assert sorted(cell) == ["encode", "mixer", "n", "predict", "repeats", "train", "window"]
        assert sorted(predict) == ["attributes", "drugs", "maxrss_mb", "median_s", "q1_s", "q3_s", "spans"]
        memory = [cell["train"][f"{key}_units"] for key in ("live", "forward_peak", "backward_peak")]
        live, forward_peak, backward_peak = memory
        assert 0 < live <= forward_peak and live <= backward_peak, memory


def test_every_short_instance_builds():
    """At seed 1, lengths 13 to 21 draw an attribute and no drug: such an
    instance builds with no relation. Every relation joins an attribute to
    a drug."""
    drugless = 0
    for n in range(1, 65):
        inst = synthetic_instance(n, np.random.default_rng(1))
        types = [etype for _, _, etype in inst.spans]
        assert len(inst.ids) == len(inst.labels) == n
        drugless += "Drug" not in types and len(types) > 0
        for attr, drug in inst.relations:
            assert types[drug] == "Drug" and types[attr] != "Drug", (n, attr, drug)
    assert drugless > 0
