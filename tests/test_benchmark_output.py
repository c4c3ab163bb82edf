"""perfbench/run.py ends with one JSON result line that a reader of the
benchmark can parse: a short run of the online STORM workload, of the
offline PAGE workload (full-batch refreshes, beta = 0 recursions that
draw no minibatch, transform diagnostics) and of the K=96 ring
(transform diagnostics over 95 modes), untraced and traced, must exit 0
and print it, with every metric finite.
The untraced line is the one compared between revisions, so it must hold
every end-to-end metric; the traced line must hold every per-layer metric
that BENCHMARK.json declares, so a traced function that is renamed or
removed cannot drop its metric without an error. The run writes only
under perfbench/out/."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {"seed_rounds_per_s", "setup_s", "cpu_s", "peak_rss_mb"}
PER_LAYER = {m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("workload, trace", [
    pytest.param("storm_online", 0, id="untraced"),
    pytest.param("storm_online", 1, id="traced"),
    pytest.param("page_offline", 0, id="page_offline-untraced"),
    pytest.param("page_offline", 1, id="page_offline-traced"),
    pytest.param("wide_ring", 0, id="wide_ring-untraced"),
    pytest.param("wide_ring", 1, id="wide_ring-traced"),
])
def test_run_ends_with_a_result_line(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines, done.stderr
    result = json.loads(lines[-1], parse_constant=reject_constant)
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr
    metrics = result["metrics"]
    for name, metric in metrics.items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            name, value)
    if trace:
        assert PER_LAYER, "BENCHMARK.json declares no per-layer metric"
        assert PER_LAYER <= metrics.keys(), sorted(PER_LAYER - metrics.keys())
    else:
        assert END_TO_END <= metrics.keys(), sorted(metrics)
