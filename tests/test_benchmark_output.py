"""perfbench/run.py ends with one JSON result line that a reader of the
benchmark can parse: a short traced run of the smallest workload must
exit 0 and print it, with every metric finite. The run writes only under
perfbench/out/."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_traced_run_ends_with_a_result_line():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "storm_online", "--seconds", "0.1", "--trace", "1"],
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
    assert {"mixing.build_s", "problems.self_s"} <= metrics.keys(), sorted(metrics)
