"""The scripts in scripts/ run from a bare checkout with PYTHONPATH=src and
print one row per round budget or strategy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from decminimax import StrategyKind

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("name, args, first_cells", [
    ("rate_scaling.py", ("--budgets", "20,40", "--K", "4", "--seeds", "2"),
     ["20", "40"]),
    ("compare_strategies.py", ("--T", "20", "--K", "4", "--seeds", "2"),
     [kind.value for kind in StrategyKind]),
], ids=["rate_scaling", "compare_strategies"])
def test_script_runs_at_a_tiny_size(name, args, first_cells):
    lines = run_script(name, *args)
    rows = lines[-len(first_cells):]
    assert [row.split()[0] for row in rows] == first_cells, lines
    for row in rows:
        assert all(cell != "nan" for cell in row.split()), row
