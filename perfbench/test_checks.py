"""Tests of the benchmark's own checks and tracer.

Each check must pass the program's real output and reject a corrupted
copy of it. Run with: python3 -m pytest perfbench
"""

import csv
import json
import shutil

import pytest

import checks
import layertrace
import run
from workloads import ROOT, WORKLOADS, import_program, make_config

dm = import_program()


def _small(name, T):
    raw = make_config(WORKLOADS[name], seed=3)
    raw["T"] = T
    raw["seeds"] = raw["seeds"][:2]
    return raw


@pytest.fixture(scope="module", params=[("page_offline", 120), ("storm_online", 200)],
                ids=lambda p: p[0])
def real(request, tmp_path_factory):
    name, T = request.param
    raw = _small(name, T)
    result = dm.run_experiment(dm.config_from_dict(raw))
    out = tmp_path_factory.mktemp(name) / "out"
    dm.write_outputs(result, out)
    expected = checks.Expected.from_run(
        raw, result.problem, check_decay=WORKLOADS[name].check_decay)
    return out, expected


def _corrupt(real, tmp_path, edit):
    """A copy of the real output whose first seed's rows went through edit."""
    out, expected = real
    copy = tmp_path / "corrupt"
    shutil.copytree(out, copy)
    path = copy / f"seed_{expected.seeds[0]}.csv"
    rows = checks.read_rows(path)
    summary = json.loads((copy / "summary.json").read_text())
    edit(rows, summary)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return checks.check_outputs(copy, expected)


def test_real_output_passes(real):
    report = checks.check_outputs(*real)
    assert report.ok, report.describe()


def test_changed_samples_step_rejected(real, tmp_path):
    def edit(rows, summary):
        for r in rows[7:]:
            r["samples_used"] = str(int(r["samples_used"]) + 1)
    report = _corrupt(real, tmp_path, edit)
    assert real[1].seeds[0] in report.seed_faults


def test_consensus_above_bound_rejected(real, tmp_path):
    out, expected = real
    if not expected.diagnostics:
        pytest.skip("the bound needs the ehat columns")

    def edit(rows, summary):
        c = summary["constants"]
        r = rows[9]
        rhs = expected.K * c["v1_sq"] * c["v2_sq"] * (
            float(r["ehat_x_sq"]) + float(r["ehat_y_sq"]))
        r["consensus_sq"] = repr(1.01 * rhs)
    report = _corrupt(real, tmp_path, edit)
    assert expected.seeds[0] in report.seed_faults


def test_perturbed_round0_gradient_rejected(real, tmp_path):
    def edit(rows, summary):
        rows[0]["grad_x_sq"] = repr(float(rows[0]["grad_x_sq"]) * (1 + 1e-8))
    report = _corrupt(real, tmp_path, edit)
    assert real[1].seeds[0] in report.seed_faults


def test_dropped_row_rejected(real, tmp_path):
    def edit(rows, summary):
        del rows[11]
    report = _corrupt(real, tmp_path, edit)
    assert real[1].seeds[0] in report.seed_faults


def test_ring_spectrum_closed_form():
    mixing = dm.mixing_for_topology(dm.Topology(kind="ring", K=12), lazy=True)
    assert abs(checks.lazy_ring_spectrum(12) - mixing.eigvals).max() < 1e-12


def test_tracer_counts_and_restores():
    raw = _small("page_offline", 10)
    before = dm.mixing.eigh_symmetric
    with layertrace.Tracer("decminimax") as tr:
        dm.run_experiment(dm.config_from_dict(raw))
    assert dm.mixing.eigh_symmetric is before
    assert tr.count["mixing.eigh_symmetric"] == 2
    assert tr.count["harness.run_experiment"] == 1
    m = layertrace.layer_metrics(tr, seed_rounds=2 * 10)
    assert m["mixing.eig_calls"] == 2
    assert all(v is not None for v in m.values())


def test_tracer_reports_removed_function_absent(monkeypatch):
    monkeypatch.delattr(dm.estimator, "estimator_error")
    raw = _small("storm_online", 10)
    with layertrace.Tracer("decminimax") as tr:
        dm.run_experiment(dm.config_from_dict(raw))
    m = layertrace.layer_metrics(tr, seed_rounds=2 * 10)
    assert "estimator.estimator_error" in tr.absent
    assert m["estimator.error_us_per_seed_round"] is None
    assert m["estimator.update_us_per_seed_round"] > 0


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
