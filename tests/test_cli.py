import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from decminimax import cli, harness
from decminimax.schedules import ScheduleMode, ScheduleSpec, schedule_for_mode

from conftest import MINIMAL

CONFIG = dict(MINIMAL, T=5)


def write_config(tmp_path, raw):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def run_in_subprocess(tmp_path, raw, timeout=60, env=()):
    """`decminimax run` of raw in a fresh interpreter, its outputs under
    tmp_path/out, so stderr holds every warning the run prints; env holds
    (name, value) pairs set in its environment."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "decminimax.cli", "run", "--config",
         write_config(tmp_path, raw), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src), **dict(env)},
        capture_output=True, text=True, timeout=timeout)


def test_run_writes_outputs_and_prints_paths(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", write_config(tmp_path, CONFIG),
                     "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.split()
    names = ["seed_0.csv", "seed_1.csv", "summary.json", "config.resolved.json"]
    assert printed == [str(out / name) for name in names]
    assert all((out / name).is_file() for name in names)


def test_run_names_binding_condition_on_stderr(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, CONFIG),
                     "--out", str(out)]) == 0
    captured = capsys.readouterr()
    # standard output is still the file list alone
    assert len(captured.out.split()) == 4
    assert captured.err == \
        "binding condition: beta_bar <= nu mu_y / 2 (margin 0.019284)\n"
    conditions = json.loads((out / "summary.json").read_text())[
        "schedule"]["conditions"]["conditions"]
    margins = {c["name"]: c["margin"] for c in conditions}
    # beta = 0 gives "beta <= 1" an infinite margin, written as null and
    # passed over; the named one is the smallest of the rest
    assert margins["beta <= 1"] is None
    finite = [m for m in margins.values() if m is not None]
    assert margins["beta_bar <= nu mu_y / 2"] == min(finite)
    assert sorted(finite)[1] > min(finite)


def test_bad_config_exits_2_without_traceback(tmp_path, capsys):
    path = write_config(tmp_path, dict(CONFIG, T=0))
    assert cli.main(["run", "--config", path, "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'T' must be >= 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # exact diffusion on a mixing matrix that is not PSD
    path = write_config(tmp_path, dict(CONFIG, topology={
        "kind": "ring", "K": 4, "lazy": False}))
    assert cli.main(["run", "--config", path, "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ed needs a PSD mixing matrix")
    # a config file that is missing or malformed, a dotted key through a
    # value that is not a mapping
    missing = str(tmp_path / "missing.yaml")
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("T: [1,")
    out = str(tmp_path / "out")
    for argv in (["run", "--config", missing, "--out", out],
                 ["sweep", "--config", missing, "--vary", "T=5", "--out", out],
                 ["sweep", "--config", str(malformed), "--vary", "T=5",
                  "--out", out],
                 ["sweep", "--config", write_config(tmp_path, CONFIG),
                  "--vary", "T.x=5", "--out", out]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
    assert not (tmp_path / "out").exists()
    # a preset that needs N, given none
    assert cli.main(["schedule", "--mode", "page_offline", "--T", "100",
                     "--K", "4"]) == 2
    err = capsys.readouterr().err
    assert err == "error: page_offline needs the local sample count N\n"


def test_oversized_round_budget_exits_2_before_any_seed_runs(
        tmp_path, capsys, monkeypatch):
    """A T whose metric columns numpy cannot index is rejected at set-up,
    allocating nothing, in a run and in a sweep."""
    def no_run(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(harness, "run_and_measure", no_run)
    out = tmp_path / "out"
    for raw, command in ((dict(CONFIG, T=10**19), ["run"]),
                         (CONFIG, ["sweep", "--vary", f"T=5,{10**19}"])):
        argv = command + ["--config", write_config(tmp_path, raw),
                          "--out", str(out)]
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == (f"error: round budget T={10**19} is too large for "
                       f"the metric columns\n"), argv
        assert not out.exists()


def test_round_budget_past_the_float_columns_exits_2(tmp_path, capsys,
                                                     monkeypatch):
    """At S=2 and this T an (S, T+1) column could be indexed, but the
    (S, T+1, 6) array of the float columns could not: rejected at set-up,
    before anything is allocated."""
    def no_run(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(harness, "run_and_measure", no_run)
    T = np.iinfo(np.intp).max // 8 // 2 - 1
    argv = ["run", "--config", write_config(tmp_path, dict(CONFIG, T=T)),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (f"error: round budget T={T} is too "
                                       f"large for the metric columns\n")


def overflow_config(**sizes):
    return {"topology": {"kind": "ring", "K": 4}, "strategy": "ed",
            "problem": {"kind": "quadratic", "sigma": 1.0},
            "schedule": {"mode": "explicit", "mu_x": 0.001, "mu_y": 0.001,
                         "beta": 0.5, **sizes},
            "T": 3}


@pytest.mark.parametrize("sizes", [
    {"b": 1.0e30}, {"B_big": 1.0e30, "p": 0.5}, {"b0": 1.0e30}, {"b": 2**62},
    {"b": 10**340}, {"B_big": 10**340, "p": 0.5}, {"b0": 10**340}],
    ids=["b", "B_big", "b0", "b_2_62", "b_10_340", "B_big_10_340",
         "b0_10_340"])
def test_overflowing_sample_counts_exit_2_before_any_seed_runs(
        tmp_path, capsys, sizes):
    """Batch sizes whose cumulative per-agent sample count passes int64's
    maximum within T rounds are rejected at set-up: the first three would
    fail mid-run, b = 2^62 would run with a count that wraps, and a YAML
    integer beyond float range would fail in the schedule conditions."""
    out = tmp_path / "out"
    assert cli.main(["run", "--config",
                     write_config(tmp_path, overflow_config(**sizes)),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    key, value = next(iter(sizes.items()))
    assert err.startswith("error: batch sizes ") \
        and f"{key}={int(value)}" in err \
        and err.endswith(" overflow the int64 sample counts\n")
    assert not out.exists()
    assert list(tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize("problem, schedule", [
    ({}, {"mode": "storm_ed", "c_b": 1e308}),
    ({"N": 40}, {"mode": "page_offline", "c_b": 1e308}),
    ({"q_spread": 1e200}, {"mode": "storm_ed"}),
    ({"q_spread": 1e200}, {"mode": "explicit", "mu_x": 0.01, "mu_y": 0.01}),
    ({"q_spread": 1e200}, {"mode": "explicit", "mu_x": 0.01, "mu_y": 0.01,
                           "shrink_to_valid": True}),
    ({"r_scale": 1e300}, {"mode": "storm_ed"}),
    ({"nu_target": 1e308, "s_spread": 1e308}, {"mode": "storm_ed"}),
    ({}, {"mode": "storm_ed", "c_mu": 1e308, "shrink_to_valid": True}),
    ({}, {"mode": "storm_ed", "c_mu": 1e308})],
    ids=["storm_c_b", "page_c_b", "preset_kappa", "conditions_kappa",
         "shrink_kappa", "r_scale", "nu_and_s_spread", "c_mu_shrink", "c_mu"])
def test_overflowing_presets_and_conditions_exit_2_before_any_seed_runs(
        tmp_path, capsys, monkeypatch, problem, schedule):
    """A preset whose step or batch size overflows or is infinite, a kappa
    whose square overflows and a problem whose draws pass float range
    are rejected at set-up, not raised raw or run with infinite steps."""
    def no_run(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(harness, "run_and_measure", no_run)
    raw = {"topology": {"kind": "ring", "K": 4}, "strategy": "ed",
           "problem": {"kind": "quadratic", "d1": 2, "d2": 1, "sigma": 0.1,
                       **problem},
           "schedule": schedule, "T": 100}
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_oversized_round_budget_keeps_its_message_beside_huge_batches(
        tmp_path, capsys):
    raw = dict(overflow_config(b=10**340), T=10**19)
    assert cli.main(["run", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: round budget T={10**19} is "
                                       f"too large for the metric columns\n")


def test_oversized_setup_exits_2_before_any_seed_runs(
        tmp_path, capsys, monkeypatch):
    """A mixing matrix, Hessian block or sample table whose bytes numpy
    cannot index is rejected before anything is built, and a set-up that
    runs out of memory exits 2 too; neither allocates for real."""
    def no_build(config):
        raise AssertionError("the problem was built")

    def no_memory(config):
        raise MemoryError("Unable to allocate 74.5 GiB")

    out = tmp_path / "out"
    monkeypatch.setattr(harness, "build_problem", no_build)
    for raw, shown in (
            (dict(CONFIG, problem=dict(CONFIG["problem"], N=10**18)),
             f"K=4, d1=2, d2=2, N={10**18}"),
            (dict(CONFIG, problem=dict(CONFIG["problem"], d1=10**10)),
             f"K=4, d1={10**10}, d2=2, N=16"),
            (dict(CONFIG, topology={"kind": "ring", "K": 2**31}),
             f"K={2**31}, d1=2, d2=2, N=16")):
        assert cli.main(["run", "--config", write_config(tmp_path, raw),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: the set-up's arrays for "
                                           f"{shown} are too large to index\n")
    monkeypatch.undo()
    monkeypatch.setattr(harness, "build_mixing", no_memory)
    assert cli.main(["run", "--config", write_config(tmp_path, CONFIG),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: the set-up's arrays do not "
                                       "fit in memory: Unable to allocate "
                                       "74.5 GiB\n")
    assert not out.exists()


def test_unconnectable_random_topology_exits_2(tmp_path):
    """A random topology that no draw connects is rejected after a bounded
    number of redraws; the command returns instead of redrawing forever."""
    done = run_in_subprocess(tmp_path, dict(CONFIG, topology={
        "kind": "random", "K": 40, "edge_prob": 0.02, "seed": 0}), timeout=30)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: no connected random graph on K=40 "
                                  "with edge_prob=0.02 in 1000 draws")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_run_with_overflowing_estimates_prints_only_its_warning(tmp_path):
    """Estimates huge enough that their squared error overflows: both seeds
    diverge, and stderr holds the run's own lines, the binding condition
    and the warning, and no numpy one."""
    raw = {"topology": {"kind": "ring", "K": 4}, "strategy": "ed",
           "problem": {"kind": "quadratic", "d1": 2, "d2": 1,
                       "sigma": 7e300},
           "schedule": {"mode": "explicit", "mu_x": 0.001, "mu_y": 0.001,
                        "beta": 1.0},
           "T": 50, "seeds": [1, 2]}
    done = run_in_subprocess(tmp_path, raw)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "binding condition: beta_bar <= nu mu_y / 2 (margin 0.000416385)\n"
        "warning: 2 seed(s) diverged ([1, 2])\n")


def test_run_with_overflowing_metric_squares_prints_only_its_warning(
        tmp_path):
    """A start point whose squares overflow in the metric columns of round
    0 (the centroid gradient, the gap and the consensus deviation): the
    seed diverges at round 1, and stderr holds the run's own lines, the
    binding condition and the warning, and no numpy one."""
    raw = dict(CONFIG, topology={"kind": "ring", "K": 8},
               problem=dict(CONFIG["problem"], d1=3), seeds=[0],
               x0=[1e200, 0, 0])
    done = run_in_subprocess(tmp_path, raw)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "binding condition: mu_y <= (1-rho) lam_b/(sqrt(620) L_f v1 v2 "
        "lam_a) (margin 0.00890422)\n"
        "warning: 1 seed(s) diverged ([0])\n")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert list(summary["seeds_failed"]) == ["0"]


def test_run_with_overflowing_stationarity_sum_prints_no_warning(tmp_path):
    """A stationarity metric of 1.2e308 every round, so a seed's sum over
    its rounds overflows: the stationarity mean and std are null, and
    stderr holds the binding condition alone, no numpy warning."""
    raw = {"topology": {"kind": "ring", "K": 4}, "strategy": "ed",
           "problem": {"kind": "quadratic", "d1": 2, "d2": 1, "sigma": 0,
                       "hetero": 5.85e153},
           "schedule": {"mode": "explicit", "mu_x": 1e-250,
                        "mu_y": 1e-250, "beta": 1},
           "T": 5, "seeds": [0, 1]}
    done = run_in_subprocess(tmp_path, raw)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "binding condition: beta_bar <= nu mu_y / 2 (margin 4.16385e-251)\n")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["avg_stationarity"] == {"mean": None, "std": None}


def test_run_diverging_inside_a_chunk_prints_only_its_warning(tmp_path):
    """Every seed passes the cap at round 8 of the first chunk, and
    unfrozen its iterates would overflow later in the same chunk (tiny
    linear terms start them near zero, and huge steps grow them about
    1e5-fold a round): stderr holds the run's own lines, the binding
    condition and the warning, and no numpy one."""
    raw = {"topology": {"kind": "ring", "K": 4}, "strategy": "ed",
           "problem": {"kind": "quadratic", "hetero": 1e-30},
           "schedule": {"mode": "explicit", "mu_x": 3e5, "mu_y": 3e5,
                        "beta": 0.2, "p": 0},
           "T": 300, "seeds": [1, 2, 3]}
    done = run_in_subprocess(tmp_path, raw)
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "binding condition: mu_y <= (1-rho)^(2/3) lam_b^(2/3) "
        "(b K beta_bar)^(1/3)/(90 L_f kappa^(1/3) (v1 v2 lam_a)^(2/3)) "
        "(margin 1.13124e-09)\n"
        "warning: 3 seed(s) diverged ([1, 2, 3])\n")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary["seeds_failed"].values()) == {
        "iterate magnitude 6.407e+14 exceeds 1e+12 at round 8"}


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    """A wide_ring-shaped run (lazy ring K=96, ED, page preset with
    shrink, N=256, diagnostics on) at T=100 with seeds 1 to 11, which the
    gradient kernel pads to 16 replicates: every output byte is the same
    with OPENBLAS_NUM_THREADS 1 and 2. At K >= 256 the eigenvectors of
    np.linalg.eigh, and so the outputs, depend on the thread count."""
    raw = {"topology": {"kind": "ring", "K": 96, "lazy": True},
           "strategy": "ed",
           "problem": {"kind": "quadratic", "d1": 3, "d2": 2, "N": 256,
                       "sigma": 0.3, "seed": 777},
           "schedule": {"mode": "page_offline", "shrink_to_valid": True},
           "T": 100, "seeds": list(range(1, 12)),
           "x0": [0.5, -1.0, 1.5], "y0": [1.0, -0.5],
           "diagnostics": {"transform": True}}
    files = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        done = run_in_subprocess(tmp_path / threads, raw,
                                 env=[("OPENBLAS_NUM_THREADS", threads)])
        assert done.returncode == 0, done.stderr
        out = tmp_path / threads / "out"
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(files[0]) == 13
    assert files[0] == files[1]


def test_sweep_sets_key_in_null_section(tmp_path, capsys):
    # a bare "diagnostics:" line loads as null, which run reads as the
    # section's defaults; sweep sets the key in it the same way
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(CONFIG) + "diagnostics:\n")
    out = tmp_path / "sweep"
    assert cli.main(["run", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 0
    assert cli.main(["sweep", "--config", str(path), "--vary",
                     "diagnostics.transform=true", "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    header, first = (out / "diagnostics.transform=True" / "seed_0.csv"
                     ).read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert row["ehat_x_sq"] and row["ehat_y_sq"]


@pytest.mark.parametrize("vary", ["T=5,0", "schedule.b=2,32"])
def test_sweep_rejects_bad_variant_before_any_runs(tmp_path, capsys, vary):
    # the second value is rejected (T below 1; a minibatch larger than
    # N=16), so the first one must not have written its files either
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_config(tmp_path, CONFIG),
                     "--vary", vary, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_sweep_variant_with_every_seed_diverged(tmp_path, capsys):
    # at mu 80 both seeds diverge, so that variant has no mean to print
    raw = {"topology": {"kind": "ring", "K": 4}, "strategy": "ed",
           "problem": {"kind": "quadratic", "d1": 2, "d2": 1, "sigma": 0.1},
           "schedule": {"mode": "explicit", "mu_x": 0.001, "mu_y": 0.001,
                        "beta": 1.0},
           "T": 50, "seeds": [1, 2]}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", write_config(tmp_path, raw),
                     "--vary", "schedule.mu_x=0.001,80",
                     "--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("schedule.mu_x=0.001: avg_stationarity=")
    assert lines[1] == "schedule.mu_x=80: avg_stationarity=n/a"
    assert captured.err == ("warning: schedule.mu_x=80: 2 seed(s) diverged "
                            "([1, 2])\n")
    summary = json.loads((out / "schedule.mu_x=80" / "summary.json"
                          ).read_text())
    assert sorted(summary["seeds_failed"]) == ["1", "2"]


@pytest.mark.parametrize("command", ["run", "sweep", "sweep_clash"])
def test_bad_output_path_exits_2_before_any_seed_runs(tmp_path, capsys,
                                                      monkeypatch, command):
    """An --out that is an existing file, or two sweep values that map to
    one directory, is rejected after set-up and before the first round."""
    def no_run(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(harness, "run_and_measure", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    config = write_config(tmp_path, CONFIG)
    argv = {
        "run": ["run", "--config", config, "--out", str(blocker)],
        "sweep": ["sweep", "--config", config, "--vary",
                  "schedule.mu_y=0.01,0.02", "--out", str(blocker)],
        "sweep_clash": ["sweep", "--config", config, "--vary",
                        "schedule.mu_y=0.01,0.010",
                        "--out", str(tmp_path / "sweep")],
    }[command]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in \
        captured.err
    assert captured.out == ""
    assert blocker.read_text() == "not a directory"
    if command == "sweep_clash":
        assert "schedule.mu_y=0.01" in captured.err
        assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_too_long_for_a_file_name_exits_2_before_any_seed_runs(
        tmp_path, capsys, monkeypatch, command):
    """seed_<s>.csv of a seed of 247 digits has 256 bytes, past a file
    name's 255: the config is rejected at load, naming the seed."""
    def no_run(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(harness, "run_and_measure", no_run)
    seed = 10**246
    assert len(f"seed_{seed}.csv") == harness.NAME_MAX + 1
    out = tmp_path / "out"
    config = write_config(tmp_path, dict(CONFIG, seeds=[0, seed]))
    argv = {"run": ["run", "--config", config],
            "sweep": ["sweep", "--config", config, "--vary",
                      "schedule.mu_y=0.01,0.02"]}[command]
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: seed {seed} is too large")
    assert captured.out == ""
    assert not out.exists()


def test_seed_of_the_longest_file_name_runs(tmp_path, capsys):
    seed = 10**246 - 1
    out = tmp_path / "out"
    config = write_config(tmp_path, dict(CONFIG, seeds=[seed]))
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    name = f"seed_{seed}.csv"
    assert len(name) == harness.NAME_MAX
    assert (out / name).read_bytes().startswith(b"round,")
    assert str(out / name) in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command, name", [
    ("run", "seed_0.csv"), ("run", "seed_9.csv"), ("sweep", "seed_1.csv")],
    ids=["run_own_seed", "run_stale_seed", "sweep"])
def test_directory_named_as_a_seed_csv_exits_2_before_any_seed_runs(
        tmp_path, capsys, monkeypatch, command, name):
    """A directory in --out named seed_<n>.csv, for one of the run's seeds
    (it could not be written) or another (it could not be removed), is
    rejected once --out exists, before the first round."""
    def no_run(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(harness, "run_and_measure", no_run)
    config = write_config(tmp_path, CONFIG)
    out = tmp_path / "out"
    argv = {"run": ["run", "--config", config, "--out", str(out)],
            "sweep": ["sweep", "--config", config, "--vary",
                      "schedule.mu_y=0.01,0.02", "--out", str(out)]}[command]
    blocker = out / name if command == "run" \
        else out / "schedule.mu_y=0.02" / name
    blocker.mkdir(parents=True)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {blocker} is a directory, where the "
                            f"run writes or removes a seed's CSV\n")
    assert captured.out == ""
    assert blocker.is_dir() and not any(blocker.iterdir())


def test_removed_options_are_usage_errors(tmp_path, capsys):
    # there is no verify subcommand and no run --dump-mixing flag
    out = tmp_path / "out"
    for argv in (["verify"],
                 ["run", "--config", write_config(tmp_path, CONFIG),
                  "--out", str(out), "--dump-mixing"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.startswith("usage: decminimax"), argv
    assert not out.exists()


@pytest.mark.parametrize("mode, arg", [
    ("page_offline", "--N=0"),
    ("lsarah_offline", "--N=0"),
    ("page_offline", "--N=-5"),
    ("page_online", "--lam=nan"),
    ("page_online", "--lam=-inf"),
    ("page_online", "--lam=-3"),
    ("storm_ed", "--kappa=nan"),
    ("storm_ed", "--kappa=inf"),
    ("storm_ed", "--kappa=0"),
    ("storm_ed", "--kappa=1e200"),
])
def test_schedule_rejects_bad_numbers(mode, arg, capsys):
    assert cli.main(["schedule", "--mode", mode, "--T", "1000", "--K", "4",
                     arg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in \
        captured.err
    assert captured.out == ""


def test_schedule_prints_preset(capsys):
    assert cli.main(["schedule", "--mode", "page_offline", "--T", "1000",
                     "--K", "4", "--N", "1024"]) == 0
    got = json.loads(capsys.readouterr().out)
    mu_x, mu_y, grace = schedule_for_mode(ScheduleSpec(
        mode=ScheduleMode.PAGE_OFFLINE, T=1000, K=4, kappa=1.0, N=1024))
    assert got == {"mode": "page_offline", "mu_x": mu_x, "mu_y": mu_y,
                   "beta": grace.beta, "p": grace.p, "b": grace.b,
                   "B_big": grace.B_big, "b0": grace.b0,
                   "beta_bar": grace.beta_bar}
