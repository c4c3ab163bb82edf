import csv
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import decminimax
from decminimax import ConfigError, config_from_dict, load_config, \
    make_quadratic_problem, run_experiment, write_outputs
from decminimax import csvtext, harness
from decminimax.engine import COLUMNS
from decminimax.harness import CSV_HEADER, sweep

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

MINIMAL = {
    "topology": {"kind": "ring", "K": 4},
    "strategy": "ed",
    "problem": {"kind": "quadratic", "d1": 2, "d2": 2, "N": 16,
                "sigma": 0.4, "seed": 3},
    "schedule": {"mode": "explicit", "mu_x": 0.002, "mu_y": 0.01,
                 "p": 0.2, "b": 2, "b0": 4},
    "T": 20,
    "seeds": [0, 1],
}


# every key of the schema, dotted, and one unknown key per section
KEYS = [f"{section}.{key}" if isinstance(keys, dict) else section
        for section, keys in harness._SCHEMA.items()
        for key in (keys if isinstance(keys, dict) else [None])] + [
    "topology.extra", "problem.extra", "schedule.extra", "extra"]
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**1100), st.floats(),
    st.text(max_size=4), st.sampled_from(["nan", "1e3", "-inf", "sinpl", "ed"]),
    st.lists(st.one_of(st.floats(-5, 5), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.one_of(st.text(max_size=3), st.integers()),
                    st.integers(), max_size=2))


def set_value(raw, dotted, value):
    """raw with the dotted key set, replacing any non-mapping on the way."""
    *path, last = dotted.split(".")
    node = raw
    for key in path:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[last] = value


def write_yaml(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        config = load_config(write_yaml(tmp_path, MINIMAL))
        assert config.T == 20
        assert config.seeds == (0, 1)
        assert config.topology["lazy"] is True  # ed needs PSD mixing
        assert config.diagnostics["transform"] is False

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(MINIMAL, momentum=0.9)
        with pytest.raises(ConfigError, match="momentum"):
            load_config(write_yaml(tmp_path, bad))

    def test_unknown_nested_key_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["schedule"]["warmup"] = 5
        with pytest.raises(ConfigError, match="warmup"):
            config_from_dict(bad)

    def test_seeds_default(self):
        raw = json.loads(json.dumps(MINIMAL))
        del raw["seeds"]
        assert config_from_dict(raw).seeds == (0,)

    def test_missing_required(self):
        raw = json.loads(json.dumps(MINIMAL))
        del raw["strategy"]
        with pytest.raises(ConfigError, match="strategy"):
            config_from_dict(raw)

    def test_duplicate_seeds_rejected(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["seeds"] = [0, 0, 1]
        with pytest.raises(ConfigError, match="duplicates"):
            config_from_dict(raw)

    def test_non_integer_T_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(MINIMAL).replace("T: 20", "T: 1e3"))
        with pytest.raises(ConfigError, match="'T' must be an integer"):
            load_config(path)  # YAML reads 1e3 as a string
        raw = json.loads(json.dumps(MINIMAL))
        raw["T"] = 2.5
        with pytest.raises(ConfigError, match="'T' must be an integer"):
            config_from_dict(raw)
        raw["T"] = 20.0
        assert config_from_dict(raw).T == 20

    def test_online_refresh_needs_B_big(self, monkeypatch):
        raw = json.loads(json.dumps(MINIMAL))
        raw["problem"]["N"] = None  # online, p = 0.2, no B_big
        monkeypatch.setattr(harness, "run_and_measure",
                            lambda *a, **k: pytest.fail("a seed started"))
        with pytest.raises(ConfigError, match="B_big"):
            run_experiment(config_from_dict(raw))

    @pytest.mark.parametrize("dotted, value", [
        ("problem.d1", 0), ("topology.K", 0), ("problem.N", 0),
        ("schedule.mu_x", "abc"), ("seeds", [0, -1]), ("problem.sigma", -1),
        ("problem.kind", "sinpl"),  # online-only, but N is set
        # booleans are true or false, not strings or numbers
        ("diagnostics.transform", "false"), ("schedule.shrink_to_valid", "no"),
        ("topology.lazy", "no"), ("problem.zero_mean_linear", 1),
        # start points are lists of d1 (d2) finite numbers
        ("x0", ["abc"]), ("x0", 3), ("x0", [1.0]), ("y0", [0.0, float("nan")]),
        # numbers are finite
        ("schedule.mu_x", float("nan")), ("schedule.mu_x", float("inf")),
        ("problem.sigma", float("nan")),
        # the sinpl problem is scalar
        ("problem", {"kind": "sinpl", "d1": 3}),
        ("problem", {"kind": "sinpl", "d2": 2}),
        ("schedule.mode", "storm"),
        # an offline minibatch larger than the sample table (N=16, p=0.2)
        ("schedule.b", 32),
        # ed on the plain K=4 ring, whose Metropolis matrix has eigenvalue -1/3
        ("topology.lazy", False),
        # the width of the S spectra, drawn as uniforms on [nu, nu + spread]
        ("problem.s_spread", -0.1),
    ])
    def test_bad_value_rejected_before_any_seed(self, monkeypatch, dotted,
                                                value):
        raw = json.loads(json.dumps(MINIMAL))
        harness._set_nested(raw, dotted, value)
        monkeypatch.setattr(harness, "run_and_measure",
                            lambda *a, **k: pytest.fail("a seed started"))
        with pytest.raises(ConfigError):
            run_experiment(config_from_dict(raw))

    def test_sinpl_with_N_rejected_at_load(self):
        raw = json.loads(json.dumps(MINIMAL))
        harness._set_nested(raw, "problem.kind", "sinpl")  # N stays 16
        with pytest.raises(ConfigError, match="online-only"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value", [
        ("nu_target", 123.0), ("hetero", 9.0), ("r_scale", 0.3),
        ("q_spread", 1.0), ("s_spread", 0.5), ("zero_mean_linear", True),
    ])
    def test_sinpl_rejects_quadratic_keys_at_load(self, key, value):
        raw = json.loads(json.dumps(MINIMAL))
        raw["problem"] = {"kind": "sinpl", "sigma": 0.5, key: value}
        with pytest.raises(ConfigError, match=f"problem.{key}"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value", [("edge_prob", 0.5), ("seed", 3)])
    def test_random_graph_keys_rejected_on_other_topologies(self, key,
                                                             value):
        raw = json.loads(json.dumps(MINIMAL))
        raw["topology"][key] = value
        with pytest.raises(ConfigError, match=f"topology.{key}"):
            config_from_dict(raw)
        raw["topology"].update(kind="random", edge_prob=0.5)
        assert config_from_dict(raw).topology[key] == value

    @pytest.mark.parametrize("key", ["c_mu", "c_beta", "c_p", "c_b"])
    def test_preset_knobs_rejected_under_explicit(self, key):
        raw = json.loads(json.dumps(MINIMAL))
        raw["schedule"][key] = 0.5
        with pytest.raises(ConfigError, match=f"schedule.{key}"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key", ["mu_x", "mu_y", "beta", "p", "b", "b0",
                                     "B_big"])
    def test_explicit_keys_rejected_under_a_preset(self, key):
        raw = json.loads(json.dumps(MINIMAL))
        raw["schedule"] = {"mode": "page_offline", "c_mu": 0.5, key: 1}
        with pytest.raises(ConfigError, match=f"schedule.{key}"):
            config_from_dict(raw)
        del raw["schedule"][key]
        assert config_from_dict(raw).schedule["c_mu"] == 0.5

    def test_sinpl_resolves_to_scalar_dims(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["problem"] = {"kind": "sinpl", "sigma": 0.5}
        assert config_from_dict(raw).problem["d1"] == 1
        raw["problem"]["d2"] = 1.0
        assert config_from_dict(raw).problem["d2"] == 1

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_config_loads_or_raises_config_error(self, data):
        raw = data.draw(st.one_of(
            st.builds(lambda: json.loads(json.dumps(MINIMAL))),
            st.builds(dict), VALUES))
        if isinstance(raw, dict):
            for _ in range(data.draw(st.integers(1, 4))):
                set_value(raw, data.draw(st.sampled_from(KEYS)),
                          data.draw(VALUES))
        try:
            config_from_dict(raw)
        except ConfigError:
            pass

    def test_gt_strategy_defaults_to_plain_weights(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["strategy"] = "atc_gt"
        assert config_from_dict(raw).topology["lazy"] is False

    def test_readme_grammar_lists_every_key(self):
        # the README's config block names exactly the keys of the table
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Config grammar", 1)[1]
        block = block.split("```yaml\n", 1)[1].split("```", 1)[0]
        documented = yaml.safe_load(block)
        assert list(documented) == list(harness._SCHEMA)
        for section, rows in harness._SCHEMA.items():
            if isinstance(rows, dict):
                assert list(documented[section]) == list(rows), section

    def test_problem_section_reaches_the_quadratic_by_name(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["problem"].update(nu_target=0.8, hetero=0.3, r_scale=0.7,
                              q_spread=0.4, s_spread=0.9,
                              zero_mean_linear=True)
        got = harness.build_problem(config_from_dict(raw))
        want = make_quadratic_problem(
            K=4, d1=2, d2=2, N=16, sigma=0.4, seed=3, nu_target=0.8,
            hetero=0.3, r_scale=0.7, q_spread=0.4, s_spread=0.9,
            zero_mean_linear=True)
        default = harness.build_problem(config_from_dict(MINIMAL))
        for name in ("Q", "R", "S", "a", "b", "samples"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name
            assert not np.array_equal(getattr(got, name),
                                      getattr(default, name)), name


class TestRunExperiment:
    def test_single_seed_summary(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["seeds"] = [0]
        result = run_experiment(config_from_dict(raw))
        s = result.summary
        assert s["avg_stationarity"]["std"] == 0.0
        assert s["seeds_ok"] == [0]
        assert s["constants"]["nu"] > 0
        assert result.series.columns["grad_x_sq"].shape == (1, 21)

    def test_divergent_seed_recorded(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL))
        raw["T"] = 200
        # a first run leaves CSVs of both seeds in the directory
        out = tmp_path / "out"
        write_outputs(run_experiment(config_from_dict(raw)), out)
        assert {"seed_0.csv", "seed_1.csv"} <= {p.name for p in out.iterdir()}
        raw["schedule"]["mu_x"] = 50.0
        raw["schedule"]["mu_y"] = 50.0
        result = run_experiment(config_from_dict(raw))
        assert result.failures
        assert set(result.summary["seeds_failed"]) == {"0", "1"}
        assert result.summary["avg_stationarity"] == {"mean": None, "std": None}
        files = write_outputs(result, out)
        assert {f.name for f in files} == {"summary.json", "config.resolved.json"}
        # a failed seed's CSV from the first run is gone
        assert {p.name for p in out.iterdir()} == \
            {"summary.json", "config.resolved.json"}

    def test_storm_files_match_a_run_drawing_its_switches(self, tmp_path):
        # at p = 0 no switch is drawn; a p so small that no draw can fall
        # below it draws every switch and refreshes never, so the two runs
        # must write the same seed files
        raw = json.loads(json.dumps(MINIMAL))
        raw["problem"]["N"] = None
        raw["schedule"].update(beta=0.3, p=0.0, B_big=8)
        raw["T"] = 150
        write_outputs(run_experiment(config_from_dict(raw)), tmp_path / "p0")
        raw["schedule"]["p"] = 5e-324
        write_outputs(run_experiment(config_from_dict(raw)), tmp_path / "tiny")
        names = {p.name for p in (tmp_path / "p0").glob("seed_*.csv")}
        assert names == {"seed_0.csv", "seed_1.csv"}
        for name in names:
            assert (tmp_path / "p0" / name).read_bytes() == \
                (tmp_path / "tiny" / name).read_bytes(), name

    def test_rerun_with_fewer_seeds_removes_stale_csvs(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL))
        raw["seeds"] = [1, 2, 3]
        out = tmp_path / "out"
        write_outputs(run_experiment(config_from_dict(raw)), out)
        # files that are not a seed's CSV stay
        others = {"notes.txt": "a", "seed_x.csv": "b", "seed_.csv": "c",
                  "seed_2.csv.bak": "d"}
        for name, text in others.items():
            (out / name).write_text(text)
        first = (out / "seed_1.csv").read_bytes()
        raw["seeds"] = [1]
        result = run_experiment(config_from_dict(raw))
        assert result.summary["seeds_ok"] == [1]
        write_outputs(result, out)
        assert {p.name for p in out.iterdir()} == \
            {"summary.json", "config.resolved.json", "seed_1.csv", *others}
        assert (out / "seed_1.csv").read_bytes() == first
        for name, text in others.items():
            assert (out / name).read_text() == text


def reference_csv(result, row) -> bytes:
    """One seed's CSV as csv.writer writes it with format(v, ".17g") per
    float and str per int: the reference for write_outputs."""
    rounds = range(result.config.T + 1)
    cols = []
    for name in COLUMNS:
        col = result.series.columns.get(name)
        cols.append([""] * len(rounds) if col is None
                    else [str(v) if isinstance(v, int) else format(v, ".17g")
                          for v in col[row].tolist()])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    writer.writerows(zip(rounds, *cols))
    return buf.getvalue().encode()


# the batch of TestStep.test_divergent_seed_frozen_in_batch: seeds 2, 4 and 5
# diverge
DIVERGENT = dict(MINIMAL, topology={"kind": "ring", "K": 4}, T=3,
                 problem={"kind": "quadratic", "d1": 2, "d2": 1, "N": None,
                          "sigma": 7e13, "seed": 0},
                 schedule={"mode": "explicit", "mu_x": 0.01, "mu_y": 0.01,
                           "beta": 1.0, "p": 0.0, "b": 1, "b0": 1},
                 seeds=[1, 2, 4, 5, 7])


# online refreshes of B_big = 10^15 + 1 samples: the counts pass 2^53
BIG_COUNTS = dict(MINIMAL, problem=dict(MINIMAL["problem"], N=None),
                  schedule={"mode": "explicit", "mu_x": 0.002, "mu_y": 0.01,
                            "p": 0.5, "beta": 0.5, "b": 3,
                            "B_big": 1000000000000001})
# noise of 1e200 at steps of 1e-250: inf in both est_err columns and
# consensus_sq near 1e-100, with a three-digit exponent
NON_FINITE = dict(MINIMAL, T=5,
                  problem={"kind": "quadratic", "d1": 2, "d2": 1, "N": None,
                           "sigma": 1e200, "seed": 0},
                  schedule={"mode": "explicit", "mu_x": 1e-250,
                            "mu_y": 1e-250, "beta": 1.0})
# noise of 1e150: est_err columns near 1e300, which Python formats
PYTHON_CELLS = dict(NON_FINITE, problem=dict(NON_FINITE["problem"],
                                             sigma=1e150))
# diagnostics off, so a row takes 8 slots of 32 bytes: six seeds share one
# block of 21 rounds; a seed of 2501 rounds takes three blocks; seed 2 of
# the DIVERGENT batch fails between the two others of its block
SHARED_BLOCK = dict(MINIMAL, seeds=[0, 1, 2, 3, 5, 8])
LONG_SEEDS = dict(MINIMAL, T=2500)
ONE_FAILED = dict(DIVERGENT, seeds=[1, 2, 7])


class TestWriteOutputs:
    @pytest.mark.parametrize("raw, failed", [
        (MINIMAL, set()),
        (dict(MINIMAL, diagnostics={"transform": True}), set()),
        (DIVERGENT, {2, 4, 5}),
        (dict(MINIMAL, strategy="atc_gt", problem={"kind": "sinpl",
              "sigma": 0.5, "seed": 2}, x0=[2.0], y0=[0.5]), set()),
        (BIG_COUNTS, set()),
        (NON_FINITE, set()),
        (PYTHON_CELLS, set()),
        (SHARED_BLOCK, set()),
        (LONG_SEEDS, set()),
        (ONE_FAILED, {2}),
    ], ids=["diagnostics_off", "diagnostics_on", "failed_seeds", "sinpl",
            "samples_above_2_53", "non_finite", "python_cells",
            "seeds_share_a_block", "seed_spans_blocks", "one_seed_failed"])
    def test_csv_bytes_match_reference(self, tmp_path, raw, failed):
        if raw["problem"]["kind"] == "sinpl":
            raw = dict(raw, schedule=dict(raw["schedule"], B_big=8))
        result = run_experiment(config_from_dict(raw))
        assert set(result.failures) == failed
        write_outputs(result, tmp_path)
        ok = result.series.ok_rows
        assert sorted(p.name for p in tmp_path.glob("seed_*.csv")) == \
            sorted(f"seed_{result.series.seeds[row]}.csv" for row in ok)
        for row in ok:
            path = tmp_path / f"seed_{result.series.seeds[row]}.csv"
            assert path.read_bytes() == reference_csv(result, row), path.name

    @pytest.mark.parametrize("raw, slots, blocks", [
        (SHARED_BLOCK, 8, [(0, 6, 0, 21)]),
        (LONG_SEEDS, 8, [(s, s + 1, a, b) for s in (0, 1) for a, b in
                         ((0, 1024), (1024, 2048), (2048, 2501))]),
        (ONE_FAILED, 8, [(0, 2, 0, 4)]),
        (dict(MINIMAL, diagnostics={"transform": True}), 10,
         [(0, 2, 0, 21)]),
    ], ids=["seeds_share_a_block", "seed_spans_blocks", "one_seed_failed",
            "diagnostics_on"])
    def test_blocks_count_only_present_cells(self, tmp_path, monkeypatch,
                                             raw, slots, blocks):
        """Without diagnostics the two ehat columns take no slot, so the
        block budget counts 8 slots a row, not 10."""
        seen, row_blocks = [], csvtext.row_blocks

        def spy(seeds, rounds, n):
            seen.append(n)
            for part, start, stop in row_blocks(seeds, rounds, n):
                seen.append((part.start, part.stop, start, stop))
                yield part, start, stop

        result = run_experiment(config_from_dict(raw))
        monkeypatch.setattr(csvtext, "row_blocks", spy)
        write_outputs(result, tmp_path)
        assert seen == [slots, *blocks]

    def test_edge_runs_reach_their_cells(self):
        """BIG_COUNTS, NON_FINITE and PYTHON_CELLS write what their
        comments say."""
        def columns(raw):
            return run_experiment(config_from_dict(raw)).series.columns

        assert columns(BIG_COUNTS)["samples_used"].max() > 2**53
        cols = columns(NON_FINITE)
        assert np.isposinf(cols["est_err_sq"]).all()
        assert np.isposinf(cols["est_err_avg_sq"]).all()
        assert 0 < cols["consensus_sq"][:, 1:].min() \
            and cols["consensus_sq"].max() < 1e-99
        big = columns(PYTHON_CELLS)["est_err_sq"]
        assert np.isfinite(big).all() and big.min() > csvtext.HIGH

    def test_writing_memory_is_bounded_in_t(self, tmp_path):
        """The text goes out in blocks: the traced peak of writing a
        2 MB CSV (one seed, T = 20000) stays under a bound that does not
        grow with T, where a writer that builds the file's text first
        peaks at several times the file."""
        result = run_experiment(config_from_dict(dict(MINIMAL, T=20000,
                                                      seeds=[0])))
        write_outputs(result, tmp_path)
        tracemalloc.start()
        try:
            write_outputs(result, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "seed_0.csv").stat().st_size > 2e6
        assert peak < 8 * csvtext.BLOCK_BYTES, peak

    def test_files_and_schema(self, tmp_path):
        result = run_experiment(config_from_dict(MINIMAL))
        files = write_outputs(result, tmp_path / "out")
        names = {f.name for f in files}
        assert names == {"seed_0.csv", "seed_1.csv", "summary.json",
                         "config.resolved.json"}
        lines = (tmp_path / "out" / "seed_0.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 22  # header + rounds 0..20
        # diagnostics disabled: ehat columns empty
        first = lines[1].split(",")
        assert first[CSV_HEADER.index("ehat_x_sq")] == ""
        assert first[CSV_HEADER.index("ehat_y_sq")] == ""

    def test_diagnostics_fill_ehat_columns(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL))
        raw["diagnostics"] = {"transform": True}
        result = run_experiment(config_from_dict(raw))
        write_outputs(result, tmp_path / "out")
        lines = (tmp_path / "out" / "seed_0.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert first[CSV_HEADER.index("ehat_x_sq")] != ""

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            result = run_experiment(config_from_dict(MINIMAL))
            write_outputs(result, tmp_path / sub)
        for name in ("seed_0.csv", "seed_1.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_seed_alone_matches_seed_among_others(self, tmp_path):
        write_outputs(run_experiment(config_from_dict(MINIMAL)),
                      tmp_path / "both")
        for seed in MINIMAL["seeds"]:
            alone = dict(MINIMAL, seeds=[seed])
            write_outputs(run_experiment(config_from_dict(alone)),
                          tmp_path / f"alone_{seed}")
            name = f"seed_{seed}.csv"
            assert (tmp_path / f"alone_{seed}" / name).read_bytes() == \
                (tmp_path / "both" / name).read_bytes()

    @pytest.mark.parametrize("name", ["ring_quadratic_page.yaml",
                                      "sinpl_storm.yaml"])
    def test_summary_is_strict_json(self, tmp_path, name):
        """The PAGE preset has beta = 0, so a condition's value is 0 and its
        margin infinite: summary.json writes it as null, not Infinity."""
        raw = yaml.safe_load((ROOT / "scripts" / "configs" / name).read_text())
        raw["T"] = 30
        write_outputs(run_experiment(config_from_dict(raw)), tmp_path)

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=reject)
        margins = [c["margin"] for c in
                   summary["schedule"]["conditions"]["conditions"]]
        assert (None in margins) == (name == "ring_quadratic_page.yaml")


class TestSweep:
    def test_sweep_over_mu_y(self, tmp_path):
        config_path = write_yaml(tmp_path, MINIMAL)
        results = sweep(config_path, "schedule.mu_y", [0.005, 0.02],
                        tmp_path / "sweep")
        assert len(results) == 2
        assert results[0].engine.mu_y == 0.005
        assert results[1].engine.mu_y == 0.02
        out_dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
        assert out_dirs == ["schedule.mu_y=0.005", "schedule.mu_y=0.02"]


class TestBenchmarkContract:
    """What perfbench/run.py reads of the program: nothing on standard
    output (its last line must be its result), and every function its
    per-layer metrics wrap."""

    def test_silent_and_every_traced_metric_present(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import layertrace
        raw = dict(MINIMAL, T=3, diagnostics={"transform": True})
        with layertrace.Tracer(decminimax.__name__) as tr:
            result = run_experiment(config_from_dict(raw))
            write_outputs(result, tmp_path)
        assert capsys.readouterr().out == ""
        metrics = layertrace.layer_metrics(tr, 3 * len(raw["seeds"]))
        assert [k for k, v in metrics.items() if v is None] == []
