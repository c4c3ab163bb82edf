"""Configuration loading, experiment orchestration, and persistence.

A run is described by one YAML file. The table _SCHEMA holds one row per
key: its default, type and minimum. Unknown keys are rejected, and
malformed values raise ConfigError before any seed runs.
All seeds of a config run as one engine batch, in ascending seed order.
A seed's random stream depends on its seed alone and the engine treats
each replicate's slice on its own, so its CSV is byte-identical whether
it runs alone or among other seeds. The CSVs are formatted from the
batch's metric columns.
"""

import copy
import json
import math
import numbers
import re
import statistics
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .csvtext import text_blocks
from .engine import COLUMNS, EngineConfig, MetricsSeries, run_and_measure
from .errors import ConfigError
from .estimator import GraceParams
from .mixing import MixingMatrix, Topology, mixing_for_topology
from .problems import make_quadratic_problem, make_sinpl_problem
from .schedules import ScheduleMode, ScheduleSpec, schedule_for_mode, \
    shrink_to_valid, validate_conditions
from .strategies import SQRT_STRATEGIES, StrategyKind, build_strategy
from .transform import build_transform_bundle

CSV_HEADER = ["round", *COLUMNS]
NAME_MAX = 255  # bytes of a file name (Linux, macOS and Windows file systems)

_REQUIRED = object()  # the default of a key that has none


class _Key(NamedTuple):
    """A config key's default and type: an int, float or bool value is
    checked by _typed against minimum, and a key of type None is checked
    by config_from_dict. A key whose default is None may also be null."""
    default: object
    kind: type | None = None
    minimum: float | None = None


# the config's keys: section -> {key: row}, or top-level key -> row
_SCHEMA = {
    "topology": {"kind": _Key("ring"), "K": _Key(_REQUIRED, int, 1),
                 "edge_prob": _Key(None, float), "seed": _Key(None, int, 0),
                 "lazy": _Key(None, bool)},
    "strategy": _Key(_REQUIRED),
    "problem": {"kind": _Key("quadratic"), "d1": _Key(2, int, 1),
                "d2": _Key(2, int, 1), "N": _Key(None, int, 1),
                "sigma": _Key(0.0, float, 0.0), "seed": _Key(0, int, 0),
                "nu_target": _Key(0.5, float), "hetero": _Key(1.0, float),
                "r_scale": _Key(0.3, float), "q_spread": _Key(1.0, float),
                "s_spread": _Key(0.5, float, 0.0),
                "zero_mean_linear": _Key(False, bool)},
    "schedule": {"mode": _Key("explicit"), "mu_x": _Key(None, float),
                 "mu_y": _Key(None, float), "beta": _Key(0.0, float),
                 "p": _Key(0.0, float), "b": _Key(1, int, 1),
                 "B_big": _Key(None, int, 1), "b0": _Key(1, int, 1),
                 "c_mu": _Key(1.0, float), "c_beta": _Key(1.0, float),
                 "c_p": _Key(1.0, float), "c_b": _Key(1.0, float),
                 "shrink_to_valid": _Key(False, bool)},
    "T": _Key(_REQUIRED, int, 1), "seeds": _Key([0]),
    "x0": _Key(None), "y0": _Key(None),
    "diagnostics": {"transform": _Key(False, bool)},
}


@dataclass(frozen=True)
class RunConfig:
    topology: dict
    strategy: StrategyKind
    problem: dict
    schedule: dict
    T: int
    seeds: tuple
    x0: tuple | None
    y0: tuple | None
    diagnostics: dict

    def resolved(self) -> dict:
        return {**asdict(self), "strategy": self.strategy.value}


def _typed(name, value, kind, minimum=None):
    """value as kind: true or false for bool, an int (an integral float
    passes) or a finite float no smaller than minimum for a number;
    anything else is rejected."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    else:
        try:
            number = None if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        if number is None:
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(number):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        value = number
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def _point(name, value, dim):
    """A start point: null, or a list of dim finite numbers."""
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        raise ConfigError(f"{name!r} must be a list of {dim} numbers, "
                          f"got {value!r}")
    return tuple(_typed(f"each entry of {name!r}", v, float) for v in value)


def _filled(name, table, given):
    """given filled from table: each value checked against its key's row,
    a missing one set to the row's default, a section (null: empty) filled
    the same way. name is the section's dotted name, None at the root."""
    if given is None and name is not None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError("config root must be a mapping" if name is None
                          else f"section {name!r} must be a mapping")
    unknown = set(given) - set(table)
    if unknown:
        where = "top-level key(s)" if name is None else f"key(s) in {name!r}"
        raise ConfigError(f"unknown {where}: {sorted(unknown, key=str)}")
    out = {}
    for key, row in table.items():
        dotted = key if name is None else f"{name}.{key}"
        if isinstance(row, dict):
            out[key] = _filled(dotted, row, given.get(key))
            continue
        value = given.get(key, row.default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required key {dotted!r}")
        if row.kind is not None and (value is not None
                                     or row.default is not None):
            value = _typed(repr(dotted), value, row.kind, row.minimum)
        out[key] = value
    return out


def config_from_dict(raw: dict) -> RunConfig:
    config = _filled(None, _SCHEMA, raw)
    prob, sched = config["problem"], config["schedule"]
    try:
        strategy = StrategyKind(str(config["strategy"]).lower())
    except ValueError:
        raise ConfigError(
            f"unknown strategy {config['strategy']!r}; valid: "
            f"{[s.value for s in StrategyKind]}"
        ) from None
    seeds = config["seeds"]
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigError("'seeds' must be a non-empty list")
    seeds = tuple(_typed("each seed", s, int, 0) for s in seeds)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"'seeds' has duplicates: {list(seeds)}")
    for seed in seeds:
        if len(f"seed_{seed}.csv") > NAME_MAX:
            raise ConfigError(f"seed {seed} is too large: its file name "
                              f"seed_<seed>.csv would pass {NAME_MAX} bytes")
    if prob["kind"] not in ("quadratic", "sinpl"):
        raise ConfigError(f"unknown problem kind {prob['kind']!r}")
    if prob["kind"] == "sinpl":
        if prob["N"] is not None:
            raise ConfigError("sinpl problem is online-only; leave N unset")
        for key in ("d1", "d2"):
            if key in (raw.get("problem") or {}) and prob[key] != 1:
                raise ConfigError(f"the sinpl problem is scalar: "
                                  f"'problem.{key}' must be 1, got {prob[key]!r}")
            prob[key] = 1
    modes = ["explicit", *(m.value for m in ScheduleMode)]
    if sched["mode"] not in modes:
        raise ConfigError(f"unknown schedule mode {sched['mode']!r}; "
                          f"valid: {modes}")
    # keys that the chosen topology, problem or schedule never reads
    unread = {
        "topology": () if config["topology"]["kind"] == "random"
        else ("edge_prob", "seed"),
        "problem": () if prob["kind"] == "quadratic"
        else ("nu_target", "hetero", "r_scale", "q_spread", "s_spread",
              "zero_mean_linear"),
        "schedule": ("c_mu", "c_beta", "c_p", "c_b")
        if sched["mode"] == "explicit"
        else ("mu_x", "mu_y", "beta", "p", "b", "b0", "B_big"),
    }
    for section, keys in unread.items():
        branch = config[section]["mode" if section == "schedule" else "kind"]
        for key in keys:
            if key in (raw.get(section) or {}):
                raise ConfigError(f"'{section}.{key}' is not read by "
                                  f"{section} {branch!r}")
    if config["topology"]["lazy"] is None:
        config["topology"]["lazy"] = strategy in SQRT_STRATEGIES
    return RunConfig(**{**config, "strategy": strategy, "seeds": seeds,
                        "x0": _point("x0", config["x0"], prob["d1"]),
                        "y0": _point("y0", config["y0"], prob["d2"])})


def _read_config(path):
    """The raw YAML data of a config file; a file that cannot be read or
    parsed raises ConfigError."""
    path = Path(path)
    try:
        return yaml.safe_load(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc


def load_config(path) -> RunConfig:
    return config_from_dict(_read_config(path))


def build_problem(config: RunConfig):
    """The config's problem; a quadratic takes every key of the problem
    section but kind as make_quadratic_problem's parameter of that name."""
    p = dict(config.problem)
    if p.pop("kind") == "sinpl":
        return make_sinpl_problem(config.topology["K"], p["sigma"], p["seed"])
    return make_quadratic_problem(K=config.topology["K"], **p)


def build_mixing(config: RunConfig) -> MixingMatrix:
    topology = dict(config.topology)
    lazy = topology.pop("lazy")
    return mixing_for_topology(Topology(**topology), lazy=lazy)


def _resolve_schedule(config: RunConfig, problem, mixing, bundle):
    """Return (EngineConfig, info dict): the resolved steps and estimator
    parameters, with the config's round budget and sorted seeds."""
    s = config.schedule
    info = {"mode": s["mode"], "shrink_halvings": 0}
    if s["mode"] == "explicit":
        if s["mu_x"] is None or s["mu_y"] is None:
            raise ConfigError("explicit schedule needs mu_x and mu_y")
        grace = GraceParams(**{f.name: s[f.name]
                               for f in fields(GraceParams)})
        mu_x, mu_y = s["mu_x"], s["mu_y"]
    else:
        spec = ScheduleSpec(
            mode=ScheduleMode(s["mode"]), T=config.T, K=problem.K,
            kappa=problem.constants.kappa, N=problem.N, lam=mixing.lam,
            c_mu=s["c_mu"], c_beta=s["c_beta"], c_p=s["c_p"], c_b=s["c_b"],
        )
        mu_x, mu_y, grace = schedule_for_mode(spec)
    if problem.N is None and grace.p > 0 and grace.B_big is None:
        raise ConfigError("an online problem with p > 0 needs schedule.B_big, "
                          "the batch size of its refreshes")
    if problem.N is not None and grace.p < 1 and grace.b > problem.N:
        raise ConfigError(f"minibatch b={grace.b} exceeds sample count "
                          f"N={problem.N}")
    # steps, round budget and seeds are checked first
    engine = EngineConfig(mu_x=mu_x, mu_y=mu_y, grace=grace, T=config.T,
                          seeds=tuple(sorted(config.seeds)))
    # the int64 sample counts: b0, then at most `most` in each round 0..T;
    # checked before the conditions, which take the batch sizes as floats
    most = max(grace.b, grace.B_big or 0, problem.N or 0)
    if grace.b0 + (config.T + 1) * most > np.iinfo(np.int64).max:
        raise ConfigError(f"batch sizes b={grace.b}, B_big={grace.B_big}, b0="
                          f"{grace.b0} overflow the int64 sample counts")
    if s["shrink_to_valid"]:
        mu_x, mu_y, halvings, report = shrink_to_valid(
            mu_x, mu_y, grace, problem.constants, bundle)
        info["shrink_halvings"] = halvings
        engine = replace(engine, mu_x=mu_x, mu_y=mu_y)
    else:
        report = validate_conditions(mu_x, mu_y, grace, problem.constants,
                                     bundle)
    info["conditions"] = report.as_dict()
    return engine, info


@dataclass
class RunResult:
    """One run: its config, the mixing matrix and problem built from it,
    the EngineConfig it ran (resolved steps, estimator parameters, sorted
    seeds), every seed's metric columns as one batch, and the summary."""
    config: RunConfig
    mixing: MixingMatrix
    problem: object
    engine: EngineConfig
    schedule_info: dict
    series: MetricsSeries
    summary: dict = field(default_factory=dict)

    @property
    def failures(self) -> dict:
        """Seed -> error message of every diverged seed, in seed order."""
        return {seed: str(exc)
                for seed, exc in sorted(self.series.failures.items())}


def _setup(config: RunConfig):
    """What a run builds before its first round: its problem, mixing
    matrix, strategy, transform bundle and resolved schedule. A config
    that cannot run raises here, one whose arrays do not fit in memory
    too. numpy must index the bytes of the (K, K) mixing matrices, the
    (K, d, d) Hessians and the (K, N, d) sample table, d = d1+d2."""
    K, p = config.topology["K"], config.problem
    d = p["d1"] + p["d2"]
    if K * max(K, d * d, (p["N"] or 0) * d) > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"the set-up's arrays for K={K}, d1={p['d1']}, "
                          f"d2={p['d2']}, N={p['N']} are too large to index")
    try:
        problem = build_problem(config)
        mixing = build_mixing(config)
        ops = build_strategy(config.strategy, mixing)
        bundle = build_transform_bundle(ops.kind, mixing)
        engine, info = _resolve_schedule(config, problem, mixing, bundle)
    except MemoryError as exc:
        raise ConfigError(f"the set-up's arrays do not fit in memory: "
                          f"{exc}") from exc
    return problem, mixing, ops, bundle, engine, info


def _run(config: RunConfig, setup) -> RunResult:
    problem, mixing, ops, bundle, engine, sched_info = setup
    series = run_and_measure(
        engine, problem, ops,
        bundle if config.diagnostics["transform"] else None,
        x0=config.x0, y0=config.y0)
    result = RunResult(config=config, mixing=mixing, problem=problem,
                       engine=engine, schedule_info=sched_info, series=series)
    result.summary = _summarize(result, bundle)
    return result


def run_experiment(config: RunConfig, out_dir=None) -> RunResult:
    """Set up config and run it, creating out_dir, if given, in between."""
    setup = _setup(config)
    _make_dirs([] if out_dir is None else [Path(out_dir)])
    return _run(config, setup)


def _summarize(result: RunResult, bundle) -> dict:
    c = result.problem.constants
    series, grace = result.series, result.engine.grace
    ok = series.ok_rows
    avg = series.avg_stationarity[ok].tolist()
    last = {name: series.columns[name][ok, -1].tolist()
            for name in ("grad_x_sq", "grad_y_sq", "samples_used")}
    final = [gx + gy for gx, gy in zip(last["grad_x_sq"], last["grad_y_sq"])]
    samples = last["samples_used"]

    def mean_std(vals):
        if not vals:
            return {"mean": None, "std": None}
        return {
            "mean": float(statistics.fmean(vals)),
            "std": float(statistics.pstdev(vals)) if len(vals) > 1 else 0.0,
        }

    return {
        "constants": {
            "nu": c.nu, "L_f": c.L_f, "kappa": c.kappa, "L": c.L,
            "lam": result.mixing.lam,
            "lam_min_nonzero": result.mixing.lam_min_nonzero,
            "rho": bundle.rho,
            "lam_a": math.sqrt(bundle.lam_a_sq),
            "lam_b_underline": math.sqrt(bundle.lam_b_underline_sq),
            "v1_sq": bundle.v1_sq, "v2_sq": bundle.v2_sq,
        },
        "mu_x": result.engine.mu_x,
        "mu_y": result.engine.mu_y,
        "grace": {**asdict(grace), "beta_bar": grace.beta_bar},
        "schedule": result.schedule_info,
        "avg_stationarity": mean_std(avg),
        "final_stationarity": mean_std(final),
        "samples_per_agent": mean_std([float(v) for v in samples]),
        "seeds_ok": series.ok_seeds,
        "seeds_failed": {str(s): msg for s, msg in sorted(result.failures.items())},
    }


def write_outputs(result: RunResult, out_dir) -> list:
    """Write seed_<s>.csv per surviving seed, summary.json and
    config.resolved.json, and remove every other seed_<digits>.csv in
    out_dir, which an earlier run left for a seed that failed in this one
    or that this one does not have. A CSV line holds the round and each
    recorded column, an empty cell per absent ehat column, and a CR LF
    end: a float as Python's "%.17g" writes it, an integer column
    (samples_used) in its exact digits. numpy makes the text (see
    csvtext) in blocks of whole rows whose cell slots take at most
    csvtext.BLOCK_BYTES, and each block goes to its file as soon as it is
    made, so writing takes memory bounded in T. Only present cells take
    a slot: an absent ehat cell is its comma, in the spare separator
    bytes of the slot before it. The float columns reach the formatter
    as one view of the batch's array, and the round column, the same in
    every row, is formatted once per span of rounds. Python's "%.17g"
    formats only the cells numpy does not decide: magnitudes outside
    [1e-280, 1e280] and values next to a rounding tie."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    series = result.series
    rounds = result.config.T + 1
    # the round column is every row's; the float columns are one array,
    # and only the ehat ones, last among them, can be absent
    absent = len(COLUMNS) - 1 - series.floats.shape[-1]
    columns = [np.arange(rounds), series.floats, *[None] * absent,
               series.samples_used]
    header = (",".join(CSV_HEADER) + "\r\n").encode()
    with ExitStack() as files:
        for row, start, stop, text in text_blocks(columns, series.ok_rows,
                                                  rounds):
            # a seed's blocks come in order; its file is open until its
            # last one
            if start == 0:
                path = out / f"seed_{series.seeds[row]}.csv"
                written.append(path)
                f = files.enter_context(path.open("wb"))
                f.write(header)
            f.write(text)
            if stop == rounds:
                f.close()
    for path in _seed_csvs(out):
        if path not in written:
            path.unlink()
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(result.summary, indent=2,
                                       sort_keys=True) + "\n")
    written.append(summary_path)
    config_path = out / "config.resolved.json"
    config_path.write_text(json.dumps(result.config.resolved(), indent=2,
                                      sort_keys=True) + "\n")
    written.append(config_path)
    return written


def _set_nested(raw: dict, dotted: str, value):
    """Set the dotted key in raw; a null section on the way is an empty
    mapping, as config_from_dict reads it."""
    *path, last = dotted.split(".")
    node = raw
    for key in path:
        if not isinstance(node, dict):
            break
        if node.get(key) is None:
            node[key] = {}
        node = node[key]
    if not isinstance(node, dict):
        raise ConfigError(f"cannot set {dotted!r}: it runs through a value "
                          f"that is not a mapping")
    node[last] = value


def _seed_csvs(out: Path) -> list:
    """The paths in out named as a seed's CSV, seed_<digits>.csv."""
    return [path for path in out.glob("seed_*.csv")
            if re.fullmatch(r"seed_[0-9]+\.csv", path.name)]


def _make_dirs(paths: list) -> None:
    """Create each output directory; a path named twice, one that cannot
    be made a directory, or one that holds a directory named as a seed's
    CSV, which write_outputs could neither write nor remove, raises
    ConfigError."""
    for i, path in enumerate(paths):
        if path in paths[:i]:
            raise ConfigError(f"two variants write to one directory: {path}")
    for path in paths:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path}: "
                              f"{exc}") from exc
        for csv in _seed_csvs(path):
            if csv.is_dir():
                raise ConfigError(f"{csv} is a directory, where the run "
                                  f"writes or removes a seed's CSV")


def sweep(config_path, dotted_key: str, values, out_root) -> list:
    """Rerun one config with dotted_key set to each value in turn, each
    into out_root/<dotted_key>=<value>. Every variant is loaded and set up,
    and every directory created, before the first one runs, so a variant
    that cannot run or write raises before any variant writes its files."""
    raw = _read_config(config_path)
    variants = []
    for value in values:
        variant = copy.deepcopy(raw)
        _set_nested(variant, dotted_key, value)
        config = config_from_dict(variant)
        variants.append((config, _setup(config)))
    dirs = [Path(out_root) / f"{dotted_key}={str(v).replace('/', '_')}"
            for v in values]
    _make_dirs(dirs)
    results = []
    for (config, setup), out in zip(variants, dirs):
        results.append(_run(config, setup))
        write_outputs(results[-1], out)
    return results
