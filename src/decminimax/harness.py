"""Configuration loading, experiment orchestration, and persistence.

A run is described by one YAML file (strict schema: unknown keys are
rejected, and malformed values raise ConfigError before any seed runs).
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
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

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

# schema: section -> {key: default}; _REQUIRED marks keys without defaults
_REQUIRED = object()
_SCHEMA = {
    "topology": {"kind": "ring", "K": _REQUIRED, "edge_prob": None,
                 "seed": None, "lazy": None},
    "strategy": _REQUIRED,
    "problem": {"kind": "quadratic", "d1": 2, "d2": 2, "N": None,
                "sigma": 0.0, "seed": 0, "nu_target": 0.5, "hetero": 1.0,
                "r_scale": 0.3, "q_spread": 1.0, "s_spread": 0.5,
                "zero_mean_linear": False},
    "schedule": {"mode": "explicit", "mu_x": None, "mu_y": None,
                 "beta": 0.0, "p": 0.0, "b": 1, "B_big": None, "b0": 1,
                 "c_mu": 1.0, "c_beta": 1.0, "c_p": 1.0, "c_b": 1.0,
                 "shrink_to_valid": False},
    "T": _REQUIRED,
    "seeds": [0],
    "x0": None,
    "y0": None,
    "diagnostics": {"transform": False},
}
# numeric values: "section.key" -> (int or float, minimum or None); a key
# whose default is None may also be null
_NUMBERS = {
    "topology.K": (int, 1), "topology.seed": (int, 0),
    "topology.edge_prob": (float, None),
    "problem.d1": (int, 1), "problem.d2": (int, 1), "problem.N": (int, 1),
    "problem.sigma": (float, 0.0), "problem.seed": (int, 0),
    **{f"problem.{k}": (float, None)
       for k in ("nu_target", "hetero", "r_scale", "q_spread", "s_spread")},
    **{f"schedule.{k}": (float, None)
       for k in ("mu_x", "mu_y", "beta", "p", "c_mu", "c_beta", "c_p", "c_b")},
    **{f"schedule.{k}": (int, 1) for k in ("b", "B_big", "b0")},
}
# true/false values; topology.lazy may also be null
_BOOLEANS = ("topology.lazy", "problem.zero_mean_linear",
             "schedule.shrink_to_valid", "diagnostics.transform")


def _merge_section(name, schema, given):
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {sorted(unknown, key=str)}")
    out = {}
    for key, default in schema.items():
        if key in given:
            out[key] = given[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {name!r}.{key!r}")
        else:
            out[key] = default
    return out


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
        return {
            "topology": dict(self.topology),
            "strategy": self.strategy.value,
            "problem": dict(self.problem),
            "schedule": dict(self.schedule),
            "T": self.T,
            "seeds": list(self.seeds),
            "x0": None if self.x0 is None else list(self.x0),
            "y0": None if self.y0 is None else list(self.y0),
            "diagnostics": dict(self.diagnostics),
        }


def _number(name, value, kind, minimum=None):
    """value as an int (an integral float passes) or a finite float, no
    smaller than minimum; anything else is rejected."""
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
    return tuple(_number(f"each entry of {name!r}", v, float) for v in value)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown, key=str)}")
    topo = _merge_section("topology", _SCHEMA["topology"], raw.get("topology"))
    prob = _merge_section("problem", _SCHEMA["problem"], raw.get("problem"))
    sched = _merge_section("schedule", _SCHEMA["schedule"], raw.get("schedule"))
    diag = _merge_section("diagnostics", _SCHEMA["diagnostics"],
                          raw.get("diagnostics"))
    sections = {"topology": topo, "problem": prob, "schedule": sched,
                "diagnostics": diag}
    for dotted, (kind, minimum) in _NUMBERS.items():
        name, key = dotted.split(".")
        if sections[name][key] is not None or _SCHEMA[name][key] is not None:
            sections[name][key] = _number(f"{dotted!r}", sections[name][key],
                                          kind, minimum)
    for dotted in _BOOLEANS:
        name, key = dotted.split(".")
        value = sections[name][key]
        if not isinstance(value, bool) and (value is not None
                                            or _SCHEMA[name][key] is not None):
            raise ConfigError(f"{dotted!r} must be true or false, got {value!r}")
    if "strategy" not in raw:
        raise ConfigError("missing required key 'strategy'")
    try:
        strategy = StrategyKind(str(raw["strategy"]).lower())
    except ValueError:
        raise ConfigError(
            f"unknown strategy {raw['strategy']!r}; valid: "
            f"{[s.value for s in StrategyKind]}"
        ) from None
    if "T" not in raw:
        raise ConfigError("missing required key 'T'")
    T = _number("'T'", raw["T"], int, 1)
    seeds = raw.get("seeds", _SCHEMA["seeds"])
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigError("'seeds' must be a non-empty list")
    seeds = tuple(_number("each seed", s, int, 0) for s in seeds)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"'seeds' has duplicates: {list(seeds)}")
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
    if topo["lazy"] is None:
        topo["lazy"] = strategy in SQRT_STRATEGIES
    return RunConfig(
        topology=topo,
        strategy=strategy,
        problem=prob,
        schedule=sched,
        T=T,
        seeds=seeds,
        x0=_point("x0", raw.get("x0"), prob["d1"]),
        y0=_point("y0", raw.get("y0"), prob["d2"]),
        diagnostics=diag,
    )


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
    p = config.problem
    if p["kind"] == "sinpl":
        return make_sinpl_problem(config.topology["K"], p["sigma"], p["seed"])
    return make_quadratic_problem(
        K=config.topology["K"], d1=p["d1"], d2=p["d2"],
        N=p["N"], sigma=p["sigma"], seed=p["seed"],
        nu_target=p["nu_target"], q_spread=p["q_spread"],
        s_spread=p["s_spread"], r_scale=p["r_scale"], hetero=p["hetero"],
        zero_mean_linear=p["zero_mean_linear"],
    )


def build_mixing(config: RunConfig) -> MixingMatrix:
    t = config.topology
    topo = Topology(kind=t["kind"], K=t["K"], edge_prob=t["edge_prob"],
                    seed=t["seed"])
    return mixing_for_topology(topo, lazy=t["lazy"])


def _resolve_schedule(config: RunConfig, problem, mixing, bundle):
    """Return (EngineConfig, info dict): the resolved steps and estimator
    parameters, with the config's round budget and sorted seeds."""
    s = config.schedule
    info = {"mode": s["mode"], "shrink_halvings": 0}
    if s["mode"] == "explicit":
        if s["mu_x"] is None or s["mu_y"] is None:
            raise ConfigError("explicit schedule needs mu_x and mu_y")
        grace = GraceParams(beta=s["beta"], p=s["p"], b=s["b"],
                            B_big=s["B_big"], b0=s["b0"])
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
    if s["shrink_to_valid"]:
        mu_x, mu_y, halvings, report = shrink_to_valid(
            mu_x, mu_y, grace, problem.constants, bundle)
        info["shrink_halvings"] = halvings
    else:
        report = validate_conditions(mu_x, mu_y, grace, problem.constants,
                                     bundle)
    info["conditions"] = report.as_dict()
    engine = EngineConfig(mu_x=mu_x, mu_y=mu_y, grace=grace, T=config.T,
                          seeds=tuple(sorted(config.seeds)))
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


def run_experiment(config: RunConfig) -> RunResult:
    problem = build_problem(config)
    mixing = build_mixing(config)
    ops = build_strategy(config.strategy, mixing)
    bundle = build_transform_bundle(ops, mixing)
    engine, sched_info = _resolve_schedule(config, problem, mixing, bundle)
    series = run_and_measure(
        engine, problem, ops,
        bundle if config.diagnostics["transform"] else None,
        x0=config.x0, y0=config.y0)
    result = RunResult(config=config, mixing=mixing, problem=problem,
                       engine=engine, schedule_info=sched_info, series=series)
    result.summary = _summarize(result, bundle)
    return result


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
        "grace": {
            "beta": grace.beta, "p": grace.p, "b": grace.b,
            "B_big": grace.B_big, "b0": grace.b0, "beta_bar": grace.beta_bar,
        },
        "schedule": result.schedule_info,
        "avg_stationarity": mean_std(avg),
        "final_stationarity": mean_std(final),
        "samples_per_agent": mean_std([float(v) for v in samples]),
        "seeds_ok": series.ok_seeds,
        "seeds_failed": {str(s): msg for s, msg in sorted(result.failures.items())},
    }


def write_outputs(result: RunResult, out_dir) -> list:
    """Write seed_<s>.csv per surviving seed, summary.json and
    config.resolved.json. A CSV line has a "%.17g" slot per recorded column
    (integral values print as integers), an empty slot per absent ehat
    column, and a CR LF end."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    series = result.series
    names = [n for n in COLUMNS if n in series.columns]
    template = ",".join(["%.17g"] + ["%.17g" if n in series.columns else ""
                                     for n in COLUMNS]) + "\r\n"
    header = ",".join(CSV_HEADER) + "\r\n"
    rounds = np.arange(result.config.T + 1)
    for row in series.ok_rows:
        table = np.column_stack([rounds, *(series.columns[n][row]
                                           for n in names)])
        path = out / f"seed_{series.seeds[row]}.csv"
        path.write_text(header + "".join(template % tuple(r)
                                         for r in table.tolist()), newline="")
        written.append(path)
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


def _parse_value(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return text


def sweep(config_path, dotted_key: str, values, out_root) -> list:
    """Rerun one config with dotted_key set to each value in turn."""
    raw = _read_config(config_path)
    results = []
    for value in values:
        variant = copy.deepcopy(raw)
        _set_nested(variant, dotted_key, value)
        result = run_experiment(config_from_dict(variant))
        tag = str(value).replace("/", "_")
        write_outputs(result, Path(out_root) / f"{dotted_key}={tag}")
        results.append(result)
    return results
