"""Command-line interface.

Subcommands:
  run       execute one experiment config, write CSV/JSON outputs and
            print their paths; the binding schedule condition goes to
            stderr
  sweep     rerun a config with one dotted key set to each listed value
            (read as YAML, or as text where it does not parse)
  schedule  print resolved hyperparameters for a schedule mode as JSON

A rejected config (a config file that cannot be read or parsed, a bad
value, a bad --vary key), a strategy its mixing matrix cannot carry, or
an --out that cannot be made a directory or that holds a directory
named as a seed's CSV (in a sweep, also two values that share one)
prints "error: <message>" to stderr and exits with status 2 before any
seed runs. Diverged seeds only print a warning.
"""

import argparse
import json
import sys
from dataclasses import asdict

import yaml

from .errors import ConfigError, DegenerateModeError
from .harness import load_config, run_experiment, sweep as run_sweep, \
    write_outputs
from .schedules import ScheduleMode, ScheduleSpec, schedule_for_mode


def _warn_diverged(result, label=""):
    if result.failures:
        print(f"warning: {label}{len(result.failures)} seed(s) diverged "
              f"({sorted(result.failures)})", file=sys.stderr)


def _report_binding(summary):
    """Name the schedule condition with the smallest finite margin (limit
    over value), the one that binds the steps, on stderr."""
    finite = [c for c in summary["schedule"]["conditions"]["conditions"]
              if c["margin"] is not None]
    if finite:
        c = min(finite, key=lambda c: c["margin"])
        print(f"binding condition: {c['name']} (margin {c['margin']:.6g})",
              file=sys.stderr)


def _cmd_run(args):
    result = run_experiment(load_config(args.config), out_dir=args.out)
    for f in write_outputs(result, args.out):
        print(f)
    _report_binding(result.summary)
    _warn_diverged(result)
    return 0


def _parse_value(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return text


def _cmd_sweep(args):
    key, _, raw_values = args.vary.partition("=")
    if not raw_values:
        raise ConfigError("--vary expects key=v1,v2,...")
    values = [_parse_value(v) for v in raw_values.split(",")]
    results = run_sweep(args.config, key, values, args.out)
    for value, result in zip(values, results):
        avg = result.summary["avg_stationarity"]["mean"]
        shown = "n/a" if avg is None else f"{avg:.6e}"
        print(f"{key}={value}: avg_stationarity={shown}")
        _warn_diverged(result, f"{key}={value}: ")
    return 0


def _cmd_schedule(args):
    mode = ScheduleMode(args.mode)
    spec = ScheduleSpec(mode=mode, T=args.T, K=args.K, kappa=args.kappa,
                        N=args.N, lam=args.lam)
    mu_x, mu_y, grace = schedule_for_mode(spec)
    print(json.dumps({"mode": mode.value, "mu_x": mu_x, "mu_y": mu_y,
                      **asdict(grace), "beta_bar": grace.beta_bar}, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decminimax",
        description="Decentralized stochastic minimax optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="vary one config key")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--vary", required=True,
                         help="dotted key and values, e.g. schedule.mu_y=0.01,0.1")
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sched = sub.add_parser("schedule", help="resolve schedule parameters")
    p_sched.add_argument("--mode", required=True,
                         choices=[m.value for m in ScheduleMode])
    p_sched.add_argument("--T", type=int, required=True)
    p_sched.add_argument("--K", type=int, required=True)
    p_sched.add_argument("--N", type=int, default=None)
    p_sched.add_argument("--kappa", type=float, default=1.0)
    p_sched.add_argument("--lam", type=float, default=None)
    p_sched.set_defaults(func=_cmd_schedule)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DegenerateModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
