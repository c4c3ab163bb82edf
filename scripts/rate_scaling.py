#!/usr/bin/env python3
"""Measure how the averaged stationarity metric scales with the round
budget T under the momentum-recursion schedule (expected order T^(-2/3)
in the noise-dominated regime).

Usage: python scripts/rate_scaling.py [--budgets 500,1000,2000,4000]
"""

import argparse

import numpy as np

from decminimax import (
    EngineConfig,
    ScheduleMode,
    ScheduleSpec,
    StrategyKind,
    Topology,
    build_strategy,
    make_quadratic_problem,
    mixing_for_topology,
    run_and_measure,
    schedule_for_mode,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budgets", default="500,1000,2000,4000")
    ap.add_argument("--K", type=int, default=8)
    ap.add_argument("--seeds", type=int, default=16)
    args = ap.parse_args()
    budgets = [int(v) for v in args.budgets.split(",")]

    problem = make_quadratic_problem(K=args.K, d1=3, d2=2, N=None, sigma=1.0,
                                     seed=5, zero_mean_linear=True)
    mixing = mixing_for_topology(Topology(kind="ring", K=args.K), lazy=True)
    ops = build_strategy(StrategyKind.ED, mixing)
    print(f"{'T':>6} {'mu_y':>8} {'beta':>10} {'avg metric':>12} "
          f"{'x T^(2/3)':>11}")
    for T in budgets:
        spec = ScheduleSpec(mode=ScheduleMode.STORM_ED, T=T, K=args.K,
                            kappa=problem.constants.kappa)
        mu_x, mu_y, grace = schedule_for_mode(spec)
        # every seed replicate runs in one batch
        config = EngineConfig(mu_x=mu_x, mu_y=mu_y, grace=grace, T=T,
                              seeds=tuple(range(args.seeds)))
        series = run_and_measure(config, problem, ops)
        avg = float(np.mean(series.avg_stationarity[series.ok_rows]))
        print(f"{T:>6} {mu_y:>8.4f} {grace.beta:>10.2e} {avg:>12.4e} "
              f"{avg * T ** (2 / 3):>11.4f}")


if __name__ == "__main__":
    main()
