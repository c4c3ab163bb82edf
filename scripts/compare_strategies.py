#!/usr/bin/env python3
"""Run every strategy on the same offline quadratic and tabulate results.

Usage: python scripts/compare_strategies.py [--T 2000] [--K 8] [--seeds 4]
"""

import argparse

import numpy as np

from decminimax import (
    SQRT_STRATEGIES,
    EngineConfig,
    GraceParams,
    StrategyKind,
    Topology,
    build_strategy,
    make_quadratic_problem,
    mixing_for_topology,
    run_and_measure,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=2000)
    ap.add_argument("--K", type=int, default=8)
    ap.add_argument("--seeds", type=int, default=4)
    ap.add_argument("--sigma", type=float, default=0.3)
    args = ap.parse_args()

    problem = make_quadratic_problem(K=args.K, d1=3, d2=2, N=256,
                                     sigma=args.sigma, seed=7)
    c = problem.constants
    mu_y = min(1 / c.nu, 1 / (2 * c.L_f))
    mu_x = mu_y / (4 * c.kappa)
    grace = GraceParams(beta=0.0, p=1 / 16, b=4, b0=16)
    print(f"quadratic K={args.K} N=256 sigma={args.sigma} "
          f"(nu={c.nu:.3f}, L_f={c.L_f:.3f}, kappa={c.kappa:.2f})")
    print(f"mu_x={mu_x:.4g} mu_y={mu_y:.4g} p={grace.p:.4g} b={grace.b}")
    print(f"{'strategy':<12} {'avg metric':>12} {'final metric':>13} "
          f"{'consensus':>11} {'gap':>11}")
    # every seed replicate runs in one batch
    config = EngineConfig(mu_x=mu_x, mu_y=mu_y, grace=grace, T=args.T,
                          seeds=tuple(range(args.seeds)))
    for kind in StrategyKind:
        mixing = mixing_for_topology(Topology(kind="ring", K=args.K),
                                     lazy=kind in SQRT_STRATEGIES)
        series = run_and_measure(config, problem, build_strategy(kind, mixing),
                                 x0=np.ones(3))
        ok = series.ok_rows
        last = {name: col[ok, -1] for name, col in series.columns.items()}
        print(f"{kind.value:<12} {np.mean(series.avg_stationarity[ok]):>12.4e} "
              f"{np.mean(last['grad_x_sq'] + last['grad_y_sq']):>13.4e} "
              f"{np.mean(last['consensus_sq']):>11.3e} "
              f"{np.mean(last['delta_c']):>11.3e}")


if __name__ == "__main__":
    main()
