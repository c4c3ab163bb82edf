"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Later criteria reuse measurements from earlier ones (the envelope-gap
accumulator), so this module is order-dependent by design.
"""

import numpy as np
import pytest

from decminimax import (
    EngineConfig,
    GraceParams,
    StrategyKind,
    Topology,
    build_strategy,
    build_transform_bundle,
    config_from_dict,
    coupled_error_norms,
    make_quadratic_problem,
    make_sinpl_problem,
    maximizer_oracle,
    mixing_for_topology,
    run_experiment,
    shrink_to_valid,
    write_outputs,
)
from decminimax.schedules import ScheduleMode, ScheduleSpec, schedule_for_mode

from conftest import HandEstimator, HandRun, ascent_maximizer, \
    check_consensus_bound, grad_x_is_x_problem, mode_blocks, objective, \
    run_ok, step, update_checked, verify_strategy_assumptions

ALL_KINDS = list(StrategyKind)
CLOSED_FORM_KINDS = (StrategyKind.ED, StrategyKind.EXTRA, StrategyKind.ATC_GT)

# min delta_c seen across all runs in this module, checked by criterion 10
DELTA_C_MIN = {"value": np.inf}


def _track_delta_c(series):
    col = series.columns["delta_c"]
    assert np.isfinite(col).all(), "delta_c column holds a failed round"
    DELTA_C_MIN["value"] = min(DELTA_C_MIN["value"], float(col.min()))


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ring8():
    return mixing_for_topology(Topology(kind="ring", K=8), lazy=True)


@pytest.fixture(scope="module")
def quad8(ring8):
    return make_quadratic_problem(K=8, d1=3, d2=2, N=64, sigma=0.5, seed=5)


def test_criterion_1_strategy_fidelity(ring8):
    worst = 0.0
    for kind in ALL_KINDS:
        ops = build_strategy(kind, ring8)
        rep = verify_strategy_assumptions(ops)
        worst = max(worst, rep.res_A_ones, rep.res_C_ones, rep.res_ones_B2)
    report(1, "strategy-matrix fidelity on lazy ring K=8", worst <= 1e-10,
           f"max residual {worst:.2e}")


def test_criterion_2_centroid_identity(ring8, quad8):
    grace = GraceParams(beta=0.2, p=0.2, b=4, b0=4)
    worst = 0.0
    for kind in ALL_KINDS:
        ops = build_strategy(kind, ring8)
        config = EngineConfig(mu_x=0.003, mu_y=0.01,
                              grace=grace, T=200, seeds=(2,))
        mu = config.signed_step(3, 2)
        run = HandRun(config, quad8, x0=np.ones(3))
        for _ in range(200):
            update_checked(run, run.Z)
            zc = run.Z.mean(axis=1)
            g = run.M.mean(axis=1)
            run.advance(mu, ops)
            zc_new = run.Z.mean(axis=1)
            worst = max(
                worst,
                float(np.max(np.abs(
                    zc_new[:, :3] - (zc[:, :3] - config.mu_x * g[:, :3])))),
                float(np.max(np.abs(
                    zc_new[:, 3:] - (zc[:, 3:] + config.mu_y * g[:, 3:])))),
            )
    report(2, "centroid descent/ascent identity, 200 rounds x 5 strategies",
           worst <= 1e-10, f"max residual {worst:.2e}")


def test_criterion_3_spectral_constants():
    rng = np.random.default_rng(42)
    graphs = []
    for K in (4, 8, 16):
        for _ in range(7 if K < 16 else 6):
            topo = Topology(kind="random", K=K, edge_prob=0.4,
                            seed=int(rng.integers(0, 2**31)))
            graphs.append(mixing_for_topology(topo, lazy=True))
    assert len(graphs) == 20
    ok = True
    detail = ""
    for mix in graphs:
        lam = mix.lam
        for kind in CLOSED_FORM_KINDS:
            bundle = build_transform_bundle(kind, mix)
            P = mode_blocks(bundle)
            res = np.linalg.norm(P - bundle.Q @ bundle.T_mat @ bundle.Q_inv)
            if kind in (StrategyKind.ED, StrategyKind.EXTRA):
                checks = [
                    abs(bundle.rho - np.sqrt(lam)) <= 1e-8,
                    abs(bundle.lam_a_sq
                        - (lam if kind is StrategyKind.ED else 1.0)**2) <= 1e-8,
                    abs(bundle.lam_b_underline_sq - (1 - lam)) <= 1e-8,
                    bundle.v1_sq <= 4.0 + 1e-8,
                    bundle.v2_sq <= 2.0 / mix.lam_min_nonzero + 1e-8,
                ]
            else:
                checks = [
                    bundle.rho <= (1 + lam) / 2 + 1e-8,
                    abs(bundle.lam_a_sq - lam**4) <= 1e-8,
                    abs(bundle.lam_b_underline_sq - (1 - lam)**2) <= 1e-8,
                    bundle.v1_sq <= 3.0 + 1e-8,
                    bundle.v2_sq <= 9.0 + 1e-8,
                ]
            checks.append(res <= 1e-8)
            if not all(checks):
                ok = False
                detail = f"{kind.value} on K={mix.K} graph: {checks}"
    report(3, "closed-form spectral constants on 20 random graphs", ok,
           detail or "all within bounds")


def test_criterion_4_consensus_inequality(ring8, quad8):
    grace = GraceParams(beta=0.1, p=0.1, b=4, b0=8)
    ok = True
    detail = ""
    for kind in CLOSED_FORM_KINDS:
        ops = build_strategy(kind, ring8)
        bundle = build_transform_bundle(kind, ring8)
        config = EngineConfig(mu_x=0.005, mu_y=0.02,
                              grace=grace, T=500, seeds=(3,))
        mu = config.signed_step(3, 2)
        run = HandRun(config, quad8, x0=np.ones(3))
        for _ in range(500):
            update_checked(run, run.Z)
            ehat = coupled_error_norms(run.Z[0], mu * run.M[0], run.D[0],
                                       bundle)
            rep = check_consensus_bound(run.Z[0], ehat, bundle)
            if not rep.passed:
                ok = False
                detail = (f"{kind.value} round {run.round}: "
                          f"lhs={rep.lhs:.3e} rhs={rep.rhs:.3e}")
                break
            run.advance(mu, ops)
    report(4, "consensus error bound at all 500 rounds x 3 strategies", ok,
           detail or "held everywhere")


def test_criterion_5_deterministic_convergence(ring8):
    # zero-mean linear terms put the global saddle at the origin, so the
    # admissible (conservative) step sizes can be exercised end to end;
    # heterogeneous per-agent gradients still drive nontrivial consensus
    # dynamics from round 0
    problem = make_quadratic_problem(K=8, d1=3, d2=2, N=16, sigma=0.0,
                                     seed=5, zero_mean_linear=True)
    c = problem.constants
    assert c.kappa <= 10
    grace = GraceParams(beta=0.0, p=1.0, b=1, b0=16)
    ok = True
    detail = ""
    for kind in CLOSED_FORM_KINDS:
        ops = build_strategy(kind, ring8)
        bundle = build_transform_bundle(kind, ring8)
        mu_y0 = min(1 / c.nu, 1 / (2 * c.L_f))
        mu_x0 = min(1 / (32 * c.L), mu_y0 / (16 * c.kappa**2))
        mu_x, mu_y, _, _ = shrink_to_valid(mu_x0, mu_y0, grace, c, bundle)
        config = EngineConfig(mu_x=mu_x, mu_y=mu_y,
                              grace=grace, T=5000, seeds=(0,))
        series = run_ok(config, problem, ops)
        _track_delta_c(series)
        avg = series.avg_stationarity[0]
        cons = series.columns["consensus_sq"][0, -1]
        if avg > 1e-6 or cons > 1e-8:
            ok = False
            detail = f"{kind.value}: avg={avg:.2e} consensus={cons:.2e}"
    report(5, "deterministic run meets 1e-6 metric / 1e-8 consensus at T=5000",
           ok, detail or "all three strategies")


def test_criterion_6_single_agent_reduction():
    problem = make_quadratic_problem(K=1, d1=2, d2=2, N=32, sigma=0.8, seed=6)
    mixing = mixing_for_topology(Topology(kind="complete", K=1))
    grace = GraceParams(beta=0.05, p=0.05, b=2, b0=4)
    mu_x, mu_y = 0.01, 0.04
    X, Y = np.ones((1, 1, 2)), np.zeros((1, 1, 2))
    ref = HandEstimator(problem, grace, seeds=(9,),
                        Z0=np.concatenate([X, Y], axis=2))
    traj = []
    for _ in range(1000):
        update_checked(ref, np.concatenate([X, Y], axis=2))
        X = X - mu_x * ref.M[..., :2]
        Y = Y + mu_y * ref.M[..., 2:]
        traj.append((X.copy(), Y.copy()))
    worst = 0.0
    for kind in ALL_KINDS:
        ops = build_strategy(kind, mixing)
        config = EngineConfig(mu_x=mu_x, mu_y=mu_y,
                              grace=grace, T=1000, seeds=(9,))
        run = HandRun(config, problem, x0=np.ones(2))
        for i in range(1000):
            step(run, config, problem, ops)
            worst = max(worst,
                        float(np.max(np.abs(run.Z[..., :2] - traj[i][0]))),
                        float(np.max(np.abs(run.Z[..., 2:] - traj[i][1]))))
    report(6, "K=1 reduces to centralized descent/ascent for all strategies",
           worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_7_estimator_degenerations(ring8, quad8):
    # (a) full refresh every round: zero estimation error
    ops = build_strategy(StrategyKind.ED, ring8)
    grace_a = GraceParams(beta=0.0, p=1.0, b0=64)
    config = EngineConfig(mu_x=0.002, mu_y=0.01, grace=grace_a, T=100,
                          seeds=(0,))
    series = run_ok(config, quad8, ops, x0=np.ones(3))
    _track_delta_c(series)
    ok_a = bool((series.columns["est_err_sq"] == 0.0).all())
    # (b) beta=1, p=0 on a noiseless online problem
    noiseless = make_quadratic_problem(K=8, d1=3, d2=2, N=None, sigma=0.0,
                                       seed=5)
    grace_b = GraceParams(beta=1.0, p=0.0, b=1, b0=1)
    config_b = EngineConfig(mu_x=0.002, mu_y=0.01, grace=grace_b, T=100,
                            seeds=(0,))
    series_b = run_ok(config_b, noiseless, ops, x0=np.ones(3))
    _track_delta_c(series_b)
    ok_b = bool((series_b.columns["est_err_sq"] <= 1e-20).all())
    # (c) hand-derived recursion value on grad(x) = x
    hand = grad_x_is_x_problem()
    params = GraceParams(beta=0.0, p=0.0, b=1, b0=8)
    est = HandEstimator(hand, params, (0,), np.array([[[1.0, 0.0]]]))
    est.M[..., 0] = 1.0
    update_checked(est, np.array([[[0.5, 0.0]]]))
    ok_c = est.M[0, 0, 0] == 0.5
    report(7, "estimator degenerations (full batch, beta=1, hand recursion)",
           ok_a and ok_b and ok_c, f"a={ok_a} b={ok_b} c={ok_c}")


def test_criterion_8_storm_rate_scaling(ring8):
    problem = make_quadratic_problem(K=8, d1=3, d2=2, N=None, sigma=1.0,
                                     seed=5, zero_mean_linear=True)
    kappa = problem.constants.kappa
    metrics = {}
    for T in (500, 4000):
        spec = ScheduleSpec(mode=ScheduleMode.STORM_ED, T=T, K=8, kappa=kappa)
        mu_x, mu_y, grace = schedule_for_mode(spec)
        ops = build_strategy(StrategyKind.ED, ring8)
        # the 32 seeds run as one batch
        config = EngineConfig(mu_x=mu_x, mu_y=mu_y,
                              grace=grace, T=T, seeds=tuple(range(32)))
        series = run_ok(config, problem, ops)
        _track_delta_c(series)
        metrics[T] = float(np.mean(series.avg_stationarity))
    ratio = metrics[500] / metrics[4000]
    lo, hi = 8 ** (2 / 3) / 2, 2 * 8 ** (2 / 3)
    report(8, "metric ratio across T matches the T^(-2/3) scaling",
           lo <= ratio <= hi,
           f"ratio {ratio:.2f} in [{lo:.2f}, {hi:.2f}], 32 seeds")


def test_criterion_9_page_accounting_and_decay():
    mixing = mixing_for_topology(Topology(kind="ring", K=4), lazy=True)
    ops = build_strategy(StrategyKind.ED, mixing)
    problem = make_quadratic_problem(K=4, d1=3, d2=2, N=1024, sigma=0.3,
                                     seed=7)
    spec = ScheduleSpec(mode=ScheduleMode.PAGE_OFFLINE, T=10**4, K=4,
                        kappa=problem.constants.kappa, N=1024)
    mu_x, mu_y, grace = schedule_for_mode(spec)
    config = EngineConfig(mu_x=mu_x, mu_y=mu_y,
                          grace=grace, T=10**4, seeds=(0,))
    series = run_ok(config, problem, ops, x0=np.ones(3))
    _track_delta_c(series)
    samples = series.columns["samples_used"][0]
    per_round = (samples[-1] - samples[0]) / 10**4
    expected = grace.p * 1024 + (1 - grace.p) * grace.b
    ok_samples = abs(per_round - expected) <= 0.1 * expected
    # 1/T decay in a regime dominated by the deterministic transient
    quiet = make_quadratic_problem(K=4, d1=3, d2=2, N=1024, sigma=0.01,
                                   seed=7)
    avgs = {}
    for T in (2000, 4000):
        spec_T = ScheduleSpec(mode=ScheduleMode.PAGE_OFFLINE, T=T, K=4,
                              kappa=quiet.constants.kappa, N=1024)
        mu_x, mu_y, grace_T = schedule_for_mode(spec_T)
        config_T = EngineConfig(mu_x=mu_x, mu_y=mu_y, grace=grace_T, T=T,
                                seeds=(0,))
        series_T = run_ok(config_T, quiet, ops, x0=np.ones(3))
        _track_delta_c(series_T)
        avgs[T] = series_T.avg_stationarity[0]
    ratio = avgs[2000] / avgs[4000]
    ok_decay = 1.4 <= ratio <= 2.6
    report(9, "sample accounting within 10% and 1/T metric decay",
           ok_samples and ok_decay,
           f"samples/round {per_round:.2f} vs {expected:.2f}; "
           f"decay ratio {ratio:.2f}")


def test_criterion_10_gradient_correctness():
    def fd(f, z, h=1e-5):
        g = np.zeros_like(z)
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            g[i] = (f(zp) - f(zm)) / (2 * h)
        return g

    def row(problem, k, x, y):
        G = problem.exact_grads_block(np.tile(np.r_[x, y], (problem.K, 1)))
        return G[k, :problem.d1], G[k, problem.d1:]

    quad = make_quadratic_problem(K=3, d1=3, d2=2, N=8, sigma=0.3, seed=1)
    sinpl = make_sinpl_problem(K=4, sigma=0.0, seed=2)
    rng = np.random.default_rng(0)
    worst_rel = 0.0
    for _ in range(25):
        k = int(rng.integers(0, 3))
        x = rng.standard_normal(3)
        y = rng.standard_normal(2)

        def jq(xx, yy, kk=k):
            return (0.5 * xx @ quad.Q[kk] @ xx + xx @ quad.R[kk] @ yy
                    + quad.a[kk] @ xx - 0.5 * yy @ quad.S[kk] @ yy
                    + quad.b[kk] @ yy)

        gx = fd(lambda z: jq(z, y), x)
        gy = fd(lambda z: jq(x, z), y)
        gx_a, gy_a = row(quad, k, x, y)
        worst_rel = max(
            worst_rel,
            np.linalg.norm(gx - gx_a) / max(1.0, np.linalg.norm(gx)),
            np.linalg.norm(gy - gy_a) / max(1.0, np.linalg.norm(gy)),
        )
    for _ in range(25):
        k = int(rng.integers(0, 4))
        x = rng.uniform(-3, 3, size=1)
        y = rng.uniform(-3, 3, size=1)

        def js(xx, yy, kk=k):
            return (objective(sinpl, xx, yy) + sinpl.cx[kk] * xx[0]
                    + sinpl.cy[kk] * yy[0])

        gx = fd(lambda z: js(z, y), x)
        gy = fd(lambda z: js(x, z), y)
        gx_a, gy_a = row(sinpl, k, x, y)
        worst_rel = max(
            worst_rel,
            np.linalg.norm(gx - gx_a) / max(1.0, np.linalg.norm(gx)),
            np.linalg.norm(gy - gy_a) / max(1.0, np.linalg.norm(gy)),
        )
    ok_fd = worst_rel <= 1e-6
    worst_oracle = 0.0
    for _ in range(5):
        x = rng.standard_normal(3)
        y_cf, P_cf = maximizer_oracle(quad, x)
        y_it, P_it = ascent_maximizer(quad, x, tol=1e-12)
        worst_oracle = max(worst_oracle,
                           float(np.linalg.norm(y_cf - y_it)),
                           abs(P_cf - P_it))
    ok_oracle = worst_oracle <= 1e-8
    ok_gap = DELTA_C_MIN["value"] >= -1e-10
    report(10, "gradients, inner-max oracle, and envelope-gap positivity",
           ok_fd and ok_oracle and ok_gap,
           f"fd rel {worst_rel:.1e}; oracle {worst_oracle:.1e}; "
           f"min gap {DELTA_C_MIN['value']:.1e}")


def test_criterion_11_determinism(tmp_path):
    raw = {
        "topology": {"kind": "ring", "K": 8},
        "strategy": "ed",
        "problem": {"kind": "quadratic", "d1": 3, "d2": 2, "N": 64,
                    "sigma": 0.5, "seed": 5},
        "schedule": {"mode": "explicit", "mu_x": 0.002, "mu_y": 0.01,
                     "p": 0.2, "b": 4, "b0": 8},
        "T": 50,
        "seeds": [0, 1, 2],
        "diagnostics": {"transform": True},
    }
    for label in ("run", "rerun"):
        write_outputs(run_experiment(config_from_dict(raw)), tmp_path / label)
    ok = all((tmp_path / "run" / name).read_bytes()
             == (tmp_path / "rerun" / name).read_bytes()
             for name in ("seed_0.csv", "seed_1.csv", "seed_2.csv",
                          "summary.json"))
    # each seed alone writes the bytes it wrote among the others
    for seed in raw["seeds"]:
        alone = dict(raw, seeds=[seed])
        write_outputs(run_experiment(config_from_dict(alone)),
                      tmp_path / f"alone_{seed}")
        name = f"seed_{seed}.csv"
        ok = ok and ((tmp_path / f"alone_{seed}" / name).read_bytes()
                     == (tmp_path / "run" / name).read_bytes())
    report(11, "byte-identical outputs across reruns and seed sets", ok)
