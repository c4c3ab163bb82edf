import numpy as np
import pytest

from decminimax import (
    ConfigError,
    DivergenceError,
    EngineConfig,
    GraceParams,
    StrategyKind,
    Topology,
    build_strategy,
    init_engine,
    make_quadratic_problem,
    mixing_for_topology,
    run_and_measure,
)
from decminimax.engine import _advance, step
from decminimax.estimator import init_estimator, update_estimator

from conftest import assert_close

ALL_KINDS = list(StrategyKind)


def smoothness_steps(problem):
    c = problem.constants
    mu_y = min(1 / c.nu, 1 / (2 * c.L_f))
    mu_x = min(1 / (32 * c.L), mu_y / (16 * c.kappa**2))
    return mu_x, mu_y


class TestInit:
    def test_identical_models_zero_consensus(self, ring8_lazy, quad_problem):
        config = EngineConfig(strategy=StrategyKind.ED, mu_x=0.01, mu_y=0.01,
                              grace=GraceParams(beta=0, p=1, b0=4), T=10)
        state = init_engine(config, quad_problem, x0=np.ones(3))
        assert np.ptp(state.X, axis=0).max() == 0.0
        assert np.all(state.D_x == 0.0)
        assert np.all(state.D_y == 0.0)

    def test_dim_mismatch(self, quad_problem):
        config = EngineConfig(strategy=StrategyKind.ED, mu_x=0.01, mu_y=0.01,
                              grace=GraceParams(beta=0, p=1, b0=4), T=10)
        with pytest.raises(ConfigError):
            init_engine(config, quad_problem, x0=np.ones(5))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(strategy=StrategyKind.ED, mu_x=0.0, mu_y=0.01,
                         grace=GraceParams(beta=0, p=1), T=10)
        with pytest.raises(ConfigError):
            EngineConfig(strategy=StrategyKind.ED, mu_x=0.01, mu_y=0.01,
                         grace=GraceParams(beta=0, p=1), T=0)


class TestStep:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_centroid_identity(self, ring8_lazy, quad_problem, kind):
        ops = build_strategy(kind, ring8_lazy)
        grace = GraceParams(beta=0.2, p=0.2, b=4, b0=4)
        config = EngineConfig(strategy=kind, mu_x=0.003, mu_y=0.01,
                              grace=grace, T=100, seed=2)
        state = init_engine(config, quad_problem, x0=np.ones(3))
        for _ in range(100):
            update_estimator(state.grace, grace, state.X, state.Y,
                             quad_problem)
            xc = state.X.mean(axis=0)
            yc = state.Y.mean(axis=0)
            gx = state.grace.M_x.mean(axis=0)
            gy = state.grace.M_y.mean(axis=0)
            _advance(state, config, ops)
            assert_close(state.X.mean(axis=0), xc - config.mu_x * gx, 1e-10,
                         f"x centroid round {state.round}")
            assert_close(state.Y.mean(axis=0), yc + config.mu_y * gy, 1e-10,
                         f"y centroid round {state.round}")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dual_average_conserved(self, ring8_lazy, quad_problem, kind):
        ops = build_strategy(kind, ring8_lazy)
        grace = GraceParams(beta=0.1, p=0.1, b=2, b0=4)
        config = EngineConfig(strategy=kind, mu_x=0.002, mu_y=0.01,
                              grace=grace, T=500, seed=4)
        state = init_engine(config, quad_problem)
        for _ in range(500):
            step(state, config, quad_problem, ops)
        assert np.max(np.abs(state.D_x.sum(axis=0))) <= 1e-9
        assert np.max(np.abs(state.D_y.sum(axis=0))) <= 1e-9

    def test_zero_steps_freeze(self, ring8_lazy, quad_problem):
        # smallest representable positive step keeps validation happy while
        # moving iterates below measurable thresholds is not the point here:
        # instead check mu -> 0 limit by comparing two tiny steps
        grace = GraceParams(beta=0, p=1, b0=64)
        config = EngineConfig(strategy=StrategyKind.ED, mu_x=1e-300,
                              mu_y=1e-300, grace=grace, T=5)
        series = run_and_measure(config, quad_problem, ring8_lazy,
                                 x0=np.ones(3))
        g0 = series.rows[0].grad_x_sq
        assert all(r.grad_x_sq == pytest.approx(g0, rel=1e-10)
                   for r in series.rows)

    def test_divergence_detected(self, ring8_lazy, quad_problem):
        grace = GraceParams(beta=0, p=1, b0=64)
        config = EngineConfig(strategy=StrategyKind.ED, mu_x=50.0, mu_y=50.0,
                              grace=grace, T=500)
        with pytest.raises(DivergenceError) as exc_info:
            run_and_measure(config, quad_problem, ring8_lazy, x0=np.ones(3))
        err = exc_info.value
        assert err.round_index is not None
        assert err.partial is not None
        assert len(err.partial.rows) >= 1


class TestReduction:
    def test_k1_all_strategies_equal_centralized(self):
        problem = make_quadratic_problem(K=1, d1=2, d2=2, N=32, sigma=0.8,
                                         seed=6)
        mixing = mixing_for_topology(Topology(kind="complete", K=1))
        grace = GraceParams(beta=0.05, p=0.05, b=2, b0=4)
        mu_x, mu_y = 0.01, 0.04

        # reference: centralized descent/ascent driven by the same estimator
        ref_state = init_estimator(problem, grace, seed=9,
                                   X0=np.ones((1, 2)), Y0=np.zeros((1, 2)))
        ref_X = np.ones((1, 2))
        ref_Y = np.zeros((1, 2))
        ref_traj = []
        for _ in range(1000):
            update_estimator(ref_state, grace, ref_X, ref_Y, problem)
            ref_X = ref_X - mu_x * ref_state.M_x
            ref_Y = ref_Y + mu_y * ref_state.M_y
            ref_traj.append((ref_X.copy(), ref_Y.copy()))

        for kind in ALL_KINDS:
            ops = build_strategy(kind, mixing)
            config = EngineConfig(strategy=kind, mu_x=mu_x, mu_y=mu_y,
                                  grace=grace, T=1000, seed=9)
            state = init_engine(config, problem, x0=np.ones(2))
            for i in range(1000):
                step(state, config, problem, ops)
                assert_close(state.X, ref_traj[i][0], 1e-12,
                             f"{kind.value} x round {i}")
                assert_close(state.Y, ref_traj[i][1], 1e-12,
                             f"{kind.value} y round {i}")


class TestRunAndMeasure:
    def test_deterministic_runs_identical(self, ring8_lazy, quad_problem):
        grace = GraceParams(beta=0.1, p=0.2, b=4, b0=8)
        config = EngineConfig(strategy=StrategyKind.ATC_GT, mu_x=0.002,
                              mu_y=0.01, grace=grace, T=100, seed=13)
        s1 = run_and_measure(config, quad_problem, ring8_lazy, x0=np.ones(3))
        s2 = run_and_measure(config, quad_problem, ring8_lazy, x0=np.ones(3))
        for r1, r2 in zip(s1.rows, s2.rows):
            assert r1 == r2

    def test_two_gradient_blocks_per_round(self, ring8_lazy, monkeypatch):
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=16, sigma=0.5,
                                         seed=5)
        calls = []
        block = problem.exact_grads_block
        monkeypatch.setattr(problem, "exact_grads_block",
                            lambda X, Y: calls.append(1) or block(X, Y))
        grace = GraceParams(beta=0.1, p=0.2, b=2, b0=4)
        extra = set()
        for T in (10, 30):
            calls.clear()
            config = EngineConfig(strategy=StrategyKind.ED, mu_x=0.002,
                                  mu_y=0.01, grace=grace, T=T,
                                  record_transform_diagnostics=True)
            run_and_measure(config, problem, ring8_lazy)
            extra.add(len(calls) - 2 * T)
        assert len(extra) == 1  # iterates and centroid, plus a constant

    def test_row_count_and_round_column(self, ring8_lazy, quad_problem):
        grace = GraceParams(beta=0, p=1, b0=8)
        config = EngineConfig(strategy=StrategyKind.ED, mu_x=0.002,
                              mu_y=0.01, grace=grace, T=3)
        series = run_and_measure(config, quad_problem, ring8_lazy)
        assert [r.round for r in series.rows] == [0, 1, 2, 3]

    def test_deterministic_convergence_smoothness_steps(self, ring8_lazy):
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=16, sigma=0.0,
                                         seed=5, zero_mean_linear=True)
        c = problem.constants
        mu_x = 1 / (4 * c.L)  # envelope-smoothness step; faster than the
        mu_y = min(1 / c.nu, 1 / (2 * c.L_f))  # fully conservative regime
        grace = GraceParams(beta=0, p=1, b0=16)
        for kind in (StrategyKind.ED, StrategyKind.EXTRA,
                     StrategyKind.ATC_GT):
            config = EngineConfig(strategy=kind, mu_x=mu_x, mu_y=mu_y,
                                  grace=grace, T=3000)
            series = run_and_measure(config, problem, ring8_lazy,
                                     x0=np.ones(3), y0=np.ones(2))
            last = series.rows[-1]
            assert last.grad_x_sq + last.grad_y_sq <= 1e-8, kind
            assert last.consensus_sq <= 1e-10, kind

    def test_monotone_consensus_decay(self, ring8_lazy):
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=16, sigma=0.0,
                                         seed=5)
        mu_x, mu_y = smoothness_steps(problem)
        grace = GraceParams(beta=0, p=1, b0=16)
        config = EngineConfig(strategy=StrategyKind.ED, mu_x=mu_x, mu_y=mu_y,
                              grace=grace, T=400)
        series = run_and_measure(config, problem, ring8_lazy, x0=np.ones(3))
        assert series.rows[400].consensus_sq <= series.rows[200].consensus_sq
