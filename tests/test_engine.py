import collections
import functools
import sys
import tracemalloc
import warnings

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
    build_transform_bundle,
    config_from_dict,
    make_quadratic_problem,
    make_sinpl_problem,
    mixing_for_topology,
    run_and_measure,
    run_experiment,
)
from decminimax import engine, transform
from decminimax.engine import COLUMNS, DIVERGENCE_CAP, _first_failures, \
    advance
from decminimax.estimator import draw, init_estimator, update_estimator

from conftest import DEFAULT_CHUNK_ROUNDS, DIVERGENT, HandRun, \
    PaperRecursion, assert_close, iterate_errors, random_connected_mixing, \
    reference_coupled_error_norms, reference_run_and_measure, run_ok, \
    set_chunk_rounds, step, update_checked

ALL_KINDS = list(StrategyKind)


# the round cases of TestChunkMemory: strategy, N and p
ROUND_CASES = {"online_storm": (StrategyKind.ED, None, 0.0),
               "offline_refresh": (StrategyKind.ED, 64, 0.2),
               "extra": (StrategyKind.EXTRA, 64, 0.2)}


def divergent_batch():
    """conftest's DIVERGENT as engine inputs: its problem, estimator
    parameters, steps (mu_x, mu_y), T and seeds."""
    p, sched = DIVERGENT["problem"], DIVERGENT["schedule"]
    problem = make_quadratic_problem(K=DIVERGENT["topology"]["K"],
                                     d1=p["d1"], d2=p["d2"], N=p["N"],
                                     sigma=p["sigma"], seed=p["seed"])
    grace = GraceParams(beta=sched["beta"], p=sched["p"], b=sched["b"],
                        b0=sched["b0"])
    return (problem, grace, (sched["mu_x"], sched["mu_y"]), DIVERGENT["T"],
            tuple(DIVERGENT["seeds"]))


def smoothness_steps(problem):
    c = problem.constants
    mu_y = min(1 / c.nu, 1 / (2 * c.L_f))
    mu_x = min(1 / (32 * c.L), mu_y / (16 * c.kappa**2))
    return mu_x, mu_y


class TestInit:
    def test_identical_models_zero_consensus(self, ring8_lazy, quad_problem):
        config = EngineConfig(mu_x=0.01, mu_y=0.01,
                              grace=GraceParams(beta=0, p=1, b0=4), T=10)
        series = run_and_measure(config, quad_problem,
                                 build_strategy(StrategyKind.ED, ring8_lazy),
                                 x0=np.ones(3))
        # round 0's row: every agent at x0 = 1, y0 = 0
        assert series.columns["consensus_sq"][0, 0] == 0.0
        grad, _ = quad_problem.centroid_metrics(np.r_[np.ones(3), 0.0, 0.0])
        for name, part in (("grad_x_sq", grad[:3]), ("grad_y_sq", grad[3:])):
            assert series.columns[name][0, 0] == \
                pytest.approx(np.sum(part**2), rel=1e-12), name

    def test_dim_mismatch(self, ring8_lazy, quad_problem):
        config = EngineConfig(mu_x=0.01, mu_y=0.01,
                              grace=GraceParams(beta=0, p=1, b0=4), T=10)
        with pytest.raises(ConfigError):
            run_and_measure(config, quad_problem,
                            build_strategy(StrategyKind.ED, ring8_lazy),
                            x0=np.ones(5))

    def test_online_refresh_without_B_big_fails_before_round_0(
            self, ring4_lazy, monkeypatch):
        # p is small enough that the first chunk of draws may hold no
        # refresh; the missing refresh batch size is caught at set-up
        problem = make_quadratic_problem(K=4, d1=2, d2=2, N=None, sigma=0.1,
                                         seed=0)
        config = EngineConfig(mu_x=0.01, mu_y=0.01,
                              grace=GraceParams(beta=0.5, p=0.002), T=5000)

        def no_round(*args):
            raise AssertionError("a round ran")

        monkeypatch.setattr(engine, "_run_chunk", no_round)
        with pytest.raises(ConfigError, match="B_big"):
            run_and_measure(config, problem,
                            build_strategy(StrategyKind.ED, ring4_lazy))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(mu_x=0.0, mu_y=0.01,
                         grace=GraceParams(beta=0, p=1), T=10)
        with pytest.raises(ConfigError):
            EngineConfig(mu_x=0.01, mu_y=0.01,
                         grace=GraceParams(beta=0, p=1), T=0)
        for seeds in ((), (1, 1)):
            with pytest.raises(ConfigError):
                EngineConfig(mu_x=0.01, mu_y=0.01,
                             grace=GraceParams(beta=0, p=1), T=1, seeds=seeds)


class TestStep:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dual_average_conserved(self, ring8_lazy, quad_problem, kind):
        ops = build_strategy(kind, ring8_lazy)
        grace = GraceParams(beta=0.1, p=0.1, b=2, b0=4)
        config = EngineConfig(mu_x=0.002, mu_y=0.01,
                              grace=grace, T=500, seeds=(4,))
        run = HandRun(config, quad_problem)
        for _ in range(500):
            step(run, config, quad_problem, ops)
        assert np.max(np.abs(run.D.sum(axis=1))) <= 1e-9

    def test_zero_steps_freeze(self, ring8_lazy, quad_problem):
        # smallest representable positive step keeps validation happy while
        # moving iterates below measurable thresholds is not the point here:
        # instead check mu -> 0 limit by comparing two tiny steps
        grace = GraceParams(beta=0, p=1, b0=64)
        config = EngineConfig(mu_x=1e-300, mu_y=1e-300, grace=grace, T=5)
        series = run_ok(config, quad_problem,
                        build_strategy(StrategyKind.ED, ring8_lazy),
                        x0=np.ones(3))
        col = series.columns["grad_x_sq"][0]
        assert all(g == pytest.approx(col[0], rel=1e-10) for g in col)

    def test_divergence_detected(self, ring8_lazy, quad_problem):
        grace = GraceParams(beta=0, p=1, b0=64)
        config = EngineConfig(mu_x=50.0, mu_y=50.0,
                              grace=grace, T=500)
        series = run_and_measure(config, quad_problem,
                                 build_strategy(StrategyKind.ED, ring8_lazy),
                                 x0=np.ones(3))
        err = series.failures[0]
        assert isinstance(err, DivergenceError)
        assert err.round_index is not None
        assert series.ok_seeds == []
        # the partial columns end at the last round recorded before the failure
        recorded = np.isfinite(series.columns["consensus_sq"][0])
        assert recorded.sum() == err.round_index >= 1
        assert recorded[:err.round_index].all()

    def test_divergent_seed_frozen_in_batch(self, ring4_lazy):
        # conftest's DIVERGENT: seed 4 sits frozen beside seeds 2 and 5
        # until they fail a round later
        problem, grace, steps, T, seeds = divergent_batch()
        ops = build_strategy(StrategyKind.ED, ring4_lazy)

        def run(seeds):
            config = EngineConfig(mu_x=steps[0], mu_y=steps[1], grace=grace,
                                  T=T, seeds=seeds)
            return run_and_measure(config, problem, ops)

        batch = run(seeds)
        assert batch.ok_seeds == [1, 7]
        assert {s: e.round_index for s, e in batch.failures.items()} == \
            {2: 2, 4: 1, 5: 2}
        for seed in seeds:
            alone = run((seed,))
            assert {s: str(e) for s, e in alone.failures.items()} == \
                {s: str(e) for s, e in batch.failures.items() if s == seed}
            row = batch.seeds.index(seed)
            for name in COLUMNS[:6] + ("samples_used",):
                assert alone.columns[name][0].tobytes() == \
                    batch.columns[name][row].tobytes(), (seed, name)

    def test_non_finite_estimate_fails_every_seed(self, ring4_lazy):
        problem = make_quadratic_problem(K=4, d1=2, d2=1, N=None,
                                         sigma=np.inf, seed=0)
        config = EngineConfig(mu_x=0.01, mu_y=0.01,
                              grace=GraceParams(beta=0.5, p=0.0), T=3,
                              seeds=(0, 1))
        with np.errstate(invalid="ignore"):
            series = run_and_measure(
                config, problem, build_strategy(StrategyKind.ED, ring4_lazy))
        assert {s: str(e) for s, e in series.failures.items()} == {
            0: "non-finite gradient estimate at agent 0",
            1: "non-finite gradient estimate at agent 0"}
        assert np.isnan(series.columns["grad_x_sq"]).all()


class TestPaperRecursion:
    """The engine's one primal block and carried dual D = B D_paper against
    the paper's recursion on separate X, Y, D_x, D_y: every round, both
    step from the engine's state with the same estimates."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("graph", ["ring8", "random64"])
    def test_matches_paper_recursion(self, ring8_lazy, kind, graph):
        if graph == "ring8":
            mixing = ring8_lazy
        else:
            mixing = random_connected_mixing(np.random.default_rng(64), 64)
        K, d1, d2 = mixing.K, 3, 2
        problem = make_quadratic_problem(K=K, d1=d1, d2=d2, N=None,
                                         sigma=0.5, seed=11)
        grace = GraceParams(beta=0.2, p=0.0, b=2, b0=4)
        config = EngineConfig(mu_x=0.003, mu_y=0.01,
                              grace=grace, T=500, seeds=(7,))
        ops = build_strategy(kind, mixing)
        mu = config.signed_step(d1, d2)
        ref = PaperRecursion(kind, mixing)
        run = HandRun(config, problem, x0=np.ones(d1))
        for i in range(500):
            update_checked(run, run.Z)
            Z, M = run.Z[0], run.M[0]
            D = ref.B_pinv @ run.D[0]
            X, Y, D_x, D_y = ref.step(Z[:, :d1], Z[:, d1:], D[:, :d1],
                                      D[:, d1:], M[:, :d1], M[:, d1:],
                                      config.mu_x, config.mu_y)
            run.advance(mu, ops)
            want_Z = np.concatenate([X, Y], axis=1)
            want_D = ref.B @ np.concatenate([D_x, D_y], axis=1)
            # relative to the state's largest entry: D gains B^2 Z each
            # round, so its rounding follows the scale of Z
            scale = max(np.max(np.abs(want_Z)), np.max(np.abs(want_D)))
            assert_close(run.Z[0], want_Z, 1e-12 * scale,
                         f"{kind.value} Z round {i}")
            assert_close(run.D[0], want_D, 1e-12 * scale,
                         f"{kind.value} D round {i}")


class TestSlotContract:
    """The gradient kernel, update_estimator and advance read their inputs
    and write only their out arrays and their scratch, so a round reading
    slot i and writing slot i+1 leaves every earlier slot as it was:
    _Chunk.flush and _first_failures read the chunk's earlier slots after
    its rounds. The scratch carries nothing from one round to the next:
    what it holds when a round begins reaches none of the round's
    outputs."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("N", [None, 64], ids=["online", "offline"])
    def test_round_writes_only_out(self, ring8_lazy, kind, N):
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=N, sigma=0.5,
                                         seed=5)
        params = GraceParams(beta=0.3, p=0.5, b=2, B_big=16, b0=4)
        rng = np.random.default_rng(1)
        ZD = rng.standard_normal((2, 3, 8, 5))
        state, M, G = init_estimator(problem, params, (1, 2, 3), ZD[0])
        mu = rng.uniform(0.001, 0.01, size=M.shape)
        ops = build_strategy(kind, ring8_lazy)
        grads = problem.gradient_kernel(M.shape)
        scratch = np.zeros((2,) + M.shape)
        rounds = 8
        draws = draw(state, params, problem, rounds)
        # some rounds refresh some replicates, and the rest recurse
        assert draws.refresh.any() and not draws.refresh.all()
        held = {"refresh": draws.refresh, "cum_used": draws.cum_used,
                "mu": mu}
        if draws.noise is not None:
            held["noise"] = draws.noise
        for r in range(rounds):
            outs = []
            # the scratch as the last round left it, then all NaN
            for fill in (None, np.nan):
                if fill is not None:
                    scratch.fill(fill)
                inputs = {"M": M, "G": G, "ZD": ZD, **held}
                before = {name: a.tobytes() for name, a in inputs.items()}
                g, M_new = np.full((2,) + M.shape, np.nan)
                grads(ZD[0].reshape(-1, 5), g.reshape(-1, 5))
                inputs["g"], before["g"] = g, g.tobytes()
                update_estimator(M, G, g, draws, r, params, M_new,
                                 scratch[1])
                ZD_out = np.full(ZD.shape, np.nan)
                inputs["M_new"], before["M_new"] = M_new, M_new.tobytes()
                advance(ZD, M_new, mu, ops, ZD_out, scratch)
                assert [name for name, a in inputs.items()
                        if a.tobytes() != before[name]] == [], r
                # every entry of out is written
                assert np.isfinite(g).all() and np.isfinite(M_new).all() \
                    and np.isfinite(ZD_out).all(), r
                outs.append([a.tobytes() for a in (g, M_new, ZD_out)])
            assert outs[0] == outs[1], r
            M, G, ZD = M_new, g, ZD_out


def counted_gradients(monkeypatch, problem, count):
    """Call count() at every call of a gradient kernel the problem binds:
    once per gradient evaluation, exact_grads_block's and each round's."""
    bind = problem.gradient_kernel

    def counted(shape):
        grads = bind(shape)
        return lambda Z, out: count() or grads(Z, out)
    monkeypatch.setattr(problem, "gradient_kernel", counted)


class TestRunAndMeasure:
    def test_deterministic_runs_identical(self, ring8_lazy, quad_problem):
        grace = GraceParams(beta=0.1, p=0.2, b=4, b0=8)
        config = EngineConfig(mu_x=0.002, mu_y=0.01, grace=grace, T=100,
                              seeds=(13, 14))
        ops = build_strategy(StrategyKind.ATC_GT, ring8_lazy)
        s1 = run_ok(config, quad_problem, ops, x0=np.ones(3))
        s2 = run_ok(config, quad_problem, ops, x0=np.ones(3))
        assert s1.columns.keys() == s2.columns.keys()
        for name, col in s1.columns.items():
            assert col.tobytes() == s2.columns[name].tobytes(), name

    @pytest.mark.parametrize("rounds", [None, 1],
                             ids=["default_chunk", "one_row_chunk"])
    def test_one_gradient_block_per_round(self, ring8_lazy, monkeypatch,
                                          rounds):
        set_chunk_rounds(monkeypatch, rounds)
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=16, sigma=0.5,
                                         seed=5)
        calls = []
        counted_gradients(monkeypatch, problem, lambda: calls.append(1))
        grace = GraceParams(beta=0.1, p=0.2, b=2, b0=4)
        ops = build_strategy(StrategyKind.ED, ring8_lazy)
        bundle = build_transform_bundle(ops.kind, ring8_lazy)
        for T in (10, 100):
            totals = set()
            for seeds in ((0,), (0, 1, 2)):
                calls.clear()
                config = EngineConfig(mu_x=0.002, mu_y=0.01, grace=grace,
                                      T=T, seeds=seeds)
                run_ok(config, problem, ops, bundle=bundle)
                # the init and the iterates of each of the T+1 rows; the
                # centroid metrics take none
                assert len(calls) == 1 + (T + 1)
                totals.add(len(calls))
            assert len(totals) == 1
        calls.clear()
        problem.centroid_metrics(np.zeros((4, 3, 5)))
        assert calls == []

    def test_offline_beta_zero_error_zero_from_first_refresh(
            self, ring8_lazy, quad_problem):
        N, b0 = quad_problem.N, 4
        grace = GraceParams(beta=0.0, p=0.05, b=4, b0=b0)
        config = EngineConfig(mu_x=0.002, mu_y=0.01, grace=grace, T=300,
                              seeds=(1, 2, 3))
        series = run_ok(config, quad_problem,
                        build_strategy(StrategyKind.ED, ring8_lazy),
                        x0=np.ones(3))
        cols = series.columns
        used = np.diff(cols["samples_used"], prepend=b0, axis=1)
        for row in range(3):
            refresh = used[row] == N
            first = int(refresh.argmax())
            # a refresh after some recursions, and more chunks than one
            assert refresh.any() and 0 < first
            for name in ("est_err_sq", "est_err_avg_sq"):
                # until the first refresh, the error is the b0 draw's; from
                # it on, every estimate is the exact gradient
                assert (cols[name][row, :first] > 0).all(), (row, name)
                assert (cols[name][row, first:] == 0.0).all(), (row, name)
        assert engine._chunk_rounds((3, 8, 5), config.T)[0] < config.T

    def test_row_count_and_round_column(self, ring8_lazy, quad_problem):
        grace = GraceParams(beta=0, p=1, b0=8)
        config = EngineConfig(mu_x=0.002, mu_y=0.01, grace=grace, T=3)
        series = run_ok(config, quad_problem,
                        build_strategy(StrategyKind.ED, ring8_lazy))
        assert set(series.columns) == set(COLUMNS) - {"ehat_x_sq", "ehat_y_sq"}
        for col in series.columns.values():
            assert col.shape == (1, 4)  # rounds 0..3
        assert (np.diff(series.columns["samples_used"][0]) > 0).all()

    def test_deterministic_convergence_smoothness_steps(self, ring8_lazy):
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=16, sigma=0.0,
                                         seed=5, zero_mean_linear=True)
        c = problem.constants
        mu_x = 1 / (4 * c.L)  # envelope-smoothness step; faster than the
        mu_y = min(1 / c.nu, 1 / (2 * c.L_f))  # fully conservative regime
        grace = GraceParams(beta=0, p=1, b0=16)
        for kind in (StrategyKind.ED, StrategyKind.EXTRA,
                     StrategyKind.ATC_GT):
            config = EngineConfig(mu_x=mu_x, mu_y=mu_y,
                                  grace=grace, T=3000)
            series = run_ok(config, problem, build_strategy(kind, ring8_lazy),
                            x0=np.ones(3), y0=np.ones(2))
            cols = series.columns
            assert cols["grad_x_sq"][0, -1] + cols["grad_y_sq"][0, -1] <= 1e-8, kind
            assert cols["consensus_sq"][0, -1] <= 1e-10, kind

    def test_monotone_consensus_decay(self, ring8_lazy):
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=16, sigma=0.0,
                                         seed=5)
        mu_x, mu_y = smoothness_steps(problem)
        grace = GraceParams(beta=0, p=1, b0=16)
        config = EngineConfig(mu_x=mu_x, mu_y=mu_y,
                              grace=grace, T=400)
        series = run_ok(config, problem,
                        build_strategy(StrategyKind.ED, ring8_lazy),
                        x0=np.ones(3))
        consensus = series.columns["consensus_sq"][0]
        assert consensus[400] <= consensus[200]


class TestChunks:
    """Metrics are evaluated once per chunk of rounds and the draws are taken
    a chunk at a time; neither may show in a seed's columns."""

    @staticmethod
    def assert_same(a, b):
        assert {s: str(e) for s, e in a.failures.items()} == \
            {s: str(e) for s, e in b.failures.items()}
        assert a.columns.keys() == b.columns.keys()
        for name, col in a.columns.items():
            assert col.tobytes() == b.columns[name].tobytes(), name

    @pytest.mark.parametrize("case", ["offline_diagnostics", "sinpl",
                                      "failed_seeds"])
    def test_columns_do_not_depend_on_chunk_size(self, ring4_lazy,
                                                 monkeypatch, case):
        ops = build_strategy(StrategyKind.ED, ring4_lazy)
        bundle = None
        if case == "offline_diagnostics":
            problem = make_quadratic_problem(K=4, d1=3, d2=2, N=64,
                                             sigma=0.5, seed=5)
            grace = GraceParams(beta=0.1, p=0.2, b=4, b0=4)
            bundle = build_transform_bundle(ops.kind, ring4_lazy)
            steps, T, seeds = (0.002, 0.01), 150, (3, 8, 9)
        elif case == "sinpl":
            problem = make_sinpl_problem(K=4, sigma=0.5, seed=2)
            grace = GraceParams(beta=0.2, p=0.1, b=2, B_big=8, b0=4)
            steps, T, seeds = (0.01, 0.01), 150, (1, 2)
        else:
            problem, grace, steps, T, seeds = divergent_batch()
        config = EngineConfig(mu_x=steps[0], mu_y=steps[1], grace=grace, T=T,
                              seeds=seeds)
        default = run_and_measure(config, problem, ops, bundle=bundle)
        set_chunk_rounds(monkeypatch, 1)
        one_row = run_and_measure(config, problem, ops, bundle=bundle)
        assert (case == "failed_seeds") == bool(default.failures)
        self.assert_same(default, one_row)

    @pytest.mark.parametrize("case", ["sinpl_d2", "quadratic_K96"])
    def test_ehat_does_not_depend_on_batch_or_chunk(self, ring4_lazy,
                                                    monkeypatch, case):
        """A seed's columns, the ehat ones included, alone and in batches
        of 3 and 8, under the default chunk and one-round chunks. Alone in
        one-round chunks the diagnostics' projection is at its narrowest,
        3 S d = 6 columns wide with d = 2. At K=96 the default chunk of 31
        rounds runs its diagnostics in sub-blocks, the last one partial,
        in the batches of 3 and 8, and in one block alone."""
        if case == "sinpl_d2":
            mixing = ring4_lazy
            problem = make_sinpl_problem(K=4, sigma=0.5, seed=2)
            grace = GraceParams(beta=0.2, p=0.1, b=2, B_big=8, b0=4)
            steps, T = (0.01, 0.01), 100
        else:
            mixing = mixing_for_topology(Topology(kind="ring", K=96),
                                         lazy=True)
            problem = make_quadratic_problem(K=96, d1=1, d2=1, N=64,
                                             sigma=0.5, seed=5)
            grace = GraceParams(beta=0.1, p=0.2, b=2, b0=4)
            steps, T = (0.002, 0.01), 30
        assert problem.d1 + problem.d2 == 2
        ops = build_strategy(StrategyKind.ED, mixing)
        bundle = build_transform_bundle(ops.kind, mixing)
        if case == "quadratic_K96":
            blocks = [engine._chunk_rounds((S, 96, 2), T) for S in (1, 3, 8)]
            assert blocks == [(31, 31), (31, 11), (31, 5)]
        seed, alone = 7, None
        for rounds in (None, 1):
            set_chunk_rounds(monkeypatch, rounds)
            for seeds in ((seed,), (3, seed, 11), (0, 1, 2, 3, 4, 5, 6, seed)):
                config = EngineConfig(mu_x=steps[0], mu_y=steps[1],
                                      grace=grace, T=T, seeds=seeds)
                columns = run_ok(config, problem, ops, bundle=bundle).columns
                alone = alone or columns
                row = seeds.index(seed)
                for name, col in columns.items():
                    assert col[row].tobytes() == alone[name][0].tobytes(), \
                        (rounds, seeds, name)
        assert np.all(alone["ehat_x_sq"] > 0) and np.all(alone["ehat_y_sq"] > 0)

    @pytest.mark.parametrize("K", [96, 512])
    @pytest.mark.parametrize("kind", [StrategyKind.ED, StrategyKind.ATC_GT])
    def test_ehat_matches_centred_reference(self, K, kind):
        """The ehat columns of a wide_ring-shaped run (lazy ring, page
        preset with shrink, N=256, two seeds, 20 rounds) within 1e-12
        relative of reference_coupled_error_norms on each round's Z and
        mu M less their agent means, replayed round by round: u_j is
        orthogonal to 1, so the means add nothing to ehat but rounding.
        Projected as they are, they moved ehat by up to 1.4e-4 relative
        at K=96 and 1.9 (ATC-GT) at K=512."""
        raw = {"topology": {"kind": "ring", "K": K, "lazy": True},
               "strategy": kind.value,
               "problem": {"kind": "quadratic", "d1": 3, "d2": 2, "N": 256,
                           "sigma": 0.3, "seed": 5},
               "schedule": {"mode": "page_offline", "shrink_to_valid": True},
               "T": 20, "seeds": [1, 2], "x0": [0.5, -1.0, 1.5],
               "y0": [1.0, -0.5], "diagnostics": {"transform": True}}
        result = run_experiment(config_from_dict(raw))
        assert not result.failures
        ops = build_strategy(kind, result.mixing)
        bundle = build_transform_bundle(kind, result.mixing)
        run = HandRun(result.engine, result.problem, x0=raw["x0"],
                      y0=raw["y0"])
        mu = result.engine.signed_step(3, 2)
        for r in range(raw["T"] + 1):
            update_checked(run, run.Z)
            Z, muM = run.Z, mu * run.M
            ehat = reference_coupled_error_norms(
                Z - Z.mean(axis=-2, keepdims=True),
                muM - muM.mean(axis=-2, keepdims=True), run.D, bundle)
            sq = np.sum(ehat**2, axis=(0, 1))
            for name, want in (("ehat_x_sq", sq[:, :3].sum(-1)),
                               ("ehat_y_sq", sq[:, 3:].sum(-1))):
                rel = np.abs(result.series.columns[name][:, r] - want) / want
                assert (rel <= 1e-12).all(), (name, r, rel.max())
            run.advance(mu, ops)

    @pytest.mark.parametrize("rounds", [None, 1],
                             ids=["default_chunk", "one_row_chunk"])
    @pytest.mark.parametrize("diagnostics", [False, True],
                             ids=["no_bundle", "bundle"])
    def test_diagnostics_call_coupled_error_norms_once_per_chunk(
            self, ring4_lazy, monkeypatch, rounds, diagnostics):
        """The benchmark's trace times the diagnostics as the calls of
        transform.coupled_error_norms, rebinding the name wherever the
        package holds it: a run makes one call per sub-block of each
        chunk it flushes with a bundle, and none without. With d = 5 a
        chunk is one sub-block; with d = 50 the default chunk of 32
        rounds is three, of 11, 11 and 10 rounds."""
        set_chunk_rounds(monkeypatch, rounds)
        calls = []
        original = transform.coupled_error_norms

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "decminimax" and \
                    vars(module).get("coupled_error_norms") is original:
                monkeypatch.setattr(module, "coupled_error_norms", counted)
        ops = build_strategy(StrategyKind.ED, ring4_lazy)
        bundle = build_transform_bundle(ops.kind, ring4_lazy) \
            if diagnostics else None
        config = EngineConfig(mu_x=0.002, mu_y=0.01, T=150, seeds=(3, 8, 9),
                              grace=GraceParams(beta=0.1, p=0.2, b=4, b0=4))
        for d1, d2 in ((3, 2), (30, 20)):
            problem = make_quadratic_problem(K=4, d1=d1, d2=d2, N=64,
                                             sigma=0.5, seed=5)
            calls.clear()
            run_ok(config, problem, ops, bundle=bundle)
            R, sub = engine._chunk_rounds((3, 4, d1 + d2), config.T)
            # several chunks, the last of them partial by default
            assert R < config.T
            if rounds is None:
                assert (config.T + 1) % R
                assert (R, sub) == ((32, 32) if d1 == 3 else (32, 11))
            chunks = [min(R, config.T + 1 - start)
                      for start in range(0, config.T + 1, R)]
            assert len(calls) == (sum(-(-n // sub) for n in chunks)
                                  if diagnostics else 0)

    def test_late_failure_alone_matches_batch(self, ring4_lazy, monkeypatch):
        # seeds 7, 5 and 6 pass the cap at rounds 181, 465 and 1265, each in
        # a later chunk of rows; a frozen seed raises no floating-point error
        # in the rounds it sits out, and its zeroed slots none in the columns
        # of the chunk it fails in
        problem = make_quadratic_problem(K=4, d1=2, d2=1, N=None, sigma=1e13,
                                         seed=0)
        grace = GraceParams(beta=1.0, p=0.0, b=1, b0=1)
        ops = build_strategy(StrategyKind.ED, ring4_lazy)

        def run(seeds):
            config = EngineConfig(mu_x=0.01, mu_y=0.01, grace=grace, T=3000,
                                  seeds=seeds)
            with np.errstate(over="raise", invalid="raise", divide="raise"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                return run_and_measure(config, problem, ops)

        scan, tripped = engine._first_failures, []

        def spy(ZD, M, start, skip=()):
            errors = scan(ZD, M, start, skip)
            if errors:
                # the replicates that failed before: skipped, and at zero
                tripped.append((sorted(errors), sorted(skip),
                                bool(ZD[:, :, sorted(skip)].any())))
            return errors

        monkeypatch.setattr(engine, "_first_failures", spy)
        batch = run((5, 6, 7))
        # each seed trips the scan once, and frozen it stays at zero
        assert tripped == [([2], [], False), ([0], [2], False),
                           ([1], [0, 2], False)]
        assert engine._chunk_rounds((3, 4, 3), 3000)[0] < 181
        failed = {7: 181, 5: 465, 6: 1265}
        assert {s: e.round_index for s, e in batch.failures.items()} == failed
        for row, seed in enumerate(batch.seeds):
            r = failed[seed]
            recorded = np.isfinite(batch.columns["consensus_sq"][row])
            assert recorded.sum() == r and recorded[:r].all()
            assert (batch.columns["samples_used"][row, r:] == -1).all()
            assert (batch.columns["samples_used"][row, :r] > 0).all()
        for row, seed in enumerate(batch.seeds):
            alone = run((seed,))
            assert {s: str(e) for s, e in alone.failures.items()} == \
                {s: str(e) for s, e in batch.failures.items() if s == seed}
            for name, col in alone.columns.items():
                assert col[0].tobytes() == batch.columns[name][row].tobytes(), \
                    (seed, name)

    @pytest.mark.parametrize("N", [None, 64], ids=["online", "offline"])
    def test_rows_are_prefix_of_longer_run(self, ring8_lazy, N):
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=N, sigma=0.5,
                                         seed=5)
        grace = GraceParams(beta=0.1, p=0.2, b=2, B_big=16, b0=4)
        ops = build_strategy(StrategyKind.EXTRA, ring8_lazy)
        bundle = build_transform_bundle(ops.kind, ring8_lazy)
        short, long = (
            run_ok(EngineConfig(mu_x=0.002, mu_y=0.01, grace=grace, T=T,
                                seeds=(0, 1, 2)), problem, ops, bundle=bundle)
            for T in (100, 200))
        for name, col in short.columns.items():
            assert col.tobytes() == long.columns[name][:, :101].tobytes(), name

    @pytest.mark.parametrize("case", ["nan_in_Z", "nan_in_D", "Z_past_cap"])
    def test_iterate_errors_read_the_advanced_block(self, ring8_lazy,
                                                    quad_problem, case):
        # advance writes Z and D into its out block; a scan that read other
        # storage than that would miss the bad entry
        config = EngineConfig(mu_x=0.01, mu_y=0.01,
                              grace=GraceParams(beta=0, p=1, b0=4), T=10,
                              seeds=(0, 1, 2))
        run = HandRun(config, quad_problem, x0=np.ones(3))
        run.advance(config.signed_step(3, 2),
                    build_strategy(StrategyKind.ATC_GT, ring8_lazy))
        assert iterate_errors(run) == {}
        target = run.D if case == "nan_in_D" else run.Z
        target[1, 5, 2] = 2 * engine.DIVERGENCE_CAP if case == "Z_past_cap" \
            else np.nan
        errors = iterate_errors(run)
        assert list(errors) == [1]
        assert str(errors[1]) == (
            "iterate magnitude 2.000e+12 exceeds 1e+12 at round 1"
            if case == "Z_past_cap" else "non-finite iterate at round 1")

    def test_iterate_errors_catch_nan_in_dual_only(self, quad_problem):
        config = EngineConfig(mu_x=0.01, mu_y=0.01,
                              grace=GraceParams(beta=0, p=1, b0=4), T=10,
                              seeds=(0, 1))
        run = HandRun(config, quad_problem)
        assert iterate_errors(run) == {}
        run.D[1, 3, 2] = np.nan
        errors = iterate_errors(run)
        assert list(errors) == [1]
        assert str(errors[1]) == "non-finite iterate at round 0"


class TestChunkMemory:
    """A chunk's length and its memory, on (S, K, d) batches from a small
    ring to a large batch and K=1024: 32 rounds where a slot array of 32
    rounds stays within 1 MiB, never more than the run's T+1, and its
    slot arrays and diagnostics block within a declared ceiling. The
    diagnostics split a long run's chunk into the fewest sub-blocks of
    at most 64 KiB per slot array, all of one length: 16 + 16 rounds at
    S=8, K=8, 4 x 8 at S=2, K=96."""

    # bytes of a chunk's ZD, M, G and diagnostics block together
    CEILING = 4.5 * 2**20

    @staticmethod
    def chunk(S, K, T, bundle=None):
        problem = make_quadratic_problem(K=K, d1=3, d2=2, N=None, sigma=1.0,
                                         seed=0)
        series = engine.MetricsSeries.empty(tuple(range(S)), T,
                                            bundle is not None)
        return engine._Chunk(series, problem, bundle, (S, K, 5), T)

    @pytest.mark.parametrize("S, K, rounds, diag", [
        (8, 8, 32, 16), (2, 96, 32, 8), (128, 8, 25, 1), (2, 1024, 12, 1)],
        ids=["S8_K8", "S2_K96_bundle", "S128_K8", "S2_K1024"])
    def test_chunk_rounds_and_bytes(self, S, K, rounds, diag):
        bundle = None
        if K == 96:
            mixing = mixing_for_topology(Topology(kind="ring", K=K),
                                         lazy=True)
            bundle = build_transform_bundle(StrategyKind.ED, mixing)
        for T, want in ((1000, rounds), (20, min(rounds, 21)), (1, 2)):
            chunk = self.chunk(S, K, T, bundle)
            assert chunk.rounds == want <= T + 1, (T, chunk.rounds)
            if T == 1000:
                assert chunk.diag_rounds == diag
            held = [chunk.ZD, chunk.M, chunk.G] + \
                ([chunk.X] if bundle is not None else [])
            assert sum(a.nbytes for a in held) < self.CEILING, T
            assert hasattr(chunk, "X") == (bundle is not None)

    def test_diagnostics_block_does_not_grow_with_chunk(self, monkeypatch):
        """At S=2, K=96, d=5 (the wide_ring batch) the diagnostics run in
        sub-blocks of 8 rounds, and their block is the same size for
        chunks of 8 to 64 rounds."""
        mixing = mixing_for_topology(Topology(kind="ring", K=96), lazy=True)
        bundle = build_transform_bundle(StrategyKind.ED, mixing)
        sizes = set()
        for rounds in (8, 16, 32, 64):
            set_chunk_rounds(monkeypatch, rounds)
            chunk = self.chunk(2, 96, 400, bundle)
            assert (chunk.rounds, chunk.diag_rounds) == (rounds, 8)
            sizes.add(chunk.X.nbytes)
        assert sizes == {transform.projection_buffer((8, 2, 96, 5)).nbytes}

    @pytest.mark.parametrize("case, S", [
        (case, S) for S in (64, 61, 1) for case in ROUND_CASES],
        ids=[case + ("" if S == 64 else f"-S{S}")
             for S in (64, 61, 1) for case in ROUND_CASES])
    def test_rounds_allocate_no_block(self, ring8_lazy, case, S):
        """The rounds of a warmed chunk at K=8, d=5 allocate less than
        one (S, K, d) block between them, 20480 bytes at S=64: online
        STORM with noise, offline with refreshes and EXTRA, whose C
        product the ED rows skip. At S=61 and S=1 the gradient kernel
        pads the batch to 64 and 8 replicates. At S=1 the bound is one
        block of those 8 replicates, 2560 bytes, since numpy's own
        bookkeeping in a round's calls (about 0.9 KB whatever S is)
        passes a 320-byte (1, 8, 5) block; a kernel that allocated its
        padded rows per call would exceed it."""
        kind, N, p = ROUND_CASES[case]
        shape = (S, 8, 5)
        block = 8 * int(np.prod((max(S, 8),) + shape[1:]))
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=N, sigma=0.5,
                                         seed=0)
        params = GraceParams(beta=0.3, p=p, b=2, B_big=16, b0=4)
        ops = build_strategy(kind, ring8_lazy)
        seeds = tuple(range(S))
        chunk = engine._Chunk(engine.MetricsSeries.empty(seeds, 100, False),
                              problem, None, shape, 100)
        chunk.ZD[:, 0] = np.random.default_rng(0).standard_normal(
            (2,) + shape)
        state, chunk.M[0], chunk.G[0] = init_estimator(problem, params, seeds,
                                                       chunk.ZD[0, 0])
        mu = np.tile(EngineConfig(mu_x=0.01, mu_y=0.01, grace=params,
                                  T=100).signed_step(3, 2), (S, 8, 1))
        # a chunk that warms up, then the traced one
        for _ in range(2):
            draws = draw(state, params, problem, chunk.rounds)
            assert draws.noise is not None
            assert any(draws.any_refresh) == (p > 0)
            tracemalloc.start()
            try:
                engine._run_chunk(chunk, draws, mu, ops, params,
                                  chunk.rounds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.isfinite(chunk.ZD).all()
        assert peak < block, peak


class TestFirstFailures:
    """The scan of a chunk's slots, on hand-built slots of a chunk that
    began at round 10: four advances and four estimates, rounds 10..13,
    of three replicates of four agents in three dimensions."""

    START = 10

    @staticmethod
    def slots():
        return np.ones((2, 4, 3, 4, 3)), np.ones((4, 3, 4, 3))

    def failures(self, ZD, M, skip=()):
        return {i: (str(e), e.round_index, e.max_entry)
                for i, e in _first_failures(ZD, M, self.START, skip).items()}

    def test_clean_slots_pass(self):
        assert self.failures(*self.slots()) == {}

    @pytest.mark.parametrize("half", [0, 1], ids=["Z", "D"])
    def test_nan_in_one_half(self, half):
        ZD, M = self.slots()
        ZD[half, 2, 1, 3, 0] = np.nan
        # the third advance, round 12's, writes the iterates of round 13
        assert self.failures(ZD, M) == {
            1: ("non-finite iterate at round 13", 13, float("inf"))}

    def test_iterate_past_cap(self):
        ZD, M = self.slots()
        ZD[0, 0, 2, 1, 2] = -2 * DIVERGENCE_CAP
        ZD[0, 1, 2, 1, 2] = np.inf
        assert self.failures(ZD, M) == {
            2: ("iterate magnitude 2.000e+12 exceeds 1e+12 at round 11", 11,
                2 * DIVERGENCE_CAP)}

    def test_estimate_names_first_bad_agent(self):
        ZD, M = self.slots()
        M[1, 0, 2, 1] = np.nan
        M[1, 0, 3, 0] = np.inf
        M[3, 0, 0, 0] = np.nan
        assert self.failures(ZD, M) == {
            0: ("non-finite gradient estimate at agent 2", 11, float("inf"))}

    def test_iterate_wins_at_same_round(self):
        # round 12's estimate and the iterate round 11's advance wrote
        ZD, M = self.slots()
        M[2, 1, 0, 0] = np.nan
        ZD[1, 1, 1, 0, 0] = np.nan
        assert self.failures(ZD, M) == {
            1: ("non-finite iterate at round 12", 12, float("inf"))}
        # a round earlier, the estimate comes first
        M[1, 1, 0, 0] = np.nan
        assert self.failures(ZD, M)[1][1] == 11

    def test_replicates_fail_at_their_own_rounds(self):
        ZD, M = self.slots()
        ZD[0, 3, 0, 0, 0] = 3 * DIVERGENCE_CAP
        M[0, 2, 1, 1] = np.inf
        ZD[0, 1:, 2] = np.nan
        assert self.failures(ZD, M) == {
            0: ("iterate magnitude 3.000e+12 exceeds 1e+12 at round 14", 14,
                3 * DIVERGENCE_CAP),
            2: ("non-finite gradient estimate at agent 1", 10, float("inf")),
            }
        # in the order of their rounds
        assert list(self.failures(ZD, M)) == [2, 0]

    def test_skipped_replicate_is_ignored(self):
        ZD, M = self.slots()
        ZD[:, :, 1] = np.nan
        M[:, 1] = np.nan
        M[3, 2, 0, 0] = np.nan
        assert self.failures(ZD, M, skip={1}) == {
            2: ("non-finite gradient estimate at agent 0", 13, float("inf"))}


def assert_same_run(got, want):
    """Byte-equal columns and equal failures: message, round and entry."""
    assert {s: (str(e), e.round_index, e.max_entry)
            for s, e in got.failures.items()} == \
        {s: (str(e), e.round_index, e.max_entry)
         for s, e in want.failures.items()}
    assert got.columns.keys() == want.columns.keys()
    for name, col in got.columns.items():
        assert col.tobytes() == want.columns[name].tobytes(), name


class TestRoundByRoundReference:
    """The chunk of slots, run once unchecked and scanned for each
    replicate's first failure, against conftest's round-by-round loop."""

    SEEDS = (1, 2, 3)

    def run_both(self, monkeypatch, problem, ops, bundle, mu, T, rounds,
                 x0=None):
        """Both runs with chunks of `rounds` rounds (None: the default),
        which must agree; returns the reference's series."""
        set_chunk_rounds(monkeypatch, rounds)
        config = EngineConfig(mu_x=mu, mu_y=mu, T=T, seeds=self.SEEDS,
                              grace=GraceParams(beta=0.3, p=0.1, b=1,
                                                B_big=4, b0=1))
        with np.errstate(all="ignore"):
            want = reference_run_and_measure(config, problem, ops, bundle,
                                             x0=x0)
            got = run_and_measure(config, problem, ops, bundle, x0=x0)
        assert_same_run(got, want)
        return want

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("N", [None, 64], ids=["online", "offline"])
    @pytest.mark.parametrize("diagnostics", [False, True],
                             ids=["no_bundle", "bundle"])
    def test_matches_reference(self, ring4_lazy, monkeypatch, kind, N,
                               diagnostics):
        problem = make_quadratic_problem(K=4, d1=2, d2=1, N=N, sigma=1e3,
                                         seed=0)
        ops = build_strategy(kind, ring4_lazy)
        bundle = build_transform_bundle(kind, ring4_lazy) \
            if diagnostics else None

        def run(mu, T, rounds, x0=None):
            return self.run_both(monkeypatch, problem, ops, bundle, mu, T,
                                 rounds, x0)

        # chunks of the default size, of one round and of 9 rounds
        sizes = (None, 1, 9)
        for rounds in sizes:
            assert not run(0.01, 40, rounds).failures
        # every seed passes the cap between rounds 14 and 25, in the middle
        # of the default chunk
        fails = {s: e.round_index
                 for s, e in run(2.0, 60, None).failures.items()}
        assert sorted(fails) == list(self.SEEDS)
        first, last = min(fails.values()), max(fails.values())
        assert 1 < first and last < DEFAULT_CHUNK_ROUNDS - 1
        for rounds in sizes[1:]:
            run(2.0, 60, rounds)
        # the first failure found at a chunk's last advance, or at the
        # advance of its first round, and the last failure at round T
        run(2.0, 60, first)
        run(2.0, 60, first - 1)
        assert run(2.0, last, 9).failures[max(fails, key=fails.get)] \
            .round_index == last
        # a large start point moves every failure a few rounds earlier
        assert min(e.round_index for e in run(
            2.0, 60, 9, x0=np.full(2, 1e6)).failures.values()) < first

    def test_checks_run_only_in_a_failing_chunk(self, ring4_lazy,
                                                monkeypatch):
        # seed 7 passes the cap at round 181, in the sixth of seven chunks
        # of 32 rounds; seeds 5 and 6 run on
        problem = make_quadratic_problem(K=4, d1=2, d2=1, N=None, sigma=1e13,
                                         seed=0)
        ops = build_strategy(StrategyKind.ED, ring4_lazy)
        calls = collections.Counter()
        for name in ("_first_failures", "_run_chunk"):
            monkeypatch.setattr(engine, name, functools.partial(
                lambda fn, name, *args, **kwargs: calls.update([name])
                or fn(*args, **kwargs),
                getattr(engine, name), name))
        counted_gradients(monkeypatch, problem,
                          lambda: calls.update(["grads"]))
        for T in (150, 200):
            assert engine._chunk_rounds((3, 4, 3), T)[0] == 32
        for T, failed in ((150, {}), (200, {7: 181})):
            calls.clear()
            config = EngineConfig(mu_x=0.01, mu_y=0.01, T=T, seeds=(5, 6, 7),
                                  grace=GraceParams(beta=1.0, p=0.0))
            series = run_and_measure(config, problem, ops)
            assert {s: e.round_index
                    for s, e in series.failures.items()} == failed
            chunks = -(-(T + 1) // 32)
            # every chunk runs once, a failing one too, and only a failing
            # chunk's slots are scanned
            assert calls == collections.Counter(
                _run_chunk=chunks, grads=1 + (T + 1),
                _first_failures=bool(failed)) - collections.Counter()

    @pytest.mark.parametrize("N", [None, 64], ids=["online", "offline"])
    def test_non_finite_estimates_match_reference(self, ring4_lazy,
                                                  monkeypatch, N):
        ops = build_strategy(StrategyKind.ED, ring4_lazy)
        bundle = build_transform_bundle(ops.kind, ring4_lazy)
        if N is None:
            # infinite noise: every estimate is non-finite from round 0
            problem = make_quadratic_problem(K=4, d1=2, d2=1, N=None,
                                             sigma=np.inf, seed=0)
        else:
            # a seed's estimate turns non-finite when it draws sample 5 of
            # agent 2
            problem = make_quadratic_problem(K=4, d1=2, d2=1, N=N,
                                             sigma=0.5, seed=0)
            problem.samples[2, 5] = np.inf
        for rounds in (None, 1, 9):
            series = self.run_both(monkeypatch, problem, ops, bundle, 0.01,
                                   150, rounds)
            assert {str(e) for e in series.failures.values()} == \
                {"non-finite gradient estimate at agent 2" if N
                 else "non-finite gradient estimate at agent 0"}
            rounds_hit = {e.round_index for e in series.failures.values()}
            assert rounds_hit == {0} if N is None else \
                len(rounds_hit) > 1 and 0 not in rounds_hit

    def test_frozen_replicates_drawing_infinite_sample_raise_nothing(
            self, ring4_lazy):
        # the seeds' estimates turn non-finite when they draw sample 5 of
        # agent 2, at rounds 2 to 118, in two chunks; a frozen replicate
        # draws on, and its rounds raise nothing under the caller's error
        # state, as they run with floating-point errors ignored
        problem = make_quadratic_problem(K=4, d1=2, d2=1, N=64, sigma=0.5,
                                         seed=0)
        problem.samples[2, 5] = np.inf
        ops = build_strategy(StrategyKind.ED, ring4_lazy)
        bundle = build_transform_bundle(ops.kind, ring4_lazy)
        config = EngineConfig(mu_x=0.01, mu_y=0.01, T=400,
                              seeds=tuple(range(6)),
                              grace=GraceParams(beta=0.3, p=0.1, b=1, b0=1))
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_and_measure(config, problem, ops, bundle)
        with np.errstate(all="ignore"):
            want = reference_run_and_measure(config, problem, ops, bundle)
        assert_same_run(got, want)
        # in the order the round-by-round loop finds them
        assert [(s, e.round_index) for s, e in got.failures.items()] == \
            [(1, 2), (2, 12), (0, 15), (5, 54), (3, 92), (4, 118)]
        assert list(want.failures) == list(got.failures)
