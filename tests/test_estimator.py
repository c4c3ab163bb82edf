import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decminimax import (
    ConfigError,
    EngineConfig,
    GraceParams,
    ScheduleMode,
    ScheduleSpec,
    StrategyKind,
    build_strategy,
    draw,
    estimator_error,
    init_estimator,
    make_quadratic_problem,
    run_and_measure,
    schedule_for_mode,
)
from decminimax.estimator import agent_mean

from conftest import HandEstimator, assert_close, grad_x_is_x_problem, \
    update_checked, update_unchecked


def noise_stream(seed):
    """The replicate's noise stream, rebuilt as the estimator documents it."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])


def grace_of(mode, **spec):
    return schedule_for_mode(ScheduleSpec(mode=mode, kappa=1.0, **spec))[2]


def start_block(problem, S=1):
    """Zero start iterates of a batch of S replicates, (S, K, d1+d2)."""
    return np.zeros((S, problem.K, problem.d1 + problem.d2))


class TestParams:
    def test_beta_bar_identity(self):
        p = GraceParams(beta=0.3, p=0.2)
        assert p.beta_bar == pytest.approx(0.2 + 0.3 - 0.06, abs=1e-15)

    @given(beta=st.floats(0, 1), p=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_beta_bar_product_form(self, beta, p):
        params = GraceParams(beta=beta, p=p)
        assert params.beta_bar == pytest.approx(1 - (1 - p) * (1 - beta),
                                                abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            GraceParams(beta=1.5, p=0.0)
        with pytest.raises(ConfigError):
            GraceParams(beta=0.0, p=-0.1)
        with pytest.raises(ConfigError):
            GraceParams(beta=0.0, p=0.0, b=0)


class TestPresets:
    def test_page_offline_example(self):
        params = grace_of(ScheduleMode.PAGE_OFFLINE, N=1024, K=4, T=1000)
        assert params.b == 16
        assert params.b0 == 16
        assert params.p == pytest.approx(1 / 64)
        assert params.B_big == 1024
        assert params.beta == 0.0

    def test_lsarah_offline_example(self):
        params = grace_of(ScheduleMode.LSARAH_OFFLINE, N=1024, K=4, T=1000)
        assert params.b == 1
        assert params.b0 == 8
        assert params.p == pytest.approx(1 / 256)
        assert params.B_big == 256

    def test_storm_degenerate(self):
        params = grace_of(ScheduleMode.STORM_ED, K=1, T=1)
        assert params.beta == 1.0
        assert params.p == 0.0
        assert params.b0 == 1

    def test_offline_modes_need_N(self):
        with pytest.raises(ConfigError):
            grace_of(ScheduleMode.PAGE_OFFLINE, K=4, T=1000)


class TestInit:
    def test_full_batch_init_is_exact(self, quad_problem):
        state, _, _ = init_estimator(quad_problem,
                                     GraceParams(beta=0, p=1, b0=64),
                                     seeds=(0,), Z0=start_block(quad_problem))
        # b0 = N draws with replacement are not the full sum; use mean check
        assert state.samples_used == 64

    def test_noiseless_online_init_exact(self):
        problem = make_quadratic_problem(K=4, d1=2, d2=2, N=None, sigma=0.0,
                                         seed=1)
        _, M, G = init_estimator(problem, GraceParams(beta=1, p=0, b0=1),
                                 seeds=(0,), Z0=start_block(problem))
        err, _ = estimator_error(M - G)
        assert err[0] <= 1e-24

    def test_offline_init_matches_logged_indices(self):
        problem = make_quadratic_problem(K=2, d1=1, d2=1, N=8, sigma=1.0,
                                         seed=2)
        Z = start_block(problem)
        _, M, _ = init_estimator(problem, GraceParams(beta=0, p=0.5, b0=4),
                                 seeds=(7,), Z0=Z)
        # recompute by hand: the init's only draw is a (K, b0) index block,
        # the first draw of the noise stream
        idx = noise_stream(7).integers(0, 8, size=(problem.K, 4))
        X, Y = Z[..., :1], Z[..., 1:]
        for k in range(problem.K):
            gx = problem.Q[k] @ X[0, k] + problem.R[k] @ Y[0, k] \
                + problem.samples[k, idx[k], :1].mean(axis=0)
            assert_close(M[0, k, :1], gx, 1e-14, f"agent {k} init")

    def test_replicate_streams_independent(self):
        K, d1, d2 = 8, 3, 2
        problem = make_quadratic_problem(K=K, d1=d1, d2=d2, N=None,
                                         sigma=1.0, seed=0)
        _, M, G = init_estimator(problem, GraceParams(beta=1, p=0, b0=1),
                                 seeds=range(32), Z0=start_block(problem, S=32))
        # each replicate's first draw is one standard-normal block, scaled
        # per side
        rows = ((M - G) * np.sqrt(np.repeat([d1, d2], [d1, d2]))
                ).reshape(32 * K, d1 + d2)
        plain = np.vstack([np.random.default_rng(s).standard_normal((K, d1 + d2))
                           for s in range(32)])
        # no row of one replicate's block recurs in another replicate's
        # block or in the first draws of default_rng(s), s = 0..31
        gaps = np.abs(rows[:, None, :] - np.vstack([rows, plain])[None]).max(axis=2)
        gaps[np.arange(len(rows)), np.arange(len(rows))] = np.inf
        assert gaps.min() > 1e-6


class TestUpdate:
    def test_full_refresh_zero_error(self, quad_problem):
        Z = start_block(quad_problem)
        params = GraceParams(beta=0, p=1, b0=64)
        est = HandEstimator(quad_problem, params, (0,), Z)
        rng = np.random.default_rng(3)
        for _ in range(5):
            update_checked(est, Z + rng.standard_normal(Z.shape))
            err, err_avg = estimator_error(est.M - est.G)
            assert err[0] == 0.0
            assert err_avg[0] == 0.0

    def test_beta_one_fresh_minibatch(self):
        problem = make_quadratic_problem(K=4, d1=2, d2=2, N=None, sigma=0.0,
                                         seed=4)
        Z = start_block(problem)
        params = GraceParams(beta=1, p=0, b=1, b0=1)
        est = HandEstimator(problem, params, (0,), Z)
        Zc = Z + np.repeat([1.0, -1.0], 2)
        update_checked(est, Zc)
        err, _ = estimator_error(est.M - est.G)
        assert err[0] <= 1e-24

    def test_sarah_hand_example(self):
        # J = x^2/2 so grad(x) = x; beta=0, p=0, b=1, prev x=1, cur x=0.5,
        # g_prev = 1 gives g = 1 - 1 + 0.5 = 0.5
        problem = grad_x_is_x_problem()
        params = GraceParams(beta=0.0, p=0.0, b=1, b0=8)
        est = HandEstimator(problem, params, (0,), np.array([[[1.0, 0.0]]]))
        est.M[..., 0] = 1.0  # g_{i-1} = 1 at prev x = 1
        update_checked(est, np.array([[[0.5, 0.0]]]))
        assert est.M[0, 0, 0] == 0.5

    def test_shared_switch_across_agents(self, quad_problem):
        Z = start_block(quad_problem, S=3)
        params = GraceParams(beta=0.1, p=0.5, b=2, b0=4)
        est = HandEstimator(quad_problem, params, (11, 12, 13), Z)
        rng = np.random.default_rng(0)
        kinds = []
        for _ in range(50):
            update_checked(est, rng.standard_normal(Z.shape))
            # per replicate, a refresh makes every agent's estimate exact,
            # a recursion none
            exact = np.all(est.M == est.G, axis=2)
            assert (exact.all(axis=1) | ~exact.any(axis=1)).all()
            kinds.append(exact.all(axis=1))
        kinds = np.array(kinds)
        # both branches exercised, and the replicates switch on their own
        assert 0 < kinds.sum() < kinds.size
        assert (kinds != kinds[:, :1]).any()

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("beta", [0.0, 0.3])
    @pytest.mark.parametrize("N", [None, 64], ids=["online", "offline"])
    def test_draws_do_not_depend_on_grouping(self, N, beta, p):
        """One draw of R rounds equals R draws of one round, byte for
        byte, and leaves every stream where they leave it; draws that hold
        no noise block (None) stand for a zero block."""
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=N, sigma=0.5,
                                         seed=5)
        params = GraceParams(beta=beta, p=p, b=2, B_big=16, b0=4)
        Z0 = start_block(problem, S=3)
        R = 13
        grouped, single = (init_estimator(problem, params, (1, 2, 3), Z0)[0]
                           for _ in range(2))
        whole = draw(grouped, params, problem, R)
        parts = [draw(single, params, problem, 1) for _ in range(R)]

        def noise(draws):
            rounds = len(draws.any_refresh)
            return np.zeros((rounds,) + Z0.shape) if draws.noise is None \
                else draws.noise

        for name in ("refresh", "cum_used"):
            assert getattr(whole, name).tobytes() == np.concatenate(
                [getattr(d, name) for d in parts], axis=1).tobytes(), name
        assert whole.any_refresh == [a for d in parts for a in d.any_refresh]
        assert noise(whole).tobytes() == \
            np.concatenate([noise(d) for d in parts]).tobytes()
        assert grouped.samples_used.tobytes() == single.samples_used.tobytes()
        for a, b in zip(grouped.switch_rngs + grouped.noise_rngs,
                        single.switch_rngs + single.noise_rngs):
            assert a.bit_generator.state == b.bit_generator.state
        # both branches ran wherever p > 0
        assert whole.refresh.any() == (p > 0) and not whole.refresh.all()

    def test_correlated_pair_indices_logged(self, quad_problem):
        Z = start_block(quad_problem)
        params = GraceParams(beta=0.0, p=0.0, b=3, b0=4)
        est = HandEstimator(quad_problem, params, (5,), Z)
        M = est.M
        G = quad_problem.exact_grads_block(Z)
        update_checked(est, Z + 1)
        H = quad_problem.exact_grads_block(Z + 1)
        # the same minibatch enters both evaluations, so its noise cancels
        assert_close(est.M[..., :3], (M - G + H)[..., :3], 1e-12,
                     "x recursion")
        assert_close(est.M[..., 3:], (M - G + H)[..., 3:], 1e-12,
                     "y recursion")

    def test_offline_refresh_draws_nothing(self, quad_problem):
        Z = start_block(quad_problem)
        params = GraceParams(beta=0.0, p=1.0, b=2, b0=4)
        est = HandEstimator(quad_problem, params, (3,), Z)
        for _ in range(5):
            update_checked(est, Z)
        # every round refreshed, so the noise stream has given only the
        # init's (K, b0) index block
        ref = noise_stream(3)
        ref.integers(0, quad_problem.N, size=(quad_problem.K, 4))
        assert est.state.noise_rngs[0].random() == ref.random()

    def test_offline_beta_zero_draws_nothing_after_init(self, quad_problem):
        N, K = quad_problem.N, quad_problem.K
        seeds = (3, 4, 5)
        Z0 = start_block(quad_problem, S=len(seeds))
        params = GraceParams(beta=0.0, p=0.3, b=3, b0=4)
        est = HandEstimator(quad_problem, params, seeds, Z0)
        rng = np.random.default_rng(0)
        refresh = []
        # three draws of seven rounds
        for _ in range(3):
            draws = draw(est.state, params, quad_problem, 7)
            for r in range(7):
                update_unchecked(est, Z0 + rng.standard_normal(Z0.shape),
                                 draws, r)
                assert np.isfinite(est.M).all()
            refresh.append(draws.refresh)
        refresh = np.concatenate(refresh, axis=1)
        # both branches ran
        assert refresh.any() and not refresh.all()
        # a refresh counts the N samples of the full local batch, a
        # recursion the b of its minibatch, though neither draws
        assert est.state.samples_used.tolist() == \
            (4 + np.where(refresh, N, 3).sum(axis=1)).tolist()
        # each noise stream has given only the init's (K, b0) index block
        for seed, got in zip(seeds, est.state.noise_rngs):
            ref = noise_stream(seed)
            ref.integers(0, N, size=(K, 4))
            assert got.random() == ref.random(), seed

    @pytest.mark.parametrize("N", [None, 64], ids=["online", "offline"])
    def test_beta_zero_recursion_takes_no_factor(self, N):
        """At beta = 0 a recursion is (M - G) + g bit for bit, with the
        round's noise xi added to both gradients online, so skipping the
        factor 1 - beta = 1 keeps every bit."""
        problem = make_quadratic_problem(K=8, d1=3, d2=2, N=N, sigma=0.5,
                                         seed=5)
        params = GraceParams(beta=0.0, p=0.0, b=2, b0=4)
        Z0 = start_block(problem, S=3)
        est = HandEstimator(problem, params, (1, 2, 3), Z0)
        rng = np.random.default_rng(0)
        for i in range(10):
            # draws of four rounds
            if i % 4 == 0:
                draws = draw(est.state, params, problem, 4)
            Z = rng.standard_normal(Z0.shape)
            M, G = est.M, est.G
            update_unchecked(est, Z, draws, i % 4)
            g = problem.exact_grads_block(Z)
            if N is None:
                xi = draws.noise[i % 4]
                G, g = G + xi, g + xi
            else:
                assert draws.noise is None
            assert est.M.tobytes() == ((M - G) + g).tobytes()

    def test_recursion_keeps_beta_times_logged_noise(self, quad_problem):
        N, K, d1 = quad_problem.N, quad_problem.K, quad_problem.d1
        beta = 0.3
        Z = start_block(quad_problem)
        params = GraceParams(beta=beta, p=0.0, b=3, b0=4)
        est = HandEstimator(quad_problem, params, (5,), Z)
        M, G = est.M, est.G
        update_checked(est, Z + 1)
        g = quad_problem.exact_grads_block(Z + 1)
        # the round's minibatch is the (K, b) index block drawn after the
        # init's (K, b0) one
        ref = noise_stream(5)
        ref.integers(0, N, size=(K, 4))
        idx = ref.integers(0, N, size=(K, 3))
        xi = np.stack([quad_problem.samples[k, idx[k]].mean(axis=0)
                       - quad_problem.c[k] for k in range(K)])
        assert np.abs(xi).min() > 0
        got = est.M - ((1 - beta) * (M - G) + g)
        assert_close(got[..., :d1], beta * xi[..., :d1], 1e-12, "x noise")
        assert_close(got[..., d1:], beta * xi[..., d1:], 1e-12, "y noise")

    def test_p_zero_leaves_switch_streams_untouched(self):
        problem = make_quadratic_problem(K=4, d1=2, d2=1, N=None, sigma=1.0,
                                         seed=1)
        seeds = (2, 3)
        params = GraceParams(beta=0.2, p=0.0, b=2, b0=2)
        est = HandEstimator(problem, params, seeds, start_block(problem, S=2))
        for i in range(10):
            if i % 4 == 0:
                draws = draw(est.state, params, problem, 4)
                assert not draws.refresh.any()
            update_unchecked(est, est.G, draws, i % 4)
        for seed, got in zip(seeds, est.state.switch_rngs):
            ref = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
            assert got.bit_generator.state == ref.bit_generator.state, seed

    def test_initial_variance_monotone_in_b0(self):
        problem = make_quadratic_problem(K=4, d1=2, d2=2, N=256, sigma=1.0,
                                         seed=9)
        means = []
        for b0 in (1, 4, 16):
            _, M, G = init_estimator(problem, GraceParams(beta=0, p=0, b0=b0),
                                     seeds=range(32),
                                     Z0=start_block(problem, S=32))
            err, _ = estimator_error(M - G)
            means.append(np.mean(err))
        # variance shrinks roughly like 1/b0; allow 2x statistical slack
        assert means[1] <= 2.0 * means[0]
        assert means[2] <= 2.0 * means[1]
        assert means[2] < means[0]


class TestErrorRecursion:
    """The est_err_sq column against its expectation. The noise and the
    switch do not depend on the iterates, so m_t = E||M_t - G_t||^2,
    summed over agents, follows one scalar recursion:

        m+ = p V_B + (1 - p) [(1 - beta)^2 m + beta^2 V_b],

    with V_n = 2 K sigma^2 / n online (each side has total variance
    sigma^2 / n per agent), and row 0 one update after the b0 init:
    (1 - p) [(1 - beta)^2 V_b0 + beta^2 V_b] + p V_B. The check does not
    depend on how the rounds' draws are grouped.

    Each row's seed mean must lie within ROW_Z standard errors of m_t:
    at 301 rows a Gaussian row passes 4 with probability 0.998 or so,
    and the largest |z| measured is 2.87 (STORM) and 2.78 (hybrid). The
    seeds are independent, so each seed's mean over the rows of
    (e_t - m_t) / m_t is too, and their mean must lie within POOLED_Z of
    its standard error: measured -0.24 and -0.34. A noise scale off by
    sqrt(2) reads 40 on the rows and 296-303 pooled; refreshes drawn with
    probability 2p read 3.44 on the rows and 3.74 pooled."""

    ROW_Z = 4.0
    POOLED_Z = 3.0

    @pytest.mark.parametrize("p, B_big", [(0.0, None), (0.03, 16)],
                             ids=["storm", "hybrid"])
    def test_est_err_follows_scalar_recursion(self, ring8_lazy, p, B_big):
        K, sigma, beta, b, b0, T = 8, 1.0, 0.2, 2, 3, 300
        problem = make_quadratic_problem(K=K, d1=3, d2=2, N=None,
                                         sigma=sigma, seed=5)
        config = EngineConfig(mu_x=0.002, mu_y=0.01, T=T,
                              seeds=tuple(range(256)),
                              grace=GraceParams(beta=beta, p=p, b=b,
                                                B_big=B_big, b0=b0))
        series = run_and_measure(config, problem,
                                 build_strategy(StrategyKind.ED, ring8_lazy))
        assert not series.failures

        def V(n):
            return 2 * K * sigma**2 / n

        refresh = p * V(B_big) if p else 0.0
        m = np.empty(T + 1)
        m[0] = (1 - p) * ((1 - beta)**2 * V(b0) + beta**2 * V(b)) + refresh
        for t in range(T):
            m[t + 1] = refresh + (1 - p) * ((1 - beta)**2 * m[t]
                                            + beta**2 * V(b))
        e = series.columns["est_err_sq"]
        S = len(e)
        z = (e.mean(axis=0) - m) / (e.std(axis=0, ddof=1) / np.sqrt(S))
        assert np.abs(z).max() <= self.ROW_Z, (np.abs(z).argmax(), z.max())
        pooled = ((e - m) / m).mean(axis=1)
        pooled_z = pooled.mean() / (pooled.std(ddof=1) / np.sqrt(S))
        assert abs(pooled_z) <= self.POOLED_Z, pooled_z


def test_estimator_error_overflow_reads_inf():
    # a finite error of one replicate whose square overflows
    err = np.zeros((2, 4, 3))
    err[1, 2, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sq, avg_sq = estimator_error(err)
    assert sq.tolist() == [0.0, np.inf]
    assert avg_sq.tolist() == [0.0, np.inf]


# the views the agent sums are pinned on, each of a (R, S, 2K, 2d) block
AGENT_VIEWS = {
    "contiguous": lambda x, K, d: np.ascontiguousarray(x[..., :K, :d]),
    "sliced": lambda x, K, d: x[..., :K, :d],
    "strided": lambda x, K, d: x[..., ::2, ::2],
    "seed-major": lambda x, K, d: x.swapaxes(0, 1)[..., K:, d:],
}


@pytest.mark.parametrize("K", [1, 2, 8, 9, 96, 300])
@pytest.mark.parametrize("d", [2, 5, 17])
@settings(max_examples=8, deadline=None)
@given(lead=st.sampled_from([(1, 1), (1, 3), (2, 8), (25, 2)]),
       view=st.sampled_from(sorted(AGENT_VIEWS)),
       seed=st.integers(0, 2**32 - 1))
def test_agent_sums_match_mean(K, d, lead, view, seed):
    # values over many magnitudes, so a change of summation order shows
    rng = np.random.default_rng(seed)
    shape = lead + (2 * K, 2 * d)
    x = AGENT_VIEWS[view](
        rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 296, shape),
        K, d)
    assert agent_mean(x).tobytes() == x.mean(axis=-2).tobytes()
    _, avg_sq = estimator_error(x)
    with np.errstate(over="ignore"):
        ref = np.sum(x.mean(axis=-2)**2, axis=-1)
    assert avg_sq.tobytes() == ref.tobytes()
