import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decminimax import (
    ConfigError,
    make_quadratic_problem,
    make_sinpl_problem,
    maximizer_oracle,
)

from conftest import ascent_maximizer, assert_close, objective, \
    reference_exact_grads, reference_quadratic_problem


class TestQuadraticConstruction:
    def test_pure_concave_instance(self):
        problem = make_quadratic_problem(K=1, d1=1, d2=1, N=4, sigma=0.0,
                                         seed=0, nu_target=1.0, s_spread=0.0,
                                         q_base=(0.0, 0.0), q_spread=0.0,
                                         r_scale=0.0, hetero=0.0)
        assert problem.constants.nu == pytest.approx(1.0, abs=1e-12)
        assert problem.constants.L_f == pytest.approx(1.0, abs=1e-12)
        assert problem.constants.kappa == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 10**4))
    @settings(max_examples=20, deadline=None)
    def test_nu_target_respected(self, seed):
        problem = make_quadratic_problem(K=4, d1=3, d2=2, N=8, sigma=0.5,
                                         seed=seed, nu_target=0.4)
        assert problem.constants.nu >= 0.4 - 1e-12

    def test_sample_means_exact(self):
        problem = make_quadratic_problem(K=4, d1=3, d2=2, N=32, sigma=0.7,
                                         seed=3)
        means = problem.samples.mean(axis=1)
        assert_close(means[:, :3], problem.a, 1e-12, "a sample means")
        assert_close(means[:, 3:], problem.b, 1e-12, "b sample means")

    def test_sample_variance_is_sigma_sq(self):
        sigma = 0.7
        problem = make_quadratic_problem(K=4, d1=3, d2=2, N=32, sigma=sigma,
                                         seed=3)
        # per-agent RMS of each side's deviations is scaled to sigma exactly
        dev = problem.samples - problem.c[:, None, :]
        for side, cols in (("a", slice(0, 3)), ("b", slice(3, 5))):
            rms = np.sqrt((dev[..., cols]**2).sum(axis=2).mean(axis=1))
            assert_close(rms, np.full(4, sigma), 1e-12, f"{side}-side RMS")

    def test_sigma_zero_samples_equal_mean(self):
        problem = make_quadratic_problem(K=3, d1=2, d2=2, N=8, sigma=0.0,
                                         seed=1)
        assert_close(problem.samples,
                     np.broadcast_to(problem.c[:, None, :], (3, 8, 4)), 0,
                     "zero-noise samples")

    def test_infeasible_nu(self):
        with pytest.raises(ConfigError):
            make_quadratic_problem(K=2, d1=2, d2=2, N=4, sigma=0.0, seed=0,
                                   nu_target=0.0)


PROBLEM_ARRAYS = ("Q", "R", "S", "a", "b", "samples", "H", "c", "Linv")


class TestArrayConstruction:
    """make_quadratic_problem builds every SPD block with one stacked QR
    and product, and normalises each side of the sample table as its own
    block; the draws keep the agent-by-agent loop's stream order, so every
    array equals the loop's byte for byte."""

    @pytest.mark.parametrize("N", [None, 1, 2, 17, 256])
    def test_arrays_match_loop(self, N):
        for K in (1, 2, 3, 7, 16, 96):
            for d1, d2 in [(1, 1), (1, 4), (2, 3), (3, 2), (4, 4), (9, 8)]:
                for sigma in (0.0, 0.3):
                    for zero_mean in (False, True):
                        kwargs = dict(K=K, d1=d1, d2=d2, N=N, sigma=sigma,
                                      seed=K * 100 + d1 * 10 + d2,
                                      zero_mean_linear=zero_mean)
                        got = make_quadratic_problem(**kwargs)
                        ref = reference_quadratic_problem(**kwargs)
                        for name in PROBLEM_ARRAYS:
                            x, y = getattr(got, name), getattr(ref, name)
                            if y is None:
                                assert x is None, name
                                continue
                            assert x.shape == y.shape and x.tobytes() == \
                                y.tobytes(), (name, kwargs)
                        assert got.constants == ref.constants, kwargs

    def test_memory_peak_not_above_loop(self):
        # the x side is normalised before the table exists and the y side's
        # squares go into its slot of the table, so the peak stays at or
        # below the loop's, which holds the table beside the x side's
        # squares and their row sums
        kwargs = dict(K=96, d1=3, d2=2, N=256, sigma=0.3, seed=1)
        peaks = []
        for build in (make_quadratic_problem, reference_quadratic_problem):
            build(**{**kwargs, "K": 2, "N": 4})
            tracemalloc.start()
            try:
                build(**kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], peaks


class TestGradients:
    def test_offline_sample_mean_matches_exact(self):
        problem = make_quadratic_problem(K=2, d1=2, d2=2, N=16, sigma=0.5,
                                         seed=4)
        # averaged over its whole table, each agent's per-sample gradient
        # deviation (samples - [a | b]) vanishes
        for k in range(2):
            assert_close(problem.samples[k].mean(axis=0),
                         np.r_[problem.a[k], problem.b[k]], 1e-12,
                         f"agent {k} sample mean")


class TestSinPL:
    def test_single_agent_no_perturbation(self):
        problem = make_sinpl_problem(K=1, sigma=0.0, seed=0)
        assert problem.cx[0] == 0.0
        assert problem.cy[0] == 0.0

    def test_perturbations_cancel(self):
        problem = make_sinpl_problem(K=6, sigma=0.0, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.uniform(-3, 3, size=2)
            G = problem.exact_grads_block(np.tile([x, y], (6, 1)))
            base_x = 2 * x + 3 * np.sin(2 * x) * np.sin(y) ** 2
            assert G[:, 0].mean() == pytest.approx(base_x, abs=1e-12)

    def test_grid_pl_constant_positive(self):
        problem = make_sinpl_problem(K=4, sigma=0.0, seed=2)
        assert problem.constants.nu > 0

    def test_online_only(self):
        problem = make_sinpl_problem(K=2, sigma=0.5, seed=0)
        assert problem.N is None
        noise = problem.batch_noise([np.random.default_rng(0)], [[4]])
        assert noise.shape == (1, 1, 2, 2)


def reference_offline_noise(problem, rngs, batch):
    """The offline gather as first written: one replicate at a time, each
    round's minibatch taken by one advanced index into the sample tables
    and averaged by mean over the slot axis."""
    batch = np.asarray(batch)
    noise = np.zeros(batch.shape + (problem.K, problem.d1 + problem.d2))
    rows = np.arange(problem.K)[:, None]
    for rng, sizes, out in zip(rngs, batch, noise):
        drawn = sizes > 0
        if drawn.any():
            idx = rng.integers(0, problem.N,
                               size=(drawn.sum(), problem.K, sizes.max()))
            out[drawn] = problem.samples[rows, idx].mean(axis=-2) - problem.c
    return noise


def assert_matches_reference(problem, batch, seeds=None):
    """batch_noise and the reference give the same bytes from generators
    of the same seeds, and leave each generator at the same position."""
    seeds = range(len(batch)) if seeds is None else seeds
    got_rngs = [np.random.default_rng(s) for s in seeds]
    ref_rngs = [np.random.default_rng(s) for s in seeds]
    got = problem.batch_noise(got_rngs, batch)
    ref = reference_offline_noise(problem, ref_rngs, batch)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    for g, r in zip(got_rngs, ref_rngs):
        assert g.random() == r.random()
    return got


class TestBatchNoise:
    def test_offline_gathers_one_index_block(self):
        problem = make_quadratic_problem(K=3, d1=2, d2=1, N=8, sigma=0.5,
                                         seed=2)
        # rounds of size 5, 0 and 5: the size-0 round draws nothing
        noise = problem.batch_noise([np.random.default_rng(1)], [[5, 0, 5]])
        assert not noise[0, 1].any()
        ref = np.random.default_rng(1)
        for r in (0, 2):
            idx = ref.integers(0, 8, size=(3, 5))
            for k in range(3):
                assert_close(noise[0, r, k, :2],
                             problem.samples[k, idx[k], :2].mean(axis=0)
                             - problem.a[k], 1e-15, f"round {r} agent {k} a")
                assert_close(noise[0, r, k, 2:],
                             problem.samples[k, idx[k], 2:].mean(axis=0)
                             - problem.b[k], 1e-15, f"round {r} agent {k} b")

    @pytest.mark.parametrize("N", [8, None])
    def test_batch_matches_each_generator(self, N):
        problem = make_quadratic_problem(K=3, d1=2, d2=1, N=N, sigma=0.5,
                                         seed=2)
        sizes = np.full((4, 2), 5)
        batch = problem.batch_noise(
            [np.random.default_rng(s) for s in range(4)], sizes)
        for s in range(4):
            one = problem.batch_noise([np.random.default_rng(s)], sizes[:1])
            assert batch[s].tobytes() == one[0].tobytes()

    @pytest.mark.parametrize("N", [7, 1000, None])
    def test_rounds_match_rounds_drawn_one_at_a_time(self, N):
        # K * b = 15 is odd: a 32-bit index draw must not leave half of a
        # 64-bit word behind at the end of a call
        problem = make_quadratic_problem(K=3, d1=2, d2=1, N=N, sigma=0.5,
                                         seed=2)
        sizes = [[5, 0, 5, 5, 0, 5, 5]] if N else [[5, 2, 5, 9, 5, 1, 5]]
        chunk = problem.batch_noise([np.random.default_rng(3)], sizes)
        rng = np.random.default_rng(3)
        for r, size in enumerate(sizes[0]):
            one = problem.batch_noise([rng], [[size]])
            assert chunk[0, r].tobytes() == one[0, 0].tobytes(), r

    @pytest.mark.parametrize("b", [1, 2, 12, 33])
    def test_offline_bytes_match_reference(self, b):
        # 12 and 33 slots: a pairwise reduction over the slot axis would
        # round differently from the slot-by-slot sum
        problem = make_quadratic_problem(K=4, d1=3, d2=2, N=40, sigma=0.5,
                                         seed=6)
        # three replicates whose size-0 rounds fall in different places
        batch = np.array([[b, 0, b, b, 0], [0, b, b, b, b], [b, b, b, 0, 0]])
        noise = assert_matches_reference(problem, batch, seeds=(4, 9, 2))
        assert not noise[batch == 0].any()
        assert noise[batch > 0].all()

    @pytest.mark.parametrize("K, N", [(1, 1), (1, 16), (3, 1)])
    def test_offline_small_tables_match_reference(self, K, N):
        problem = make_quadratic_problem(K=K, d1=2, d2=1, N=N, sigma=0.5,
                                         seed=3)
        for b in (1, 3):
            assert_matches_reference(problem, [[b, 0, b], [b, b, 0]])

    def test_offline_sees_writes_into_the_tables(self):
        problem = make_quadratic_problem(K=3, d1=2, d2=1, N=8, sigma=0.5,
                                         seed=2)
        before = problem.batch_noise([np.random.default_rng(5)], [[4, 4]])
        problem.samples[1, :, 0] += 2.0
        problem.samples[2, 3] = 7.0
        after = assert_matches_reference(problem, [[4, 4]], seeds=(5,))
        assert not np.array_equal(after[:, :, 1], before[:, :, 1])
        assert np.array_equal(after[:, :, 0], before[:, :, 0])

    def test_offline_unequal_sizes_raise(self):
        problem = make_quadratic_problem(K=3, d1=2, d2=1, N=8, sigma=0.5,
                                         seed=2)
        for batch in ([[5, 3]], [[5, 0], [0, 3]]):
            rngs = [np.random.default_rng(s) for s in range(len(batch))]
            with pytest.raises(ConfigError, match="must be equal"):
                problem.batch_noise(rngs, batch)
        # rounds of size 0 beside one non-zero size are fine
        assert not problem.batch_noise([np.random.default_rng(0)],
                                       [[0, 0]]).any()

    def test_offline_memory_one_slot_at_a_time(self):
        # gathering every slot at once holds b times the output block; the
        # slot-by-slot gather holds about the output block twice beside
        # the index block and one replicate's draws
        S, R, K, b = 4, 16, 8, 64
        problem = make_quadratic_problem(K=K, d1=3, d2=2, N=256, sigma=0.5,
                                         seed=1)
        batch = np.full((S, R), b)
        batch[1, 3] = batch[2, :5] = 0
        problem.batch_noise([np.random.default_rng(s) for s in range(S)],
                            batch)
        rngs = [np.random.default_rng(s) for s in range(S)]
        tracemalloc.start()
        try:
            noise = problem.batch_noise(rngs, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        index_bytes = S * R * K * b * np.dtype(np.int64).itemsize
        assert peak <= 3 * noise.nbytes + 2 * index_bytes, (
            peak, noise.nbytes, index_bytes)

    def test_online_draws_one_block_even_without_noise(self):
        problem = make_quadratic_problem(K=3, d1=2, d2=1, N=None, sigma=0.0,
                                         seed=2)
        rng = np.random.default_rng(1)
        noise = problem.batch_noise([rng], [[5]])
        assert not noise.any()
        assert noise.shape == (1, 1, 3, 3)
        ref = np.random.default_rng(1)
        ref.standard_normal((3, 3))
        assert rng.random() == ref.random()


    @pytest.mark.parametrize("make", [
        lambda: make_quadratic_problem(K=3, d1=2, d2=1, N=8, sigma=0.5, seed=2),
        lambda: make_quadratic_problem(K=3, d1=2, d2=1, N=None, sigma=0.5,
                                       seed=2),
        lambda: make_sinpl_problem(K=3, sigma=0.5, seed=2),
    ], ids=["offline", "online", "sinpl"])
    def test_size_zero_round_has_zero_noise(self, make):
        problem = make()
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noise = problem.batch_noise([rng], [[0, 1]])
        assert (noise[0, 0] == 0).all()
        assert (noise[0, 1] != 0).all()
        # offline, the size-0 round draws nothing; online, its block is
        # drawn all the same, so the next round's noise does not depend on
        # the size before it
        ref = np.random.default_rng(0)
        if problem.N is None:
            ref.standard_normal((2, 3, problem.d1 + problem.d2))
            other = problem.batch_noise([np.random.default_rng(0)], [[4, 1]])
            assert noise[0, 1].tobytes() == other[0, 1].tobytes()
        else:
            ref.integers(0, problem.N, size=(1, 3, 1))
        assert rng.random() == ref.random()

class TestMaximizerOracle:
    def test_decoupled_instance(self):
        problem = make_quadratic_problem(K=1, d1=1, d2=1, N=4, sigma=0.0,
                                         seed=0, nu_target=1.0, s_spread=0.0,
                                         q_base=(0.0, 0.0), q_spread=0.0,
                                         r_scale=0.0, hetero=0.0)
        y_opt, P = maximizer_oracle(problem, np.array([2.0]))
        assert_close(y_opt, [0.0], 1e-12, "y_opt")
        assert P == pytest.approx(0.0, abs=1e-12)

    def test_sinpl_closed_form_matches_ascent(self):
        problem = make_sinpl_problem(K=4, sigma=0.0, seed=2)
        for x0 in (-2.5, -0.3, 0.0, 1.7):
            x = np.array([x0])
            y_cf, P_cf = maximizer_oracle(problem, x)
            y_it, P_it = ascent_maximizer(problem, x, tol=1e-12)
            assert np.linalg.norm(y_cf - y_it) <= 1e-8
            assert abs(P_cf - P_it) <= 1e-8

    def test_delta_c_nonnegative(self):
        problem = make_quadratic_problem(K=3, d1=2, d2=2, N=8, sigma=0.0,
                                         seed=8)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            _, P = maximizer_oracle(problem, x)
            assert P - objective(problem, x, y) >= -1e-10


class TestCentroidMetrics:
    @pytest.mark.parametrize("kind", ["quadratic", "sinpl"])
    def test_matches_oracle_and_mean_gradient(self, kind):
        if kind == "quadratic":
            problem = make_quadratic_problem(K=3, d1=3, d2=2, N=8, sigma=0.0,
                                             seed=8)
        else:
            problem = make_sinpl_problem(K=4, sigma=0.0, seed=2)
        rng = np.random.default_rng(1)
        d1 = problem.d1
        z_c = rng.uniform(-2, 2, (50, d1 + problem.d2))
        grad, gap = problem.centroid_metrics(z_c)
        assert grad.shape == z_c.shape and gap.shape == (50,)
        assert (gap >= 0).all()
        for s in range(50):
            G = problem.exact_grads_block(np.tile(z_c[s], (problem.K, 1)))
            assert_close(grad[s, :d1], G[:, :d1].mean(axis=0), 1e-14, "grad_x")
            assert_close(grad[s, d1:], G[:, d1:].mean(axis=0), 1e-14, "grad_y")
            x_s, y_s = z_c[s, :d1], z_c[s, d1:]
            _, P = maximizer_oracle(problem, x_s)
            ref = P - objective(problem, x_s, y_s)
            assert gap[s] == pytest.approx(ref, rel=1e-10, abs=1e-12)
            # a seed's metrics do not depend on the rest of its batch
            one = problem.centroid_metrics(z_c[s:s + 1])
            for got, full in zip(one, (grad, gap)):
                assert got[0].tobytes() == full[s].tobytes()


class TestGradientKernel:
    """exact_grads_block's one np.matmul over blocks of 8 replicate rows
    keeps the bits of a product per agent and block, and a seed's rows of
    a batch the bits of its solo call, whatever the batch size."""

    @staticmethod
    def spread(rng, shape):
        # entries over many magnitudes, so a change of summation order
        # shows
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100,
                                                                 shape)

    def blocks(self, rng, K, d):
        blocks = [self.spread(rng, lead + (K, d))
                  for lead in [(), (1,), (3,), (8,), (33,), (2, 5)]]
        # every other agent row and column of a wider block
        blocks.append(self.spread(rng, (3, 2 * K, 2 * d))[:, ::2, ::2])
        assert not blocks[-1].flags.c_contiguous
        return blocks

    @pytest.mark.parametrize("K", [1, 2, 7, 8, 9, 96])
    @pytest.mark.parametrize("d1, d2", [(1, 1), (3, 2), (4, 5), (9, 8),
                                        (16, 17)])
    def test_bytes_match_broadcast_einsum(self, K, d1, d2):
        """The bytes of reference_exact_grads, one BLAS product per agent
        and zero-padded 8-row block; the broadcast einsum's bytes do not
        hold, and test_close_to_broadcast_einsum bounds the difference."""
        problem = make_quadratic_problem(K=K, d1=d1, d2=d2, N=None,
                                         sigma=0.0, seed=K + d1)
        rng = np.random.default_rng(100 * K + d1 + d2)
        for Z in self.blocks(rng, K, d1 + d2):
            got = problem.exact_grads_block(Z)
            assert got.shape == Z.shape
            assert got.tobytes() == \
                reference_exact_grads(problem, Z).tobytes(), Z.shape

    @pytest.mark.parametrize("K", [1, 8, 96])
    @pytest.mark.parametrize("d1, d2", [(1, 1), (3, 2), (9, 8), (16, 17)])
    def test_close_to_broadcast_einsum(self, K, d1, d2):
        """Each entry is within 2 (d+1) eps of |H| |z| + |c| of the
        broadcast einsum over H plus c: both sum the same d products."""
        problem = make_quadratic_problem(K=K, d1=d1, d2=d2, N=None,
                                         sigma=0.0, seed=K + d1)
        rng = np.random.default_rng(100 * K + d1 + d2)
        d = d1 + d2
        for Z in self.blocks(rng, K, d):
            got = problem.exact_grads_block(Z)
            einsum = np.einsum("kij,...kj->...ki", problem.H, Z) + problem.c
            scale = np.einsum("kij,...kj->...ki", np.abs(problem.H),
                              np.abs(Z)) + np.abs(problem.c)
            bound = 2 * (d + 1) * np.finfo(float).eps * scale
            assert (np.abs(got - einsum) <= bound).all(), Z.shape

    @pytest.mark.parametrize("K", [1, 8, 96])
    @pytest.mark.parametrize("S", [1, 2, 3, 7, 8, 9, 10, 11, 13, 17, 33, 64,
                                   129])
    def test_seed_rows_match_solo_call(self, K, S):
        """At d1+d2 = 33, 17 and 5, entries over 10^+-100: a product over
        all S rows would take the bits of each row from S."""
        for d1, d2 in [(3, 2), (9, 8), (16, 17)]:
            problem = make_quadratic_problem(K=K, d1=d1, d2=d2, N=None,
                                             sigma=0.0, seed=S)
            Z = self.spread(np.random.default_rng(S), (S, K, d1 + d2))
            batch = problem.exact_grads_block(Z)
            for s in range(S):
                for solo in (Z[s:s + 1], Z[s]):
                    assert problem.exact_grads_block(solo).tobytes() == \
                        batch[s].tobytes(), (d1, d2, s)

    def test_overflow_reads_inf_silently(self):
        problem = make_quadratic_problem(K=4, d1=2, d2=2, N=None, sigma=0.0,
                                         seed=3)
        Z = np.full((4, 4), 1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(problem.exact_grads_block(Z)).any()

    def test_agent_count_must_match(self):
        problem = make_quadratic_problem(K=4, d1=1, d2=1, N=None, sigma=0.0,
                                         seed=0)
        with pytest.raises(ValueError):
            problem.exact_grads_block(np.zeros((2, 3, 2)))

    @pytest.mark.parametrize("kind", ["quadratic", "sinpl"])
    def test_out_matches_allocating_call(self, kind):
        if kind == "quadratic":
            problem = make_quadratic_problem(K=8, d1=3, d2=2, N=None,
                                             sigma=0.0, seed=1)
        else:
            problem = make_sinpl_problem(K=8, sigma=0.0, seed=1)
        rng = np.random.default_rng(2)
        d = problem.d1 + problem.d2
        for lead in [(), (1,), (3,), (2, 5)]:
            Z = rng.standard_normal(lead + (8, d)) * 10.0 ** rng.integers(
                -100, 100, lead + (8, d))
            out = np.full(Z.shape, np.nan)
            assert problem.exact_grads_block(Z, out=out) is out
            assert out.tobytes() == problem.exact_grads_block(Z).tobytes()

    def test_H_and_c_fixed_at_construction(self):
        problem = make_quadratic_problem(K=2, d1=1, d2=1, N=4, sigma=0.5,
                                         seed=0)
        # the blocks, the constants cached from them and H and c: a write
        # into any of them would leave the others stale
        for name in ("H", "Ht", "c", "Q", "R", "S", "a", "b", "Hbar",
                     "cbar", "Linv"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(problem, name)[0] = 0.0
        # the sample table stays a live, writable view (see TestBatchNoise)
        problem.samples[0, 0] = 0.0
