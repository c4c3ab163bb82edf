import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decminimax import (
    NotPSDError,
    StrategyKind,
    Topology,
    build_strategy,
    mixing_for_topology,
)

from conftest import assert_close, matrix_of, random_connected_mixing, \
    verify_strategy_assumptions

ALL_KINDS = list(StrategyKind)


class TestBuildStrategy:
    def test_ed_matrices(self, ring4_lazy):
        ops = build_strategy(StrategyKind.ED, ring4_lazy)
        assert_close(ops.A, ring4_lazy.W, 0, "ED A")
        assert ops.C is None, "ED C = I is not stored"
        assert ops.B2.tobytes() == (np.eye(4) - ring4_lazy.W).tobytes(), "ED B^2"

    def test_atc_gt_matrices(self, ring4_lazy):
        ops = build_strategy(StrategyKind.ATC_GT, ring4_lazy)
        assert_close(ops.A, ring4_lazy.W @ ring4_lazy.W, 1e-15, "ATC-GT A")
        gap = np.eye(4) - ring4_lazy.W
        assert_close(ops.B2, gap @ gap, 0, "ATC-GT B^2")
        assert ops.C is None, "ATC-GT C = I is not stored"

    def test_single_agent_extra(self):
        mix = mixing_for_topology(Topology(kind="complete", K=1))
        ops = build_strategy(StrategyKind.EXTRA, mix)
        assert ops.A is None, "EXTRA A = I is not stored"
        assert_close(ops.B2, [[0.0]], 1e-12, "K=1 B^2")
        assert_close(ops.C, [[1.0]], 0, "K=1 C")

    def test_sqrt_strategies_reject_non_psd(self):
        mix = mixing_for_topology(Topology(kind="ring", K=4), lazy=False)
        assert not mix.is_psd  # eigenvalue -1/3
        for kind in (StrategyKind.ED, StrategyKind.EXTRA):
            with pytest.raises(NotPSDError):
                build_strategy(kind, mix)

    def test_gt_strategies_accept_non_psd(self):
        mix = mixing_for_topology(Topology(kind="ring", K=4), lazy=False)
        for kind in (StrategyKind.ATC_GT, StrategyKind.SEMI_ATC_GT,
                     StrategyKind.NON_ATC_GT):
            build_strategy(kind, mix)


class TestAssumptions:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_ring_residuals(self, ring4_lazy, kind):
        report = verify_strategy_assumptions(build_strategy(kind, ring4_lazy))
        assert report.passed

    def test_single_agent_exact_zero(self):
        mix = mixing_for_topology(Topology(kind="complete", K=1))
        for kind in ALL_KINDS:
            report = verify_strategy_assumptions(build_strategy(kind, mix))
            assert report.res_A_ones == 0.0
            assert report.res_C_ones == 0.0
            assert report.res_ones_B2 <= 1e-12

    @given(seed=st.integers(0, 10**6), K=st.integers(2, 16))
    @settings(max_examples=20, deadline=None)
    def test_polynomials_commute_with_W(self, seed, K):
        mix = random_connected_mixing(np.random.default_rng(seed), K)
        W = mix.W
        for kind in ALL_KINDS:
            ops = build_strategy(kind, mix)
            for M in (matrix_of(ops, "A"), ops.B2, matrix_of(ops, "C")):
                assert np.linalg.norm(M @ W - W @ M) <= 1e-10
