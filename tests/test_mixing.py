import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decminimax import (
    SQRT_STRATEGIES,
    ConfigError,
    NotPSDError,
    StrategyKind,
    Topology,
    build_graph,
    build_strategy,
    eigh_symmetric,
    metropolis_weights,
    mixing_for_topology,
)
from decminimax.strategies import mode_values

from conftest import adjacency, assert_close, loop_random_edges, \
    random_connected_mixing, reachable, reference_graph, \
    reference_metropolis_weights

KINDS = ["ring", "path", "star", "complete"]
# K and edge_prob of the random graphs compared with the reference; at
# seeds 0-7 the first five need redraws
RANDOM_GRID = [(5, 0.4), (6, 0.3), (12, 0.2), (17, 0.3), (40, 0.08),
               (64, 0.1), (150, 0.04), (300, 0.02)]


def edges_of(i, j):
    return set(zip(i.tolist(), j.tolist()))


class TestBuildGraph:
    def test_ring4_edges(self):
        i, j = build_graph(Topology(kind="ring", K=4))
        assert edges_of(i, j) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_complete3_edge_count(self):
        i, j = build_graph(Topology(kind="complete", K=3))
        assert len(edges_of(i, j)) == i.size == 3

    def test_random_p1_is_complete(self):
        graph = build_graph(Topology(kind="random", K=5, edge_prob=1.0, seed=0))
        assert edges_of(*graph) == edges_of(
            *build_graph(Topology(kind="complete", K=5)))

    def test_star_degrees(self):
        i, j = build_graph(Topology(kind="star", K=6))
        assert i.tolist() == [0] * 5 and j.tolist() == [1, 2, 3, 4, 5]

    def test_invalid_K(self):
        with pytest.raises(ConfigError):
            Topology(kind="ring", K=0)

    def test_random_needs_edge_prob(self):
        with pytest.raises(ConfigError):
            Topology(kind="random", K=4)

    @given(seed=st.integers(0, 10**6), K=st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_random_always_connected(self, seed, K):
        i, j = build_graph(Topology(kind="random", K=K, edge_prob=0.2,
                                    seed=seed))
        assert len(reachable(adjacency(K, edges_of(i, j)))) == K

    @given(kind=st.sampled_from([*KINDS, "random"]), K=st.integers(1, 40),
           edge_prob=st.floats(0.05, 1.0), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_edge_arrays(self, kind, K, edge_prob, seed):
        """Each edge once, i < j, as intp arrays of a connected graph."""
        # well above the connection threshold ln(K)/K
        edge_prob = min(1.0, max(edge_prob, 4.0 / K))
        i, j = build_graph(Topology(kind=kind, K=K, edge_prob=edge_prob,
                                    seed=seed))
        assert i.dtype == j.dtype == np.intp
        assert i.shape == j.shape and i.ndim == 1
        assert np.all(0 <= i) and np.all(i < j) and np.all(j < K)
        assert len(edges_of(i, j)) == i.size
        assert len(reachable(adjacency(K, edges_of(i, j)))) == K

    @pytest.mark.parametrize("K, edge_prob, seed, used_seed", [
        (5, 0.4, 0, 2), (6, 0.3, 0, 2), (17, 0.3, 9, 9), (64, 0.1, 123, 123)])
    def test_random_matches_pairwise_draws(self, K, edge_prob, seed,
                                           used_seed):
        edges, used = loop_random_edges(K, edge_prob, seed)
        assert used == used_seed  # the first two need retries
        i, j = build_graph(Topology(kind="random", K=K, edge_prob=edge_prob,
                                    seed=seed))
        assert edges_of(i, j) == edges
        assert i.dtype == j.dtype == np.intp


class TestMetropolisWeights:
    def test_complete2(self):
        mix = mixing_for_topology(Topology(kind="complete", K=2))
        assert_close(mix.W, [[0.5, 0.5], [0.5, 0.5]], 1e-15, "complete K=2")

    def test_ring4_circulant_thirds(self):
        mix = mixing_for_topology(Topology(kind="ring", K=4))
        expected = np.full((4, 4), 1 / 3) - np.diag([0.0] * 4)
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 0.0
        assert_close(mix.W, expected, 1e-15, "ring K=4")

    def test_ring4_lazy_spectrum(self, ring4_lazy):
        assert_close(np.sort(ring4_lazy.eigvals),
                     [1 / 3, 2 / 3, 2 / 3, 1.0], 1e-12, "lazy ring spectrum")
        assert ring4_lazy.lam == pytest.approx(2 / 3, abs=1e-12)
        assert ring4_lazy.lam_min_nonzero == pytest.approx(1 / 3, abs=1e-12)
        assert ring4_lazy.is_psd

    def test_disconnected_rejected(self):
        with pytest.raises(ConfigError, match="connected"):
            metropolis_weights(4, np.array([0, 2]), np.array([1, 3]))
        # two rings and two random graphs: a second eigenvalue within
        # rounding of 1, lazy or not
        for K, i, j in [(50, *build_graph(Topology(kind="ring", K=25))),
                        (120, *build_graph(Topology(kind="random", K=60,
                                                    edge_prob=0.1, seed=3)))]:
            half = K // 2
            for lazy in (False, True):
                with pytest.raises(ConfigError, match="connected"):
                    metropolis_weights(K, np.r_[i, i + half],
                                       np.r_[j, j + half], lazy=lazy)

    def test_sparse_large_graph_accepted(self):
        # the lazy path on 1024 agents: 1 - lam = 1.6e-6, the smallest
        # gap of a named topology at the largest K of the ring sweeps
        mix = mixing_for_topology(Topology(kind="path", K=1024), lazy=True)
        assert 1e-6 < 1.0 - mix.lam < 2e-6

    @pytest.mark.parametrize("kind, K", [("ring", 8), ("star", 6),
                                         ("complete", 5)])
    def test_named_topology_invariants(self, kind, K):
        W = mixing_for_topology(Topology(kind=kind, K=K), lazy=True).W
        assert_close(W, W.T, 1e-12, "symmetry")
        assert_close(W.sum(axis=1), np.ones(K), 1e-12, "row sums")
        assert_close(W @ np.ones(K), np.ones(K), 1e-12, "W 1 = 1")

    @given(seed=st.integers(0, 10**6), K=st.integers(2, 12),
           lazy=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, seed, K, lazy):
        mix = mixing_for_topology(
            Topology(kind="random", K=K, edge_prob=0.4, seed=seed), lazy=lazy)
        W = mix.W
        assert_close(W, W.T, 1e-12, "symmetry")
        assert_close(W.sum(axis=1), np.ones(K), 1e-12, "row sums")
        assert np.min(W) >= 0.0
        assert mix.eigvals[0] == pytest.approx(1.0, abs=1e-12)
        assert_close(mix.eigvecs[:, 0], np.ones(K) / np.sqrt(K), 1e-10,
                     "top eigenvector")
        for j in range(K):
            assert_close(W @ mix.eigvecs[:, j],
                         mix.eigvals[j] * mix.eigvecs[:, j], 1e-10,
                         f"eigenpair {j}")
        if lazy:
            assert np.min(mix.eigvals) >= -1e-12
            if K > 1:
                assert mix.lam < 1.0


def assert_matches_reference(topo):
    """build_graph's edges are the set-based builder's, and W and its
    eigenpairs are the agent-by-agent W's and its eigenpairs, byte for
    byte."""
    adj = reference_graph(topo)
    i, j = build_graph(topo)
    assert adjacency(topo.K, edges_of(i, j)) == adj, topo
    for lazy in (False, True):
        mix = mixing_for_topology(topo, lazy=lazy)
        ref = reference_metropolis_weights(adj, lazy=lazy)
        d, V = eigh_symmetric(ref)
        for got, want in ((mix.W, ref), (mix.eigvals, d), (mix.eigvecs, V)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (topo, lazy)


class TestWeightsMatchLoop:
    """The graph as edge index arrays and W filled from them, against the
    set-based builder and the agent-by-agent loop, byte for byte."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_named_topologies(self, kind):
        for K in [*range(1, 40), 64, 96, 127, 300]:
            assert_matches_reference(Topology(kind=kind, K=K))

    def test_random_graphs_with_retries(self):
        retries = 0
        for K, edge_prob in RANDOM_GRID:
            for seed in range(8):
                assert_matches_reference(Topology(
                    kind="random", K=K, edge_prob=edge_prob, seed=seed))
                if K <= 40:
                    retries += loop_random_edges(K, edge_prob, seed)[1] != seed
        assert retries >= 10, retries

    def test_unsorted_adjacency_and_one_agent(self):
        """Edges in any order, either way round, give the same W."""
        adj = [[1, 2, 3], [0], [0, 3], [0, 2]]
        ref = reference_metropolis_weights(adj)
        W = metropolis_weights(4, np.array([3, 0, 2, 1]),
                               np.array([2, 3, 0, 0])).W
        assert W.tobytes() == ref.tobytes()
        one = metropolis_weights(1, np.array([], dtype=np.intp),
                                 np.array([], dtype=np.intp))
        assert one.W.tobytes() == reference_metropolis_weights([[]]).tobytes()


class TestEighSymmetric:
    def test_already_diagonal(self):
        d, V = eigh_symmetric(np.diag([3.0, 1.0, 2.0]))
        assert_close(d, [3.0, 2.0, 1.0], 1e-14, "diag eigvals")
        assert_close(np.abs(V), np.eye(3)[:, [0, 2, 1]], 1e-14, "diag eigvecs")

    def test_analytic_2x2(self):
        d, _ = eigh_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_close(d, [3.0, 1.0], 1e-14, "2x2 eigvals")

    def test_reconstruction_8x8(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((8, 8))
        M = (M + M.T) / 2
        d, V = eigh_symmetric(M)
        assert np.linalg.norm(M - (V * d) @ V.T) <= 1e-10
        assert np.linalg.norm(V.T @ V - np.eye(8)) <= 1e-10

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eigh_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSqrtPSD:
    """B = (I - W)^{1/2} of the square-root strategies: the engine carries
    it as B^2 = I - W, the transform as b = sqrt(1 - lam) per mode."""

    def test_identity(self):
        # lazy complete graph: W = (I + J/K)/2, so I - W is half the
        # identity on the consensus complement and b = 1/sqrt(2) there
        K = 5
        mix = mixing_for_topology(Topology(kind="complete", K=K), lazy=True)
        B2 = build_strategy(StrategyKind.ED, mix).B2
        assert_close(B2, (np.eye(K) - 1.0 / K) / 2.0, 1e-14,
                     "B^2 on the complement identity")
        _, b, _ = mode_values(StrategyKind.ED, mix.eigvals[1:])
        assert_close(b, np.full(K - 1, 1.0 / np.sqrt(2.0)), 1e-14,
                     "b on the complement identity")

    def test_diagonal(self, ring8_lazy):
        U = ring8_lazy.eigvecs
        B2 = build_strategy(StrategyKind.EXTRA, ring8_lazy).B2
        _, b, _ = mode_values(StrategyKind.EXTRA, ring8_lazy.eigvals[1:])
        assert_close(U.T @ B2 @ U, np.diag(np.r_[0.0, b**2]), 1e-14,
                     "B^2 diagonal in the eigenbasis of W, b^2 on the diagonal")

    def test_lazy_ring_gap_spectrum(self, ring4_lazy):
        B2 = build_strategy(StrategyKind.ED, ring4_lazy).B2
        assert_close(np.linalg.eigvalsh(B2), [0.0, 1 / 3, 1 / 3, 2 / 3],
                     1e-12, "gap spectrum")
        _, b, _ = mode_values(StrategyKind.ED, ring4_lazy.eigvals[1:])
        assert_close(np.sort(b), [np.sqrt(1 / 3), np.sqrt(1 / 3), np.sqrt(2 / 3)],
                     1e-12, "sqrt spectrum")

    def test_rejects_indefinite(self):
        mix = mixing_for_topology(Topology(kind="ring", K=5), lazy=False)
        assert np.min(mix.eigvals) < -0.2
        for kind in SQRT_STRATEGIES:
            with pytest.raises(NotPSDError, match="PSD"):
                build_strategy(kind, mix)

    @given(seed=st.integers(0, 10**6), K=st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_square_roundtrip(self, seed, K):
        mix = random_connected_mixing(np.random.default_rng(seed), K)
        gap = np.eye(K) - mix.W
        lam = mix.eigvals[1:]
        for kind in StrategyKind:
            B2 = build_strategy(kind, mix).B2
            _, b, _ = mode_values(kind, lam)
            if kind in SQRT_STRATEGIES:
                assert B2.tobytes() == gap.tobytes(), "B^2 = I - W"
                assert_close(b**2, 1.0 - lam, 1e-15, "b^2 = 1 - lam")
            else:
                assert B2.tobytes() == (gap @ gap).tobytes(), "B^2 = (I - W)^2"
                assert_close(b, 1.0 - lam, 0, "b = 1 - lam")
            assert_close(np.ones(K) @ B2, np.zeros(K), 1e-10, "1^T B^2 = 0")
            assert_close(B2, B2.T, 1e-12, "B^2 symmetry")
