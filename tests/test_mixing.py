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

from conftest import assert_close, random_connected_mixing, \
    reference_metropolis_weights


def edges_of(adj):
    return {(min(a, b), max(a, b)) for a, ns in enumerate(adj) for b in ns}


def reachable(adj):
    """The nodes a walk from node 0 reaches."""
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def loop_random_edges(K, edge_prob, seed):
    """The random topology drawn one pair at a time, as a reference: one
    uniform draw per pair i < j in row order, redrawn from seed + 1 until
    the graph is connected. Returns the edges and the seed that gave them."""
    while True:
        rng = np.random.default_rng(seed)
        edges = {(i, j) for i in range(K) for j in range(i + 1, K)
                 if rng.random() < edge_prob}
        adj = [[] for _ in range(K)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        if len(reachable(adj)) == K:
            return edges, seed
        seed += 1


class TestBuildGraph:
    def test_ring4_edges(self):
        adj = build_graph(Topology(kind="ring", K=4))
        assert edges_of(adj) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_complete3_edge_count(self):
        adj = build_graph(Topology(kind="complete", K=3))
        assert len(edges_of(adj)) == 3

    def test_random_p1_is_complete(self):
        adj = build_graph(Topology(kind="random", K=5, edge_prob=1.0, seed=0))
        assert edges_of(adj) == edges_of(build_graph(Topology(kind="complete", K=5)))

    def test_star_degrees(self):
        adj = build_graph(Topology(kind="star", K=6))
        assert len(adj[0]) == 5
        assert all(adj[k] == [0] for k in range(1, 6))

    def test_invalid_K(self):
        with pytest.raises(ConfigError):
            Topology(kind="ring", K=0)

    def test_random_needs_edge_prob(self):
        with pytest.raises(ConfigError):
            Topology(kind="random", K=4)

    @given(seed=st.integers(0, 10**6), K=st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_random_always_connected(self, seed, K):
        adj = build_graph(Topology(kind="random", K=K, edge_prob=0.2, seed=seed))
        assert len(reachable(adj)) == K

    @pytest.mark.parametrize("K, edge_prob, seed, used_seed", [
        (5, 0.4, 0, 2), (6, 0.3, 0, 2), (17, 0.3, 9, 9), (64, 0.1, 123, 123)])
    def test_random_matches_pairwise_draws(self, K, edge_prob, seed,
                                           used_seed):
        edges, used = loop_random_edges(K, edge_prob, seed)
        assert used == used_seed  # the first two need retries
        adj = build_graph(Topology(kind="random", K=K, edge_prob=edge_prob,
                                   seed=seed))
        assert edges_of(adj) == edges
        assert all(type(v) is int for ns in adj for v in ns)


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
        with pytest.raises(ConfigError):
            metropolis_weights([[1], [0], [3], [2]])

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


def assert_weights_match_reference(adj):
    for lazy in (False, True):
        W = metropolis_weights(adj, lazy=lazy).W
        ref = reference_metropolis_weights(adj, lazy=lazy)
        assert W.dtype == ref.dtype and W.tobytes() == ref.tobytes(), (
            len(adj), lazy)


class TestWeightsMatchLoop:
    """metropolis_weights fills W from edge index arrays and takes the
    diagonal from whole-array row sums; W equals the agent-by-agent loop's
    byte for byte."""

    @pytest.mark.parametrize("kind", ["ring", "path", "star", "complete"])
    def test_named_topologies(self, kind):
        for K in [*range(2, 20), 31, 64, 96, 127, 300]:
            assert_weights_match_reference(build_graph(Topology(kind=kind, K=K)))

    def test_random_graphs_with_retries(self):
        retries = 0
        for K, edge_prob in [(5, 0.4), (6, 0.3), (12, 0.2), (40, 0.08),
                             (300, 0.02)]:
            for seed in range(6):
                topo = Topology(kind="random", K=K, edge_prob=edge_prob,
                                seed=seed)
                assert_weights_match_reference(build_graph(topo))
                if K <= 40:
                    retries += loop_random_edges(K, edge_prob, seed)[1] != seed
        assert retries >= 10, retries

    def test_unsorted_adjacency_and_one_agent(self):
        assert_weights_match_reference([[2, 1, 3], [0], [3, 0], [0, 2]])
        assert_weights_match_reference([[]])


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
