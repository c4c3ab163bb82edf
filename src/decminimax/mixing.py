"""Network topologies, Metropolis mixing matrices, and their spectra.

All weight matrices produced here are symmetric and doubly stochastic.
Each mixing matrix is decomposed once, with LAPACK's symmetric solver
(numpy.linalg.eigh); every strategy matrix and spectral constant
downstream is derived from that one spectrum.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Topology:
    """Communication graph specification.

    kind: one of "ring", "path", "star", "complete", "random".
    edge_prob and seed are only meaningful for kind="random"; random
    graphs are redrawn with incremented seed until connected.
    """

    kind: str
    K: int
    edge_prob: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError(f"agent count must be >= 1, got {self.K}")
        if self.kind not in ("ring", "path", "star", "complete", "random"):
            raise ConfigError(f"unknown topology kind {self.kind!r}")
        if self.kind == "random":
            if self.edge_prob is None or not (0.0 < self.edge_prob <= 1.0):
                raise ConfigError("random topology needs edge_prob in (0, 1]")


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weight matrix with cached spectrum.

    eigvals are sorted descending; eigvecs columns match that order.
    lam is the second-largest eigenvalue, lam_min_nonzero the smallest
    nonzero one.
    """

    W: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    lam: float
    lam_min_nonzero: float
    is_psd: bool

    @property
    def K(self) -> int:
        return self.W.shape[0]


def _is_connected(adj: list[list[int]]) -> bool:
    K = len(adj)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == K


def build_graph(topo: Topology) -> list[list[int]]:
    """Return the adjacency list of a connected simple undirected graph."""
    K = topo.K
    edges: set[tuple[int, int]] = set()
    if topo.kind == "complete":
        edges = {(i, j) for i in range(K) for j in range(i + 1, K)}
    elif topo.kind == "ring":
        if K == 2:
            edges = {(0, 1)}
        elif K > 2:
            edges = {(i, (i + 1) % K) for i in range(K)}
            edges = {(min(a, b), max(a, b)) for a, b in edges}
    elif topo.kind == "path":
        edges = {(i, i + 1) for i in range(K - 1)}
    elif topo.kind == "star":
        edges = {(0, i) for i in range(1, K)}
    else:  # random
        seed = topo.seed if topo.seed is not None else 0
        # the pairs i < j in row order, one uniform draw each
        rows, cols = np.triu_indices(K, 1)
        while True:
            rng = np.random.default_rng(seed)
            hit = rng.random(rows.size) < topo.edge_prob
            adj = _edges_to_adj(K, set(zip(rows[hit].tolist(),
                                           cols[hit].tolist())))
            if _is_connected(adj):
                return adj
            seed += 1
    adj = _edges_to_adj(K, edges)
    if not _is_connected(adj):
        raise ConfigError(f"{topo.kind} topology on K={K} is not connected")
    return adj


def _edges_to_adj(K: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(K)]
    for a, b in sorted(edges):
        adj[a].append(b)
        adj[b].append(a)
    return [sorted(n) for n in adj]


def eigh_symmetric(M: np.ndarray):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigvals descending, eigvecs with orthonormal columns).
    Eigenvector signs are canonicalized so the largest-magnitude entry
    of each column is positive.
    """
    M = np.asarray(M, dtype=float)
    if np.max(np.abs(M - M.T)) > 1e-12:
        raise ValueError("matrix is not symmetric")
    d, V = np.linalg.eigh(M)
    d, V = d[::-1], V[:, ::-1]
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return d.copy(), V * np.where(top < 0, -1.0, 1.0)


def metropolis_weights(adj: list[list[int]], lazy: bool = False) -> MixingMatrix:
    """Metropolis-Hastings doubly stochastic weights for a connected graph.

    Edge weight 1/(1 + max(deg_k, deg_l)); diagonal takes the remainder.
    With lazy=True the result is (I + W)/2, which is PSD.
    """
    K = len(adj)
    if K == 0:
        raise ConfigError("empty adjacency list")
    if not _is_connected(adj):
        raise ConfigError("graph must be connected")
    deg = np.array([len(n) for n in adj])
    # edge (k, l) for each l in adj[k], in row order
    rows = np.repeat(np.arange(K), deg)
    cols = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.intp,
                       count=int(deg.sum()))
    W = np.zeros((K, K))
    W[rows, cols] = 1.0 / (1.0 + np.maximum(deg[rows], deg[cols]))
    # each row sum is the same pairwise sum over the row as np.sum(W[k])
    W[np.diag_indices(K)] = 1.0 - W.sum(axis=1)
    if lazy:
        W = (np.eye(K) + W) / 2.0
    eigvals, eigvecs = eigh_symmetric(W)
    lam = float(np.max(eigvals[1:])) if K > 1 else 0.0
    nonzero = eigvals[np.abs(eigvals) > 1e-12]
    lam_min_nonzero = float(np.min(nonzero))
    is_psd = bool(np.min(eigvals) >= -1e-10)
    return MixingMatrix(
        W=W,
        eigvals=eigvals,
        eigvecs=eigvecs,
        lam=lam,
        lam_min_nonzero=lam_min_nonzero,
        is_psd=is_psd,
    )


def mixing_for_topology(topo: Topology, lazy: bool = False) -> MixingMatrix:
    """Convenience wrapper: build graph then Metropolis weights."""
    return metropolis_weights(build_graph(topo), lazy=lazy)
