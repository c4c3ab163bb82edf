"""Network topologies, Metropolis mixing matrices, and their spectra.

All weight matrices produced here are symmetric and doubly stochastic.
Each mixing matrix is decomposed once, with LAPACK's symmetric solver
(numpy.linalg.eigh); every strategy matrix and spectral constant
downstream is derived from that one spectrum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Topology:
    """Communication graph specification.

    kind: one of "ring", "path", "star", "complete", "random".
    edge_prob and seed are only meaningful for kind="random"; a random
    graph is redrawn with incremented seed until connected, at most
    _MAX_DRAWS times.
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


# random draws tried, from seed upwards, before a topology is rejected
_MAX_DRAWS = 1000


def _connected(K: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the edges (i, j) join all K nodes. Each node's label falls
    to the smallest label across its edges, then to its label's label,
    until no label changes; the graph is connected when every label is
    node 0."""
    label = np.arange(K)
    while True:
        low = label.copy()
        np.minimum.at(low, i, label[j])
        np.minimum.at(low, j, label[i])
        low = low[low]
        if np.array_equal(low, label):
            return not label.any()
        label = low


def build_graph(topo: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Edge index arrays (i, j), each edge once with i < j, of a connected
    simple undirected graph on topo.K nodes."""
    K = topo.K
    k = np.arange(K - 1, dtype=np.intp)
    if topo.kind == "complete":
        return np.triu_indices(K, 1)
    if topo.kind == "star":
        return np.zeros_like(k), k + 1
    if topo.kind == "path" or (topo.kind == "ring" and K <= 2):
        return k, k + 1
    if topo.kind == "ring":
        return np.append(k, 0), np.append(k + 1, K - 1)
    # random: one uniform draw per pair i < j in row order, redrawn from
    # seed + 1, seed + 2, ... until the graph is connected
    seed = topo.seed if topo.seed is not None else 0
    rows, cols = np.triu_indices(K, 1)
    for s in range(seed, seed + _MAX_DRAWS):
        hit = np.random.default_rng(s).random(rows.size) < topo.edge_prob
        if _connected(K, rows[hit], cols[hit]):
            return rows[hit], cols[hit]
    raise ConfigError(
        f"no connected random graph on K={K} with edge_prob="
        f"{topo.edge_prob} in {_MAX_DRAWS} draws from seed {seed}")


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


def metropolis_weights(K: int, i: np.ndarray, j: np.ndarray,
                       lazy: bool = False) -> MixingMatrix:
    """Metropolis-Hastings doubly stochastic weights for a connected graph
    on K nodes with edge index arrays (i, j), each edge once.

    Edge weight 1/(1 + max(deg_k, deg_l)); diagonal takes the remainder.
    With lazy=True the result is (I + W)/2, which is PSD.
    """
    if K < 1:
        raise ConfigError(f"agent count must be >= 1, got {K}")
    deg = np.bincount(np.concatenate([i, j]), minlength=K)
    W = np.zeros((K, K))
    W[i, j] = W[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    # each row sum is the same pairwise sum over the row as np.sum(W[k])
    W[np.diag_indices(K)] = 1.0 - W.sum(axis=1)
    if lazy:
        W = (np.eye(K) + W) / 2.0
    eigvals, eigvecs = eigh_symmetric(W)
    # a second connected component puts a second eigenvalue within
    # rounding (about 1e-15) of 1; connected graphs stay far below, a path
    # on 2048 nodes at 1 - lam = 7.8e-7
    lam = float(eigvals[1]) if K > 1 else 0.0
    if 1.0 - lam <= 1e-10:
        raise ConfigError("graph must be connected")
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
    return metropolis_weights(topo.K, *build_graph(topo), lazy=lazy)
