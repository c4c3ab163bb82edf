"""Switching variance-reduced gradient estimator over a batch of replicates.

One shared Bernoulli(p) draw per round and replicate selects between a
batch refresh (full batch offline, size-B batch online) and the recursive
branch

    g_i = (1 - beta) * (g_{i-1} - mean_batch grad(prev)) + mean_batch grad(cur),

where the same minibatch is evaluated at the previous and current
iterates. beta > 0, p = 0 recovers STORM; beta = 0, p > 0 recovers
PAGE (large b) and Loopless SARAH (b = 1).

The sampling mode is the problem's: offline when it has a finite sample
count N, online otherwise. The estimates of S seed replicates are stacked
as one (S, K, d1+d2) block, x and y side by side, and updated together.
Each replicate owns one random stream, spawned from SeedSequence(seed),
so it shares no draws with another replicate or with a problem built
from default_rng(seed). A round draws, per stream, the switch uniform
and then (unless it is an offline refresh) one noise block for all K
agents; one masked array step then applies each replicate's branch, so a
replicate's numbers do not depend on the other replicates in its batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class GraceParams:
    beta: float
    p: float
    b: int = 1
    B_big: int | None = None  # refresh batch size (online only)
    b0: int = 1

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must be in [0, 1], got {self.p}")
        if self.b < 1 or self.b0 < 1:
            raise ConfigError("batch sizes must be >= 1")

    @property
    def beta_bar(self) -> float:
        return self.p + self.beta - self.p * self.beta


@dataclass
class GraceState:
    M: np.ndarray    # (S, K, d1+d2) current gradient estimates
    G: np.ndarray    # (S, K, d1+d2) exact gradients at the iterates of the last update
    rngs: list       # each replicate's one stream
    samples_used: np.ndarray  # (S,) cumulative per-agent sample draws

    def select(self, keep: np.ndarray) -> None:
        """Keep only the replicates where keep is true."""
        self.M, self.G = self.M[keep], self.G[keep]
        self.rngs = [rng for rng, k in zip(self.rngs, keep) if k]
        self.samples_used = self.samples_used[keep]


def init_estimator(problem, params: GraceParams, seeds,
                   Z0: np.ndarray) -> GraceState:
    """Initial estimates from a size-b0 minibatch at the start iterates
    Z0 (S, K, d1+d2), one replicate per seed."""
    rngs = [np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
            for seed in seeds]
    b0 = params.b0 if problem.N is None else min(params.b0, problem.N)
    g = problem.exact_grads_block(Z0)
    return GraceState(M=g + problem.batch_noise(rngs, b0), G=g, rngs=rngs,
                      samples_used=np.full(len(rngs), b0))


def update_estimator(state: GraceState, params: GraceParams, Z: np.ndarray,
                     problem) -> np.ndarray:
    """One estimator round at the current iterates Z (S, K, d1+d2):
    per-replicate switch draw, then refresh or recursion.

    The exact gradients at the current iterates replace the stored ones,
    which served as the previous-iterate gradients of the recursion.
    Returns, per replicate, the first agent whose estimate is not finite,
    or -1.
    """
    refresh = np.array([rng.random() for rng in state.rngs]) < params.p
    g = problem.exact_grads_block(Z)
    if problem.N is not None:
        # a refresh takes the full local batch, whose sample means are
        # exact by construction, and draws nothing
        recurse = ~refresh
        noise = np.zeros_like(g)
        if recurse.any():
            noise[recurse] = problem.batch_noise(
                [rng for rng, r in zip(state.rngs, recurse) if r], params.b)
        fresh = g
        used = np.where(refresh, problem.N, params.b)
    else:
        if params.B_big is None and refresh.any():
            raise ConfigError("online refresh branch needs B_big")
        used = np.where(refresh, params.B_big or 0, params.b)
        noise = problem.batch_noise(state.rngs, used)
        fresh = g + noise
    # the same minibatch enters the prev and cur evaluations, so its noise
    # survives with weight beta only
    state.M = np.where(refresh[:, None, None], fresh,
                       (1.0 - params.beta) * (state.M - (state.G + noise))
                       + (g + noise))
    state.samples_used = state.samples_used + used
    state.G = g
    bad = ~np.isfinite(state.M).all(axis=2)
    return np.where(bad.any(axis=1), bad.argmax(axis=1), -1)


def estimator_error(state: GraceState):
    """Per replicate, squared norms of the block estimation error and of
    its network average, against the exact gradients at the iterates of
    the last update: two (S,) arrays."""
    err = state.M - state.G
    return np.sum(err**2, axis=(1, 2)), np.sum(err.mean(axis=1)**2, axis=1)
