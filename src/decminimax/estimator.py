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
as (S, K, d) arrays and updated together. Each replicate owns one random
stream, spawned from SeedSequence(seed), so it shares no draws with
another replicate or with a problem built from default_rng(seed). A
round draws, per stream, the switch uniform and then (unless it is an
offline refresh) one noise block for all K agents; one masked array step
then applies each replicate's branch, so a replicate's numbers do not
depend on the other replicates in its batch.
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
    M_x: np.ndarray  # (S, K, d1) current gradient estimates
    M_y: np.ndarray  # (S, K, d2)
    G_x: np.ndarray  # (S, K, d1) exact gradients at the iterates of the last update
    G_y: np.ndarray  # (S, K, d2)
    rngs: list       # each replicate's one stream
    samples_used: np.ndarray  # (S,) cumulative per-agent sample draws

    def select(self, keep: np.ndarray) -> None:
        """Keep only the replicates where keep is true."""
        self.M_x, self.M_y = self.M_x[keep], self.M_y[keep]
        self.G_x, self.G_y = self.G_x[keep], self.G_y[keep]
        self.rngs = [rng for rng, k in zip(self.rngs, keep) if k]
        self.samples_used = self.samples_used[keep]


def init_estimator(problem, params: GraceParams, seeds,
                   X0: np.ndarray, Y0: np.ndarray) -> GraceState:
    """Initial estimates from a size-b0 minibatch at the start iterates
    X0 (S, K, d1), Y0 (S, K, d2), one replicate per seed."""
    rngs = [np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
            for seed in seeds]
    b0 = params.b0 if problem.N is None else min(params.b0, problem.N)
    gx, gy = problem.exact_grads_block(X0, Y0)
    na, nb = problem.batch_noise(rngs, b0)
    return GraceState(M_x=gx + na, M_y=gy + nb, G_x=gx, G_y=gy, rngs=rngs,
                      samples_used=np.full(len(rngs), b0))


def update_estimator(state: GraceState, params: GraceParams,
                     cur_X: np.ndarray, cur_Y: np.ndarray,
                     problem) -> np.ndarray:
    """One estimator round: per-replicate switch draw, then refresh or
    recursion.

    The exact gradients at the current iterates replace the stored ones,
    which served as the previous-iterate gradients of the recursion.
    Returns, per replicate, the first agent whose estimate is not finite,
    or -1.
    """
    refresh = np.array([rng.random() for rng in state.rngs]) < params.p
    gx, gy = problem.exact_grads_block(cur_X, cur_Y)
    if problem.N is not None:
        # a refresh takes the full local batch, whose sample means are
        # exact by construction, and draws nothing
        recurse = ~refresh
        if params.b > problem.N and recurse.any():
            raise ConfigError(f"minibatch b={params.b} exceeds sample count "
                              f"N={problem.N}")
        na, nb = np.zeros_like(gx), np.zeros_like(gy)
        if recurse.any():
            na[recurse], nb[recurse] = problem.batch_noise(
                [rng for rng, r in zip(state.rngs, recurse) if r], params.b)
        fresh_x, fresh_y = gx, gy
        used = np.where(refresh, problem.N, params.b)
    else:
        if params.B_big is None and refresh.any():
            raise ConfigError("online refresh branch needs B_big")
        used = np.where(refresh, params.B_big or 0, params.b)
        na, nb = problem.batch_noise(state.rngs, used)
        fresh_x, fresh_y = gx + na, gy + nb
    # the same minibatch enters the prev and cur evaluations, so its noise
    # survives with weight beta only
    one_m_beta = 1.0 - params.beta
    pick = refresh[:, None, None]
    state.M_x = np.where(pick, fresh_x,
                         one_m_beta * (state.M_x - (state.G_x + na)) + (gx + na))
    state.M_y = np.where(pick, fresh_y,
                         one_m_beta * (state.M_y - (state.G_y + nb)) + (gy + nb))
    state.samples_used = state.samples_used + used
    state.G_x, state.G_y = gx, gy
    bad_x = ~np.isfinite(state.M_x).all(axis=2)
    bad_y = ~np.isfinite(state.M_y).all(axis=2)
    return np.where(bad_x.any(axis=1), bad_x.argmax(axis=1),
                    np.where(bad_y.any(axis=1), bad_y.argmax(axis=1), -1))


def estimator_error(state: GraceState):
    """Per replicate, squared norms of the block estimation error and of
    its network average, against the exact gradients at the iterates of
    the last update: four (S,) arrays."""
    Sx = state.M_x - state.G_x
    Sy = state.M_y - state.G_y
    sxc = Sx.mean(axis=1)
    syc = Sy.mean(axis=1)
    return (
        np.sum(Sx**2, axis=(1, 2)),
        np.sum(Sy**2, axis=(1, 2)),
        np.sum(sxc**2, axis=1),
        np.sum(syc**2, axis=1),
    )
