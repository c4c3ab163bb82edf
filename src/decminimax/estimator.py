"""Switching variance-reduced gradient estimator.

One shared Bernoulli(p) draw per round selects between a batch refresh
(full batch offline, size-B batch online) and the recursive branch

    g_i = (1 - beta) * (g_{i-1} - mean_batch grad(prev)) + mean_batch grad(cur),

where the same minibatch is evaluated at the previous and current
iterates. beta > 0, p = 0 recovers STORM; beta = 0, p > 0 recovers
PAGE (large b) and Loopless SARAH (b = 1).

The sampling mode is the problem's: offline when it has a finite sample
count N, online otherwise. Each seed replicate owns one random stream,
spawned from SeedSequence(seed), so it shares no draws with another
replicate or with a problem built from default_rng(seed). A round draws
the switch uniform, then (unless it is an offline refresh) one noise
block for all K agents, and updates the (K, d) estimates in one step.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError


class EstimatorMode(Enum):
    STORM = "storm"
    PAGE = "page"
    LOOPLESS_SARAH = "loopless_sarah"
    CUSTOM = "custom"


@dataclass(frozen=True)
class GraceParams:
    beta: float
    p: float
    b: int = 1
    B_big: int | None = None  # refresh batch size (online only)
    b0: int = 1
    mode_tag: EstimatorMode = EstimatorMode.CUSTOM

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
    M_x: np.ndarray  # (K, d1) current gradient estimates
    M_y: np.ndarray  # (K, d2)
    G_x: np.ndarray  # (K, d1) exact gradients at the iterates of the last update
    G_y: np.ndarray  # (K, d2)
    rng: np.random.Generator  # the replicate's one stream
    samples_used: int = 0  # cumulative per-agent sample draws


def init_estimator(problem, params: GraceParams, seed: int,
                   X0: np.ndarray, Y0: np.ndarray) -> GraceState:
    """Initial estimates from a size-b0 minibatch at the start iterates."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    b0 = params.b0 if problem.N is None else min(params.b0, problem.N)
    gx, gy = problem.exact_grads_block(X0, Y0)
    na, nb = problem.batch_noise(rng, b0)
    return GraceState(M_x=gx + na, M_y=gy + nb, G_x=gx, G_y=gy, rng=rng,
                      samples_used=b0)


def update_estimator(state: GraceState, params: GraceParams,
                     cur_X: np.ndarray, cur_Y: np.ndarray, problem) -> None:
    """One estimator round: shared switch draw, then refresh or recursion.

    The exact gradients at the current iterates replace the stored ones,
    which served as the previous-iterate gradients of the recursion.
    """
    take_refresh = state.rng.random() < params.p
    gx, gy = problem.exact_grads_block(cur_X, cur_Y)
    if take_refresh and problem.N is not None:
        # full local batch; sample means are exact by construction
        state.M_x, state.M_y = gx.copy(), gy.copy()
        state.samples_used += problem.N
    elif take_refresh:
        if params.B_big is None:
            raise ConfigError("online refresh branch needs B_big")
        na, nb = problem.batch_noise(state.rng, params.B_big)
        state.M_x, state.M_y = gx + na, gy + nb
        state.samples_used += params.B_big
    else:
        if problem.N is not None and params.b > problem.N:
            raise ConfigError(f"minibatch b={params.b} exceeds sample count "
                              f"N={problem.N}")
        # the same minibatch enters the prev and cur evaluations, so its
        # noise survives with weight beta only
        na, nb = problem.batch_noise(state.rng, params.b)
        one_m_beta = 1.0 - params.beta
        state.M_x = one_m_beta * (state.M_x - (state.G_x + na)) + (gx + na)
        state.M_y = one_m_beta * (state.M_y - (state.G_y + nb)) + (gy + nb)
        state.samples_used += params.b
    state.G_x, state.G_y = gx, gy
    for M in (state.M_x, state.M_y):
        if not np.isfinite(M).all():
            bad = int(np.argwhere(~np.isfinite(M))[0][0])
            raise FloatingPointError(f"non-finite gradient estimate at agent {bad}")


def estimator_error(state: GraceState):
    """Squared norms of the block estimation error and its network average,
    against the exact gradients at the iterates of the last update."""
    Sx = state.M_x - state.G_x
    Sy = state.M_y - state.G_y
    sxc = Sx.mean(axis=0)
    syc = Sy.mean(axis=0)
    return (
        float(np.sum(Sx**2)),
        float(np.sum(Sy**2)),
        float(np.sum(sxc**2)),
        float(np.sum(syc**2)),
    )
