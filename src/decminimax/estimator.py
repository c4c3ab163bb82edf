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
Each replicate owns two random streams, spawned from SeedSequence(seed):
one for the switch and one for the noise, so it shares no draws with
another replicate or with a problem built from default_rng(seed). The
estimator's state is these streams and the cumulative sample count
(GraceState); the estimates and gradients are the caller's arrays. The
draws of a run of rounds are taken at once (draw, into Draws): one
switch call per replicate gives the rounds' refresh flags (none at
p = 0, where no round refreshes), then one batch_noise call gives their
noise, one block for all K agents per round. The same minibatch enters
the previous and current evaluations of a recursion, and both problem
families draw noise that does not depend on the iterate, so a
minibatch's noise xi reaches the estimate only as beta * xi:

    (1 - beta) * (M - (G + xi)) + (g + xi) = (1 - beta) * (M - G) + g + beta * xi.

Online, every round draws its block, so the stream position does not
depend on the sizes or on sigma. Offline, a refresh takes the full local
batch, which is exact, and a recursion at beta = 0 has no noise to draw,
so neither draws: an offline beta = 0 run draws nothing from its noise
stream after the b0 init, and draws whose rounds draw nothing hold no
noise block. The sample counts still count the samples evaluated, drawn or
not: N per agent on an offline refresh, B_big online, b on a recursion.
The noise is held round-major, (R, S, K, d1+d2), so a round's block is
contiguous, and the cumulative sample counts of every drawn round are
summed once per draw. Draws of R rounds equal the same rounds drawn one
by one, so they do not depend on how the rounds are grouped. One array
step per round (update_estimator) reads the estimates and gradients of
the last update and the exact gradients at the round's iterates, which
the caller evaluates, and writes the next estimates into the caller's
array, through the caller's scratch, so it allocates nothing; in a
round where some replicate refreshes, those replicates take their fresh
estimate instead, so a replicate's numbers do not depend on the other
replicates in its batch.
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
    switch_rngs: list  # each replicate's switch stream
    noise_rngs: list   # each replicate's noise stream
    # (S,) cumulative per-agent sample count after the last drawn round
    samples_used: np.ndarray


@dataclass(frozen=True)
class Draws:
    """R rounds of draws of every replicate: refresh flags (S, R), one
    column per round, and whether any replicate refreshes, one bool per
    round; cumulative sample counts (S, R) after each round; noise
    round-major, (R, S, K, d1+d2), so a round's block is contiguous, or
    None where no round drew any."""
    refresh: np.ndarray
    any_refresh: list
    cum_used: np.ndarray
    noise: np.ndarray | None


def init_estimator(problem, params: GraceParams, seeds, Z0: np.ndarray):
    """The streams of one replicate per seed, and the initial estimates
    and exact gradients at the start iterates Z0 (S, K, d1+d2), as
    (state, M, G); the estimates take a size-b0 minibatch, the first draw
    of the replicate's noise stream. An online problem that may refresh
    (p > 0) needs the refresh batch size B_big."""
    if problem.N is None and params.p > 0 and params.B_big is None:
        raise ConfigError("online refresh branch needs B_big")
    streams = [np.random.SeedSequence(seed).spawn(2) for seed in seeds]
    switch = [np.random.default_rng(s) for s, _ in streams]
    noise = [np.random.default_rng(n) for _, n in streams]
    S = len(streams)
    b0 = params.b0 if problem.N is None else min(params.b0, problem.N)
    g = problem.exact_grads_block(Z0)
    M = g + problem.batch_noise(noise, np.full((S, 1), b0))[:, 0]
    return GraceState(switch_rngs=switch, noise_rngs=noise,
                      samples_used=np.full(S, b0)), M, g


def draw(state: GraceState, params: GraceParams, problem,
         rounds: int) -> Draws:
    """Draw the next `rounds` rounds of every replicate: one call of its
    switch stream, none at p = 0, then one batch_noise call for the
    batch. Offline, a round draws a minibatch only when its noise reaches
    the estimate, on a recursion with beta > 0: a refresh takes the full
    local batch, whose sample means are exact by construction, and at
    beta = 0 a recursion's noise cancels, so neither draws, and draws of
    such rounds hold no noise block. The sample counts are summed here
    for all the rounds, from the count after the last drawn round; they
    count the samples evaluated, drawn or not. A replicate's draws are
    the same however its rounds are grouped."""
    if params.p > 0:
        refresh = np.stack([rng.random(rounds)
                            for rng in state.switch_rngs]) < params.p
    else:
        # no round refreshes, and the switch stream feeds nothing else
        refresh = np.zeros((len(state.switch_rngs), rounds), dtype=bool)
    if problem.N is not None:
        used = np.where(refresh, problem.N, params.b)
        batch = np.where(refresh | (params.beta == 0), 0, params.b)
    else:
        used = batch = np.where(refresh, params.B_big or 0, params.b)
    cum_used = state.samples_used[:, None] + np.cumsum(used, axis=1)
    state.samples_used = cum_used[:, -1]
    noise = None
    if problem.N is None or batch.any():
        noise = np.ascontiguousarray(
            problem.batch_noise(state.noise_rngs, batch).swapaxes(0, 1))
    return Draws(refresh, refresh.any(axis=0).tolist(), cum_used, noise)


def update_estimator(M: np.ndarray, G: np.ndarray, g: np.ndarray,
                     draws: Draws, r: int, params: GraceParams, out: np.ndarray,
                     fresh: np.ndarray) -> None:
    """One estimator round, from the estimates M and the exact gradients
    G of the last update, the previous-iterate gradients of the
    recursion, and the exact gradients g at the current iterates, all
    (S, K, d1+d2): round r of the draws switches each replicate between
    refresh and recursion. The new estimates are written into out, a
    C-contiguous array of M's shape; no input is written. fresh, an
    array of M's shape, is scratch that the round writes before it reads
    it, so what it held before the call reaches no output. Whether the
    new estimates are finite is the caller's check.
    """
    # out = (1 - beta) * (M - (G + noise)) + fresh, where fresh = g + noise,
    # with G + noise formed in out; draws that hold no noise skip the
    # adds of zero, with the same bits up to the sign of a zero
    if draws.noise is None:
        fresh = g
    else:
        noise = draws.noise[r]
        np.add(g, noise, out=fresh)
        G = np.add(G, noise, out=out)
    np.subtract(M, G, out=out)
    # at beta = 0 the factor is 1, which changes no bit
    if params.beta != 0.0:
        np.multiply(out, 1.0 - params.beta, out=out)
    np.add(out, fresh, out=out)
    if draws.any_refresh[r]:
        np.copyto(out, fresh, where=draws.refresh[:, r, None, None])


def agent_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the agent axis of x (..., K, d), with the bits of
    x.mean(axis=-2) but faster: the agents' sum is one einsum, which
    numpy runs as a contiguous loop, divided by K."""
    return np.einsum("...kd->...d", x) / x.shape[-2]


def estimator_error(err: np.ndarray, out=None):
    """Squared norms of the block estimation error err = M - G (against the
    exact gradients at the iterates of the last update) and of its network
    average (agent_mean), per (K, d) block of err (..., K, d): two (...)
    arrays. The entries' squares go to out, an array of err's shape that
    may be err itself, if given. An error that is finite but whose square
    overflows gives inf, silently."""
    with np.errstate(over="ignore"):
        avg = agent_mean(err)
        avg_sq = np.sum(np.square(avg, out=avg), axis=-1)
        sq = np.square(err, out=out)
        # a block's squares are contiguous in a C-contiguous sq
        return sq.reshape(sq.shape[:-2] + (-1,)).sum(-1), avg_sq
