"""Main simulation loop over a batch of seed replicates.

The descent and ascent iterates of an agent sit side by side in one
primal block Z = [X | Y] of width d1 + d2, and S seed replicates are
stacked as (S, K, d1+d2) arrays, so one array round advances every
replicate. The engine carries the dual only as D = B D_paper, the product
the recursion uses, so it needs B only through B^2 = ops.B2. Z and D are
the two halves of one (2, S, K, d1+d2) block, updated in place, so one
reduction over it checks every iterate of a round. Per round i
the order is fixed: (1) the gradient estimator advances using the current
and previous iterates; (2) the primal update

    Z_{i+1} = A (C Z_i - mu * M_i) - D_i

with the signed step mu = [mu_x, ..., -mu_y, ...] (descent in x, ascent
in y), held as a full (S, K, d1+d2) copy so no product broadcasts, and
where an A or C equal to I is skipped; (3) the dual update
D_{i+1} = D_i + B^2 Z_{i+1}. Metrics for round i reflect the state after
the estimator update but before the iterate advance, so the round-0 row
reflects the initialization. The x/y split comes back only in the metric
columns, at problem.d1.

The round loop does only the recursion. Each round copies what the metric
columns need into a chunk buffer (_Chunk), and one batched pass per chunk
of rounds evaluates every column; the pass also runs at the end of the
run. The estimator draws its random numbers a chunk of rounds at a time.
Neither shows in the output: every operation acts on each replicate's
(K, d) slice of each round alone, and the chunked draws equal the
round-by-round ones, so a seed's numbers are the same whatever other
seeds share its batch and whatever the chunk size. The batch keeps its
shape for the whole run. A replicate whose estimate or iterate stops
being finite, or whose iterate passes DIVERGENCE_CAP, keeps its first
error and is frozen in place: its iterate, dual, estimates and row of
the signed step are zeroed, so it stays at zero. After the run its
columns from the failing round on are blanked.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError
from .estimator import GraceParams, GraceState, agent_mean, init_estimator, \
    update_estimator, estimator_error
from .strategies import StrategyOps
from .transform import TransformBundle, coupled_error_norms

DIVERGENCE_CAP = 1e12
# bytes of one (S, K, d) buffer of a chunk of rounds (see _chunk_rounds)
CHUNK_BYTES = 64 * 1024

# the metric columns of one round, in CSV order after "round"
COLUMNS = ("grad_x_sq", "grad_y_sq", "consensus_sq", "delta_c", "est_err_sq",
           "est_err_avg_sq", "ehat_x_sq", "ehat_y_sq", "samples_used")


@dataclass(frozen=True)
class EngineConfig:
    mu_x: float
    mu_y: float
    grace: GraceParams
    T: int
    seeds: tuple = (0,)

    def signed_step(self, d1: int, d2: int) -> np.ndarray:
        """mu: mu_x on the d1 descent columns, -mu_y on the d2 ascent ones."""
        return np.repeat([self.mu_x, -self.mu_y], [d1, d2])

    def __post_init__(self):
        if self.mu_x <= 0 or self.mu_y <= 0:
            raise ConfigError("step sizes must be positive")
        if self.T < 1:
            raise ConfigError(f"round budget must be >= 1, got {self.T}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct and non-empty, "
                              f"got {self.seeds}")


@dataclass
class EngineState:
    ZD: np.ndarray  # (2, S, K, d1+d2): Z and D, one block
    grace: GraceState
    round: int = 0

    @property
    def Z(self) -> np.ndarray:
        """(S, K, d1+d2) primal block [X | Y], a view into ZD."""
        return self.ZD[0]

    @property
    def D(self) -> np.ndarray:
        """(S, K, d1+d2) carried dual, B times the paper's dual, a view
        into ZD."""
        return self.ZD[1]


@dataclass
class MetricsSeries:
    """Metric columns of a batch: columns[name][s] holds rounds 0..T of
    seeds[s]. A failed seed's row is NaN (-1 for samples_used) past its
    last recorded round; without a transform bundle the ehat columns are
    absent."""
    seeds: tuple
    columns: dict
    failures: dict = field(default_factory=dict)  # seed -> DivergenceError

    @classmethod
    def empty(cls, seeds, T: int, diagnostics: bool) -> "MetricsSeries":
        names = [n for n in COLUMNS if diagnostics or not n.startswith("ehat")]
        columns = {n: np.full((len(seeds), T + 1), np.nan) for n in names}
        columns["samples_used"] = np.full((len(seeds), T + 1), -1)
        return cls(seeds=tuple(seeds), columns=columns)

    @property
    def ok_rows(self) -> np.ndarray:
        """Rows of the seeds that did not fail, in seed order."""
        return np.array([i for i, s in enumerate(self.seeds)
                         if s not in self.failures], dtype=int)

    @property
    def ok_seeds(self) -> list:
        return [self.seeds[i] for i in self.ok_rows]

    @property
    def avg_stationarity(self) -> np.ndarray:
        """Per seed, (1/T) sum over rounds 0..T-1 of the squared gradient
        metric (the final row, recorded after the last update, is
        excluded)."""
        stat = self.columns["grad_x_sq"] + self.columns["grad_y_sq"]
        return np.mean(stat[:, :-1], axis=1)


def init_engine(config: EngineConfig, problem, x0=None, y0=None) -> EngineState:
    """All agents of every replicate start from the same point with zero
    duals."""
    K, S = problem.K, len(config.seeds)
    x0 = np.zeros(problem.d1) if x0 is None else np.asarray(x0, dtype=float)
    y0 = np.zeros(problem.d2) if y0 is None else np.asarray(y0, dtype=float)
    if x0.shape != (problem.d1,) or y0.shape != (problem.d2,):
        raise ConfigError(
            f"start point dims {x0.shape}/{y0.shape} do not match "
            f"problem dims ({problem.d1},)/({problem.d2},)"
        )
    ZD = np.zeros((2, S, K, problem.d1 + problem.d2))
    ZD[0] = np.concatenate([x0, y0])
    return EngineState(ZD=ZD, grace=init_estimator(problem, config.grace,
                                                   config.seeds, ZD[0]))


def _advance(state: EngineState, mu: np.ndarray, ops: StrategyOps) -> None:
    """Primal and dual updates using the current gradient estimates,
    written into state.ZD in place; mu is the signed step
    (EngineConfig.signed_step), or a copy of it per replicate and agent,
    (S, K, d1+d2), as run_and_measure passes it. An A or C that is None
    (equal to I) is skipped, not multiplied."""
    Z, D = state.Z, state.D
    step = mu * state.grace.M
    np.subtract(Z if ops.C is None else ops.C @ Z, step, out=step)
    np.subtract(step if ops.A is None else ops.A @ step, D, out=Z)
    np.add(D, ops.B2 @ Z, out=D)
    state.round += 1


def _iterate_errors(state: EngineState) -> dict:
    """Batch position -> DivergenceError for every replicate whose iterates
    are not finite or exceed DIVERGENCE_CAP in magnitude."""
    # a NaN fails the comparison, so it reaches the per-replicate check
    if np.abs(state.ZD).max() <= DIVERGENCE_CAP:
        return {}
    worst = np.maximum(np.abs(state.Z).max(axis=(1, 2)),
                       np.abs(state.D).max(axis=(1, 2)))
    errors = {}
    for i in np.flatnonzero(~(worst <= DIVERGENCE_CAP)):
        w = float(worst[i])
        if not np.isfinite(w):
            msg = f"non-finite iterate at round {state.round}"
            w = float("inf")
        else:
            msg = (f"iterate magnitude {w:.3e} exceeds {DIVERGENCE_CAP:g} "
                   f"at round {state.round}")
        errors[i] = DivergenceError(msg, round_index=state.round, max_entry=w)
    return errors


def _estimate_errors(state: EngineState) -> dict:
    """Batch position -> DivergenceError for every replicate with a
    non-finite gradient estimate, naming its first such agent."""
    M = state.grace.M
    if np.isfinite(M).all():
        return {}
    bad = ~np.isfinite(M).all(axis=2)
    return {i: DivergenceError(
                f"non-finite gradient estimate at agent {bad[i].argmax()}",
                round_index=state.round, max_entry=float("inf"))
            for i in np.flatnonzero(bad.any(axis=1))}


class _Chunk:
    """The rounds held since the last flush: per round, a copy of what the
    metric columns need (Z, M - G and samples_used; mu*M and D with a
    transform bundle). flush evaluates every column of the held rounds in
    one batched pass."""

    def __init__(self, series: MetricsSeries, problem, mu: np.ndarray,
                 bundle: TransformBundle | None, state: EngineState):
        self.series, self.problem, self.mu, self.bundle = \
            series, problem, mu, bundle
        self.rounds = _chunk_rounds(state.Z.shape)
        self.held = 0
        shape = (self.rounds,) + state.Z.shape
        self.Z, self.err = np.empty(shape), np.empty(shape)
        self.used = np.empty(shape[:2], dtype=state.grace.samples_used.dtype)
        if bundle is not None:
            self.muM, self.D = np.empty(shape), np.empty(shape)

    def hold(self, state: EngineState) -> None:
        """Copy round state.round of the batch; flush when the chunk is
        full."""
        i = self.held
        grace = state.grace
        np.copyto(self.Z[i], state.Z)
        np.subtract(grace.M, grace.G, out=self.err[i])
        self.used[i] = grace.samples_used
        if self.bundle is not None:
            np.multiply(self.mu, grace.M, out=self.muM[i])
            np.copyto(self.D[i], state.D)
        self.held = i + 1
        if self.held == self.rounds:
            self.flush(state)

    def flush(self, state: EngineState) -> None:
        """Write the held rounds, the last of which is state.round."""
        n = self.held
        if not n:
            return
        self.held = 0
        d1 = self.problem.d1
        Z = self.Z[:n]
        z_c = agent_mean(Z)
        grad, delta_c = self.problem.centroid_metrics(z_c)
        est_err, est_err_avg = estimator_error(self.err[:n])
        cols = {
            "grad_x_sq": np.sum(grad[..., :d1] ** 2, axis=-1),
            "grad_y_sq": np.sum(grad[..., d1:] ** 2, axis=-1),
            "consensus_sq": np.sum((Z - z_c[:, :, None]) ** 2, axis=(2, 3)),
            "delta_c": delta_c,
            "est_err_sq": est_err,
            "est_err_avg_sq": est_err_avg,
            "samples_used": self.used[:n],
        }
        if self.bundle is not None:
            ehat = coupled_error_norms(Z, self.muM[:n], self.D[:n],
                                       self.bundle)
            cols["ehat_x_sq"] = np.sum(ehat[..., :d1] ** 2, axis=(2, 3))
            cols["ehat_y_sq"] = np.sum(ehat[..., d1:] ** 2, axis=(2, 3))
        span = slice(state.round + 1 - n, state.round + 1)
        for name, values in cols.items():
            self.series.columns[name][:, span] = values.T


def _chunk_rounds(shape) -> int:
    """Rounds per chunk for a batch of (S, K, d) blocks: CHUNK_BYTES per
    buffer, between 1 and 64 rounds."""
    return min(64, max(1, CHUNK_BYTES // (8 * int(np.prod(shape)))))


def _fail(state: EngineState, mu: np.ndarray, series: MetricsSeries,
          errors: dict) -> None:
    """Keep each failed replicate's first error and freeze it in place:
    zero iterate, dual and estimates and a zero step keep it at zero."""
    for i, exc in errors.items():
        series.failures.setdefault(series.seeds[i], exc)
        for a in (state.Z, state.D, state.grace.M, state.grace.G, mu):
            a[i] = 0.0


def run_and_measure(config: EngineConfig, problem, ops: StrategyOps,
                    bundle: TransformBundle | None = None,
                    x0=None, y0=None) -> MetricsSeries:
    """Run T rounds of every seed in config.seeds as one batch under the
    strategy ops, and return T+1 metric rows (rounds 0..T) per seed.

    Each row reflects the state after that round's estimator update but
    before its iterate advance; the final row gets one extra estimator
    update so its estimation-error columns are well-defined. The ehat
    columns are recorded if and only if a transform bundle is given.

    A diverged seed is frozen in place and the others run on; the run
    stops early only when every seed has failed. series.failures holds
    each failed seed's first error, and its columns are NaN (-1 for
    samples_used) from the error's round on.
    """
    state = init_engine(config, problem, x0=x0, y0=y0)
    # the signed step of every replicate and agent, zeroed for a replicate
    # when it fails
    mu = np.tile(config.signed_step(problem.d1, problem.d2),
                 (len(config.seeds), problem.K, 1))
    series = MetricsSeries.empty(config.seeds, config.T, bundle is not None)
    chunk = _Chunk(series, problem, mu, bundle, state)
    while True:
        update_estimator(state.grace, config.grace, state.Z, problem,
                         rounds=min(chunk.rounds, config.T + 1 - state.round))
        errors = _estimate_errors(state)
        if errors:
            _fail(state, mu, series, errors)
        # every round up to the last is held, failed replicates' too, so
        # the last held round is state.round when the chunk is flushed
        chunk.hold(state)
        if state.round == config.T \
                or len(series.failures) == len(config.seeds):
            break
        _advance(state, mu, ops)
        errors = _iterate_errors(state)
        if errors:
            _fail(state, mu, series, errors)
    chunk.flush(state)
    for seed, exc in series.failures.items():
        row = series.seeds.index(seed)
        for name, col in series.columns.items():
            col[row, exc.round_index:] = -1 if name == "samples_used" \
                else np.nan
    return series
