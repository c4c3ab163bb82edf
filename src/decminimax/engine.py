"""Main simulation loop over a batch of seed replicates.

The descent and ascent iterates of an agent sit side by side in one
primal block Z = [X | Y] of width d1 + d2, and S seed replicates are
stacked as (S, K, d1+d2) arrays, so one array round advances every
replicate. The engine carries the dual only as D = B D_paper, the product
the recursion uses, so it needs B only through B^2 = ops.B2. Z and D are
the two halves of one (2, S, K, d1+d2) block. Per round i the order is
fixed: (1) the gradient estimator advances using the current
and previous iterates; (2) the primal update

    Z_{i+1} = A (C Z_i - mu * M_i) - D_i

with the signed step mu = [mu_x, ..., -mu_y, ...] (descent in x, ascent
in y), held as a full (S, K, d1+d2) copy so no product broadcasts, and
where an A or C equal to I is skipped; (3) the dual update
D_{i+1} = D_i + B^2 Z_{i+1}. Metrics for round i reflect the state after
the estimator update but before the iterate advance, so the round-0 row
reflects the initialization. The x/y split comes back only in the metric
columns, at problem.d1.

The round state is a chunk's slot arrays and nothing else (_Chunk): round
i of a chunk reads its iterates, estimates and gradients from slot i and
writes the next ones into slot i+1, and no round writes what it reads,
so the scan and the columns can read every slot after the rounds. A
round allocates nothing: its slot views, the problem's gradient kernel
and the scratch of its intermediates are bound once per run. A chunk
draws its random numbers at once (estimator.draw), runs its rounds, and
one batched pass evaluates every column from the slots. None of this
shows in the output: every operation acts on each replicate's (K, d)
slice of each round alone, and the chunked draws equal the round-by-round
ones, so a seed's numbers are the same whatever other seeds share its
batch and whatever the chunk size. A chunk is sized in rounds (CHUNK_ROUNDS, fewer for a short run or
a large batch), so many rounds share its fixed cost, and the transform
diagnostics evaluate it in sub-blocks of bounded size (_chunk_rounds).
The batch keeps its shape for the whole run. A chunk runs once,
unchecked, and one scan of its slots (_first_failures) finds each
replicate's first estimate that is not finite and first iterate that is
not finite or passes DIVERGENCE_CAP. A replicate's slots up to its first
failure are those of a round-by-round loop that checks every round, so
the failure's round and message are too. The failed replicate's slots
from the failure on are zeroed, and its step after the chunk's columns
are written, so it sits out the rest of the run at zero; after the run
its columns from the failing round on are blanked.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError
from .estimator import Draws, GraceParams, agent_mean, draw, \
    init_estimator, update_estimator, estimator_error
from .strategies import StrategyOps
from .transform import TransformBundle, coupled_error_norms, \
    projection_buffer

DIVERGENCE_CAP = 1e12
# rounds per chunk, unless the run is shorter or one (S, K, d) slot array
# of that many rounds would pass CHUNK_MAX_BYTES; a chunk holds four slot
# arrays (ZD's two, M and G). The diagnostics evaluate a chunk in
# sub-blocks of at most DIAG_BYTES per slot array (see _chunk_rounds)
CHUNK_ROUNDS = 32
CHUNK_MAX_BYTES = 1024 * 1024
DIAG_BYTES = 64 * 1024

# the metric columns of one round, in CSV order after "round": the float
# columns, the ehat ones last among them, then the integer samples_used
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
        # numpy must be able to index the bytes of the (S, T+1, columns)
        # array of the float columns
        if len(self.seeds) * (self.T + 1) * len(COLUMNS) \
                > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"round budget T={self.T} is too large for "
                              f"the metric columns")


@dataclass
class MetricsSeries:
    """Metric columns of a batch: columns[name][s] holds rounds 0..T of
    seeds[s]. A failed seed's row is NaN (-1 for samples_used) past its
    last recorded round; without a transform bundle the ehat columns are
    absent. The float columns are views of one array, floats[s, r, i]
    the i-th of them in COLUMNS order, so a seed's rounds of every float
    column are contiguous."""
    seeds: tuple
    floats: np.ndarray
    samples_used: np.ndarray
    failures: dict = field(default_factory=dict)  # seed -> DivergenceError
    columns: dict = field(init=False)

    def __post_init__(self):
        names = COLUMNS[:self.floats.shape[-1]]
        self.columns = {n: self.floats[..., i] for i, n in enumerate(names)}
        self.columns["samples_used"] = self.samples_used

    @classmethod
    def empty(cls, seeds, T: int, diagnostics: bool) -> "MetricsSeries":
        floats = [n for n in COLUMNS[:-1]
                  if diagnostics or not n.startswith("ehat")]
        shape = (len(seeds), T + 1)
        try:
            return cls(seeds=tuple(seeds),
                       floats=np.full(shape + (len(floats),), np.nan),
                       samples_used=np.full(shape, -1))
        except MemoryError as exc:
            raise ConfigError(f"round budget T={T} is too large for the "
                              f"metric columns: {exc}") from exc

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


def _start_row(problem, x0, y0) -> np.ndarray:
    """The start point [x0 | y0] every agent of every replicate begins
    from, zero where not given; one of the wrong dims raises ConfigError."""
    x0 = np.zeros(problem.d1) if x0 is None else np.asarray(x0, dtype=float)
    y0 = np.zeros(problem.d2) if y0 is None else np.asarray(y0, dtype=float)
    if x0.shape != (problem.d1,) or y0.shape != (problem.d2,):
        raise ConfigError(
            f"start point dims {x0.shape}/{y0.shape} do not match "
            f"problem dims ({problem.d1},)/({problem.d2},)"
        )
    return np.concatenate([x0, y0])


def advance(ZD, M: np.ndarray, mu: np.ndarray, ops: StrategyOps, out,
            scratch) -> None:
    """Primal and dual updates of the iterates and duals ZD, a
    (2, S, K, d1+d2) block or a pair of (S, K, d1+d2) blocks, with the
    gradient estimates M, written into out, a block or pair like ZD; no
    input is written. mu is the signed step (EngineConfig.signed_step),
    or a copy of it per replicate and agent, (S, K, d1+d2), as
    run_and_measure passes it. scratch is a pair of arrays of M's shape
    that take mu M and the A, C and B^2 products: the advance writes each
    before it reads it, so what they held before the call reaches no
    output, and it allocates nothing. An A or C that is None (equal to
    I) is skipped, not multiplied."""
    Z, D = ZD
    Z_out, D_out = out
    step, prod = scratch
    np.multiply(mu, M, out=step)
    np.subtract(Z if ops.C is None else np.matmul(ops.C, Z, out=prod), step,
                out=step)
    np.subtract(step if ops.A is None else np.matmul(ops.A, step, out=prod),
                D, out=Z_out)
    np.add(D, np.matmul(ops.B2, Z_out, out=prod), out=D_out)


class _Chunk:
    """The round state of a run, as the slots of a chunk: ZD,
    (2, R+1, S, K, d1+d2), holds the iterates and duals of the chunk's
    i-th round in slot i; M and G, (R+1, S, K, d1+d2), hold the estimates
    and gradients of the round before the chunk in slot 0. Round i reads
    slot i and writes slot i+1, through the views in slots, built once
    here, and at the chunk's end slot R moves to slot 0. Everything else
    a round uses is bound here once too, so a round allocates nothing:
    the problem's gradient kernel (grads), which reads and writes flat
    (S K, d1+d2) views of the slots, and scratch, two (S, K, d1+d2)
    arrays, one for mu M and one for the A, C and B^2 products, which
    holds g + noise earlier in the round, while the estimator updates.
    flush evaluates every column of the chunk's rounds in one batched
    pass over the slots, writing its (R, S, K, d1+d2) intermediates over
    slots it has read. With a transform bundle, X holds the agent-first
    block that coupled_error_norms copies a sub-block of the chunk's
    iterates, steps and duals into, K by 3 by the sub-block's R' S
    (d1+d2) entries per agent, padded to whole panels; it is allocated
    here once, and flush reads ehat from it."""

    def __init__(self, series: MetricsSeries, problem,
                 bundle: TransformBundle | None, shape: tuple, T: int):
        self.series, self.problem, self.bundle = series, problem, bundle
        self.rounds, self.diag_rounds = _chunk_rounds(shape, T)
        slots = (self.rounds + 1,) + shape
        self.ZD = np.empty((2,) + slots)
        self.M, self.G = np.empty(slots), np.empty(slots)
        if bundle is not None:
            self.X = projection_buffer((self.diag_rounds,) + shape)
        self.grads = problem.gradient_kernel(shape)
        self.scratch = tuple(np.empty((2,) + shape))

        def rows(a):
            return a.reshape(-1, shape[-1])

        # round i reads Z and D, M and G at slot i and writes G, M, Z and
        # D at slot i+1, the gradient kernel through the rows of Z and G
        Z, D = self.ZD
        self.slots = [((Z[i], D[i]), self.M[i], self.G[i], rows(Z[i]),
                       rows(self.G[i + 1]), self.G[i + 1], self.M[i + 1],
                       (Z[i + 1], D[i + 1]))
                      for i in range(self.rounds)]

    def flush(self, start: int, n: int, mu: np.ndarray,
              cum_used: np.ndarray) -> None:
        """Write rounds start .. start+n-1, the chunk's first n, with the
        signed step mu the chunk started with and the cumulative sample
        counts cum_used, (S, n), of its draws, and move slot n, the next
        chunk's first round, to slot 0. Once slot n of G has moved, G's
        slots of the n rounds hold M - G, then its squares, then mu M;
        once the diagnostics have read D's, they hold Z - z_c and its
        squares."""
        d1 = self.problem.d1
        self.M[0], self.G[0] = self.M[n], self.G[n]
        Z, D = self.ZD[0, :n], self.ZD[1, :n]
        M, spent = self.M[1:n + 1], self.G[1:n + 1]
        est_err, est_err_avg = estimator_error(
            np.subtract(M, spent, out=spent), out=spent)
        z_c = agent_mean(Z)
        grad, delta_c = self.problem.centroid_metrics(z_c)
        grad_sq = np.square(grad, out=grad)
        cols = {
            "grad_x_sq": grad_sq[..., :d1].sum(-1),
            "grad_y_sq": grad_sq[..., d1:].sum(-1),
            "delta_c": delta_c,
            "est_err_sq": est_err,
            "est_err_avg_sq": est_err_avg,
            "samples_used": cum_used.T,
        }
        if self.bundle is not None:
            muM = np.multiply(mu, M, out=spent)
            # ehat^2 summed over the modes and their two components, per
            # round, replicate and column, then over the x or y columns
            sq = np.empty(z_c.shape)
            for a in range(0, n, self.diag_rounds):
                part = slice(a, min(a + self.diag_rounds, n))
                ehat = coupled_error_norms(Z[part], muM[part], D[part],
                                           self.bundle, out=self.X)
                e = ehat.reshape(-1, sq[part].size)
                np.einsum("jx,jx->x", e, e, out=sq[part].reshape(-1))
            cols["ehat_x_sq"] = sq[..., :d1].sum(-1)
            cols["ehat_y_sq"] = sq[..., d1:].sum(-1)
        dev = np.subtract(Z, z_c[:, :, None], out=D)
        # the squares of a replicate's (K, d1+d2) block are contiguous
        cols["consensus_sq"] = np.square(dev, out=dev).reshape(
            dev.shape[:2] + (-1,)).sum(-1)
        span = slice(start, start + n)
        for name, values in cols.items():
            self.series.columns[name][:, span] = values.T
        self.ZD[:, 0] = self.ZD[:, n]


def _chunk_rounds(shape, T: int) -> tuple:
    """Rounds per chunk for a run of T rounds on (S, K, d) blocks, and
    rounds per sub-block of the diagnostics. A chunk runs CHUNK_ROUNDS
    rounds, but no more than the run's T+1 rounds and no more than
    CHUNK_MAX_BYTES per slot array, and at least 1. A chunk of R rounds
    holds 4 (R+1) blocks, ZD's two slot arrays, M and G, so at most about
    4 CHUNK_MAX_BYTES, beside a fixed d+3 blocks whatever R is: two of
    round scratch and the gradient kernel's tiles of H and c. The
    diagnostics evaluate it in the fewest equal sub-blocks of at most
    DIAG_BYTES per slot array (or 1 round), and their agent-first block
    holds 3 blocks per round of a sub-block, about 3 DIAG_BYTES."""
    block = 8 * int(np.prod(shape))
    rounds = max(1, min(CHUNK_ROUNDS, T + 1, CHUNK_MAX_BYTES // block))
    parts = -(-rounds // max(1, DIAG_BYTES // block))
    return rounds, -(-rounds // parts)


def _run_chunk(chunk: _Chunk, draws: Draws, mu: np.ndarray,
               ops: StrategyOps, params: GraceParams, advances: int) -> None:
    """Run the chunk's rounds from slot 0, one per round of the draws,
    advancing only the first `advances`: the last round of the run
    updates its estimates and stops. A round evaluates the exact
    gradients at its iterates, updates the estimates and advances, on
    the views, kernel and scratch the chunk bound. No round is checked."""
    grads = chunk.grads
    scratch = chunk.scratch
    fresh = scratch[1]
    for r, (ZD, M, G, Z_rows, g_rows, g, M_out, ZD_out) in enumerate(
            chunk.slots[:len(draws.any_refresh)]):
        grads(Z_rows, g_rows)
        update_estimator(M, G, g, draws, r, params, M_out, fresh)
        if r == advances:
            return
        advance(ZD, M_out, mu, ops, ZD_out, scratch)


def _first_failures(ZD: np.ndarray, M: np.ndarray, start: int,
                    skip=()) -> dict:
    """Batch position -> DivergenceError of the first failure of every
    replicate not in skip, in the slots of a chunk that began at round
    start: M, (n, S, K, d1+d2), the estimates of rounds start ..
    start+n-1, and ZD, (2, a, S, K, d1+d2) with a = n or n-1, the
    iterates and duals the advances of rounds start .. start+a-1 wrote.
    An iterate or dual that is not finite or exceeds DIVERGENCE_CAP in
    magnitude fails at the round after its advance; a non-finite estimate
    fails at its round, naming its first such agent. The errors come in
    the order a round-by-round loop finds them."""
    # a NaN propagates through the max and fails the comparison
    worst = np.abs(ZD).max(axis=(0, 3, 4), initial=0.0)
    agent_bad = ~np.isfinite(M).all(axis=3)
    # the checks in the order of a round-by-round loop: round r's
    # estimate, then the iterate of round r+1 that its advance writes
    bad = np.zeros((2 * len(M), M.shape[1]), dtype=bool)
    bad[0::2] = agent_bad.any(axis=2)
    bad[1:2 * len(worst):2] = ~(worst <= DIVERGENCE_CAP)
    first = {i: int(bad[:, i].argmax())
             for i in np.flatnonzero(bad.any(axis=0)) if i not in skip}
    errors = {}
    for i in sorted(first, key=first.get):
        j = first[i]
        r = start + (j + 1) // 2
        if j % 2 == 0:
            errors[i] = DivergenceError(
                f"non-finite gradient estimate at agent "
                f"{agent_bad[j // 2, i].argmax()}",
                round_index=r, max_entry=float("inf"))
            continue
        w = float(worst[j // 2, i])
        if not np.isfinite(w):
            msg = f"non-finite iterate at round {r}"
            w = float("inf")
        else:
            msg = (f"iterate magnitude {w:.3e} exceeds {DIVERGENCE_CAP:g} "
                   f"at round {r}")
        errors[i] = DivergenceError(msg, round_index=r, max_entry=w)
    return errors


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

    The run's state is the chunk's slots: slot 0 starts at the start
    point, zero duals and the estimator's init, and each chunk of n rounds
    takes n rounds of draws at once (draw), runs them (_run_chunk) and
    writes their columns (_Chunk.flush).

    A chunk runs once, unchecked, with floating-point errors ignored: an
    exception in a round reaches its M, Z or D, which every intermediate
    flows into, so a chunk whose advanced iterates are within
    DIVERGENCE_CAP and whose estimates are finite raised none. Otherwise
    _first_failures scans the chunk's slots for each replicate that has
    not failed before, and a replicate that failed in the chunk has its
    iterate slots zeroed from its failing round on and its estimate and
    gradient slots from the next, so the chunk's columns are evaluated,
    under the caller's error state, from finite numbers only; a finite
    entry whose square overflows gives inf there, silently.
    """
    z0 = _start_row(problem, x0, y0)
    S = len(config.seeds)
    # the signed step of every replicate and agent, zeroed for a replicate
    # when it fails
    mu = np.tile(config.signed_step(problem.d1, problem.d2),
                 (S, problem.K, 1))
    series = MetricsSeries.empty(config.seeds, config.T, bundle is not None)
    chunk = _Chunk(series, problem, bundle, mu.shape, config.T)
    chunk.ZD[0, 0], chunk.ZD[1, 0] = z0, 0.0
    grace, chunk.M[0], chunk.G[0] = init_estimator(
        problem, config.grace, config.seeds, chunk.ZD[0, 0])
    start = 0
    while True:
        n = min(chunk.rounds, config.T + 1 - start)
        # the run's last round, round T, does not advance
        advances = min(n, config.T - start)
        with np.errstate(all="ignore"):
            draws = draw(grace, config.grace, problem, n)
            _run_chunk(chunk, draws, mu, ops, config.grace, advances)
            ZD, M = chunk.ZD[:, 1:advances + 1], chunk.M[1:n + 1]
            # a NaN propagates through max and min and fails the
            # comparison; neither makes a temporary of the slots
            ok = ZD.max(initial=0.0) <= DIVERGENCE_CAP \
                and ZD.min(initial=0.0) >= -DIVERGENCE_CAP \
                and np.isfinite(M).all()
            errors = {} if ok else _first_failures(
                ZD, M, start, {series.seeds.index(s) for s in series.failures})
        for i, exc in errors.items():
            series.failures[series.seeds[i]] = exc
            slot = exc.round_index - start
            chunk.ZD[:, slot:, i] = 0.0
            chunk.M[slot + 1:, i] = chunk.G[slot + 1:, i] = 0.0
        # a finite entry whose square overflows gives inf, silently, as in
        # estimator_error
        with np.errstate(over="ignore"):
            chunk.flush(start, n, mu, draws.cum_used)
        for i in errors:
            mu[i] = 0.0
        start += n
        if start > config.T or len(series.failures) == S:
            break
    for seed, exc in series.failures.items():
        row = series.seeds.index(seed)
        for name, col in series.columns.items():
            col[row, exc.round_index:] = -1 if name == "samples_used" \
                else np.nan
    return series
