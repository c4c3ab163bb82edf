import math
from dataclasses import dataclass

import numpy as np
import pytest

from decminimax import (
    ConfigError,
    GraceParams,
    ProblemConstants,
    StrategyKind,
    Topology,
    TransformBundle,
    make_quadratic_problem,
    mixing_for_topology,
    run_and_measure,
)
from decminimax import engine
from decminimax.engine import MetricsSeries, _first_failures, _start_row, \
    advance
from decminimax.estimator import agent_mean, draw, estimator_error, \
    init_estimator, update_estimator
from decminimax.problems import QuadraticMinimaxProblem, SinPLProblem
from decminimax.transform import coupled_error_norms


@pytest.fixture(scope="session")
def ring8_lazy():
    return mixing_for_topology(Topology(kind="ring", K=8), lazy=True)


@pytest.fixture(scope="session")
def ring4_lazy():
    return mixing_for_topology(Topology(kind="ring", K=4), lazy=True)


@pytest.fixture(scope="session")
def quad_problem():
    """Small offline quadratic shared by engine/estimator tests."""
    return make_quadratic_problem(K=8, d1=3, d2=2, N=64, sigma=0.5, seed=5)


def random_connected_mixing(rng, K, lazy=True):
    """A lazy Metropolis matrix on a random connected graph."""
    topo = Topology(kind="random", K=K, edge_prob=0.4,
                    seed=int(rng.integers(0, 2**31)))
    return mixing_for_topology(topo, lazy=lazy)


def reference_quadratic_problem(K, d1, d2, N, sigma, seed, nu_target=0.5,
                                q_base=(0.2, 1.0), q_spread=1.0, s_spread=0.5,
                                r_scale=0.3, hetero=1.0,
                                zero_mean_linear=False):
    """make_quadratic_problem as a loop over agents, the reference its
    array form must match byte for byte: one QR and one product per SPD
    matrix, and the sample table normalised through strided views of
    each side."""

    def random_spd_spectrum(d, lo, hi):
        G = rng.standard_normal((d, d))
        O, _ = np.linalg.qr(G)
        return (O * rng.uniform(lo, hi, size=d)) @ O.T

    rng = np.random.default_rng(seed)
    Qbase = random_spd_spectrum(d1, q_base[0], q_base[1])
    deltas = rng.standard_normal((K, d1, d1)) * q_spread
    deltas = (deltas + deltas.transpose(0, 2, 1)) / 2.0
    deltas -= deltas.mean(axis=0, keepdims=True)
    Q = Qbase[None] + deltas
    S = np.stack([random_spd_spectrum(d2, nu_target, nu_target + s_spread)
                  for _ in range(K)])
    R = rng.standard_normal((K, d1, d2)) * r_scale / np.sqrt(max(d1, d2))
    a = rng.standard_normal((K, d1)) * hetero
    b = rng.standard_normal((K, d2)) * hetero
    if zero_mean_linear:
        a -= a.mean(axis=0, keepdims=True)
        b -= b.mean(axis=0, keepdims=True)
    samples = None
    if N is not None:
        samples = np.empty((K, N, d1 + d2))
        ea, eb = samples[..., :d1], samples[..., d1:]
        ea[...] = rng.standard_normal((K, N, d1))
        eb[...] = rng.standard_normal((K, N, d2))
        if N > 1:
            for e in (ea, eb):
                e -= e.mean(axis=1, keepdims=True)
                ms = np.sqrt((e**2).sum(axis=2).mean(axis=1))
                e *= np.where(ms > 0, sigma / np.where(ms > 0, ms, 1.0),
                              0.0)[:, None, None]
        else:
            samples[...] = 0.0
        samples += np.concatenate([a, b], axis=1)[:, None, :]
    return QuadraticMinimaxProblem(Q, R, S, a, b, samples, sigma)


def reachable(adj):
    """The nodes a walk from node 0 reaches."""
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def adjacency(K, edges):
    """Sorted adjacency lists of the graph on K nodes with the given
    (a, b) edges."""
    adj = [[] for _ in range(K)]
    for a, b in sorted(edges):
        adj[a].append(b)
        adj[b].append(a)
    return [sorted(n) for n in adj]


def reference_graph(topo):
    """The graph as a Python set of edge tuples, turned into sorted
    adjacency lists and walked from node 0 to check it is connected: the
    reference for build_graph's edge arrays. A random graph takes one
    uniform draw per pair i < j in row order, redrawn from seed + 1 until
    connected."""
    K = topo.K
    if topo.kind == "complete":
        edges = {(i, j) for i in range(K) for j in range(i + 1, K)}
    elif topo.kind == "ring":
        edges = set()
        if K == 2:
            edges = {(0, 1)}
        elif K > 2:
            edges = {(min(i, (i + 1) % K), max(i, (i + 1) % K))
                     for i in range(K)}
    elif topo.kind == "path":
        edges = {(i, i + 1) for i in range(K - 1)}
    elif topo.kind == "star":
        edges = {(0, i) for i in range(1, K)}
    else:
        seed = topo.seed if topo.seed is not None else 0
        rows, cols = np.triu_indices(K, 1)
        while True:
            hit = np.random.default_rng(seed).random(rows.size) < topo.edge_prob
            edges = set(zip(rows[hit].tolist(), cols[hit].tolist()))
            if len(reachable(adjacency(K, edges))) == K:
                break
            seed += 1
    adj = adjacency(K, edges)
    assert len(reachable(adj)) == K, topo
    return adj


def loop_random_edges(K, edge_prob, seed):
    """The random topology drawn one pair at a time, as a reference: one
    uniform draw per pair i < j in row order, redrawn from seed + 1 until
    the graph is connected. Returns the edges and the seed that gave them."""
    while True:
        rng = np.random.default_rng(seed)
        edges = {(i, j) for i in range(K) for j in range(i + 1, K)
                 if rng.random() < edge_prob}
        if len(reachable(adjacency(K, edges))) == K:
            return edges, seed
        seed += 1


def reference_metropolis_weights(adj, lazy=False):
    """The Metropolis W of a connected adjacency list, filled one agent
    at a time: the reference for metropolis_weights' W."""
    K = len(adj)
    deg = [len(n) for n in adj]
    W = np.zeros((K, K))
    for k in range(K):
        for l in adj[k]:
            W[k, l] = 1.0 / (1.0 + max(deg[k], deg[l]))
        W[k, k] = 1.0 - np.sum(W[k])
    if lazy:
        W = (np.eye(K) + W) / 2.0
    return W


def assert_close(a, b, tol, label=""):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    assert err <= tol, f"{label} residual {err:.3e} > {tol:g}"


@dataclass(frozen=True)
class StrategyReport:
    res_A_ones: float
    res_C_ones: float
    res_ones_B2: float
    passed: bool


def matrix_of(ops, name):
    """ops.A or ops.C as a matrix: I where the strategy stores None."""
    M = getattr(ops, name)
    return np.eye(ops.B2.shape[0]) if M is None else M


def verify_strategy_assumptions(ops, tol: float = 1e-10) -> StrategyReport:
    """Residuals of A*1 = 1, C*1 = 1 and 1^T B^2 = 0, with I for an A or C
    that is None."""
    ones = np.ones(ops.B2.shape[0])
    res_a = float(np.max(np.abs(matrix_of(ops, "A") @ ones - ones)))
    res_c = float(np.max(np.abs(matrix_of(ops, "C") @ ones - ones)))
    res_b2 = float(np.max(np.abs(ones @ ops.B2)))
    return StrategyReport(
        res_A_ones=res_a,
        res_C_ones=res_c,
        res_ones_B2=res_b2,
        passed=max(res_a, res_c, res_b2) <= tol,
    )


def reference_exact_grads(problem, Z):
    """QuadraticMinimaxProblem.exact_grads_block as the broadcast einsum
    over H, the reference its tiled form must match byte for byte."""
    return np.einsum("kij,...kj->...ki", problem.H, Z) + problem.c


def grad_x_is_x_problem():
    """One agent, d1 = d2 = 1, eight noiseless samples: grad_x = x
    (Q = 1, R = 0 and a zero x-side linear term) and grad_y = -y."""
    one, zero = np.ones((1, 1, 1)), np.zeros((1, 1, 1))
    return QuadraticMinimaxProblem(Q=one, R=zero, S=one, a=zero[0],
                                   b=zero[0], samples=np.zeros((1, 8, 2)),
                                   sigma=0.0)


class HandEstimator:
    """The estimator driven by hand, one round at a time: its streams
    (state), and the estimates M and exact gradients G of the last
    update, which each update replaces with new arrays."""

    def __init__(self, problem, params, seeds, Z0):
        self.problem, self.params = problem, params
        self.state, self.M, self.G = init_estimator(problem, params, seeds,
                                                    Z0)


class HandRun(HandEstimator):
    """A batch of replicates of config run by hand, one round at a time,
    through the engine's slot API: beside the estimator's state, the
    iterates and duals ZD (2, S, K, d1+d2), which each advance replaces
    with a new block, and the round index."""

    def __init__(self, config, problem, x0=None, y0=None):
        ZD = np.zeros((2, len(config.seeds), problem.K,
                       problem.d1 + problem.d2))
        ZD[0] = _start_row(problem, x0, y0)
        super().__init__(problem, config.grace, config.seeds, ZD[0])
        self.ZD, self.round = ZD, 0

    @property
    def Z(self):
        return self.ZD[0]

    @property
    def D(self):
        return self.ZD[1]

    def advance(self, mu, ops):
        out = np.empty_like(self.ZD)
        advance(self.ZD, self.M, mu, ops, out, np.empty_like(self.ZD))
        self.ZD = out
        self.round += 1


def update_unchecked(est, Z, draws, r):
    """update_estimator of est at iterates Z with round r of draws, into
    new arrays that replace est.M and est.G: the new G holds the exact
    gradients at Z."""
    g, out = est.problem.exact_grads_block(Z), np.empty_like(est.M)
    assert update_estimator(est.M, est.G, g, draws, r, est.params, out,
                            np.empty_like(est.M)) is None
    est.M, est.G = out, g


def update_checked(est, Z):
    """One estimator round of est at iterates Z, drawn on its own, failing
    if any replicate's estimate is not finite."""
    update_unchecked(est, Z, draw(est.state, est.params, est.problem, 1), 0)
    assert np.isfinite(est.M).all(), "non-finite estimate"


def iterate_errors(run):
    """The engine's scan over the last round: its estimate, and the
    iterates and duals its advance wrote."""
    return _first_failures(run.ZD[:, None], run.M[None], run.round - 1)


def estimate_errors(run):
    """The engine's scan over the estimates of the current round."""
    return _first_failures(run.ZD[:, None][:, :0], run.M[None], run.round)


def step(run, config, problem, ops):
    """One round by hand with the engine's checks: estimator update, primal
    and dual advance, then every iterate finite and within DIVERGENCE_CAP."""
    update_checked(run, run.Z)
    run.advance(config.signed_step(problem.d1, problem.d2), ops)
    errors = iterate_errors(run)
    assert not errors, {i: str(e) for i, e in errors.items()}


DEFAULT_CHUNK_ROUNDS = engine.CHUNK_ROUNDS


def set_chunk_rounds(monkeypatch, rounds):
    """Run the engine in chunks of `rounds` rounds for the rest of the
    test (fewer in a shorter run, or where a slot array would pass
    engine.CHUNK_MAX_BYTES); None sets the default."""
    monkeypatch.setattr(engine, "CHUNK_ROUNDS",
                        DEFAULT_CHUNK_ROUNDS if rounds is None else rounds)


def reference_run_and_measure(config, problem, ops, bundle=None, x0=None,
                              y0=None):
    """run_and_measure round by round, the reference its chunk of slots
    must match byte for byte: a HandRun takes the estimator update and the
    advance, each round is checked as it ends and a failed replicate is
    frozen at once, with its estimates zeroed, and each round copies what
    the columns need into chunk buffers of engine._chunk_rounds rounds,
    drawn when a buffer begins and evaluated when full and at the end,
    the diagnostics of a buffer in one call."""
    run, seeds = HandRun(config, problem, x0=x0, y0=y0), config.seeds
    mu = np.tile(config.signed_step(problem.d1, problem.d2),
                 (len(seeds), problem.K, 1))
    series = MetricsSeries.empty(seeds, config.T, bundle is not None)
    R, _ = engine._chunk_rounds(run.Z.shape, config.T)
    held = {name: [] for name in ("Z", "err", "used", "muM", "D")}

    def fail(errors):
        for i, exc in errors.items():
            series.failures.setdefault(seeds[i], exc)
            for a in (run.Z, run.D, run.M, run.G, mu):
                a[i] = 0.0

    def flush():
        Z = np.array(held["Z"])
        n, d1 = len(Z), problem.d1
        z_c = agent_mean(Z)
        grad, delta_c = problem.centroid_metrics(z_c)
        est_err, est_err_avg = estimator_error(np.array(held["err"]))
        cols = {
            "grad_x_sq": np.sum(grad[..., :d1] ** 2, axis=-1),
            "grad_y_sq": np.sum(grad[..., d1:] ** 2, axis=-1),
            "consensus_sq": np.sum((Z - z_c[:, :, None]) ** 2, axis=(2, 3)),
            "delta_c": delta_c,
            "est_err_sq": est_err,
            "est_err_avg_sq": est_err_avg,
            "samples_used": np.array(held["used"]),
        }
        if bundle is not None:
            ehat = coupled_error_norms(Z, np.array(held["muM"]),
                                       np.array(held["D"]), bundle)
            e = ehat.reshape(-1, Z[:, :, 0].size)
            sq = np.einsum("jx,jx->x", e, e).reshape(Z[:, :, 0].shape)
            cols["ehat_x_sq"] = np.sum(sq[..., :d1], axis=-1)
            cols["ehat_y_sq"] = np.sum(sq[..., d1:], axis=-1)
        for name, values in cols.items():
            series.columns[name][:, run.round + 1 - n:run.round + 1] = \
                values.T
        for rows in held.values():
            rows.clear()

    while True:
        r = run.round % R
        if r == 0:
            draws = draw(run.state, config.grace, problem,
                         min(R, config.T + 1 - run.round))
        update_unchecked(run, run.Z, draws, r)
        errors = estimate_errors(run)
        if errors:
            fail(errors)
        held["Z"].append(run.Z.copy())
        held["err"].append(run.M - run.G)
        held["used"].append(draws.cum_used[:, r])
        held["muM"].append(mu * run.M)
        held["D"].append(run.D.copy())
        if len(held["Z"]) == R:
            flush()
        if run.round == config.T or len(series.failures) == len(seeds):
            break
        run.advance(mu, ops)
        errors = iterate_errors(run)
        if errors:
            fail(errors)
    if held["Z"]:
        flush()
    for seed, exc in series.failures.items():
        row = seeds.index(seed)
        for name, col in series.columns.items():
            col[row, exc.round_index:] = -1 if name == "samples_used" \
                else np.nan
    return series


# the paper's strategy rows: (power of W in A, power of W in C, B is the
# square root (I - W)^{1/2} rather than I - W)
PAPER_ROWS = {
    StrategyKind.ED: (1, 0, True),
    StrategyKind.EXTRA: (0, 1, True),
    StrategyKind.ATC_GT: (2, 0, False),
    StrategyKind.SEMI_ATC_GT: (1, 1, False),
    StrategyKind.NON_ATC_GT: (0, 2, False),
}


class PaperRecursion:
    """The paper's recursion, as a reference for the engine: separate
    descent and ascent iterates and duals,

        X+ = A (C X - mu_x M_x) - B D_x        D_x+ = D_x + B X+
        Y+ = A (C Y + mu_y M_y) - B D_y        D_y+ = D_y + B Y+,

    with the dense B = U sqrt(1 - Lam) U^T from the mixing eigenpairs for
    ED and EXTRA, and B = I - W for the gradient-tracking rows. B_pinv
    inverts B on the consensus complement, where every dual lives."""

    def __init__(self, kind, mixing):
        W, K = mixing.W, mixing.K
        pow_a, pow_c, sqrt_b = PAPER_ROWS[kind]
        self.A = np.linalg.matrix_power(W, pow_a)
        self.C = np.linalg.matrix_power(W, pow_c)
        U, gap = mixing.eigvecs[:, 1:], 1.0 - mixing.eigvals[1:]
        b = np.sqrt(gap) if sqrt_b else gap
        if sqrt_b:
            B = (U * b) @ U.T
            self.B = (B + B.T) / 2.0
            assert_close(self.B @ self.B, np.eye(K) - W, 1e-10, "B B = I - W")
        else:
            self.B = np.eye(K) - W
        self.B_pinv = (U / b) @ U.T

    def step(self, X, Y, D_x, D_y, M_x, M_y, mu_x, mu_y):
        """(X+, Y+, D_x+, D_y+) after one round from (X, Y, D_x, D_y)."""
        A, B, C = self.A, self.B, self.C
        X = A @ (C @ X - mu_x * M_x) - B @ D_x
        Y = A @ (C @ Y + mu_y * M_y) - B @ D_y
        return X, Y, D_x + B @ X, D_y + B @ Y


def run_ok(config, problem, ops, **kwargs):
    """run_and_measure, failing if any seed diverged."""
    series = run_and_measure(config, problem, ops, **kwargs)
    assert not series.failures, {s: str(e) for s, e in series.failures.items()}
    return series


def objective(problem, x, y):
    """The network objective J(x, y) = mean_k J_k(x, y), from the agents'
    mean blocks, or the sin-PL landscape, whose perturbations cancel in
    the mean: a reference independent of maximizer_oracle's closed form."""
    if isinstance(problem, SinPLProblem):
        x0, y0 = x[0], y[0]
        return float(x0**2 + 3 * np.sin(x0) ** 2 * np.sin(y0) ** 2
                     - 4 * y0**2 - 10 * np.sin(y0) ** 2)
    Q, R, S, a, b = (m.mean(axis=0) for m in (problem.Q, problem.R, problem.S,
                                              problem.a, problem.b))
    return float(0.5 * x @ Q @ x + x @ R @ y + a @ x - 0.5 * y @ S @ y
                 + b @ y)


def ascent_maximizer(problem, x, tol=1e-12, cap=10**6):
    """argmax_y J(x, y) and P(x) by gradient ascent with step 1/L_f, an
    independent reference for the closed forms of maximizer_oracle."""
    y = np.zeros(problem.d2)
    step = 1.0 / problem.constants.L_f
    for _ in range(cap):
        G = problem.exact_grads_block(np.tile(np.r_[x, y], (problem.K, 1)))
        g = G[:, problem.d1:].mean(axis=0)
        if np.max(np.abs(g)) <= tol and np.linalg.norm(g) <= tol:
            return y, objective(problem, x, y)
        y = y + step * g
    raise AssertionError(f"inner ascent did not reach tol={tol} in {cap} steps")


def mode_blocks(bundle):
    """The (K-1, 2, 2) stack of the consensus/dual blocks
    P_j = [[a_j c_j - b_j^2, -b_j], [b_j, 1]] that the bundle's per-mode
    similarities Q_j T_j Q_j^{-1} must reproduce."""
    a, b, c = bundle.Lam_a, bundle.Lam_b, bundle.Lam_c
    P = np.empty((len(b), 2, 2))
    P[:, 0, 0] = a * c - b * b
    P[:, 0, 1] = -b
    P[:, 1, 0] = b
    P[:, 1, 1] = 1.0
    return P


def reference_coupled_error_norms(Z, muM, D, bundle):
    """coupled_error_norms element by element from the bundle's Q^{-1},
    Lam_a, Lam_b and tau rather than its read-out map E: project, form
    the paper's second coordinate z_j / b_j = (a_j m_j + d_j) / b_j
    - b_j x_j on every mode, then apply Q_j^{-1} and divide by tau. The
    result is mode-first, (K-1, 2, ..., d), as coupled_error_norms'."""
    proj = bundle.U_hat.T @ np.concatenate([Z, muM, D], axis=-1)
    x, mu_m, dual = np.split(proj, 3, axis=-1)
    b = bundle.Lam_b[:, None]
    z = (bundle.Lam_a[:, None] * mu_m + dual) / b - b * x
    Qi = bundle.Q_inv[:, :, :, None]
    return mode_first(np.stack([Qi[:, 0, 0] * x + Qi[:, 0, 1] * z,
                                Qi[:, 1, 0] * x + Qi[:, 1, 1] * z])
                      / bundle.tau)


def mode_first(e):
    """A (2, ..., K-1, d) stack of the two components of every mode in
    coupled_error_norms' layout, (K-1, 2, ..., d)."""
    return np.moveaxis(e, -2, 0)


@dataclass(frozen=True)
class ConsensusBoundReport:
    lhs: float
    rhs: float
    passed: bool


def check_consensus_bound(Z, ehat, bundle: TransformBundle) -> ConsensusBoundReport:
    """Consensus error of one (K, d) block vs. K v1^2 v2^2 ||ehat||^2."""
    K = Z.shape[0]
    lhs = float(np.sum((Z - Z.mean(axis=0)) ** 2))
    rhs = float(K * bundle.v1_sq * bundle.v2_sq * np.sum(ehat**2))
    return ConsensusBoundReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs + 1e-9 * max(1.0, rhs))


@dataclass(frozen=True)
class TheoremConstants:
    a_prime: float
    b_prime: float
    c_prime: float
    d_prime: float
    e_prime: float
    f_prime: float
    beta_prime: float
    beta_bar: float
    rho: float
    lam_a: float
    lam_b_underline: float


def theorem_constants(grace: GraceParams, bundle: TransformBundle,
                      constants: ProblemConstants, T: int,
                      is_online: bool) -> TheoremConstants:
    """Bookkeeping constants of the stationarity bound."""
    bb = grace.beta_bar
    if bb == 0.0:
        raise ConfigError("p = beta = 0: the estimator never refreshes")
    L_f = constants.L_f
    rho = bundle.rho
    lam_a_sq = bundle.lam_a_sq
    lam_b_sq = bundle.lam_b_underline_sq
    K = bundle.K
    b, b0, beta, p = grace.b, grace.b0, grace.beta, grace.p
    beta_p = p + beta**2
    gap = 1.0 - rho
    online = 1.0 if is_online else 0.0
    B = grace.B_big if grace.B_big is not None else math.inf
    a_p = L_f**2 / (b * K * bb * gap * lam_b_sq)
    b_p = L_f**2 * lam_a_sq * beta_p / (b * b0 * K * bb**2 * gap**2 * lam_b_sq)
    c_p_const = L_f**4 * lam_a_sq * beta_p / (b**2 * K * bb**2 * gap**2 * lam_b_sq**2)
    d_p = (L_f**2 * lam_a_sq / (b * K * bb * gap**2 * lam_b_sq)
           * (p / B * online + beta**2 / b))
    e_p = (1.0 / (b0 * bb * K * T)
           + beta**2 / (K * b * bb)
           + p / (K * B * bb) * online)
    f_p = L_f**2 / (b * K * bb * lam_b_sq)
    return TheoremConstants(
        a_prime=a_p, b_prime=b_p, c_prime=c_p_const, d_prime=d_p,
        e_prime=e_p, f_prime=f_p, beta_prime=beta_p, beta_bar=bb,
        rho=rho, lam_a=math.sqrt(lam_a_sq),
        lam_b_underline=math.sqrt(lam_b_sq),
    )
