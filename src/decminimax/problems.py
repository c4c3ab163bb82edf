"""Synthetic nonconvex-PL minimax objectives with stochastic gradients.

Two instances:

* QuadraticMinimaxProblem: per-agent saddle quadratics
      J_k(x, y) = 1/2 x'Q_k x + x'R_k y + a_k'x - 1/2 y'S_k y + b_k'y
  with stochasticity only in the linear terms, so the smoothness constant
  is exact and the per-sample variance is controlled exactly.

* SinPLProblem: a 1-D landscape that is PL but nonconcave in y,
      J(x, y) = x^2 + 3 sin^2(x) sin^2(y) - 4 y^2 - 10 sin^2(y),
  plus zero-sum per-agent linear perturbations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AscentCapError, ConfigError


@dataclass(frozen=True)
class ProblemConstants:
    nu: float
    L_f: float
    kappa: float

    @property
    def L(self) -> float:
        # smoothness of the envelope max_y J(x, y)
        return self.L_f + self.kappa * self.L_f / 2.0


class QuadraticMinimaxProblem:
    def __init__(self, Q, R, S, a, b, a_samples, b_samples, sigma, seed):
        self.Q = Q  # (K, d1, d1)
        self.R = R  # (K, d1, d2)
        self.S = S  # (K, d2, d2)
        self.a = a  # (K, d1)
        self.b = b  # (K, d2)
        self.a_samples = a_samples  # (K, N, d1) or None for online-only
        self.b_samples = b_samples
        self.sigma = float(sigma)
        self.seed = seed
        self.K, self.d1, _ = Q.shape
        self.d2 = S.shape[1]
        self.N = None if a_samples is None else a_samples.shape[1]

        self.Qbar = Q.mean(axis=0)
        self.Rbar = R.mean(axis=0)
        self.Sbar = S.mean(axis=0)
        self.abar = a.mean(axis=0)
        self.bbar = b.mean(axis=0)
        nu = float(np.min(np.linalg.eigvalsh(self.Sbar)))
        if nu <= 0:
            raise ConfigError(f"mean S block must be positive definite (nu={nu:.3e})")
        L_f = 0.0
        for k in range(self.K):
            H = np.block([[Q[k], R[k]], [R[k].T, -S[k]]])
            L_f = max(L_f, float(np.max(np.abs(np.linalg.eigvalsh(H)))))
        self.constants = ProblemConstants(nu=nu, L_f=L_f, kappa=L_f / nu)

    # -- exact gradients -------------------------------------------------

    def exact_grads_block(self, X, Y):
        GX = (
            np.einsum("kij,kj->ki", self.Q, X)
            + np.einsum("kij,kj->ki", self.R, Y)
            + self.a
        )
        GY = (
            np.einsum("kji,kj->ki", self.R, X)
            - np.einsum("kij,kj->ki", self.S, Y)
            + self.b
        )
        return GX, GY

    def objective(self, x, y):
        """Global objective J(x, y) = mean_k J_k(x, y)."""
        return float(
            0.5 * x @ self.Qbar @ x
            + x @ self.Rbar @ y
            + self.abar @ x
            - 0.5 * y @ self.Sbar @ y
            + self.bbar @ y
        )

    # -- stochastic gradients --------------------------------------------

    def batch_noise(self, rng, batch):
        """Averaged linear-term deviation from the mean over one size-`batch`
        minibatch per agent, as (K, d1) and (K, d2) arrays.

        Offline: each agent draws `batch` indices into its sample tables.
        Online: one Gaussian block gives every agent's averaged noise.
        """
        if self.N is None:
            return _gaussian_noise(rng, self.K, self.d1, self.d2, self.sigma, batch)
        idx = rng.integers(0, self.N, size=(self.K, batch))
        rows = np.arange(self.K)[:, None]
        return (
            self.a_samples[rows, idx].mean(axis=1) - self.a,
            self.b_samples[rows, idx].mean(axis=1) - self.b,
        )


class SinPLProblem:
    """Scalar two-sided-PL stress test; online sampling only."""

    def __init__(self, cx, cy, sigma, seed, nu_hat):
        self.cx = cx  # (K,) zero-sum x perturbations
        self.cy = cy
        self.sigma = float(sigma)
        self.seed = seed
        self.K = cx.shape[0]
        self.d1 = self.d2 = 1
        self.N = None
        # |J_yy| <= 6 + 8 + 20 with room for the cross term
        self.constants = ProblemConstants(nu=nu_hat, L_f=35.0, kappa=35.0 / nu_hat)

    def exact_grads_block(self, X, Y):
        x, y = X[:, 0], Y[:, 0]
        gx = 2 * x + 3 * np.sin(2 * x) * np.sin(y) ** 2 + self.cx
        gy = (3 * np.sin(x) ** 2 - 10) * np.sin(2 * y) - 8 * y + self.cy
        return gx[:, None], gy[:, None]

    def objective(self, x, y):
        x0, y0 = x[0], y[0]
        return float(
            x0**2
            + 3 * np.sin(x0) ** 2 * np.sin(y0) ** 2
            - 4 * y0**2
            - 10 * np.sin(y0) ** 2
        )

    def batch_noise(self, rng, batch):
        return _gaussian_noise(rng, self.K, 1, 1, self.sigma, batch)


def _gaussian_noise(rng, K, d1, d2, sigma, batch):
    """Averaged noise of K fresh size-`batch` minibatches, from one (K, d1+d2)
    Gaussian block; each side has total variance sigma^2 / batch. The block
    is drawn also when sigma = 0, so the stream position does not depend on
    sigma."""
    z = rng.standard_normal((K, d1 + d2))
    return (z[:, :d1] * (sigma / np.sqrt(d1 * batch)),
            z[:, d1:] * (sigma / np.sqrt(d2 * batch)))


# -- constructors ---------------------------------------------------------


def _random_spd_spectrum(rng, d, lo, hi):
    G = rng.standard_normal((d, d))
    O, _ = np.linalg.qr(G)
    return (O * rng.uniform(lo, hi, size=d)) @ O.T


def make_quadratic_problem(
    K,
    d1,
    d2,
    N,
    sigma,
    seed,
    nu_target=0.5,
    q_base=(0.2, 1.0),
    q_spread=1.0,
    s_spread=0.5,
    r_scale=0.3,
    hetero=1.0,
    zero_mean_linear=False,
):
    """Heterogeneous agents with exact variance and smoothness control.

    The global x-curvature is kept positive (base spectrum q_base plus
    zero-sum indefinite per-agent deltas), so individual J_k are
    nonconvex in x while the envelope stays bounded below.
    """
    if d1 < 1 or d2 < 1:
        raise ConfigError(f"d1 and d2 must be >= 1, got {d1} and {d2}")
    if nu_target <= 0:
        raise ConfigError("nu_target must be > 0")
    rng = np.random.default_rng(seed)
    Qbase = _random_spd_spectrum(rng, d1, q_base[0], q_base[1])
    deltas = rng.standard_normal((K, d1, d1)) * q_spread
    deltas = (deltas + deltas.transpose(0, 2, 1)) / 2.0
    deltas -= deltas.mean(axis=0, keepdims=True)
    Q = Qbase[None] + deltas
    S = np.stack(
        [_random_spd_spectrum(rng, d2, nu_target, nu_target + s_spread) for _ in range(K)]
    )
    R = rng.standard_normal((K, d1, d2)) * r_scale / np.sqrt(max(d1, d2))
    a = rng.standard_normal((K, d1)) * hetero
    b = rng.standard_normal((K, d2)) * hetero
    if zero_mean_linear:
        a -= a.mean(axis=0, keepdims=True)
        b -= b.mean(axis=0, keepdims=True)

    a_samples = b_samples = None
    if N is not None:
        ea = rng.standard_normal((K, N, d1))
        eb = rng.standard_normal((K, N, d2))
        if N > 1:
            ea -= ea.mean(axis=1, keepdims=True)
            eb -= eb.mean(axis=1, keepdims=True)
            for e in (ea, eb):
                ms = np.sqrt((e**2).sum(axis=2).mean(axis=1))  # per-agent RMS norm
                e *= np.where(ms > 0, sigma / np.where(ms > 0, ms, 1.0), 0.0)[:, None, None]
        else:
            ea[:] = 0.0
            eb[:] = 0.0
        a_samples = a[:, None, :] + ea
        b_samples = b[:, None, :] + eb
    return QuadraticMinimaxProblem(Q, R, S, a, b, a_samples, b_samples, sigma, seed)


def make_sinpl_problem(K, sigma, seed, grid_halfwidth=3.0, grid_points=121):
    """Build the sin-PL instance and grid-estimate its PL constant."""
    rng = np.random.default_rng(seed)
    cx = rng.standard_normal(K) * 0.5
    cy = rng.standard_normal(K) * 0.5
    cx[-1] = -np.sum(cx[:-1])
    cy[-1] = -np.sum(cy[:-1])
    if K == 1:
        cx[:] = 0.0
        cy[:] = 0.0

    # PL ratio |grad_y J|^2 / (2 (P - J)) on a grid; P(x) = x^2 (max at y=0)
    xs = np.linspace(-grid_halfwidth, grid_halfwidth, grid_points)
    ys = np.linspace(-grid_halfwidth, grid_halfwidth, grid_points)
    Xg, Yg = np.meshgrid(xs, ys, indexing="ij")
    gy = (3 * np.sin(Xg) ** 2 - 10) * np.sin(2 * Yg) - 8 * Yg
    gap = (10 - 3 * np.sin(Xg) ** 2) * np.sin(Yg) ** 2 + 4 * Yg**2
    mask = gap > 1e-12
    nu_hat = float(np.min(gy[mask] ** 2 / (2 * gap[mask])))
    if nu_hat <= 0:
        raise ConfigError("grid PL estimate is not positive")
    return SinPLProblem(cx, cy, sigma, seed, nu_hat)


# -- inner maximization ----------------------------------------------------


def maximizer_oracle(problem, x, use_closed_form=True, tol=1e-10, cap=10**6):
    """argmax_y J(x, y) and the envelope value P(x).

    Quadratic problems use the closed form y = Sbar^{-1}(Rbar' x + bbar);
    anything else (or use_closed_form=False) falls back to gradient
    ascent with step 1/L_f.
    """
    if use_closed_form and isinstance(problem, QuadraticMinimaxProblem):
        y_opt = np.linalg.solve(problem.Sbar, problem.Rbar.T @ x + problem.bbar)
        return y_opt, problem.objective(x, y_opt)
    X = np.tile(x, (problem.K, 1))
    y = np.zeros(problem.d2)
    step = 1.0 / problem.constants.L_f
    for _ in range(cap):
        _, GY = problem.exact_grads_block(X, np.tile(y, (problem.K, 1)))
        g = GY.mean(axis=0)
        if np.max(np.abs(g)) <= tol and np.linalg.norm(g) <= tol:
            return y, problem.objective(x, y)
        y = y + step * g
    raise AscentCapError(
        f"inner ascent did not reach tol={tol} in {cap} steps",
        residual=float(np.linalg.norm(g)),
    )
