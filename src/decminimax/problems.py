"""Synthetic nonconvex-PL minimax objectives with stochastic gradients.

Two instances:

* QuadraticMinimaxProblem: per-agent saddle quadratics
      J_k(x, y) = 1/2 x'Q_k x + x'R_k y + a_k'x - 1/2 y'S_k y + b_k'y
  with stochasticity only in the linear terms, so the smoothness constant
  is exact and the per-sample variance is controlled exactly.

* SinPLProblem: a 1-D landscape that is PL but nonconcave in y,
      J(x, y) = x^2 + 3 sin^2(x) sin^2(y) - 4 y^2 - 10 sin^2(y),
  plus zero-sum per-agent linear perturbations.

Every array method takes the iterates as one block z = [x | y] of width
d1 + d2, with any leading batch axes, (..., K, d1+d2), so one call serves
a whole batch of seed replicates and returns gradients [grad_x | grad_y]
in the same layout; gradient_kernel binds the gradients for one batch
shape, once, to a function of the batch's flat (S K, d1+d2) rows that
allocates nothing, which the engine calls every round. centroid_metrics
gives the metrics at the network centroid in closed form: the gradient
of the network objective there (Hbar z_c + cbar for the quadratics, from
the agents' mean Hessian and linear term) and the envelope gap
max_y J(x_c, y) - J(x_c, y_c).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_PL_GRID = np.linspace(-3.0, 3.0, 121)  # both axes of the PL-estimate grid


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
    def __init__(self, Q, R, S, a, b, samples, sigma):
        # the blocks are read-only copies, like every array derived from
        # them below, so a write cannot leave the cached constants, H and
        # c and the tiles of a gradient kernel stale
        Q, R, S, a, b = map(_read_only, (Q, R, S, a, b))
        self.Q = Q  # (K, d1, d1)
        self.R = R  # (K, d1, d2)
        self.S = S  # (K, d2, d2)
        self.a = a  # (K, d1)
        self.b = b  # (K, d2)
        # (K, N, d1+d2): agent k's per-sample linear terms [a | b], or None
        # for online-only
        self.samples = samples
        self.sigma = float(sigma)
        self.K, self.d1, _ = Q.shape
        self.d2 = S.shape[1]
        self.N = None if samples is None else samples.shape[1]

        # the gradient in z = [x | y] is H_k z + c_k
        self.H = _read_only(np.block([[Q, R], [R.transpose(0, 2, 1), -S]]))
        self.c = _read_only(np.concatenate([a, b], axis=1))
        # the gradient of the network objective J = mean_k J_k
        self.Hbar = _read_only(self.H.mean(axis=0))
        self.cbar = _read_only(self.c.mean(axis=0))
        # S's mean, not -Hbar's y-y block: at d2 = 1 numpy sums the
        # contiguous S pairwise and the strided block in order
        Sbar = S.mean(axis=0)
        nu = float(np.min(np.linalg.eigvalsh(Sbar)))
        if nu <= 0:
            raise ConfigError(f"mean S block must be positive definite (nu={nu:.3e})")
        L_f = float(np.max(np.abs(np.linalg.eigvalsh(self.H))))
        self.constants = ProblemConstants(nu=nu, L_f=L_f, kappa=L_f / nu)
        # Sbar = L L', so the gap 1/2 g' Sbar^{-1} g is 1/2 |L^{-1} g|^2
        self.Linv = _read_only(np.linalg.inv(np.linalg.cholesky(Sbar)))

    # -- exact gradients -------------------------------------------------

    def exact_grads_block(self, Z, out=None):
        """Every agent's gradient [grad_x | grad_y] at Z (..., K, d1+d2),
        written into out, a C-contiguous array of Z's shape, when given:
        one call of a gradient_kernel bound for Z's shape."""
        d = Z.shape[-1]
        if out is None:
            out = np.empty(Z.shape)
        self.gradient_kernel(Z.shape)(Z.reshape(-1, d), out.reshape(-1, d))
        return out

    def gradient_kernel(self, shape):
        """A function grads(Z, out) that writes every agent's gradient at
        the iterates Z into out, both the flat (n, d) rows of
        C-contiguous (..., K, d) blocks of this shape, d = d1+d2.

        H and c are tiled over the leading axes here, once, into
        contiguous (n, d, d) and (n, d) blocks, S K d^2 and S K d floats
        for a run's (S, K, d), so a call allocates nothing: one einsum
        over the rows with a contiguous inner loop, whose rows have the
        bits of the broadcast einsum over H, and one add of the tile of
        c, which an in-place add of c by broadcast would buffer. It is
        an einsum, not a BLAS product: BLAS over the batch would make a
        seed's bytes depend on the batch size. H and c are fixed at
        construction, so the tiles never go stale.
        """
        d = shape[-1]
        Ht = np.broadcast_to(self.H, tuple(shape[:-1]) + (d, d)).reshape(
            -1, d, d)
        ct = np.broadcast_to(self.c, shape).reshape(-1, d)

        def grads(Z, out):
            np.einsum("nij,nj->ni", Ht, Z, out=out)
            np.add(out, ct, out=out)
        return grads

    def centroid_metrics(self, z_c):
        """(grad, delta_c) at centroids z_c (..., d1+d2).

        The gradient of J is Hbar z_c + cbar. With g_y its y-part,
        y* - y_c = Sbar^{-1} g_y, so the gap is 1/2 g_y' Sbar^{-1} g_y:
        non-negative by construction.
        """
        grad = np.einsum("ij,...j->...i", self.Hbar, z_c) + self.cbar
        v = np.einsum("ij,...j->...i", self.Linv, grad[..., self.d1:])
        return grad, 0.5 * np.sum(np.square(v, out=v), axis=-1)

    # -- stochastic gradients --------------------------------------------

    def batch_noise(self, rngs, batch):
        """Averaged linear-term deviation from the mean over one size-`batch`
        minibatch per agent, replicate and round: batch is (S, R), one size
        per round of each of the S generators in rngs, and the noise is one
        (S, R, K, d1+d2) block.

        A round of size 0 has zero noise. Offline: the non-zero sizes of
        one call must be equal. Each replicate draws its rounds of non-zero
        size as one (rounds, K, size) index block from its own stream; a
        round of size 0 draws nothing, and the estimator asks for size 0 on
        every round whose noise would not reach the estimate (a refresh, or
        a recursion at beta = 0). The batch's sample means are then gathered
        one sample slot at a time from the flattened tables: slot j of every
        replicate, round and agent is one take, added into the output in
        slot order, so the sums equal a mean over the slot axis and only
        one slot's rows are held beside the output. Online: one Gaussian
        block per round gives every agent's noise, drawn whatever the
        round's size, so a size-0 round moves the stream as any other.
        """
        if self.N is None:
            return _gaussian_noise(rngs, self.K, self.d1, self.d2, self.sigma, batch)
        batch = np.asarray(batch)
        drawn = batch > 0
        if not drawn.any():
            return np.zeros(batch.shape + (self.K, self.d1 + self.d2))
        size = int(batch.max())
        if (batch[drawn] != size).any():
            raise ConfigError("offline minibatch sizes of one draw must be "
                              f"equal, got {sorted(set(batch[drawn].tolist()))}")
        # rows k*N + n of the flattened tables; undrawn rounds gather row 0
        # of each table and are zeroed below
        idx = np.zeros(batch.shape + (self.K, size), dtype=np.intp)
        for rng, d, out in zip(rngs, drawn, idx):
            if d.any():
                out[d] = rng.integers(0, self.N, size=(d.sum(), self.K, size))
        idx += np.arange(0, self.K * self.N, self.N)[:, None]
        # a view, so writes into the tables show in the next draw
        flat = self.samples.reshape(-1, self.d1 + self.d2)
        noise = np.take(flat, idx[..., 0], axis=0)
        for j in range(1, size):
            noise += np.take(flat, idx[..., j], axis=0)
        noise /= size
        noise -= self.c
        noise[~drawn] = 0.0
        return noise


class SinPLProblem:
    """Scalar two-sided-PL stress test; online sampling only."""

    def __init__(self, cx, cy, sigma, nu_hat):
        self.cx = cx  # (K,) zero-sum x perturbations
        self.cy = cy
        self.sigma = float(sigma)
        self.K = cx.shape[0]
        self.d1 = self.d2 = 1
        self.N = None
        # |J_yy| <= 6 + 8 + 20 with room for the cross term
        self.constants = ProblemConstants(nu=nu_hat, L_f=35.0, kappa=35.0 / nu_hat)

    def exact_grads_block(self, Z, out=None):
        """Every agent's gradient [grad_x | grad_y] at Z (..., K, 2),
        written into out, an array of Z's shape, when given."""
        x, y = Z[..., 0], Z[..., 1]
        gx = 2 * x + 3 * np.sin(2 * x) * np.sin(y) ** 2 + self.cx
        gy = (3 * np.sin(x) ** 2 - 10) * np.sin(2 * y) - 8 * y + self.cy
        return np.stack([gx, gy], axis=-1, out=out)

    def gradient_kernel(self, shape):
        """A function grads(Z, out) that writes exact_grads_block at the
        iterates Z into out, both the flat (n, 2) rows of C-contiguous
        (..., K, 2) blocks of this shape."""
        blocks = (-1,) + tuple(shape[-2:])

        def grads(Z, out):
            self.exact_grads_block(Z.reshape(blocks), out=out.reshape(blocks))
        return grads

    def centroid_metrics(self, z_c):
        """(grad, delta_c) at centroids z_c = [x_c | y_c] of shape (..., 2).

        The gradient is nonlinear, so it is the mean of the agents'
        gradients, all taken at the centroid. The perturbations sum to
        zero, so max_y J(x, y) = x^2 at y* = 0 and the gap is
        (10 - 3 sin^2 x) sin^2 y + 4 y^2.
        """
        x, y = z_c[..., 0], z_c[..., 1]
        Z = np.broadcast_to(z_c[..., None, :],
                            z_c.shape[:-1] + (self.K, z_c.shape[-1]))
        return (self.exact_grads_block(Z).mean(axis=-2),
                (10 - 3 * np.sin(x) ** 2) * np.sin(y) ** 2 + 4 * y**2)

    def batch_noise(self, rngs, batch):
        return _gaussian_noise(rngs, self.K, 1, 1, self.sigma, batch)


def _read_only(a):
    """A read-only copy of the array a."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def _gaussian_noise(rngs, K, d1, d2, sigma, batch):
    """Averaged noise of K fresh minibatches per generator and round, of the
    sizes in batch (S, R), from one (R, K, d1+d2) Gaussian block per
    generator; the x and y sides each have total variance sigma^2 / size,
    and a round of size 0 has zero noise. The block is drawn also when
    sigma = 0 or a size is 0, so the stream position depends on neither.
    Each generator fills its slice of the (S, R, K, d1+d2) output, which
    is scaled in place."""
    batch = np.asarray(batch)
    z = np.empty(batch.shape + (K, d1 + d2))
    for rng, block in zip(rngs, z):
        rng.standard_normal(out=block)
    n = np.repeat([d1, d2], [d1, d2]) * batch[..., None, None]
    return np.multiply(z, np.divide(sigma, np.sqrt(n), out=np.zeros(n.shape),
                                    where=n > 0), out=z)


# -- constructors ---------------------------------------------------------


def _random_spd_spectra(rng, n, d, lo, hi):
    """n random SPD matrices O diag(u) O', stacked (n, d, d): O is the
    orthogonal factor of a standard normal d x d block G, and u holds d
    eigenvalues uniform in [lo, hi).

    Stream order: matrix after matrix, G and then its u; a batched draw
    must keep it. Only the draws loop; the factorisations and products
    run as one stacked call each.
    """
    G = np.empty((n, d, d))
    u = np.empty((n, 1, d))
    for G_i, u_i in zip(G, u):
        rng.standard_normal(out=G_i)
        u_i[0] = rng.uniform(lo, hi, size=d)
    O, _ = np.linalg.qr(G)
    return (O * u) @ O.transpose(0, 2, 1)


def _sample_deviations(rng, K, N, d, sigma, scratch=None):
    """One side of the sample table: (K, N, d) standard normal deviations,
    centred per agent and scaled to RMS norm sigma (all zero if N = 1).
    The squares for the norms go into scratch, a (K, N, d) array that is
    overwritten, or into a new array if none is given."""
    e = rng.standard_normal((K, N, d))
    if N == 1:
        e[...] = 0.0
        return e
    e -= e.mean(axis=1, keepdims=True)
    # per-agent RMS norm
    ms = np.sqrt(np.square(e, out=scratch).sum(axis=2).mean(axis=1))
    e *= np.where(ms > 0, sigma / np.where(ms > 0, ms, 1.0), 0.0)[:, None, None]
    return e


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

    Every array is built whole, with no loop over agents except the
    draws, and the draws keep one stream order, which fixes every array
    of a seed: Qbase (its normal block, then its uniforms), the deltas,
    each agent's S (normal block, then uniforms, agent after agent), R,
    a, b, and then the sample table's x side before its y side. A
    rewrite that batches the draws differently changes the problem.
    """
    if d1 < 1 or d2 < 1:
        raise ConfigError(f"d1 and d2 must be >= 1, got {d1} and {d2}")
    if nu_target <= 0:
        raise ConfigError("nu_target must be > 0")
    rng = np.random.default_rng(seed)
    Qbase = _random_spd_spectra(rng, 1, d1, q_base[0], q_base[1])[0]
    deltas = rng.standard_normal((K, d1, d1)) * q_spread
    deltas = (deltas + deltas.transpose(0, 2, 1)) / 2.0
    deltas -= deltas.mean(axis=0, keepdims=True)
    Q = Qbase[None] + deltas
    S = _random_spd_spectra(rng, K, d2, nu_target, nu_target + s_spread)
    R = rng.standard_normal((K, d1, d2)) * r_scale / np.sqrt(max(d1, d2))
    a = rng.standard_normal((K, d1)) * hetero
    b = rng.standard_normal((K, d2)) * hetero
    if zero_mean_linear:
        a -= a.mean(axis=0, keepdims=True)
        b -= b.mean(axis=0, keepdims=True)

    samples = None
    if N is not None:
        # each side is drawn and normalised as its own contiguous block,
        # x first: the x side before the table exists, the y side with its
        # squares in its own slot of the table, so no more than one side's
        # temporaries are ever held beside the table
        ex = _sample_deviations(rng, K, N, d1, sigma)
        samples = np.empty((K, N, d1 + d2))
        np.add(ex, a[:, None, :], out=samples[..., :d1])
        del ex
        ey = _sample_deviations(rng, K, N, d2, sigma, scratch=samples[..., d1:])
        np.add(ey, b[:, None, :], out=samples[..., d1:])
    return QuadraticMinimaxProblem(Q, R, S, a, b, samples, sigma)


def make_sinpl_problem(K, sigma, seed):
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
    Xg, Yg = np.meshgrid(_PL_GRID, _PL_GRID, indexing="ij")
    gy = (3 * np.sin(Xg) ** 2 - 10) * np.sin(2 * Yg) - 8 * Yg
    gap = (10 - 3 * np.sin(Xg) ** 2) * np.sin(Yg) ** 2 + 4 * Yg**2
    mask = gap > 1e-12
    nu_hat = float(np.min(gy[mask] ** 2 / (2 * gap[mask])))
    if nu_hat <= 0:
        raise ConfigError("grid PL estimate is not positive")
    return SinPLProblem(cx, cy, sigma, nu_hat)


# -- inner maximization ----------------------------------------------------


def maximizer_oracle(problem, x):
    """argmax_y J(x, y) and the envelope value P(x), in closed form.

    Quadratic problems: at z = [x | y*], y* zeroes the y-part of the
    gradient Hbar z + cbar, and P(x) = J(z) = 1/2 z' Hbar z + cbar' z.
    The sin-PL problem: y* = 0 and P(x) = x^2.
    """
    if isinstance(problem, SinPLProblem):
        return np.zeros(1), float(x[0] ** 2)
    d1, H, c = problem.d1, problem.Hbar, problem.cbar
    z = np.r_[x, np.linalg.solve(-H[d1:, d1:], H[d1:, :d1] @ x + c[d1:])]
    return z[d1:], float(0.5 * z @ H @ z + c @ z)
