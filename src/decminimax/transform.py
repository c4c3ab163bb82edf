"""Coupled-error coordinates and spectral diagnostics.

On the eigenvector of W with eigenvalue lam != 1 the strategy matrices act
as scalars (a, b, c) = strategies.mode_values(kind, lam), and the
consensus/dual dynamics as the block P = [[a c - b^2, -b], [b, 1]]. Every
row has a c - b^2 = 2 lam - 1, so P = Q T Q^{-1} is written down for each
of the two forms of b:

* ED and EXTRA, b = sqrt(1 - lam): a complex pair of modulus r = sqrt(lam).
  With cos = sqrt((1 + r)/2), sin = sqrt((1 - r)/2) (as
  sqrt((1 - lam)/(2 (1 + r))), which keeps its digits as lam -> 1) and
  om = sqrt(lam (1 - lam)), Q = [[-cos, -sin], [sin, cos]] is the
  eigenvector phased so its real and imaginary parts have equal norm,
  Q^{-1} = Q / r (Q^2 = r I) and T = [[lam, om], [-om, lam]]:
  ||T|| = r, ||Q||^2 = 1 + sqrt(1 - lam), ||Q^{-1}||^2 = ||Q||^2 / lam.
* the gradient-tracking rows, b = 1 - lam: a double root lam. The fixed
  Jordan basis Q = [[sqrt(1.5), sqrt(2)/6], [-sqrt(1.5), sqrt(2)/6]], with
  columns sqrt(3) (1, -1)/sqrt(2) and (1, 1)/(3 sqrt(2)), gives
  T = [[lam, -2 (1 - lam)/(3 sqrt(3))], [0, lam]], ||Q||^2 = 3 and
  ||Q^{-1}||^2 = 9.

A square-root mode with 4 lam (1 - lam) <= 1e-9 (lam within 2.5e-10 of 0
or 1, such as a complete graph's zero eigenvalues) takes the Jordan basis,
in which T = [[lam, -(g + b)/(3 sqrt(3))], [3 sqrt(3) (b - g), lam]] with
g = 1 - lam is exact for either b; its condition number is sqrt(27). Above
that switch the condition number (1 + sqrt(1 - lam))/sqrt(lam) is below
2/sqrt(2.5e-10), about 1.3e5.

The ehat columns record the transformed coordinates of the engine state.
On mode j they are linear in three projections: x_j = u_j^T Z,
m_j = u_j^T (mu M) and d_j = u_j^T D. The engine carries the dual as
D = B D_paper, so d_j is b_j times the paper's dual coordinate, and the
paper's coupled variable z = A mu M + B D_paper - B^2 Z gives the second
coordinate z_j / b_j = (a_j m_j + d_j) / b_j - b_j x_j (b_j > 0 on every
non-principal mode). So ehat_j = Q_j^{-1} [x_j; z_j / b_j] / tau, with
tau = sqrt(K) max_j ||Q_j^{-1}||, is E_j [x_j; m_j; d_j] for the per-mode
read-out map

    E_j = Q_j^{-1} [[1, 0, 0], [-b_j, a_j / b_j, 1 / b_j]] / tau,

whose three columns are the coefficients of x_j, (q0 - b_j q1) / tau, of
m_j, (a_j / b_j) q1 / tau, and of d_j, q1 / (b_j tau), where q0 and q1
are the columns of Q_j^{-1}. E is built once per network, with the rest
of the bundle. coupled_error_norms evaluates a whole batch of states,
such as every round and replicate of an engine chunk, at once: it copies
Z, mu M and D agent-first into one (K, 3, ...) block, projects every
state onto every mode with one 2-D product by U_hat^T and applies every
mode's E with one more product, and returns ehat mode-first,
(K-1, 2, ..., d).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError
from .mixing import MixingMatrix
from .strategies import SQRT_STRATEGIES, StrategyKind, mode_values

_SWITCH = 1e-9  # square-root modes with 4 lam (1 - lam) above this rotate
_ROOT27 = 3.0 * np.sqrt(3.0)
_Q_JORDAN = np.array([[np.sqrt(1.5), np.sqrt(2.0) / 6.0],
                      [-np.sqrt(1.5), np.sqrt(2.0) / 6.0]])
_Q_JORDAN_INV = np.array([[1.0 / np.sqrt(6.0), -1.0 / np.sqrt(6.0)],
                          [3.0 / np.sqrt(2.0), 3.0 / np.sqrt(2.0)]])
# columns per panel of the diagnostics' projection. OpenBLAS's dgemm gives
# a column of a product whose width is a whole number of 8-column panels
# the same bits wherever it sits and however wide the product is; a
# column in a partial panel at the end of a product can round otherwise
# (measured for K from 2 to 256, widths to 8192, one and two threads)
_PANEL = 8


@dataclass(frozen=True)
class TransformBundle:
    kind: StrategyKind
    U_hat: np.ndarray       # (K, K-1) orthonormal basis of the consensus complement
    Lam_a: np.ndarray       # (K-1,) eigenvalues of A on the complement
    Lam_b: np.ndarray
    Lam_c: np.ndarray
    Q: np.ndarray           # (K-1, 2, 2) per-mode similarity
    Q_inv: np.ndarray       # (K-1, 2, 2)
    T_mat: np.ndarray       # (K-1, 2, 2)
    rho: float
    v1_sq: float
    v2_sq: float
    lam_a_sq: float
    lam_b_underline_sq: float
    tau: float
    E: np.ndarray           # (K-1, 2, 3) per-mode read-out map of ehat

    @property
    def K(self) -> int:
        return self.U_hat.shape[0]


def _stack(p00, p01, p10, p11):
    """The (m, 2, 2) stack of the blocks [[p00, p01], [p10, p11]]."""
    return np.stack([np.stack([p00, p01], axis=-1),
                     np.stack([p10, p11], axis=-1)], axis=-2)


def build_transform_bundle(kind: StrategyKind,
                           mixing: MixingMatrix) -> TransformBundle:
    K = mixing.K
    U_hat = mixing.eigvecs[:, 1:]
    m = K - 1
    lam = mixing.eigvals[1:]
    Lam_a, Lam_b, Lam_c = mode_values(kind, lam)
    if np.any(np.abs(Lam_b) < 1e-12):
        raise DegenerateModeError(
            "a non-principal mode has a zero dual-coupling eigenvalue; "
            "the graph effectively has a disconnected consensus subspace"
        )
    gap = 1.0 - lam
    rot = (kind in SQRT_STRATEGIES) & (4.0 * lam * gap > _SWITCH)
    r = np.sqrt(np.where(rot, lam, 1.0))
    cos = np.sqrt((1.0 + r) / 2.0)
    sin = np.sqrt(np.where(rot, gap, 0.0) / (2.0 * (1.0 + r)))
    om = np.sqrt(np.where(rot, lam * gap, 0.0))
    rot = rot[:, None, None]
    Q = np.where(rot, _stack(-cos, -sin, sin, cos), _Q_JORDAN)
    Qi = np.where(rot, Q / r[:, None, None], _Q_JORDAN_INV)
    Tm = np.where(rot, _stack(lam, om, -om, lam),
                  _stack(lam, -(gap + Lam_b) / _ROOT27,
                         _ROOT27 * (Lam_b - gap), lam))
    v1_sq = float(np.max(np.linalg.norm(Q, 2, axis=(1, 2))**2)) if m else 1.0
    v2_sq = float(np.max(np.linalg.norm(Qi, 2, axis=(1, 2))**2)) if m else 1.0
    tau = float(np.sqrt(K) * np.sqrt(v2_sq))
    q0, q1 = Qi[:, :, 0], Qi[:, :, 1]
    b = Lam_b[:, None]
    E = np.stack([q0 - b * q1, Lam_a[:, None] / b * q1, q1 / b], axis=-1) / tau
    return TransformBundle(
        kind=kind,
        U_hat=U_hat,
        Lam_a=Lam_a,
        Lam_b=Lam_b,
        Lam_c=Lam_c,
        Q=Q,
        Q_inv=Qi,
        T_mat=Tm,
        rho=float(np.max(np.linalg.norm(Tm, 2, axis=(1, 2)))) if m else 0.0,
        v1_sq=v1_sq,
        v2_sq=v2_sq,
        lam_a_sq=float(np.max(Lam_a**2)) if m else 0.0,
        lam_b_underline_sq=float(np.min(Lam_b**2)) if m else 1.0,
        tau=tau,
        E=E,
    )


def _panel_width(cols: int) -> int:
    """cols rounded up to a whole number of panels."""
    return -(-cols // _PANEL) * _PANEL


def projection_buffer(shape) -> np.ndarray:
    """An out buffer for coupled_error_norms on (..., K, d) blocks of this
    shape, or on any with fewer entries per agent."""
    *lead, K, d = shape
    return np.empty(K * 3 * _panel_width(int(np.prod(lead)) * d))


def coupled_error_norms(Z, muM, D, bundle: TransformBundle,
                        out=None) -> np.ndarray:
    """Transformed deviation coordinates ehat of the engine state, for
    (K, d) blocks or (..., K, d) batches of them, mode-first: a
    (K-1, 2, ..., d) array whose [j, i] entry holds component i of mode j.

    Z is the primal block, muM the signed step times the estimates and D
    the carried dual B D_paper. The three blocks are copied agent-first
    into one (K, 3, W) block, each entry of the batch in a column of the
    first m = prod(...) d of every block's W, the rest zero; W is m
    padded to whole panels, so every column of the product sits in a
    full panel and its bits do not depend on the batch. The block lives
    in out, a projection_buffer of the batch's shape, if given. One 2-D
    product with U_hat^T then projects every state onto every mode, and
    one product with the bundle's read-out map E (see the module
    docstring) turns mode j's (x_j, m_j, d_j) into
    ehat_j = Q_j^{-1} [x_j; z_j / b_j] / tau for every state at once,
    written over the block: the result is a view into out, which the
    next call with that buffer overwrites.
    """
    K, batch = Z.shape[-2], Z.shape[:-2] + Z.shape[-1:]
    d, m = batch[-1], int(np.prod(batch))
    W = _panel_width(m)
    buf = np.empty(K * 3 * W) if out is None else out[:K * 3 * W]
    X = buf.reshape(K, 3, W)
    X[:, :, m:] = 0.0
    # an agent's d entries of one state move as one record, so the copy's
    # inner loop runs over the states rather than over d
    record = np.dtype((np.void, X.itemsize * d))
    rows = X[:, :, :m].reshape(K, 3, -1, d).view(record)[..., 0]
    for i, block in enumerate((Z, muM, D)):
        block = np.ascontiguousarray(block, dtype=float).reshape(-1, K, d)
        np.copyto(rows[:, i], block.view(record)[..., 0].T)
    proj = bundle.U_hat.T @ X.reshape(K, -1)
    # the block is spent: ehat takes the front of its storage
    ehat = np.matmul(bundle.E, proj.reshape(K - 1, 3, W),
                     out=buf[:(K - 1) * 2 * W].reshape(K - 1, 2, W))
    return ehat[:, :, :m].reshape((K - 1, 2) + batch)
