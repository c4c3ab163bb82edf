"""Coupled-error coordinates and spectral diagnostics.

For each non-principal eigenvalue of W, the strategy matrices reduce to
scalars (a_j, b_j, c_j) = strategies.mode_values(kind, lam_j) and the
consensus/dual dynamics to the 2x2 block

    P_j = [[a_j c_j - b_j^2, -b_j],
           [b_j,             1   ]].

The bundle holds the similarities P_j = Q_j T_j Q_j^{-1} of all modes as
(K-1, 2, 2) stacks, with contractive T_j:

* complex conjugate pair     -> real rotation-scaling block whose norm is
  the eigenvalue modulus (the eigenvector phase is chosen so the real and
  imaginary parts have equal norm, which keeps the similarity exact);
* repeated eigenvalue        -> the block is defective (rank-1 nilpotent
  part); a scaled Jordan similarity with column scales (sqrt(3), 1/3)
  keeps ||T_j|| <= (1 + theta)/2 while ||Q_j||^2 <= 3, ||Q_j^{-1}||^2 <= 9.

The gradient-tracking rows always land in the repeated case (their block
has a double eigenvalue at the mode value); the square-root strategies
have discriminant 4 lam (lam - 1) <= 0, so they land in the complex case
for modes strictly inside (0, 1). A block with distinct real eigenvalues
comes from no strategy row and is rejected.

The engine carries the dual as D = B D_paper, so on mode j its projection
is b_j times the paper's dual coordinate; coupled_error_norms divides it
back out per mode, where b_j > 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError
from .mixing import MixingMatrix
from .strategies import StrategyKind, StrategyOps, mode_values

_JORDAN_COL_SCALES = (np.sqrt(3.0), 1.0 / 3.0)
_DISC_TOL = 1e-9   # |disc| below this (relative) counts as a repeated eigenvalue
_COND_CAP = 1e8    # largest accepted condition number of a mode similarity


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

    @property
    def K(self) -> int:
        return self.U_hat.shape[0]


def _mode_blocks(a, b, c):
    return np.stack([np.stack([a * c - b * b, -b], axis=-1),
                     np.stack([b, np.ones_like(b)], axis=-1)], axis=-2)


def _similarity_2x2(P):
    """Q, T with P = Q T Q^{-1} for each block of an (m, 2, 2) stack whose
    eigenvalues are a complex pair or repeated.

    Returns (Q, Q^{-1}, T).
    """
    p00, p01, p11 = P[:, 0, 0], P[:, 0, 1], P[:, 1, 1]
    tr = p00 + p11
    det = p00 * p11 - p01 * P[:, 1, 0]
    disc = tr * tr - 4.0 * det
    scale = np.maximum(1.0, np.maximum(tr**2, np.abs(det)))
    if np.any(disc > _DISC_TOL * scale):
        raise DegenerateModeError(
            f"mode block {int(np.argmax(disc / scale))} has distinct real "
            f"eigenvalues, which no strategy row produces"
        )
    cplx = disc < -_DISC_TOL * scale
    rep = ~cplx
    Q = np.empty_like(P)
    # complex conjugate pair: eigenvector (p01, al + i om - p00), its phase
    # rotated so the real and imaginary parts have equal norm
    al = tr[cplx] / 2.0
    om = np.sqrt(-disc[cplx]) / 2.0
    vr = np.stack([p01[cplx], al - p00[cplx]], axis=-1)
    vi = np.stack([np.zeros_like(om), om], axis=-1)
    phi = 0.5 * np.arctan2(np.sum(vr * vr, axis=-1) - np.sum(vi * vi, axis=-1),
                           2.0 * np.sum(vr * vi, axis=-1))
    w = np.exp(1j * phi)[:, None] * (vr + 1j * vi)
    Q[cplx] = np.stack([w.real, w.imag], axis=-1) \
        / np.linalg.norm(w.real, axis=-1)[:, None, None]
    # repeated eigenvalue: eigenvector + orthogonal generalized direction,
    # unless the block is already a multiple of I
    M = P[rep] - (tr[rep] / 2.0)[:, None, None] * np.eye(2)
    _, s, Vt = np.linalg.svd(M)
    scalar = s[:, 0] < 1e-12
    alpha, beta = _JORDAN_COL_SCALES
    Q[rep] = np.where(scalar[:, None, None], np.eye(2),
                      np.stack([alpha * Vt[:, 1], beta * Vt[:, 0]], axis=-1))
    Q_inv = np.linalg.inv(Q)
    return Q, Q_inv, Q_inv @ P @ Q


def build_transform_bundle(ops: StrategyOps,
                           mixing: MixingMatrix) -> TransformBundle:
    K = mixing.K
    U_hat = mixing.eigvecs[:, 1:]
    m = K - 1
    Lam_a, Lam_b, Lam_c = mode_values(ops.kind, mixing.eigvals[1:])
    if np.any(np.abs(Lam_b) < 1e-12):
        raise DegenerateModeError(
            "a non-principal mode has a zero dual-coupling eigenvalue; "
            "the graph effectively has a disconnected consensus subspace"
        )
    Q, Qi, Tm = _similarity_2x2(_mode_blocks(Lam_a, Lam_b, Lam_c))
    norm_q = np.linalg.norm(Q, 2, axis=(1, 2))
    norm_qi = np.linalg.norm(Qi, 2, axis=(1, 2))
    cond = norm_q * norm_qi
    if np.any(cond > _COND_CAP):
        raise DegenerateModeError(
            f"mode {int(np.argmax(cond))} similarity is ill-conditioned "
            f"(cond > {_COND_CAP:g})"
        )
    v1_sq = float(np.max(norm_q**2)) if m else 1.0
    v2_sq = float(np.max(norm_qi**2)) if m else 1.0
    return TransformBundle(
        kind=ops.kind,
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
        tau=float(np.sqrt(K) * np.sqrt(v2_sq)),
    )


def coupled_error_norms(Z, muM, D, bundle: TransformBundle) -> np.ndarray:
    """Transformed deviation coordinates ehat of the engine state, for
    (K, d) blocks or (S, K, d) batches of them: an (..., 2(K-1), d) array
    holding the first components of every mode, then the second.

    Z is the primal block, muM the signed step times the estimates and D
    the carried dual B D_paper. On mode j the coupled coordinates are
    (u_j^T Z, u_j^T z / b_j) with z = A muM + B D_paper - B^2 Z, so
    z_j / b_j = (a_j m_j + d_j) / b_j - b_j x_j.
    """
    proj = bundle.U_hat.T @ np.concatenate([Z, muM, D], axis=-1)
    x, mu_m, dual = np.split(proj, 3, axis=-1)
    b = bundle.Lam_b[:, None]
    z = (bundle.Lam_a[:, None] * mu_m + dual) / b - b * x
    Qi = bundle.Q_inv[:, :, :, None]
    return np.concatenate([Qi[:, 0, 0] * x + Qi[:, 0, 1] * z,
                           Qi[:, 1, 0] * x + Qi[:, 1, 1] * z], axis=-2) / bundle.tau
