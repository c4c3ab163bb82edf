"""Design-matrix triples (A, B, C) for the decentralized strategies.

Each strategy is three scalar maps of the mixing spectrum: on the
eigenvector of W with eigenvalue lam, A, B and C act as the scalars
a(lam), b(lam), c(lam) returned by mode_values. The engine carries the
dual only as the product B D, so it needs B only through B^2, and A, B^2
and C are all polynomials in W. The dense K x K matrices act on K x d
block iterates along the agent axis only, which is equivalent to applying
(M kron I_d) to the stacked vector.

Strategy rows:
    ED          A = W      B = (I - W)^{1/2}   B^2 = I - W         C = I
    EXTRA       A = I      B = (I - W)^{1/2}   B^2 = I - W         C = W
    ATC-GT      A = W^2    B = I - W           B^2 = (I - W)^2     C = I
    semi-ATC-GT A = W      B = I - W           B^2 = (I - W)^2     C = W
    non-ATC-GT  A = I      B = I - W           B^2 = (I - W)^2     C = W^2

B itself appears only per mode, as b(lam), in the transform.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotPSDError
from .mixing import MixingMatrix


class StrategyKind(Enum):
    ED = "ed"
    EXTRA = "extra"
    ATC_GT = "atc_gt"
    SEMI_ATC_GT = "semi_atc_gt"
    NON_ATC_GT = "non_atc_gt"


# kind -> (power of W in A, power of W in C, B is (I - W)^{1/2} not I - W)
_ROWS = {
    StrategyKind.ED: (1, 0, True),
    StrategyKind.EXTRA: (0, 1, True),
    StrategyKind.ATC_GT: (2, 0, False),
    StrategyKind.SEMI_ATC_GT: (1, 1, False),
    StrategyKind.NON_ATC_GT: (0, 2, False),
}

# strategies whose B = (I - W)^{1/2} requires W to be PSD
SQRT_STRATEGIES = tuple(kind for kind, row in _ROWS.items() if row[2])


@dataclass(frozen=True)
class StrategyOps:
    """Dense A, B^2 and C on one mixing matrix; an A or C equal to I is None."""
    kind: StrategyKind
    A: np.ndarray | None
    B2: np.ndarray  # B^2, the map of the carried dual B D
    C: np.ndarray | None


def mode_values(kind: StrategyKind, lam: np.ndarray):
    """(a, b, c): the scalars A, B and C take on eigenvalues lam of W."""
    pow_a, pow_c, sqrt_b = _ROWS[kind]
    lam = np.asarray(lam, dtype=float)
    gap = 1.0 - lam
    return lam**pow_a, np.sqrt(gap) if sqrt_b else gap, lam**pow_c


def _power(W: np.ndarray, n: int) -> np.ndarray | None:
    return None if n == 0 else W if n == 1 else W @ W


def build_strategy(kind: StrategyKind, mixing: MixingMatrix) -> StrategyOps:
    pow_a, pow_c, sqrt_b = _ROWS[kind]
    W = mixing.W
    if sqrt_b and not mixing.is_psd:
        raise NotPSDError(
            f"{kind.value} needs a PSD mixing matrix "
            f"(min eigenvalue {np.min(mixing.eigvals):.3e}); use lazy weights"
        )
    gap = np.eye(W.shape[0]) - W
    return StrategyOps(kind=kind, A=_power(W, pow_a),
                       B2=gap if sqrt_b else gap @ gap, C=_power(W, pow_c))
