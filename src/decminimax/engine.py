"""Main simulation loop: estimator update, primal steps, dual steps.

Per round i the order is fixed: (1) the gradient estimator advances using
the current and previous iterates; (2) primal updates

    X_{i+1} = A_x (C_x X_i - mu_x M_{x,i}) - B_x D_{x,i}
    Y_{i+1} = A_y (C_y Y_i + mu_y M_{y,i}) - B_y D_{y,i}   (ascent sign)

(3) dual updates D_{+} = D + B X_{+}. Metrics for round i are recorded
after the estimator update but before the iterate advance, so the round-0
row reflects the initialization.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError
from .estimator import GraceParams, GraceState, init_estimator, update_estimator, \
    estimator_error
from .problems import maximizer_oracle
from .strategies import StrategyKind, StrategyOps, build_strategy
from .transform import TransformBundle, build_transform_bundle, coupled_error_norms

DIVERGENCE_CAP = 1e12


@dataclass(frozen=True)
class EngineConfig:
    strategy: StrategyKind
    mu_x: float
    mu_y: float
    grace: GraceParams
    T: int
    seed: int = 0
    record_transform_diagnostics: bool = False

    def __post_init__(self):
        if self.mu_x <= 0 or self.mu_y <= 0:
            raise ConfigError("step sizes must be positive")
        if self.T < 1:
            raise ConfigError(f"round budget must be >= 1, got {self.T}")


@dataclass
class EngineState:
    X: np.ndarray   # (K, d1)
    Y: np.ndarray   # (K, d2)
    D_x: np.ndarray
    D_y: np.ndarray
    grace: GraceState
    round: int = 0


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    grad_x_sq: float
    grad_y_sq: float
    consensus_sq: float
    delta_c: float
    est_err_sq: float
    est_err_avg_sq: float
    ehat_x_sq: float | None
    ehat_y_sq: float | None
    samples_used: int


@dataclass
class MetricsSeries:
    rows: list = field(default_factory=list)

    @property
    def avg_stationarity(self) -> float:
        """(1/T) sum over rounds 0..T-1 of the squared gradient metric
        (the final row, recorded after the last update, is excluded)."""
        body = self.rows[:-1] if len(self.rows) > 1 else self.rows
        return float(np.mean([r.grad_x_sq + r.grad_y_sq for r in body]))


def init_engine(config: EngineConfig, problem, x0=None, y0=None) -> EngineState:
    """All agents start from the same point with zero duals."""
    K = problem.K
    x0 = np.zeros(problem.d1) if x0 is None else np.asarray(x0, dtype=float)
    y0 = np.zeros(problem.d2) if y0 is None else np.asarray(y0, dtype=float)
    if x0.shape != (problem.d1,) or y0.shape != (problem.d2,):
        raise ConfigError(
            f"start point dims {x0.shape}/{y0.shape} do not match "
            f"problem dims ({problem.d1},)/({problem.d2},)"
        )
    X = np.tile(x0, (K, 1))
    Y = np.tile(y0, (K, 1))
    grace = init_estimator(problem, config.grace, config.seed, X, Y)
    return EngineState(
        X=X,
        Y=Y,
        D_x=np.zeros_like(X),
        D_y=np.zeros_like(Y),
        grace=grace,
        round=0,
    )


def _advance(state: EngineState, config: EngineConfig, ops: StrategyOps) -> None:
    """Primal and dual updates using the current gradient estimates."""
    A, B, C = ops.A, ops.B, ops.C
    X_new = A @ (C @ state.X - config.mu_x * state.grace.M_x) - B @ state.D_x
    Y_new = A @ (C @ state.Y + config.mu_y * state.grace.M_y) - B @ state.D_y
    state.D_x = state.D_x + B @ X_new
    state.D_y = state.D_y + B @ Y_new
    state.X = X_new
    state.Y = Y_new
    state.round += 1


def step(state: EngineState, config: EngineConfig, problem,
         ops: StrategyOps) -> None:
    """One full round: estimator update then primal/dual advance."""
    update_estimator(state.grace, config.grace, state.X, state.Y, problem)
    _advance(state, config, ops)
    _check_finite(state)


def _check_finite(state: EngineState) -> None:
    worst = 0.0
    for arr in (state.X, state.Y, state.D_x, state.D_y):
        if not np.all(np.isfinite(arr)):
            raise DivergenceError(
                f"non-finite iterate at round {state.round}",
                round_index=state.round, max_entry=float("inf"),
            )
        worst = max(worst, float(np.max(np.abs(arr))))
    if worst > DIVERGENCE_CAP:
        raise DivergenceError(
            f"iterate magnitude {worst:.3e} exceeds {DIVERGENCE_CAP:g} "
            f"at round {state.round}",
            round_index=state.round, max_entry=worst,
        )


def _record(state: EngineState, config: EngineConfig, problem,
            bundle: TransformBundle | None) -> RoundMetrics:
    x_c = state.X.mean(axis=0)
    y_c = state.Y.mean(axis=0)
    Xc = np.tile(x_c, (problem.K, 1))
    Yc = np.tile(y_c, (problem.K, 1))
    gx, gy = problem.exact_grads_block(Xc, Yc)
    grad_x = gx.mean(axis=0)
    grad_y = gy.mean(axis=0)
    consensus = float(np.sum((state.X - x_c) ** 2) + np.sum((state.Y - y_c) ** 2))
    _, P_val = maximizer_oracle(problem, x_c)
    delta_c = P_val - problem.objective(x_c, y_c)
    ex, ey, exc, eyc = estimator_error(state.grace)
    ehat_x_sq = ehat_y_sq = None
    if bundle is not None:
        err = coupled_error_norms(
            state.X, state.Y, state.grace.M_x, state.grace.M_y,
            state.D_x, state.D_y, bundle, config.mu_x, config.mu_y,
        )
        ehat_x_sq = err.ehat_x_sq
        ehat_y_sq = err.ehat_y_sq
    return RoundMetrics(
        round=state.round,
        grad_x_sq=float(np.sum(grad_x**2)),
        grad_y_sq=float(np.sum(grad_y**2)),
        consensus_sq=consensus,
        delta_c=float(delta_c),
        est_err_sq=ex + ey,
        est_err_avg_sq=exc + eyc,
        ehat_x_sq=ehat_x_sq,
        ehat_y_sq=ehat_y_sq,
        samples_used=state.grace.samples_used,
    )


def run_and_measure(config: EngineConfig, problem, mixing, x0=None, y0=None,
                    ops: StrategyOps | None = None,
                    bundle: TransformBundle | None = None) -> MetricsSeries:
    """Run T rounds and return T+1 metric rows (rounds 0..T).

    Each row reflects the state after that round's estimator update but
    before its iterate advance; the final row gets one extra estimator
    update so its estimation-error columns are well-defined. The transform
    bundle is used only with diagnostics on, and built here if not passed.

    On divergence the partial series is attached to the raised error.
    """
    if ops is None:
        ops = build_strategy(config.strategy, mixing)
    if not config.record_transform_diagnostics:
        bundle = None
    elif bundle is None:
        bundle = build_transform_bundle(ops, mixing, d=problem.d1)
    state = init_engine(config, problem, x0=x0, y0=y0)
    series = MetricsSeries()
    try:
        for _ in range(config.T):
            update_estimator(state.grace, config.grace, state.X, state.Y,
                             problem)
            series.rows.append(_record(state, config, problem, bundle))
            _advance(state, config, ops)
            _check_finite(state)
        update_estimator(state.grace, config.grace, state.X, state.Y,
                         problem)
        series.rows.append(_record(state, config, problem, bundle))
    except (DivergenceError, FloatingPointError) as exc:
        if isinstance(exc, DivergenceError):
            exc.partial = series
        raise
    return series
