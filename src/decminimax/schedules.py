"""Hyperparameter schedules and admissibility conditions.

schedule_for_mode resolves the order-level parameter recipes into concrete
numbers (constants fixed at user knobs, batch sizes ceil-rounded);
validate_conditions evaluates the full list of step-size/estimator
inequalities the convergence analysis requires.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError
from .estimator import GraceParams
from .problems import ProblemConstants
from .transform import TransformBundle

_MAX_HALVINGS = 60  # shrink_to_valid gives up past this many halvings
_SLACK = 1e-15      # a condition holds when value <= limit + _SLACK


class ScheduleMode(Enum):
    STORM_ED = "storm_ed"
    STORM_EXTRA = "storm_extra"
    STORM_ATCGT = "storm_atcgt"
    PAGE_OFFLINE = "page_offline"
    PAGE_ONLINE = "page_online"
    LSARAH_OFFLINE = "lsarah_offline"


@dataclass(frozen=True)
class ScheduleSpec:
    mode: ScheduleMode
    T: int
    K: int
    kappa: float
    N: int | None = None
    lam: float | None = None  # second-largest mixing eigenvalue (online PAGE)
    c_mu: float = 1.0
    c_beta: float = 1.0
    c_p: float = 1.0
    c_b: float = 1.0

    def __post_init__(self):
        if self.T < 1 or self.K < 1:
            raise ConfigError("T and K must be >= 1")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigError(f"kappa must be finite and positive, "
                              f"got {self.kappa}")
        if self.N is not None and self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        # a mixing eigenvalue lies in [-1, 1]; NaN fails the comparison
        if self.lam is not None and not -1.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [-1, 1], got {self.lam}")
        if self.mode in (ScheduleMode.PAGE_OFFLINE, ScheduleMode.LSARAH_OFFLINE) \
                and self.N is None:
            raise ConfigError(f"{self.mode.value} needs the local sample count N")
        if self.mode == ScheduleMode.PAGE_ONLINE and self.lam is None:
            raise ConfigError("page_online needs the mixing eigenvalue lam")


def schedule_for_mode(spec: ScheduleSpec):
    """Resolve (mu_x, mu_y, GraceParams) for one schedule mode, with
    mu_x = mu_y / kappa^2; steps that are not finite, or a step or batch
    size that overflows, raise ConfigError."""
    try:
        mu_y, grace = _preset(spec)
        mu_x = mu_y / spec.kappa**2
    except OverflowError as exc:
        raise ConfigError(f"the {spec.mode.value} preset's steps or batch "
                          f"sizes overflow: {exc}") from exc
    if not (math.isfinite(mu_x) and math.isfinite(mu_y)):
        raise ConfigError(f"the {spec.mode.value} preset's steps mu_x={mu_x}, "
                          f"mu_y={mu_y} are not finite")
    return mu_x, mu_y, grace


def _preset(spec: ScheduleSpec):
    """(mu_y, GraceParams) of spec's schedule mode."""
    T, K = spec.T, spec.K
    if spec.mode in (ScheduleMode.STORM_ED, ScheduleMode.STORM_EXTRA,
                     ScheduleMode.STORM_ATCGT):
        mu_y = spec.c_mu * K ** (2 / 3) / T ** (1 / 3)
        beta = min(1.0, spec.c_beta * K ** (1 / 3) / T ** (2 / 3))
        b0 = max(1, math.ceil(spec.c_b * T ** (1 / 3) / K ** (2 / 3)))
        grace = GraceParams(beta=beta, p=0.0, b=1, b0=b0)
        return mu_y, grace
    if spec.mode == ScheduleMode.PAGE_OFFLINE:
        N = spec.N
        b = max(1, math.ceil(spec.c_b * math.sqrt(N / K)))
        p = min(1.0, spec.c_p / math.sqrt(K * N))
        mu_y = spec.c_mu * min(1.0, K / math.sqrt(N))
        grace = GraceParams(beta=0.0, p=p, b=b, B_big=N, b0=b)
        return mu_y, grace
    if spec.mode == ScheduleMode.PAGE_ONLINE:
        gap = 1.0 - spec.lam
        if gap <= 0:
            raise ConfigError("page_online needs lam < 1 (connected graph)")
        B = max(1, math.ceil(gap**1.5 * T / K))
        b = max(1, math.ceil(spec.c_b * gap**0.75 * math.sqrt(T) / K))
        p = min(1.0, spec.c_p / (gap**0.75 * math.sqrt(T)))
        mu_y = spec.c_mu * gap**1.5
        grace = GraceParams(beta=0.0, p=p, b=b, B_big=B, b0=b)
        return mu_y, grace
    if spec.mode == ScheduleMode.LSARAH_OFFLINE:
        N = spec.N
        b0 = max(1, math.ceil(spec.c_b * math.sqrt(N) / K))
        p = min(1.0, spec.c_p * K / N)
        mu_y = spec.c_mu * min(1.0, K / math.sqrt(N))
        grace = GraceParams(beta=0.0, p=p, b=1, B_big=max(1, math.ceil(N / K)),
                            b0=b0)
        return mu_y, grace
    raise ConfigError(f"unknown schedule mode {spec.mode!r}")


@dataclass(frozen=True)
class Condition:
    name: str
    value: float
    limit: float
    satisfied: bool

    @property
    def margin(self) -> float:
        """limit / value; > 1 means satisfied with that factor of room."""
        if self.value == 0.0:
            return math.inf
        return self.limit / self.value


@dataclass(frozen=True)
class ConditionReport:
    conditions: tuple
    passed: bool

    def failing(self):
        return [c for c in self.conditions if not c.satisfied]

    def as_dict(self):
        return {
            "passed": self.passed,
            "conditions": [
                {"name": c.name, "value": c.value, "limit": c.limit,
                 "satisfied": c.satisfied,
                 "margin": c.margin if math.isfinite(c.margin) else None}
                for c in self.conditions
            ],
        }


def validate_conditions(mu_x: float, mu_y: float, grace: GraceParams,
                        constants: ProblemConstants,
                        bundle: TransformBundle) -> ConditionReport:
    """Evaluate the full admissibility list for (mu_x, mu_y, grace).

    Spectral inputs (rho, lam_a, lam_b, v1, v2) come from the realized
    transform bundle, so the report is meaningful for all five strategies
    even where no closed-form constants exist.
    """
    L_f, nu, kap = constants.L_f, constants.nu, constants.kappa
    L = constants.L
    rho = bundle.rho
    lam_a = math.sqrt(bundle.lam_a_sq)
    lam_b_u = math.sqrt(bundle.lam_b_underline_sq)
    v1 = math.sqrt(bundle.v1_sq)
    v2 = math.sqrt(bundle.v2_sq)
    K = bundle.K
    b, beta, p = grace.b, grace.beta, grace.p
    bb = grace.beta_bar
    beta_p = p + beta**2

    conds = []

    def add(name, value, limit):
        conds.append(Condition(name=name, value=float(value), limit=float(limit),
                               satisfied=bool(value <= limit + _SLACK)))

    gap = 1.0 - rho
    add("mu_x <= 1/(32 L)", mu_x, 1.0 / (32.0 * L))
    add("mu_x <= mu_y/(16 kappa^2)", mu_x, mu_y / (16.0 * kap**2))
    add("mu_x <= sqrt(K b beta_bar)/(24 sqrt(3) kappa L_f)",
        mu_x, math.sqrt(K * b * bb) / (24.0 * math.sqrt(3.0) * kap * L_f))
    add("mu_y <= 1/nu", mu_y, 1.0 / nu)
    add("mu_y <= 1/(2 L_f)", mu_y, 1.0 / (2.0 * L_f))
    add("mu_y <= sqrt(K b beta_bar)/(12 L_f)",
        mu_y, math.sqrt(K * b * bb) / (12.0 * L_f))
    if lam_a > 0:
        denom = L_f * v1 * v2 * lam_a
        add("mu_y <= (1-rho) lam_b/(sqrt(620) L_f v1 v2 lam_a)",
            mu_y, gap * lam_b_u / (math.sqrt(620.0) * denom))
        add("mu_y <= (1-rho) lam_b/(12 L_f v1 v2 lam_a)",
            mu_y, gap * lam_b_u / (12.0 * denom))
        if beta_p > 0:
            add("mu_y <= (1-rho) lam_b sqrt(b beta_bar/(p+beta^2))/(24 L_f v1 v2 lam_a)",
                mu_y, gap * lam_b_u * math.sqrt(b * bb / beta_p) / (24.0 * denom))
        add("mu_y <= (1-rho)^(2/3) lam_b^(2/3) (b K beta_bar)^(1/3)"
            "/(90 L_f kappa^(1/3) (v1 v2 lam_a)^(2/3))",
            mu_y,
            gap ** (2 / 3) * lam_b_u ** (2 / 3) * (b * K * bb) ** (1 / 3)
            / (90.0 * L_f * kap ** (1 / 3) * (v1 * v2 * lam_a) ** (2 / 3)))
    add("beta_bar <= nu mu_y / 2", bb, nu * mu_y / 2.0)
    add("b beta_bar <= 1/K", b * bb, 1.0 / K)
    add("p + beta <= 1", p + beta, 1.0)
    add("beta + b p <= b", beta + b * p, float(b))
    add("1 <= b", 1.0, float(b))
    add("beta_bar <= 1", bb, 1.0)
    add("beta <= 1", beta, 1.0)
    return ConditionReport(conditions=tuple(conds),
                           passed=all(c.satisfied for c in conds))


def _bad_steps(report: ConditionReport):
    """The failing step-size rows, but for mu_x <= mu_y/(16 kappa^2)."""
    return [c for c in report.failing() if c.name.startswith(("mu_x", "mu_y"))
            and not c.name.startswith("mu_x <= mu_y")]


def _halvings(value: float, bound: float) -> float:
    """The fewest n >= 0 with value 2^-n <= bound, read off the binary
    exponents; inf if bound is not positive."""
    if not bound > 0:
        return math.inf
    (m_v, e_v), (m_b, e_b) = math.frexp(value), math.frexp(bound)
    return max(0, e_v - e_b + (m_v > m_b))


def shrink_to_valid(mu_x: float, mu_y: float, grace: GraceParams,
                    constants: ProblemConstants, bundle: TransformBundle):
    """Halve (mu_x, mu_y) jointly the fewest times that makes every
    step-size condition pass; returns (mu_x, mu_y, halvings, report).

    mu_x <= mu_y/(16 kappa^2) is set up front and joint halving keeps it.
    Every other step row bounds mu_x or mu_y by a limit free of the steps,
    and halving is exact, so the count is the largest of the rows' own
    counts. Estimator rows (b beta_bar <= 1/K and friends) do not improve
    under step shrinking; the final report covers them too.
    """
    mu_x = min(mu_x, mu_y / (16.0 * constants.kappa**2))
    report = validate_conditions(mu_x, mu_y, grace, constants, bundle)
    n = max((_halvings(c.value, c.limit + _SLACK) for c in _bad_steps(report)),
            default=0)
    if n > _MAX_HALVINGS:
        raise ConfigError(
            f"step sizes still inadmissible after {_MAX_HALVINGS} halvings")
    if n:
        mu_x, mu_y = mu_x * 0.5**n, mu_y * 0.5**n
        report = validate_conditions(mu_x, mu_y, grace, constants, bundle)
        assert not _bad_steps(report), "a step row's limit moved"
    return mu_x, mu_y, n, report
