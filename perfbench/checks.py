"""Checks of the files one operation writes: seed_<s>.csv and summary.json.

Every check compares against a computation made here from the problem's
arrays, or against a property the method must have; none compares
against stored output. Checks of one seed's rows mark that seed as
failed; checks over the whole operation report problems instead.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROUND0_RTOL = 1e-10
SPECTRUM_ATOL = 1e-10
CENTROID_ROUNDING = 64 * np.finfo(float).eps
BOUND_RTOL = 1e-9
BAND_SIGMAS = 5.0
STATIONARITY_DROP = 10.0
FINITE = ("grad_x_sq", "grad_y_sq", "consensus_sq", "delta_c",
          "est_err_sq", "est_err_avg_sq")


@dataclass(frozen=True)
class Expected:
    """What the checks know apart from the program's output files."""
    K: int
    T: int
    seeds: tuple
    x0: np.ndarray
    y0: np.ndarray
    diagnostics: bool
    N: int | None           # None: online, refreshes draw B_big samples
    Q: np.ndarray           # (K, d1, d1): the problem's arrays
    R: np.ndarray           # (K, d1, d2)
    S: np.ndarray           # (K, d2, d2)
    a: np.ndarray           # (K, d1)
    b: np.ndarray           # (K, d2)
    check_decay: bool = False

    @classmethod
    def from_run(cls, raw: dict, problem, check_decay=False):
        """From the raw config an operation ran and its problem's arrays."""
        return cls(
            K=raw["topology"]["K"], T=raw["T"], seeds=tuple(raw["seeds"]),
            x0=np.array(raw["x0"], dtype=float),
            y0=np.array(raw["y0"], dtype=float),
            diagnostics=raw["diagnostics"]["transform"], N=raw["problem"]["N"],
            Q=problem.Q, R=problem.R, S=problem.S, a=problem.a, b=problem.b,
            check_decay=check_decay,
        )


@dataclass
class Report:
    seed_faults: dict = field(default_factory=dict)   # seed -> [reason]
    problems: list = field(default_factory=list)      # operation-wide
    refresh_rounds: int = 0
    max_bound_ratio: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.seed_faults and not self.problems

    def describe(self) -> list:
        return self.problems + [f"seed {s}: {'; '.join(r)}"
                                for s, r in sorted(self.seed_faults.items())]


def read_rows(path) -> list:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def round0_reference(e: Expected) -> tuple:
    """(grad_x_sq, grad_y_sq, delta_c) at the start point: the squared
    mean gradient and the gap to the closed-form inner maximum."""
    x, y = e.x0, e.y0
    gx = np.mean([e.Q[k] @ x + e.R[k] @ y + e.a[k] for k in range(e.K)], axis=0)
    gy = np.mean([e.R[k].T @ x - e.S[k] @ y + e.b[k] for k in range(e.K)], axis=0)
    Qm, Rm, Sm = e.Q.mean(axis=0), e.R.mean(axis=0), e.S.mean(axis=0)
    am, bm = e.a.mean(axis=0), e.b.mean(axis=0)

    def J(yy):
        return 0.5 * x @ Qm @ x + x @ Rm @ yy + am @ x - 0.5 * yy @ Sm @ yy + bm @ yy

    y_star = np.linalg.solve(Sm, Rm.T @ x + bm)
    return float(gx @ gx), float(gy @ gy), float(J(y_star) - J(y))


def lazy_ring_spectrum(K: int) -> np.ndarray:
    """Eigenvalues of the lazy Metropolis ring, descending."""
    j = np.arange(K)
    return np.sort((4.0 / 3.0 + (2.0 / 3.0) * np.cos(2 * np.pi * j / K)) / 2.0)[::-1]


def _sample_steps(rows: list, grace: dict, e: Expected) -> list:
    """samples_used increments; the first row's follows the b0 draw."""
    b0 = grace["b0"] if e.N is None else min(grace["b0"], e.N)
    used = [int(r["samples_used"]) for r in rows]
    return [used[0] - b0] + [u - v for u, v in zip(used[1:], used)]


def _refresh_size(grace: dict, e: Expected) -> int:
    return grace["B_big"] if e.N is None else e.N


def _bound_rhs(rows: list, constants: dict, e: Expected) -> list:
    scale = e.K * constants["v1_sq"] * constants["v2_sq"]
    return [scale * (float(r["ehat_x_sq"]) + float(r["ehat_y_sq"])) for r in rows]


def check_seed(rows: list, e: Expected, summary: dict, round0: tuple) -> list:
    """Reasons one seed's rows are wrong; empty when they pass."""
    if len(rows) != e.T + 1:
        return [f"{len(rows)} rows, expected T+1={e.T + 1}"]
    bad = []
    if [int(r["round"]) for r in rows] != list(range(e.T + 1)):
        bad.append("round column is not 0..T")
    for col in FINITE + (("ehat_x_sq", "ehat_y_sq") if e.diagnostics else ()):
        if not all(math.isfinite(float(r[col])) for r in rows):
            bad.append(f"non-finite {col}")
    if not e.diagnostics and any(r["ehat_x_sq"] or r["ehat_y_sq"] for r in rows):
        bad.append("ehat columns written with diagnostics off")
    if bad:
        return bad
    first = rows[0]
    for col, ref in zip(("grad_x_sq", "grad_y_sq", "delta_c"), round0):
        got = float(first[col])
        if abs(got - ref) > ROUND0_RTOL * max(abs(got), abs(ref)):
            bad.append(f"round-0 {col} {got!r} != reference {ref!r}")
    # every agent starts at (x0, y0): zero up to the rounding of the mean
    start_sq = float(e.x0 @ e.x0 + e.y0 @ e.y0)
    if float(first["consensus_sq"]) > e.K * start_sq * CENTROID_ROUNDING**2:
        bad.append(f"round-0 consensus_sq {first['consensus_sq']} is not 0")
    g = summary["grace"]
    allowed = {g["b"]} if g["p"] == 0.0 else {g["b"], _refresh_size(g, e)}
    if not set(_sample_steps(rows, g, e)) <= allowed:
        bad.append(f"samples_used steps outside {sorted(allowed)}")
    if e.diagnostics:
        for r, rhs in zip(rows, _bound_rhs(rows, summary["constants"], e)):
            if float(r["consensus_sq"]) > rhs * (1.0 + BOUND_RTOL):
                bad.append(f"consensus bound broken at round {r['round']}")
                break
    return bad


def check_outputs(out_dir, e: Expected) -> Report:
    """Run every check on the files of one operation."""
    out = Path(out_dir)
    report = Report()
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        report.problems.append(f"summary.json unreadable: {exc}")
        return report
    c, g = summary["constants"], summary["grace"]
    spectrum = lazy_ring_spectrum(e.K)
    for key, ref in (("lam", spectrum[1]), ("lam_min_nonzero", spectrum[-1])):
        if abs(c[key] - ref) > SPECTRUM_ATOL:
            report.problems.append(f"{key} {c[key]!r} != closed form {ref!r}")
    if not c["rho"] < 1.0:
        report.problems.append(f"rho {c['rho']!r} is not < 1")

    round0 = round0_reference(e)
    good = {}
    for s in e.seeds:
        path = out / f"seed_{s}.csv"
        rows = read_rows(path) if path.is_file() else []
        faults = check_seed(rows, e, summary, round0)
        if faults:
            report.seed_faults[s] = faults
        else:
            good[s] = rows
    if not good:
        return report

    if g["p"] > 0.0 and g["b"] != _refresh_size(g, e):
        refresh = _refresh_size(g, e)
        report.refresh_rounds = sum(
            step == refresh for rows in good.values()
            for step in _sample_steps(rows, g, e))
        n = len(good) * (e.T + 1)
        mean, sd = n * g["p"], math.sqrt(n * g["p"] * (1 - g["p"]))
        if abs(report.refresh_rounds - mean) > BAND_SIGMAS * sd:
            report.problems.append(
                f"{report.refresh_rounds} refreshes in {n} draws, outside "
                f"{mean:.1f} +- {BAND_SIGMAS:g} x {sd:.2f}")
    if e.diagnostics:
        report.max_bound_ratio = max(
            (float(r["consensus_sq"]) / rhs
             for rows in good.values()
             for r, rhs in zip(rows, _bound_rhs(rows, c, e)) if rhs > 0.0),
            default=0.0)
    if e.check_decay:
        stat = np.mean([[float(r["grad_x_sq"]) + float(r["grad_y_sq"]) for r in rows]
                        for rows in good.values()], axis=0)
        tail = float(np.mean(stat[3 * e.T // 4:]))
        if not tail * STATIONARITY_DROP <= stat[0]:
            report.problems.append(
                f"seed-averaged stationarity fell from {stat[0]:.3g} only "
                f"to {tail:.3g} over the last quarter")
    return report


def digest(out_dir) -> dict:
    """sha256 of every file an operation wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}
