"""The benchmark's workloads and the program inputs generated for them.

Every input the program sees (problem seed, start point, seed replicates)
is drawn from the workload seed given on the command line, so the same
seed always gives the same configs.
"""

import copy
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    name: str
    K: int                # agents on a lazy Metropolis ring
    N: int | None         # samples per agent; None = streaming
    sigma: float
    zero_mean_linear: bool
    mode: str             # schedule preset
    shrink: bool          # schedule.shrink_to_valid
    diagnostics: bool     # diagnostics.transform
    T: int                # rounds per seed replicate
    S: int                # seed replicates per operation
    probes: int           # set-up probes per round of operations
    check_decay: bool = False   # stationarity must fall 10x over the run
    d1: int = 3
    d2: int = 2

    @property
    def seed_rounds(self) -> int:
        return self.S * self.T


WORKLOADS = {w.name: w for w in (
    # criterion 8's shape: the per-round hot path, set-up in milliseconds
    Workload("storm_online", K=8, N=None, sigma=1.0, zero_mean_linear=True,
             mode="storm_ed", shrink=False, diagnostics=False,
             T=500, S=8, probes=5, check_decay=True),
    # scripts/configs/ring_quadratic_page.yaml with T cut from 2000 to 500
    # and the seeds lengthened from 4 to 8, so a run holds many operations
    Workload("page_offline", K=8, N=1024, sigma=0.3, zero_mean_linear=False,
             mode="page_offline", shrink=True, diagnostics=True,
             T=500, S=8, probes=5),
    # set-up (two Jacobi eigendecompositions) and K-wide rounds
    Workload("wide_ring", K=96, N=256, sigma=0.3, zero_mean_linear=False,
             mode="page_offline", shrink=True, diagnostics=True,
             T=400, S=2, probes=1),
)}


def make_config(w: Workload, seed: int) -> dict:
    """The raw config of one operation of workload w, drawn from seed."""
    rng = np.random.default_rng(seed)
    problem_seed = int(rng.integers(2**31))
    x0 = [float(v) for v in rng.standard_normal(w.d1)]
    y0 = [float(v) for v in rng.standard_normal(w.d2)]
    seeds = sorted(int(s) for s in rng.choice(2**20, size=w.S, replace=False))
    return {
        "topology": {"kind": "ring", "K": w.K, "lazy": True},
        "strategy": "ed",
        "problem": {"kind": "quadratic", "d1": w.d1, "d2": w.d2, "N": w.N,
                    "sigma": w.sigma, "seed": problem_seed,
                    "zero_mean_linear": w.zero_mean_linear},
        "schedule": {"mode": w.mode, "shrink_to_valid": w.shrink},
        "T": w.T,
        "seeds": seeds,
        "x0": x0,
        "y0": y0,
        "diagnostics": {"transform": w.diagnostics},
    }


def probe_config(raw: dict) -> dict:
    """The same config cut to one seed and one round.

    Its run time is the set-up from a loaded config to the first round,
    plus one seed's initialisation and two rounds. Schedule resolution
    does the same work at T=1: the presets are closed forms in T, and the
    offline presets that shrink do not depend on T at all.
    """
    probe = copy.deepcopy(raw)
    probe["T"] = 1
    probe["seeds"] = raw["seeds"][:1]
    return probe


def warmup_config(raw: dict) -> dict:
    """A small copy that runs every code path of the workload once."""
    warm = copy.deepcopy(raw)
    warm["topology"]["K"] = 4
    warm["T"] = 20
    warm["seeds"] = raw["seeds"][:1]
    return warm


def import_program():
    """Import decminimax from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "decminimax" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {src}")
    sys.path.insert(0, str(src))
    import decminimax
    if Path(decminimax.__file__).resolve().parent != (src / "decminimax").resolve():
        raise SystemExit(f"error: decminimax imported from {decminimax.__file__}")
    return decminimax
