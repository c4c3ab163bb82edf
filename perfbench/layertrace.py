"""Per-layer trace: wraps the program's public functions from outside.

Each layer is one decminimax module. While a Tracer is active, every
wrapped call is a span; spans are folded as they close into per-function
counts, inclusive time and self time (inclusive time less the time of the
wrapped calls made inside it), all kept in memory. A function the program
no longer has is reported as absent and the rest are still traced.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, function or Class.method); the module is the layer
TARGETS = (
    ("mixing", "build_graph"), ("mixing", "metropolis_weights"),
    ("mixing", "eigh_symmetric"), ("mixing", "sqrt_psd"),
    ("mixing", "mixing_for_topology"),
    ("strategies", "build_strategy"),
    ("transform", "build_transform_bundle"), ("transform", "coupled_error_norms"),
    ("schedules", "schedule_for_mode"), ("schedules", "validate_conditions"),
    ("schedules", "shrink_to_valid"),
    ("problems", "make_quadratic_problem"),
    ("problems", "QuadraticMinimaxProblem.exact_grads_block"),
    ("problems", "QuadraticMinimaxProblem.batch_noise"),
    ("problems", "maximizer_oracle"),
    ("estimator", "init_estimator"), ("estimator", "update_estimator"),
    ("estimator", "estimator_error"),
    ("engine", "init_engine"), ("engine", "run_and_measure"),
    ("harness", "run_experiment"), ("harness", "write_outputs"),
)
LAYERS = ("mixing", "strategies", "transform", "schedules", "problems",
          "estimator", "engine", "harness")


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self, package):
        self.package = package
        self.count = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.outer = defaultdict(float)   # per layer, outermost spans only
        self.absent = []
        self._stack = []                  # child time of each open span
        self._depth = defaultdict(int)    # open spans per layer
        self._undo = []

    def _wrap(self, name, layer, fn):
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[layer] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                depth[layer] -= 1
                self.count[name] += 1
                self.incl[name] += dt
                self.self_[name] += dt - child
                if stack:
                    stack[-1] += dt
                if not depth[layer]:
                    self.outer[layer] += dt
        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        for layer, qualname in TARGETS:
            name = f"{layer}.{qualname}"
            owner = sys.modules.get(f"{self.package}.{layer}")
            *cls, attr = qualname.split(".")
            for part in cls:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, layer, fn)
            # rebind every module-level reference as well as the definition
            holders = [owner] if cls else [m for m in modules if vars(m).get(attr) is fn]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, fn))
        return self

    def __exit__(self, *exc):
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()
        return False

    def layer_self(self, layer) -> float:
        return sum(v for k, v in self.self_.items() if k.startswith(layer + "."))

    def spans(self) -> dict:
        """Per-function calls, inclusive and self seconds."""
        return {name: {"calls": self.count[name], "incl_s": self.incl[name],
                       "self_s": self.self_[name]} for name in sorted(self.count)}


UNITS = {
    "mixing.eig_calls": "count", "mixing.eig_s": "s", "mixing.build_s": "s",
    "strategies.build_s": "s",
    "transform.bundle_calls": "count", "transform.bundle_s": "s",
    "transform.diag_us_per_seed_round": "us",
    "schedules.validate_calls": "count", "schedules.resolve_s": "s",
    "problems.grad_evals_per_seed_round": "count",
    "problems.grad_us_per_seed_round": "us",
    "problems.noise_calls_per_seed_round": "count",
    "problems.noise_us_per_seed_round": "us",
    "problems.oracle_us_per_seed_round": "us",
    "estimator.update_us_per_seed_round": "us",
    "estimator.update_self_us_per_seed_round": "us",
    "estimator.error_us_per_seed_round": "us",
    "estimator.refresh_rounds": "count",
    "engine.us_per_seed_round": "us", "engine.self_us_per_seed_round": "us",
    "harness.write_s": "s", "harness.bytes_written": "B", "harness.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


def layer_metrics(tr: Tracer, seed_rounds: int) -> dict:
    """The span-derived metrics of one traced operation; absent ones None."""

    def get(name, table, scale=1.0):
        return None if name in tr.absent else table[name] * scale

    per_sr_us = 1e6 / seed_rounds
    grads = "problems.QuadraticMinimaxProblem.exact_grads_block"
    noise = "problems.QuadraticMinimaxProblem.batch_noise"
    m = {
        "mixing.eig_calls": get("mixing.eigh_symmetric", tr.count),
        "mixing.eig_s": get("mixing.eigh_symmetric", tr.incl),
        "mixing.build_s": get("mixing.mixing_for_topology", tr.incl),
        "strategies.build_s": get("strategies.build_strategy", tr.incl),
        "transform.bundle_calls": get("transform.build_transform_bundle", tr.count),
        "transform.bundle_s": get("transform.build_transform_bundle", tr.incl),
        "transform.diag_us_per_seed_round": get(
            "transform.coupled_error_norms", tr.incl, per_sr_us),
        "schedules.validate_calls": get("schedules.validate_conditions", tr.count),
        "schedules.resolve_s": tr.outer["schedules"],
        "problems.grad_evals_per_seed_round": get(grads, tr.count, 1 / seed_rounds),
        "problems.grad_us_per_seed_round": get(grads, tr.incl, per_sr_us),
        "problems.noise_calls_per_seed_round": get(noise, tr.count, 1 / seed_rounds),
        "problems.noise_us_per_seed_round": get(noise, tr.incl, per_sr_us),
        "problems.oracle_us_per_seed_round": get(
            "problems.maximizer_oracle", tr.incl, per_sr_us),
        "estimator.update_us_per_seed_round": get(
            "estimator.update_estimator", tr.incl, per_sr_us),
        "estimator.update_self_us_per_seed_round": get(
            "estimator.update_estimator", tr.self_, per_sr_us),
        "estimator.error_us_per_seed_round": get(
            "estimator.estimator_error", tr.incl, per_sr_us),
        "engine.us_per_seed_round": get("engine.run_and_measure", tr.incl, per_sr_us),
        "engine.self_us_per_seed_round": get(
            "engine.run_and_measure", tr.self_, per_sr_us),
        "harness.write_s": get("harness.write_outputs", tr.incl),
        "harness.self_s": get("harness.run_experiment", tr.self_),
    }
    for layer in LAYERS:
        if layer != "harness":
            m[f"{layer}.self_s"] = tr.layer_self(layer)
    return m
