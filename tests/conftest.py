import numpy as np
import pytest

from decminimax import (
    Topology,
    make_quadratic_problem,
    mixing_for_topology,
    run_and_measure,
)
from decminimax.engine import _advance, _iterate_errors
from decminimax.estimator import update_estimator


@pytest.fixture(scope="session")
def ring8_lazy():
    return mixing_for_topology(Topology(kind="ring", K=8), lazy=True)


@pytest.fixture(scope="session")
def ring4_lazy():
    return mixing_for_topology(Topology(kind="ring", K=4), lazy=True)


@pytest.fixture(scope="session")
def quad_problem():
    """Small offline quadratic shared by engine/estimator tests."""
    return make_quadratic_problem(K=8, d1=3, d2=2, N=64, sigma=0.5, seed=5)


def random_connected_mixing(rng, K, lazy=True):
    """A lazy Metropolis matrix on a random connected graph."""
    topo = Topology(kind="random", K=K, edge_prob=0.4,
                    seed=int(rng.integers(0, 2**31)))
    return mixing_for_topology(topo, lazy=lazy)


def assert_close(a, b, tol, label=""):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    assert err <= tol, f"{label} residual {err:.3e} > {tol:g}"


def update_checked(state, params, X, Y, problem):
    """update_estimator, failing if any replicate's estimate is not finite."""
    bad = update_estimator(state, params, X, Y, problem)
    assert (bad == -1).all(), f"non-finite estimate at agents {bad.tolist()}"


def step(state, config, problem, ops):
    """One round by hand with the engine's checks: estimator update, primal
    and dual advance, then every iterate finite and within DIVERGENCE_CAP."""
    update_checked(state.grace, config.grace, state.X, state.Y, problem)
    _advance(state, config, ops)
    errors = _iterate_errors(state)
    assert not errors, {i: str(e) for i, e in errors.items()}


def run_ok(config, problem, mixing, **kwargs):
    """run_and_measure, failing if any seed diverged."""
    series = run_and_measure(config, problem, mixing, **kwargs)
    assert not series.failures, {s: str(e) for s, e in series.failures.items()}
    return series


def ascent_maximizer(problem, x, tol=1e-12, cap=10**6):
    """argmax_y J(x, y) and P(x) by gradient ascent with step 1/L_f, an
    independent reference for the closed forms of maximizer_oracle."""
    X = np.tile(x, (problem.K, 1))
    y = np.zeros(problem.d2)
    step = 1.0 / problem.constants.L_f
    for _ in range(cap):
        _, GY = problem.exact_grads_block(X, np.tile(y, (problem.K, 1)))
        g = GY.mean(axis=0)
        if np.max(np.abs(g)) <= tol and np.linalg.norm(g) <= tol:
            return y, problem.objective(x, y)
        y = y + step * g
    raise AssertionError(f"inner ascent did not reach tol={tol} in {cap} steps")
