import math

import numpy as np
import pytest

from decminimax import (
    ConfigError,
    GraceParams,
    ScheduleMode,
    ScheduleSpec,
    StrategyKind,
    Topology,
    build_transform_bundle,
    make_quadratic_problem,
    mixing_for_topology,
    schedule_for_mode,
    shrink_to_valid,
    validate_conditions,
)


@pytest.fixture(scope="module")
def ed_bundle(ring8_lazy):
    return build_transform_bundle(StrategyKind.ED, ring8_lazy)


def shrink_by_halving(mu_x, mu_y, grace, constants, bundle):
    """shrink_to_valid's reference: halve both steps and check again until
    no step row but mu_x <= mu_y/(16 kappa^2) fails, at most 60 times."""
    mu_x = min(mu_x, mu_y / (16.0 * constants.kappa**2))
    for n in range(61):
        report = validate_conditions(mu_x, mu_y, grace, constants, bundle)
        if not [c for c in report.failing()
                if c.name.startswith(("mu_x", "mu_y"))
                and not c.name.startswith("mu_x <= mu_y")]:
            return mu_x, mu_y, n, report
        mu_x *= 0.5
        mu_y *= 0.5
    raise ConfigError("step sizes still inadmissible after 60 halvings")


def assert_same_shrink(args):
    """shrink_to_valid(*args) gives the reference's steps, count and report
    exactly, or raises where it does."""
    try:
        want = shrink_by_halving(*args)
    except ConfigError:
        with pytest.raises(ConfigError, match="after 60 halvings"):
            shrink_to_valid(*args)
        return None
    got = shrink_to_valid(*args)
    assert got[:3] == want[:3]
    assert got[3].as_dict() == want[3].as_dict()
    return got


class TestScheduleForMode:
    def test_storm_ed_example(self):
        spec = ScheduleSpec(mode=ScheduleMode.STORM_ED, T=10**6, K=8,
                            kappa=10.0)
        mu_x, mu_y, grace = schedule_for_mode(spec)
        assert mu_x == pytest.approx(4e-4, rel=1e-12)
        assert mu_y == pytest.approx(4e-2, rel=1e-12)
        assert grace.beta == pytest.approx(2e-4, rel=1e-12)
        assert grace.p == 0.0
        assert grace.b == 1
        assert grace.b0 == 25

    def test_page_offline_example(self):
        spec = ScheduleSpec(mode=ScheduleMode.PAGE_OFFLINE, T=1000, K=4,
                            kappa=2.0, N=1024)
        _, _, grace = schedule_for_mode(spec)
        assert grace.b == 16
        assert grace.b0 == 16
        assert grace.p == pytest.approx(1 / 64)
        assert grace.B_big == 1024
        assert grace.beta == 0.0

    def test_lsarah_offline_example(self):
        spec = ScheduleSpec(mode=ScheduleMode.LSARAH_OFFLINE, T=1000, K=4,
                            kappa=2.0, N=1024)
        _, _, grace = schedule_for_mode(spec)
        assert grace.b == 1
        assert grace.b0 == 8
        assert grace.p == pytest.approx(1 / 256)
        assert grace.B_big == 256

    def test_storm_degenerate(self):
        # at K = T = 1 beta is 1: each round takes a fresh minibatch
        spec = ScheduleSpec(mode=ScheduleMode.STORM_ED, T=1, K=1, kappa=1.0)
        _, _, grace = schedule_for_mode(spec)
        assert grace.beta == 1.0
        assert grace.p == 0.0
        assert grace.b0 == 1

    def test_page_online_needs_lam(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(mode=ScheduleMode.PAGE_ONLINE, T=1000, K=4,
                         kappa=2.0)

    def test_page_online_batch_scaling(self):
        spec = ScheduleSpec(mode=ScheduleMode.PAGE_ONLINE, T=10**6, K=4,
                            kappa=2.0, lam=0.75)
        _, _, grace = schedule_for_mode(spec)
        assert grace.B_big == math.ceil(0.25**1.5 * 10**6 / 4)
        assert grace.b == math.ceil(0.25**0.75 * 1000 / 4)
        assert grace.p == pytest.approx(1 / (0.25**0.75 * 1000))

    def test_offline_modes_need_N(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(mode=ScheduleMode.PAGE_OFFLINE, T=100, K=4,
                         kappa=2.0)


class TestValidateConditions:
    def test_tiny_steps_pass_stepsize_rows(self, quad_problem, ed_bundle):
        grace = GraceParams(beta=1e-5, p=0.0, b=1, b0=4)
        report = validate_conditions(1e-11, 1e-7, grace,
                                     quad_problem.constants, ed_bundle)
        for cond in report.conditions:
            if cond.name.startswith("mu_"):
                assert cond.satisfied, cond.name

    def test_simple_estimator_rows(self, quad_problem, ed_bundle):
        grace = GraceParams(beta=0.5, p=0.0, b=1, b0=1)
        report = validate_conditions(1e-6, 1e-4, grace,
                                     quad_problem.constants, ed_bundle)
        by_name = {c.name: c for c in report.conditions}
        assert by_name["p + beta <= 1"].satisfied
        assert by_name["beta + b p <= b"].satisfied
        assert by_name["beta <= 1"].satisfied

    def test_violated_condition_has_margin(self, quad_problem, ed_bundle):
        c = quad_problem.constants
        rho = ed_bundle.rho
        lam_a = math.sqrt(ed_bundle.lam_a_sq)
        lam_b = math.sqrt(ed_bundle.lam_b_underline_sq)
        v1v2 = math.sqrt(ed_bundle.v1_sq * ed_bundle.v2_sq)
        limit = (1 - rho) * lam_b / (12 * c.L_f * v1v2 * lam_a)
        grace = GraceParams(beta=0.0, p=1.0, b=1, b0=1)
        report = validate_conditions(limit / 100, 2 * limit, grace, c,
                                     ed_bundle)
        cond = next(cc for cc in report.conditions
                    if "12 L_f v1 v2 lam_a" in cc.name and "sqrt" not in cc.name)
        assert not cond.satisfied
        assert cond.margin == pytest.approx(0.5, rel=1e-9)

    def test_storm_preset_large_T_passes(self, quad_problem, ed_bundle):
        # the order-level preset fixes constants at 1, so the generator's
        # geometric shrink supplies the missing constant factors; the
        # window between the step-size caps and beta_bar <= nu mu_y / 2
        # opens once T is large enough
        spec = ScheduleSpec(mode=ScheduleMode.STORM_ED, T=10**12, K=8,
                            kappa=quad_problem.constants.kappa)
        mu_x, mu_y, grace = schedule_for_mode(spec)
        mu_x, mu_y, halvings, report = shrink_to_valid(
            mu_x, mu_y, grace, quad_problem.constants, ed_bundle)
        assert halvings > 0
        assert report.passed, [c.name for c in report.failing()]

    def test_halving_count_matches_loop_on_presets(self):
        """The page_offline preset with shrink on, as the example config
        and the benchmark run it: a lazy ring, ED, problem seeds 0..9."""
        for K, N, seeds in ((8, 1024, range(10)), (96, 256, range(3))):
            mixing = mixing_for_topology(Topology(kind="ring", K=K),
                                         lazy=True)
            bundle = build_transform_bundle(StrategyKind.ED, mixing)
            for seed in seeds:
                problem = make_quadratic_problem(K=K, d1=3, d2=2, N=N,
                                                 sigma=0.3, seed=seed)
                spec = ScheduleSpec(mode=ScheduleMode.PAGE_OFFLINE, T=500,
                                    K=K, kappa=problem.constants.kappa, N=N)
                mu_x, mu_y, grace = schedule_for_mode(spec)
                got = assert_same_shrink((mu_x, mu_y, grace,
                                          problem.constants, bundle))
                assert got[2] > 0, (K, seed)

    def test_halving_count_matches_loop_on_random_steps(self, quad_problem,
                                                        ed_bundle):
        """Steps from 1e-6 to 1e6, estimator settings with and without a
        refresh (p = beta = 0 makes a limit 0, and large steps then need
        more than 60 halvings)."""
        rng = np.random.default_rng(8)
        graces = (GraceParams(beta=0.0, p=1.0, b=1, b0=1),
                  GraceParams(beta=0.1, p=0.05, b=4, b0=8),
                  GraceParams(beta=0.0, p=0.0, b=2, b0=2))
        raised = 0
        for _ in range(300):
            mu_y = 10 ** rng.uniform(-6, 6)
            mu_x = mu_y * 10 ** rng.uniform(-4, 1)
            grace = graces[rng.integers(len(graces))]
            raised += assert_same_shrink((mu_x, mu_y, grace,
                                          quad_problem.constants,
                                          ed_bundle)) is None
        assert 0 < raised < 300

    def test_shrink_reaches_admissible_steps(self, quad_problem, ed_bundle):
        grace = GraceParams(beta=0.0, p=1.0, b=1, b0=64)
        c = quad_problem.constants
        mu_x, mu_y, n, report = shrink_to_valid(0.1, 0.5, grace, c, ed_bundle)
        assert n > 0
        for cond in report.conditions:
            if cond.name.startswith("mu_"):
                assert cond.satisfied, cond.name
