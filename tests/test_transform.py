import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decminimax import (
    SQRT_STRATEGIES,
    EngineConfig,
    GraceParams,
    StrategyKind,
    Topology,
    build_strategy,
    build_transform_bundle,
    coupled_error_norms,
    make_quadratic_problem,
    mixing_for_topology,
)
from decminimax.mixing import MixingMatrix
from decminimax.strategies import mode_values

from conftest import HandRun, assert_close, check_consensus_bound, \
    matrix_of, mode_blocks, mode_first, random_connected_mixing, \
    reference_coupled_error_norms, update_checked

CLOSED_FORM_STRATEGIES = (StrategyKind.ED, StrategyKind.EXTRA, StrategyKind.ATC_GT)
GT_STRATEGIES = tuple(k for k in StrategyKind if k not in SQRT_STRATEGIES)

# mode eigenvalues for the square-root rows, on both sides of the switch
# 4 lam (1 - lam) = 1e-9 near 0 and near 1; the switch sits at
# lam = 2.5e-10 and 1 - 2.5e-10
SQRT_GRID = np.r_[-1e-10, -2e-16, 0.0, 1e-13, 2.4e-10, 2.6e-10, 1e-9,
                  np.linspace(1e-6, 1 - 1e-6, 101), 1 - 1e-9, 1 - 2.6e-10,
                  1 - 2.4e-10, 1 - 1e-13]
GT_GRID = np.linspace(-0.999, 0.999, 101)


def closed_form_bounds(kind, mixing):
    """(rho bound, exact flag, lam_a, lam_b_underline, v1_sq cap, v2_sq cap)"""
    lam = mixing.lam
    lam_min = mixing.lam_min_nonzero
    if kind in (StrategyKind.ED, StrategyKind.EXTRA):
        lam_a = lam if kind == StrategyKind.ED else 1.0
        return np.sqrt(lam), True, lam_a, np.sqrt(1 - lam), 4.0, 2.0 / lam_min
    if kind == StrategyKind.ATC_GT:
        return (1 + lam) / 2, False, lam**2, 1 - lam, 3.0, 9.0
    raise ValueError(kind)


def reference_similarity(P, disc_tol=1e-9):
    """The dense route's similarity of one 2x2 mode block with a complex
    pair or a repeated eigenvalue, one mode at a time: (Q, T) with
    P = Q T Q^{-1}."""
    tr = P[0, 0] + P[1, 1]
    det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    disc = tr * tr - 4.0 * det
    scale = max(1.0, abs(tr) ** 2, abs(det))
    assert disc <= disc_tol * scale, "no strategy row has distinct real modes"
    if disc < -disc_tol * scale:  # complex conjugate pair
        al = tr / 2.0
        om = np.sqrt(-disc) / 2.0
        M = P - (al + 1j * om) * np.eye(2)
        v = np.array([M[0, 1], -M[0, 0]], dtype=complex)
        vr, vi = v.real, v.imag
        phi = 0.5 * np.arctan2(vr @ vr - vi @ vi, 2.0 * (vr @ vi))
        w = np.exp(1j * phi) * v
        Q = np.column_stack([w.real, w.imag]) / np.linalg.norm(w.real)
    else:  # repeated eigenvalue
        M = P - tr / 2.0 * np.eye(2)
        _, s, Vt = np.linalg.svd(M)
        if s[0] < 1e-12:
            return np.eye(2), P.copy()
        Q = np.column_stack([np.sqrt(3.0) * Vt[1], Vt[0] / 3.0])
    return Q, np.linalg.inv(Q) @ P @ Q


def bundle_for_spectrum(kind, lam):
    """The transform bundle of kind on a network whose non-principal mixing
    eigenvalues are lam."""
    lam = np.asarray(lam, dtype=float)
    K = lam.size + 1
    mixing = MixingMatrix(W=np.eye(K), eigvals=np.r_[1.0, lam],
                          eigvecs=np.eye(K), lam=float(np.max(lam)),
                          lam_min_nonzero=float(np.min(lam)), is_psd=True)
    return build_transform_bundle(kind, mixing)


def condition_numbers(bundle):
    """||Q_j|| ||Q_j^-1|| of every mode."""
    return (np.linalg.norm(bundle.Q, 2, axis=(1, 2))
            * np.linalg.norm(bundle.Q_inv, 2, axis=(1, 2)))


class TestSpectralForm:
    """The per-mode bundle against the dense route: mode values projected
    from the dense (A, B^2, C), b the root of the projected B^2, then one
    2x2 similarity per mode."""

    @given(seed=st.integers(0, 10**6), K=st.integers(2, 64))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_route(self, seed, K):
        mixing = random_connected_mixing(np.random.default_rng(seed), K)
        for kind in StrategyKind:
            ops = build_strategy(kind, mixing)
            bundle = build_transform_bundle(ops.kind, mixing)
            U = bundle.U_hat
            a, b2, c = [np.diag(U.T @ M @ U) for M in
                        (matrix_of(ops, "A"), ops.B2, matrix_of(ops, "C"))]
            dense = (a, np.sqrt(np.maximum(b2, 0.0)), c)
            assert_close(bundle.Lam_b**2, b2, 1e-12, f"{kind.value} Lam_b^2")
            for got, ref, name in zip(
                    (bundle.Lam_a, bundle.Lam_b, bundle.Lam_c), dense, "abc"):
                assert_close(got, ref, 1e-12, f"{kind.value} Lam_{name}")
            rho = v1_sq = v2_sq = 0.0
            for a, b, c in zip(*dense):
                Q, T = reference_similarity(
                    np.array([[a * c - b * b, -b], [b, 1.0]]))
                rho = max(rho, np.linalg.norm(T, 2))
                v1_sq = max(v1_sq, np.linalg.norm(Q, 2) ** 2)
                v2_sq = max(v2_sq, np.linalg.norm(np.linalg.inv(Q), 2) ** 2)
            assert bundle.rho == pytest.approx(rho, abs=1e-10)
            assert bundle.v1_sq == pytest.approx(v1_sq, abs=1e-10)
            assert bundle.v2_sq == pytest.approx(v2_sq, abs=1e-10)

    def test_stacked_similarity_matches_reference(self):
        """Each row's closed-form Q, Q^-1 and T over a grid of mode
        eigenvalues: P = Q T Q^-1 to 1e-12; Q^-1 Q = I to 1e-15 times the
        mode's condition number c (a float Q has no float inverse closer
        than about c eps; c reaches 1.2e5 on this grid); a rotating mode's
        Q with unit columns, the phase that gives its real and imaginary
        parts equal norm; and Q equal to the reference's, one mode at a
        time, to 1e-12 up to the signs of its columns, which its SVD leaves
        free. Above lam = 0.999 the reference's phase loses digits (5.5e-9
        at lam = 1 - 1e-6) and is not compared."""
        for kind in StrategyKind:
            grid = SQRT_GRID if kind in SQRT_STRATEGIES else GT_GRID
            bundle = bundle_for_spectrum(kind, grid)
            P = mode_blocks(bundle)
            Q, Q_inv, T = bundle.Q, bundle.Q_inv, bundle.T_mat
            assert_close(Q @ T @ Q_inv, P, 1e-12, f"{kind.value} P")
            err = np.max(np.abs(Q_inv @ Q - np.eye(2)), axis=(1, 2))
            assert (err <= 1e-15 * condition_numbers(bundle)).all(), kind
            if kind in SQRT_STRATEGIES:
                rot = 4 * grid * (1 - grid) > 1e-9
                assert_close(np.linalg.norm(Q[rot], axis=1), 1.0, 1e-12,
                             f"{kind.value} column norms")
            for j, lam in enumerate(grid):
                if lam > 0.999:
                    continue
                Q_ref, _ = reference_similarity(P[j])
                signs = np.sign(np.sum(Q_ref * Q[j], axis=0))
                assert_close(Q[j], Q_ref * signs, 1e-12,
                             f"{kind.value} Q at lam={lam:g}")
            if kind in GT_STRATEGIES:
                # the double eigenvalue is defective: T is a Jordan block
                assert (T[:, 1, 0] == 0).all()
                assert (np.abs(T[:, 0, 1]) > 1e-12).all()

    def test_condition_number_bounded(self):
        """Above the switch the square-root rows' condition number
        (1 + sqrt(1 - lam))/sqrt(lam) peaks at the switch, below
        2/sqrt(2.5e-10); the Jordan basis, below the switch and for the
        gradient-tracking rows, has sqrt(27), about 5.2."""
        cond = condition_numbers(bundle_for_spectrum(StrategyKind.ED,
                                                     SQRT_GRID))
        assert np.max(cond) <= 2.0 / np.sqrt(2.5e-10)
        jordan = 4 * SQRT_GRID * (1 - SQRT_GRID) <= 1e-9
        assert_close(cond[jordan], np.sqrt(27.0), 1e-12, "ed Jordan modes")
        cond = condition_numbers(bundle_for_spectrum(StrategyKind.ATC_GT,
                                                     GT_GRID))
        assert_close(cond, np.sqrt(27.0), 1e-12, "atc_gt")

    @pytest.mark.parametrize("kind", (StrategyKind.ED, StrategyKind.EXTRA))
    def test_ehat_of_consensual_state(self, kind):
        """Consensual X and Y with zero duals: U^T X = 0, so on mode j the
        coordinates are (0, mu a_j m_j / b_j), with m = U^T M."""
        K, mu = 64, 1e-8
        mixing = mixing_for_topology(Topology(kind="ring", K=K), lazy=True)
        bundle = build_transform_bundle(kind, mixing)
        a, b, _ = mode_values(kind, mixing.eigvals[1:])
        rng = np.random.default_rng(1)
        Z = np.tile(rng.standard_normal(5), (K, 1))
        M = rng.standard_normal((K, 5))
        mu_signed = np.repeat([mu, -mu], [3, 2])
        ehat = coupled_error_norms(Z, mu_signed * M, np.zeros_like(Z), bundle)
        for cols, sign in ((slice(0, 3), 1.0), (slice(3, 5), -1.0)):
            z_over_b = sign * mu * (a / b)[:, None] * (bundle.U_hat.T @ M[:, cols])
            e = bundle.Q_inv[:, :, 1, None] * z_over_b[:, None, :]
            exact = np.sum(e**2) / bundle.tau**2
            got = np.sum(ehat[..., cols] ** 2)
            assert got == pytest.approx(exact, rel=1e-10, abs=0)

    @pytest.mark.parametrize("kind", (StrategyKind.ED, StrategyKind.EXTRA))
    def test_closed_forms_at_K256(self, kind):
        mixing = mixing_for_topology(Topology(kind="ring", K=256), lazy=True)
        bundle = build_transform_bundle(kind, mixing)
        assert bundle.rho == pytest.approx(np.sqrt(mixing.lam), abs=1e-8)
        assert bundle.lam_b_underline_sq == pytest.approx(1 - mixing.lam,
                                                          abs=1e-8)
        assert bundle.v1_sq <= 4.0 + 1e-8


class TestBundleConstants:
    @pytest.mark.parametrize("kind", CLOSED_FORM_STRATEGIES)
    def test_lazy_ring4(self, ring4_lazy, kind):
        bundle = build_transform_bundle(kind, ring4_lazy)
        rho_ref, exact, lam_a, lam_b_u, v1_cap, v2_cap = closed_form_bounds(
            kind, ring4_lazy)
        if exact:
            assert bundle.rho == pytest.approx(rho_ref, abs=1e-8)
        else:
            assert bundle.rho <= rho_ref + 1e-8
        assert bundle.lam_a_sq == pytest.approx(lam_a**2, abs=1e-8)
        assert bundle.lam_b_underline_sq == pytest.approx(lam_b_u**2, abs=1e-8)
        assert bundle.v1_sq <= v1_cap + 1e-8
        assert bundle.v2_sq <= v2_cap + 1e-8

    @pytest.mark.parametrize("kind", CLOSED_FORM_STRATEGIES)
    @pytest.mark.parametrize("K", [4, 8, 16])
    def test_random_graphs(self, kind, K):
        rng = np.random.default_rng(K * 31 + list(StrategyKind).index(kind))
        for _ in range(7):
            mixing = random_connected_mixing(rng, K, lazy=True)
            bundle = build_transform_bundle(kind, mixing)
            rho_ref, exact, lam_a, lam_b_u, v1_cap, v2_cap = \
                closed_form_bounds(kind, mixing)
            if exact:
                assert bundle.rho == pytest.approx(rho_ref, abs=1e-8)
            else:
                assert bundle.rho <= rho_ref + 1e-8
            assert bundle.lam_a_sq == pytest.approx(lam_a**2, abs=1e-8)
            assert bundle.lam_b_underline_sq == pytest.approx(lam_b_u**2,
                                                              abs=1e-8)
            assert bundle.v1_sq <= v1_cap + 1e-8
            assert bundle.v2_sq <= v2_cap + 1e-8
            P = mode_blocks(bundle)
            res = np.linalg.norm(P - bundle.Q @ bundle.T_mat @ bundle.Q_inv)
            assert res <= 1e-8

    def test_all_strategies_contract(self, ring8_lazy):
        for kind in StrategyKind:
            bundle = build_transform_bundle(kind, ring8_lazy)
            assert bundle.rho < 1.0
            res = np.linalg.norm(
                mode_blocks(bundle) - bundle.Q @ bundle.T_mat @ bundle.Q_inv)
            assert res <= 1e-8, kind

    def test_uhat_diagonalizes_W(self, ring8_lazy):
        bundle = build_transform_bundle(StrategyKind.ED, ring8_lazy)
        U = bundle.U_hat
        assert np.linalg.norm(U.T @ U - np.eye(7)) <= 1e-10
        G = U.T @ ring8_lazy.W @ U
        assert np.linalg.norm(G - np.diag(np.diag(G))) <= 1e-10

    def test_tau_definition(self, ring8_lazy):
        bundle = build_transform_bundle(StrategyKind.ED, ring8_lazy)
        assert bundle.tau == pytest.approx(
            np.sqrt(8) * np.sqrt(bundle.v2_sq), abs=1e-12)


class TestSparseNetworks:
    """Part I's claim that the new variants do better on sparse networks,
    in the spectral step cap (1 - rho) lam_b / (v1 v2 lam_a) of each
    strategy: on lazy rings it falls as (1 - lam)^(3/2) for ED and EXTRA
    and as (1 - lam)^2 for the gradient-tracking rows."""

    EXPONENTS = {StrategyKind.ED: 1.5, StrategyKind.EXTRA: 1.5,
                 StrategyKind.ATC_GT: 2.0, StrategyKind.SEMI_ATC_GT: 2.0,
                 StrategyKind.NON_ATC_GT: 2.0}

    def test_cap_exponents_on_lazy_rings(self):
        Ks = [16, 32, 64, 128, 256]
        gaps, caps = [], {kind: [] for kind in StrategyKind}
        for K in Ks:
            mixing = mixing_for_topology(Topology(kind="ring", K=K), lazy=True)
            gaps.append(1 - mixing.lam)
            for kind in StrategyKind:
                b = build_transform_bundle(kind, mixing)
                caps[kind].append((1 - b.rho) * np.sqrt(
                    b.lam_b_underline_sq
                    / (b.v1_sq * b.v2_sq * b.lam_a_sq)))
        for kind, exponent in self.EXPONENTS.items():
            slope = np.polyfit(np.log(gaps), np.log(caps[kind]), 1)[0]
            assert slope == pytest.approx(exponent, abs=0.05), kind
        gt = [StrategyKind.ATC_GT, StrategyKind.SEMI_ATC_GT,
              StrategyKind.NON_ATC_GT]
        for i, K in enumerate(Ks):
            if K >= 32:
                worst_ed = min(caps[StrategyKind.ED][i],
                               caps[StrategyKind.EXTRA][i])
                assert worst_ed > max(caps[kind][i] for kind in gt), K

    @pytest.mark.parametrize("lazy", (True, False))
    def test_closed_form_constants_on_random_graphs(self, lazy):
        """The bundle's rho, v1^2 and v2^2 against their closed forms, with
        lam_2 the second and lam_min the smallest mixing eigenvalue: ED
        and EXTRA have sqrt(lam_2), 1 + sqrt(1 - lam_min) and that over
        lam_min; the gradient-tracking rows have the Jordan norm
        max_j (c_j + sqrt(c_j^2 + 4 lam_j^2))/2 with
        c_j = 2 (1 - lam_j)/(3 sqrt(3)), 3 and 9. The square-root rows
        need lazy weights."""
        rng = np.random.default_rng(16)
        for K in (5, 12, 24, 40):
            for _ in range(3):
                mixing = random_connected_mixing(rng, K, lazy=lazy)
                lam = mixing.eigvals[1:]
                c = 2 * (1 - lam) / (3 * np.sqrt(3))
                gt = (np.max(c + np.sqrt(c**2 + 4 * lam**2)) / 2, 3.0, 9.0)
                v1_sq = 1 + np.sqrt(1 - lam.min())
                sqrt_rows = (np.sqrt(mixing.lam), v1_sq, v1_sq / lam.min())
                for kind in StrategyKind:
                    if kind in SQRT_STRATEGIES and not lazy:
                        continue
                    b = build_transform_bundle(kind, mixing)
                    want = sqrt_rows if kind in SQRT_STRATEGIES else gt
                    got = (b.rho, b.v1_sq, b.v2_sq)
                    assert got == pytest.approx(want, rel=1e-10, abs=0), \
                        (kind, K)


class TestCoupledError:
    def _setup(self, kind, mixing):
        return build_strategy(kind, mixing), build_transform_bundle(kind, mixing)

    def test_consensus_rows_give_zero(self, ring8_lazy):
        ops, bundle = self._setup(StrategyKind.ED, ring8_lazy)
        K = 8
        Z = np.tile(np.r_[np.ones(3), -np.ones(2)], (K, 1))
        M = np.tile(np.r_[np.full(3, 0.7), np.full(2, -0.3)], (K, 1))
        mu = np.repeat([0.1, -0.1], [3, 2])
        ehat = coupled_error_norms(Z, mu * M, np.zeros_like(Z), bundle)
        assert np.sum(ehat[..., :3] ** 2) <= 1e-24
        assert np.sum(ehat[..., 3:] ** 2) <= 1e-24

    def test_single_agent_empty(self):
        mixing = mixing_for_topology(Topology(kind="complete", K=1))
        bundle = build_transform_bundle(StrategyKind.ATC_GT, mixing)
        ehat = coupled_error_norms(np.ones((1, 4)), 0.1 * np.ones((1, 4)),
                                   np.zeros((1, 4)), bundle)
        assert ehat.shape == (0, 2, 4)
        assert np.sum(ehat**2) == 0.0

    @pytest.mark.parametrize("kind", CLOSED_FORM_STRATEGIES)
    def test_consensus_bound_random_states(self, ring8_lazy, kind):
        ops, bundle = self._setup(kind, ring8_lazy)
        mu = np.repeat([0.05, -0.1], [3, 2])
        rng = np.random.default_rng(0)
        for _ in range(20):
            Z = rng.standard_normal((8, 5))
            M = rng.standard_normal((8, 5))
            # carried duals B D_paper live in range(B^2)
            D = ops.B2 @ rng.standard_normal((8, 5))
            ehat = coupled_error_norms(Z, mu * M, D, bundle)
            report = check_consensus_bound(Z, ehat, bundle)
            assert report.passed, (report.lhs, report.rhs)

    # the read-out map against the element-by-element reference, entry by
    # entry, within this multiple of the entry's term scale: the sum of
    # the magnitudes that either form adds up (measured at most 2.9 eps)
    READOUT_TOL = 8 * np.finfo(float).eps

    @staticmethod
    def term_scale(Z, muM, D, bundle):
        """|Q_j^{-1}| [|x_j|; |b_j x_j| + |a_j m_j / b_j| + |d_j / b_j|] / tau
        on every mode, in coupled_error_norms' layout."""
        proj = np.abs(bundle.U_hat.T @ np.concatenate([Z, muM, D], axis=-1))
        x, m, d = np.split(proj, 3, axis=-1)
        b = np.abs(bundle.Lam_b)[:, None]
        z = b * x + np.abs(bundle.Lam_a)[:, None] / b * m + d / b
        Qi = np.abs(bundle.Q_inv)[:, :, :, None]
        return mode_first(np.stack([Qi[:, 0, 0] * x + Qi[:, 0, 1] * z,
                                    Qi[:, 1, 0] * x + Qi[:, 1, 1] * z])
                          / bundle.tau)

    @pytest.mark.parametrize("kind", StrategyKind, ids=lambda k: k.value)
    @pytest.mark.parametrize("network", ["spectrum", "ring", "random"])
    def test_read_out_map_matches_reference(self, kind, network):
        """On the mode grids either side of the rotation switch, a lazy
        ring and a random graph, for one state and a (rounds, seeds) batch
        of them, with the three blocks on scales from 1e-6 to 1e3."""
        if network == "spectrum":
            bundle = bundle_for_spectrum(
                kind, SQRT_GRID if kind in SQRT_STRATEGIES else GT_GRID)
        else:
            mixing = mixing_for_topology(Topology(kind="ring", K=16),
                                         lazy=True) if network == "ring" \
                else random_connected_mixing(np.random.default_rng(5), 16)
            bundle = build_transform_bundle(kind, mixing)
        rng = np.random.default_rng(3)
        for shape in ((bundle.K, 5), (3, 2, bundle.K, 5)):
            for _ in range(4):
                blocks = [rng.standard_normal(shape)
                          * 10.0 ** rng.uniform(-6, 3) for _ in range(3)]
                got = coupled_error_norms(*blocks, bundle)
                want = reference_coupled_error_norms(*blocks, bundle)
                assert got.shape == want.shape
                err = np.abs(got - want) / self.term_scale(*blocks, bundle)
                assert err.max() <= self.READOUT_TOL, err.max()

    @pytest.mark.parametrize("kind", StrategyKind, ids=lambda k: k.value)
    @pytest.mark.parametrize("graph", ["ring", "random"])
    def test_batch_matches_each_state(self, ring8_lazy, graph, kind):
        mixing = ring8_lazy if graph == "ring" else \
            random_connected_mixing(np.random.default_rng(8), 8)
        bundle = build_transform_bundle(kind, mixing)
        rng = np.random.default_rng(2)
        blocks = [rng.standard_normal((4, 8, 5)) for _ in range(3)]
        batch = coupled_error_norms(*blocks, bundle)
        for s in range(4):
            one = coupled_error_norms(*(a[s] for a in blocks), bundle)
            assert batch[:, :, s].tobytes() == one.tobytes()

    @pytest.mark.parametrize("kind", CLOSED_FORM_STRATEGIES)
    def test_consensus_bound_along_trajectory(self, ring8_lazy, quad_problem,
                                           kind):
        ops, bundle = self._setup(kind, ring8_lazy)
        grace = GraceParams(beta=0.1, p=0.1, b=4, b0=8)
        config = EngineConfig(mu_x=0.005, mu_y=0.02,
                              grace=grace, T=200, seeds=(3,))
        mu = config.signed_step(3, 2)
        run = HandRun(config, quad_problem, x0=np.ones(3))
        for _ in range(200):
            update_checked(run, run.Z)
            ehat = coupled_error_norms(run.Z[0], mu * run.M[0], run.D[0],
                                       bundle)
            report = check_consensus_bound(run.Z[0], ehat, bundle)
            assert report.passed, (run.round, report.lhs, report.rhs)
            run.advance(mu, ops)


class TestTransformedRecursion:
    """The recursion the bound of Part II is derived from, checked on the
    engine's own rounds. On mode j, with x = u_j^T Z, m = u_j^T (mu M),
    d = u_j^T D and z = (a m + d)/b - b x, the advance gives
    x+ = (2 lam - 1) x - b z and z+ = b x + z + a (m+ - m)/b, so

        ehat+ = T ehat + Q^{-1} [0; a (m+ - m) / b] / tau

    on every mode, exactly, for any estimator, noise, beta and p."""

    # residual over the round's largest |ehat+| of a seed: measured at
    # most 7.7e-14; a dual update scaled by 0.999 raises it to 6e-5-5e-4
    TOL = 1e-11

    @pytest.mark.parametrize("kind", StrategyKind, ids=lambda k: k.value)
    @pytest.mark.parametrize("topology", [
        Topology(kind="ring", K=16),
        Topology(kind="random", K=16, edge_prob=0.3, seed=1),
    ], ids=["ring", "random"])
    def test_one_round_identity(self, topology, kind):
        mixing = mixing_for_topology(topology, lazy=True)
        ops = build_strategy(kind, mixing)
        bundle = build_transform_bundle(kind, mixing)
        problem = make_quadratic_problem(K=16, d1=3, d2=2, N=None,
                                         sigma=0.5, seed=5)
        grace = GraceParams(beta=0.2, p=0.05, b=1, B_big=8, b0=4)
        config = EngineConfig(mu_x=0.01, mu_y=0.02, grace=grace, T=300,
                              seeds=(0, 1))
        mu = config.signed_step(3, 2)
        run = HandRun(config, problem)

        def read():
            """ehat per mode, (S, K-1, 2, d), and U_hat^T (mu M)."""
            update_checked(run, run.Z)
            muM = mu * run.M
            ehat = coupled_error_norms(run.Z, muM, run.D, bundle)
            return np.moveaxis(ehat, 2, 0), bundle.U_hat.T @ muM

        ehat, proj_m = read()
        gain = (bundle.Lam_a / bundle.Lam_b)[:, None]
        for _ in range(config.T):
            run.advance(mu, ops)
            ehat_next, proj_next = read()
            drive = np.stack([np.zeros_like(proj_m),
                              gain * (proj_next - proj_m)], axis=-2)
            want = bundle.T_mat @ ehat + bundle.Q_inv @ drive / bundle.tau
            resid = np.abs(ehat_next - want).max(axis=(1, 2, 3))
            assert np.all(resid <= self.TOL * np.abs(ehat_next).max(
                axis=(1, 2, 3))), (run.round, resid)
            ehat, proj_m = ehat_next, proj_next
