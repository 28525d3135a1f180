import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_miso import conic, formulations
from robust_miso.formulations import (
    BoxUncertainty,
    ChannelScenario,
    DesignSolution,
    EllipsoidUncertainty,
    FddUncertainty,
    LiftedChannel,
    SphereUncertainty,
    build_fixed_dual,
    build_fixed_sdp,
    build_mu_max_pair,
    build_robust_sdp,
    extract_solution,
    gamma_from_rate,
    _ball_radius,
    _box_ascent,
    _box_corner_max,
    _fdd_worst,
    worst_case_margin,
)
from robust_miso.harness import sample_scenario
from robust_miso.hermitian import eig_hermitian, numerical_rank, real_embedding
from test_hermitian import trs_dual_bound


def random_channels(rng, n, k, rho=1.0):
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return g * np.sqrt(rho / 2.0)


def rank_one_stack(hb):
    cols = [np.outer(hb[:, i], hb[:, i].conj()) for i in range(hb.shape[1])]
    return np.stack(cols)


def solve_robust(scenario):
    program, index = build_robust_sdp(scenario)
    outcome = conic.solve(program)
    return outcome, index


def assert_solution_brackets(scenario):
    """Solve an fdd or box scenario; every user's lower end must be
    nonpositive and no greater than the upper end. The fdd ends are both the
    exact worst case, so the upper end must be nonpositive too."""
    outcome, index = solve_robust(scenario)
    assert outcome.status is conic.Status.OPTIMAL, outcome.message
    sol = extract_solution(index, outcome)
    for i in range(scenario.n_users):
        lower, upper = worst_case_margin(sol, scenario, i)
        assert lower <= 1e-6
        assert lower <= upper + 1e-12
        if isinstance(scenario.uncertainty, FddUncertainty):
            assert upper <= 1e-6 * scenario.noise_power[i]


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def embedded(mats):
    """Solver coordinates of stacked Hermitian blocks, through the public embedding."""
    return np.concatenate([conic.svec(real_embedding(m)) for m in mats])


def hermitian_coords(r):
    """Re r[k, l] for k <= l, then Im r[k, l] for k < l, both row-major."""
    iu, ju = np.triu_indices(r.shape[0])
    off = iu != ju
    return np.concatenate([r[iu, ju].real, r[iu[off], ju[off]].imag])


def sphere_scenario(rng, n, k, eps, noise=0.1, rate=1.0):
    hb = random_channels(rng, n, k)
    return ChannelScenario(
        hb, [noise] * k, [rate] * k, SphereUncertainty([eps] * k)
    )


class TestGammaFromRate:
    def test_unit_rate(self):
        assert gamma_from_rate(1.0) == 1.0

    def test_zero_rate(self):
        assert gamma_from_rate(0.0) == 0.0

    def test_fractional_rate(self):
        # Frozen from direct exponentiation: 2**1.8122 - 1.
        assert gamma_from_rate(1.8122) == pytest.approx(
            2.5117739919430444, rel=1e-12
        )

    def test_array_input(self):
        out = gamma_from_rate([0.0, 1.0, 2.0])
        np.testing.assert_allclose(out, [0.0, 1.0, 3.0], atol=1e-14)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            gamma_from_rate(-0.5)
        with pytest.raises(ValueError):
            gamma_from_rate(np.nan)

    @given(st.floats(min_value=1e-6, max_value=30.0))
    @settings(max_examples=50, deadline=None)
    def test_log_roundtrip(self, rate):
        gam = gamma_from_rate(rate)
        assert gam > 0.0
        assert np.log2(1.0 + gam) == pytest.approx(rate, rel=1e-12)


class TestScenarioValidation:
    def test_dimension_mismatch(self):
        hb = np.ones((4, 3), dtype=complex)
        with pytest.raises(ValueError):
            ChannelScenario(hb, [0.1, 0.1], [1.0] * 3, SphereUncertainty([0.1] * 3))
        with pytest.raises(ValueError):
            ChannelScenario(hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([0.1, 0.1]))

    def test_positivity(self):
        hb = np.ones((4, 2), dtype=complex)
        unc = SphereUncertainty([0.1, 0.1])
        with pytest.raises(ValueError):
            ChannelScenario(hb, [0.1, 0.0], [1.0, 1.0], unc)
        with pytest.raises(ValueError):
            ChannelScenario(hb, [0.1, 0.1], [1.0, -1.0], unc)
        with pytest.raises(ValueError):
            SphereUncertainty([0.1, -0.2])

    def test_ellipsoid_requires_positive_definite(self):
        shapes = np.stack([np.diag([1.0, 0.0]).astype(complex)])
        with pytest.raises(ValueError):
            EllipsoidUncertainty(shapes)

    def test_fdd_rejects_zero_presumed_column(self):
        hb = np.zeros((3, 1), dtype=complex)
        with pytest.raises(ValueError):
            ChannelScenario(hb, [0.1], [1.0], FddUncertainty(0.1))

    def test_gamma_property(self):
        hb = np.ones((2, 2), dtype=complex)
        sc = ChannelScenario(
            hb, [0.1, 0.1], [1.0, 2.0], SphereUncertainty([0.1, 0.1])
        )
        np.testing.assert_allclose(sc.gamma, [1.0, 3.0], atol=1e-14)


class TestLiftedChannel:
    def test_matrix_and_membership(self):
        hb = np.eye(3, dtype=complex)
        sc = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([0.5] * 3)
        )
        h = hb[:, 0] + np.array([0.3, 0.0, 0.0])
        xi = np.diag([0.0, 0.1, 0.0]).astype(complex)
        lifted = LiftedChannel(user=0, h=h, xi=xi)
        expect = np.outer(h, h.conj()) + xi
        np.testing.assert_allclose(lifted.matrix(), expect, atol=1e-14)
        # Slack = eps^2 - |h - hbar|^2 - tr(Xi) = 0.25 - 0.09 - 0.1.
        assert lifted.membership_slack(sc) == pytest.approx(0.06, abs=1e-12)


class TestRobustStructure:
    def test_sphere_cone_layout(self):
        rng = np.random.default_rng(0)
        sc = sphere_scenario(rng, 4, 3, 0.3)
        program, _ = build_robust_sdp(sc)
        orders = [c.order for c in program.cones if isinstance(c, conic.Psd)]
        assert orders == [8, 8, 8, 10, 10, 10]
        lens = [c.length for c in program.cones if isinstance(c, conic.NonNeg)]
        assert lens == [3]
        # (N+1)^2 real equations tie each slack block to its definition.
        assert program.A.shape[0] == 3 * 25

    def test_multiplier_block_length_per_model(self):
        rng = np.random.default_rng(1)
        hb = random_channels(rng, 4, 2)
        cases = [
            (SphereUncertainty([0.1, 0.1]), 2),
            (EllipsoidUncertainty(np.stack([0.01 * np.eye(4)] * 2).astype(complex)), 2),
            (BoxUncertainty([0.1, 0.1]), 8),
            (FddUncertainty(0.1), 6),
        ]
        for unc, expect in cases:
            sc = ChannelScenario(hb, [0.1] * 2, [1.0] * 2, unc)
            program, _ = build_robust_sdp(sc)
            lens = [c.length for c in program.cones if isinstance(c, conic.NonNeg)]
            assert lens == [expect]


class TestBuilderSemantics:
    """A @ x - b holds the coordinates of each defining constraint's residual."""

    @pytest.mark.parametrize("kind", ["sphere", "ellipsoid", "fdd", "box"])
    def test_robust_rows(self, kind):
        rng = np.random.default_rng(83)
        n, k = 3, 3
        hb = random_channels(rng, n, k)
        radius = rng.uniform(0.1, 0.3, k)
        shapes = np.stack([np.eye(n) + 0.1 * random_hermitian(rng, n) for _ in range(k)])
        model, t_len = {
            "sphere": (SphereUncertainty(radius), 1),
            "ellipsoid": (EllipsoidUncertainty(shapes), 1),
            "fdd": (FddUncertainty(0.2), 3),
            "box": (BoxUncertainty(radius), n),
        }[kind]
        noise = rng.uniform(0.05, 0.2, k)
        sc = ChannelScenario(hb, noise, rng.uniform(0.3, 1.0, k), model)
        program, index = build_robust_sdp(sc)
        w = np.stack([random_hermitian(rng, n) for _ in range(k)])
        z = np.stack([random_hermitian(rng, n + 1) for _ in range(k)])
        t = rng.random((k, t_len))
        x = np.concatenate([embedded(w), embedded(z), t.ravel()])
        resid = program.A @ x - program.b
        rows = (n + 1) ** 2
        for i in range(k):
            q = w[i] / sc.gamma[i] - (w.sum(axis=0) - w[i])
            border = np.concatenate([np.eye(n), hb[:, i : i + 1]], axis=1)
            lmi = border.conj().T @ q @ border
            lmi[n, n] -= noise[i]
            mult = np.zeros((n + 1, n + 1), dtype=complex)
            if kind == "sphere":
                mult[:n, :n] = t[i, 0] * np.eye(n)
                mult[n, n] = -t[i, 0] * radius[i] ** 2
            elif kind == "ellipsoid":
                mult[:n, :n] = t[i, 0] * np.linalg.inv(shapes[i])
                mult[n, n] = -t[i, 0]
            elif kind == "box":
                mult[:n, :n] = np.diag(t[i])
                mult[n, n] = -radius[i] ** 2 * t[i].sum()
            else:
                lam, nu = t[i, 0], t[i, 1] - t[i, 2]
                mult[:n, :n] = (lam + nu) * np.eye(n)
                mult[:n, n] = nu * hb[:, i]
                mult[n, :n] = nu * hb[:, i].conj()
                mult[n, n] = -lam * 0.2**2 * np.vdot(hb[:, i], hb[:, i]).real
            expect = hermitian_coords(z[i] - lmi - mult)
            np.testing.assert_allclose(resid[i * rows : (i + 1) * rows], expect, atol=1e-12)
        assert program.c @ x == pytest.approx(np.trace(w, axis1=1, axis2=2).real.sum(), abs=1e-12)
        np.testing.assert_allclose(index.covariances(x), w, atol=1e-14)
        np.testing.assert_allclose(index.slack_matrices(x), z, atol=1e-14)
        np.testing.assert_array_equal(index.multipliers(x), t)

    def test_fixed_rows(self):
        rng = np.random.default_rng(89)
        n, k = 3, 3
        chans = np.stack([random_hermitian(rng, n) for _ in range(k)])
        noise, gam = rng.uniform(0.05, 0.2, k), rng.uniform(0.3, 2.0, k)
        program, index = build_fixed_sdp(chans, noise, gam)
        w = np.stack([random_hermitian(rng, n) for _ in range(k)])
        slack = rng.random(k)
        x = np.concatenate([embedded(w), slack])
        for i in range(k):
            q = w[i] / gam[i] - (w.sum(axis=0) - w[i])
            expect = np.trace(chans[i] @ q).real - slack[i] - noise[i]
            assert (program.A @ x - program.b)[i] == pytest.approx(expect, abs=1e-12)
        assert program.c @ x == pytest.approx(np.trace(w, axis1=1, axis2=2).real.sum(), abs=1e-12)
        np.testing.assert_allclose(index.covariances(x), w, atol=1e-14)

    def test_dual_rows(self):
        rng = np.random.default_rng(97)
        n, k = 3, 3
        chans = np.stack([random_hermitian(rng, n) for _ in range(k)])
        noise, gam = rng.uniform(0.05, 0.2, k), rng.uniform(0.3, 2.0, k)
        program, index = build_fixed_dual(chans, noise, gam)
        s = np.stack([random_hermitian(rng, n) for _ in range(k)])
        mu = rng.random(k)
        x = np.concatenate([embedded(s), mu])
        resid = program.A @ x - program.b
        for j in range(k):
            others = np.einsum("i,ijl->jl", mu, chans) - mu[j] * chans[j]
            defined = np.eye(n) + others - (mu[j] / gam[j]) * chans[j]
            expect = hermitian_coords(s[j] - defined)
            np.testing.assert_allclose(resid[j * n * n : (j + 1) * n * n], expect, atol=1e-12)
        assert program.c @ x == pytest.approx(-noise @ mu, abs=1e-12)
        np.testing.assert_allclose(index.slack_matrices(x), s, atol=1e-14)
        np.testing.assert_array_equal(index.multipliers(x), mu)


class TestRobustSphere:
    def test_single_user_closed_form(self):
        # Aligned rank-one optimum: p = gamma sigma^2 / (|hbar| - eps)^2.
        hb = np.zeros((4, 1), dtype=complex)
        hb[0, 0] = 1.0
        sc = ChannelScenario(hb, [0.1], [1.0], SphereUncertainty([0.2]))
        outcome, index = solve_robust(sc)
        assert outcome.status is conic.Status.OPTIMAL
        assert outcome.objective == pytest.approx(0.15625, rel=1e-6)
        sol = extract_solution(index, outcome)
        assert worst_case_margin(sol, sc, 0) <= 1e-7

    def test_perfect_csi_limit_matches_fixed_program(self):
        # The optimal multiplier grows like 1/eps, so direct solves at very
        # small radii hit a conditioning floor around 4e-6 relative. The
        # clean comparison is the linear extrapolation of the value to
        # eps = 0, which also catches constant-offset builder errors.
        rng = np.random.default_rng(3)
        hb = random_channels(rng, 4, 3)
        program, _ = build_fixed_sdp(
            rank_one_stack(hb), [0.1] * 3, gamma_from_rate([1.0] * 3)
        )
        fixed = conic.solve(program)
        assert fixed.status is conic.Status.OPTIMAL
        values = []
        for eps in (1e-4, 1e-5):
            sc = ChannelScenario(
                hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([eps] * 3)
            )
            outcome, _ = solve_robust(sc)
            assert outcome.status is conic.Status.OPTIMAL
            values.append(outcome.objective)
        limit = values[1] - (values[0] - values[1]) / 9.0
        assert limit == pytest.approx(fixed.objective, rel=1e-6)

    def test_perfect_csi_limit_single_user(self):
        hb = np.zeros((2, 1), dtype=complex)
        hb[0, 0] = 1.0
        values = []
        for eps in (1e-4, 1e-5):
            sc = ChannelScenario(hb, [0.1], [1.0], SphereUncertainty([eps]))
            outcome, _ = solve_robust(sc)
            values.append(outcome.objective)
        limit = values[1] - (values[0] - values[1]) / 9.0
        # Closed form at eps = 0: gamma sigma^2 / |hbar|^2.
        assert limit == pytest.approx(0.1, rel=1e-6)

    def test_solved_margins_nonpositive(self):
        rng = np.random.default_rng(11)
        sc = sphere_scenario(rng, 4, 3, 0.25)
        outcome, index = solve_robust(sc)
        assert outcome.status is conic.Status.OPTIMAL
        sol = extract_solution(index, outcome)
        for i in range(3):
            assert worst_case_margin(sol, sc, i) <= 1e-6

    def test_active_constraint_witness(self):
        # Draining power from any user along its top eigenvector must break
        # at least one worst-case constraint at the optimum.
        rng = np.random.default_rng(13)
        sc = sphere_scenario(rng, 4, 3, 0.25)
        outcome, index = solve_robust(sc)
        sol = extract_solution(index, outcome)
        for i in range(3):
            lam, vec = eig_hermitian(sol.W[i])
            top = np.outer(vec[:, 0], vec[:, 0].conj())
            w = sol.W.copy()
            w[i] = w[i] - 0.01 * np.trace(w[i]).real * top
            worst = max(worst_case_margin(w, sc, j) for j in range(3))
            assert worst > 0.0

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(17)
        hb = random_channels(rng, 4, 3)
        values = []
        for eps in (0.05, 0.15, 0.25):
            sc = ChannelScenario(
                hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([eps] * 3)
            )
            outcome, _ = solve_robust(sc)
            assert outcome.status is conic.Status.OPTIMAL
            values.append(outcome.objective)
        assert values[0] <= values[1] + 1e-8
        assert values[1] <= values[2] + 1e-8

    def test_monotone_in_rate(self):
        rng = np.random.default_rng(19)
        hb = random_channels(rng, 4, 3)
        values = []
        for rate in (0.5, 1.0, 1.5):
            sc = ChannelScenario(
                hb, [0.1] * 3, [rate] * 3, SphereUncertainty([0.2] * 3)
            )
            outcome, _ = solve_robust(sc)
            assert outcome.status is conic.Status.OPTIMAL
            values.append(outcome.objective)
        assert values[0] <= values[1] + 1e-8
        assert values[1] <= values[2] + 1e-8

    def test_noise_homogeneity(self):
        rng = np.random.default_rng(23)
        hb = random_channels(rng, 4, 2)
        base = ChannelScenario(
            hb, [0.1] * 2, [1.0] * 2, SphereUncertainty([0.2] * 2)
        )
        scaled = ChannelScenario(
            hb, [0.37] * 2, [1.0] * 2, SphereUncertainty([0.2] * 2)
        )
        v0 = conic.solve(build_robust_sdp(base)[0]).objective
        v1 = conic.solve(build_robust_sdp(scaled)[0]).objective
        assert v1 == pytest.approx(3.7 * v0, rel=1e-6)

    def test_multiplier_positive_and_slack_rank(self):
        # Every optimal sphere solution has strictly positive multipliers
        # and slack blocks of rank at most N.
        rng = np.random.default_rng(29)
        for trial in range(4):
            sc = sphere_scenario(rng, 4, 3, 0.2)
            outcome, index = solve_robust(sc)
            if outcome.status is not conic.Status.OPTIMAL:
                continue
            sol = extract_solution(index, outcome)
            assert np.all(sol.t > 1e-9)
            for zi in sol.Z:
                assert numerical_rank(zi, tau=1e-6) <= 4

    def test_infeasible_has_farkas_certificate(self):
        rng = np.random.default_rng(1)
        hb = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        sc = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([0.3] * 3)
        )
        program, _ = build_robust_sdp(sc)
        outcome = conic.solve(program)
        assert outcome.status is conic.Status.PRIMAL_INFEASIBLE
        assert program.b @ outcome.y == pytest.approx(1.0, abs=1e-9)
        dist = conic.cone_distance(-program.A.T @ outcome.y, program.cones)
        assert dist <= 1e-7


class TestRobustOtherModels:
    def test_ellipsoid_reduces_to_sphere(self):
        rng = np.random.default_rng(5)
        hb = random_channels(rng, 4, 3)
        eps = 0.25
        sphere = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([eps] * 3)
        )
        shapes = np.stack([eps**2 * np.eye(4)] * 3).astype(complex)
        ellipsoid = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, EllipsoidUncertainty(shapes)
        )
        v0 = conic.solve(build_robust_sdp(sphere)[0]).objective
        v1 = conic.solve(build_robust_sdp(ellipsoid)[0]).objective
        assert v1 == pytest.approx(v0, rel=1e-6)

    def test_ellipsoid_margins_nonpositive(self):
        rng = np.random.default_rng(7)
        hb = random_channels(rng, 4, 3)
        shapes = np.stack(
            [np.diag([0.02, 0.05, 0.01, 0.03]).astype(complex)] * 3
        )
        sc = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, EllipsoidUncertainty(shapes)
        )
        outcome, index = solve_robust(sc)
        assert outcome.status is conic.Status.OPTIMAL
        sol = extract_solution(index, outcome)
        for i in range(3):
            assert worst_case_margin(sol, sc, i) <= 1e-6

    def test_box_solution_brackets(self):
        # The box program is a safe approximation, so only the sampled
        # lower bound is guaranteed nonpositive at the solution.
        rng = np.random.default_rng(9)
        hb = random_channels(rng, 4, 3)
        assert_solution_brackets(
            ChannelScenario(hb, [0.1] * 3, [1.0] * 3, BoxUncertainty([0.1] * 3))
        )

    def test_fdd_solution_brackets(self):
        rng = np.random.default_rng(15)
        hb = random_channels(rng, 4, 3)
        assert_solution_brackets(
            ChannelScenario(hb, [0.1] * 3, [1.0] * 3, FddUncertainty(0.1))
        )

    def test_fdd_large_gain_solution_brackets(self):
        # At channel gain 1e4 Cholesky solves some KKT systems inaccurately;
        # the QR re-solve of those systems is what lets this reach Optimal.
        sc = replace(sample_scenario(0, 4, 3, 1e4, 0.1, 0.1, 0.3), uncertainty=FddUncertainty(0.3))
        assert_solution_brackets(sc)

    def test_box_tighter_than_circumscribed_sphere(self):
        # Enclosing ball radius sqrt(N) delta makes a harder problem.
        rng = np.random.default_rng(25)
        hb = random_channels(rng, 3, 2)
        delta = 0.08
        box = ChannelScenario(
            hb, [0.1] * 2, [1.0] * 2, BoxUncertainty([delta] * 2)
        )
        ball = ChannelScenario(
            hb, [0.1] * 2, [1.0] * 2,
            SphereUncertainty([np.sqrt(3.0) * delta] * 2),
        )
        v_box = conic.solve(build_robust_sdp(box)[0]).objective
        v_ball = conic.solve(build_robust_sdp(ball)[0]).objective
        assert v_box <= v_ball + 1e-7


class TestFixedChannel:
    def test_single_user_value_and_dual(self):
        h = np.array([1.0, 1.0], dtype=complex)
        chans = np.stack([np.outer(h, h.conj())])
        program, index = build_fixed_sdp(chans, [0.1], [1.0])
        outcome = conic.solve(program)
        assert outcome.status is conic.Status.OPTIMAL
        assert outcome.objective == pytest.approx(0.05, rel=1e-7)
        sol = extract_solution(index, outcome)
        np.testing.assert_allclose(sol.mu, [0.5], atol=1e-7)

    def test_orthonormal_users_decouple(self):
        chans = rank_one_stack(np.eye(3, dtype=complex))
        program, _ = build_fixed_sdp(chans, [0.1] * 3, [1.0] * 3)
        outcome = conic.solve(program)
        assert outcome.objective == pytest.approx(0.3, rel=1e-7)

    def test_zero_channel_infeasible(self):
        chans = np.zeros((2, 3, 3), dtype=complex)
        chans[0] = np.eye(3)
        program, _ = build_fixed_sdp(chans, [0.1] * 2, [1.0] * 2)
        assert conic.solve(program).status is conic.Status.PRIMAL_INFEASIBLE

    def test_rank_one_channels_give_rank_one_designs(self):
        rng = np.random.default_rng(31)
        for trial in range(3):
            hb = random_channels(rng, 4, 3)
            program, index = build_fixed_sdp(
                rank_one_stack(hb), [0.1] * 3, [1.0] * 3
            )
            outcome = conic.solve(program)
            assert outcome.status is conic.Status.OPTIMAL
            sol = extract_solution(index, outcome)
            for wi in sol.W:
                assert numerical_rank(wi, tau=1e-6) == 1

    def test_rejects_non_hermitian(self):
        chans = np.zeros((1, 2, 2), dtype=complex)
        chans[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            build_fixed_sdp(chans, [0.1], [1.0])


class TestFixedDual:
    def test_single_user_boundary(self):
        h = np.array([1.0, 1.0], dtype=complex)
        chans = np.stack([np.outer(h, h.conj())])
        program, index = build_fixed_dual(chans, [0.1], [1.0])
        outcome = conic.solve(program)
        assert outcome.status is conic.Status.OPTIMAL
        # Solver minimizes the negated revenue.
        assert -outcome.objective == pytest.approx(0.05, rel=1e-7)
        np.testing.assert_allclose(index.multipliers(outcome.x), [0.5], atol=1e-7)

    def test_zero_channels_unbounded(self):
        chans = np.zeros((1, 2, 2), dtype=complex)
        program, _ = build_fixed_dual(chans, [1.0], [1.0])
        assert conic.solve(program).status is conic.Status.DUAL_INFEASIBLE

    def test_strong_duality_random(self):
        rng = np.random.default_rng(37)
        for trial in range(4):
            hb = random_channels(rng, 4, 3)
            chans = rank_one_stack(hb)
            gam = gamma_from_rate([1.0] * 3)
            primal = conic.solve(build_fixed_sdp(chans, [0.1] * 3, gam)[0])
            dual = conic.solve(build_fixed_dual(chans, [0.1] * 3, gam)[0])
            assert primal.status is conic.Status.OPTIMAL
            assert dual.status is conic.Status.OPTIMAL
            assert -dual.objective == pytest.approx(primal.objective, rel=1e-6)

    def test_dual_matches_primal_rate_duals(self):
        rng = np.random.default_rng(41)
        hb = random_channels(rng, 4, 3)
        chans = rank_one_stack(hb)
        gam = gamma_from_rate([1.0] * 3)
        p_program, p_index = build_fixed_sdp(chans, [0.1] * 3, gam)
        p_out = conic.solve(p_program)
        d_program, d_index = build_fixed_dual(chans, [0.1] * 3, gam)
        d_out = conic.solve(d_program)
        np.testing.assert_allclose(
            p_index.rate_duals(p_out),
            d_index.multipliers(d_out.x),
            atol=1e-5,
        )


class TestMuMaxPair:
    def test_single_user_boundary(self):
        h = np.array([1.0, 1.0], dtype=complex)
        chans = np.stack([np.outer(h, h.conj())])
        (prog1, _), (prog2, _) = build_mu_max_pair(chans, [1.0], user=0)
        out1 = conic.solve(prog1)
        out2 = conic.solve(prog2)
        assert -out1.objective == pytest.approx(0.5, rel=1e-7)
        assert out2.objective == pytest.approx(0.5, rel=1e-7)

    def test_weak_duality_random(self):
        rng = np.random.default_rng(43)
        for trial in range(3):
            hb = random_channels(rng, 4, 3)
            chans = rank_one_stack(hb)
            gam = gamma_from_rate([1.0] * 3)
            (prog1, _), (prog2, _) = build_mu_max_pair(chans, gam, user=1)
            out1 = conic.solve(prog1)
            out2 = conic.solve(prog2)
            assert out1.status is conic.Status.OPTIMAL
            assert out2.status is conic.Status.OPTIMAL
            assert -out1.objective <= out2.objective + 1e-7

    def test_orthonormal_feasible_point_objective(self):
        # Explicit feasible point W_i = alpha hbar_i hbar_i^H for the
        # unit-norm orthogonal layout; its power is K alpha and it caps
        # the maximal dual weight from the paired program.
        k, gam, eps = 3, 1.0, 0.2
        hb = np.eye(4, dtype=complex)[:, :k]
        chans = rank_one_stack(hb)
        alpha = 1.0 / ((1.0 / gam) * (1.0 - eps) ** 2 - (k - 1) * eps**2)
        assert alpha == pytest.approx(1.7857142857142856, rel=1e-12)
        (prog1, _), (prog2, index2) = build_mu_max_pair(chans, [gam] * k, user=0)
        out1 = conic.solve(prog1)
        assert out1.status is conic.Status.OPTIMAL
        mu_best = -out1.objective
        # Feasibility of the explicit point: per-user slack of the 0/1
        # right-hand side program is nonnegative at alpha.
        for i in range(k):
            signal = alpha / gam
            need = 1.0 if i == 0 else 0.0
            assert signal >= need
        assert k * alpha == pytest.approx(5.357142857142857, rel=1e-12)
        assert mu_best <= k * alpha + 1e-7
        out2 = conic.solve(prog2)
        assert out2.objective <= k * alpha + 1e-7

    def test_rejects_bad_user_index(self):
        chans = np.stack([np.eye(2, dtype=complex)])
        with pytest.raises(ValueError):
            build_mu_max_pair(chans, [1.0], user=1)


def margin_matrix(w, gamma, user):
    """Hermitian A of user's constraint value sigma^2 + h^H A h."""
    amat = w.sum(axis=0) - w[user] - w[user] / gamma[user]
    return 0.5 * (amat + amat.conj().T)


def former_box_samples(lin):
    """Points e of the unit box that the box lower end once maximized over,
    with the same draws: every corner of {1, j, -1, -j}^N for N <= 8 or
    65,536 random corners beyond, the phase-aligned point lin / |lin| and its
    negation, 256 random points and 0."""
    n = lin.size
    draws = np.random.default_rng(0)
    phases = np.array([1, 1j, -1, -1j])
    if 4**n > 1 << 16:
        corners = phases[draws.integers(0, 4, size=(1 << 16, n))]
    else:
        corners = phases[np.indices((4,) * n).reshape(n, -1).T]
    aligned = np.exp(1j * np.angle(lin))[None, :]
    extra = draws.random((256, n)) * np.exp(2j * np.pi * draws.random((256, n)))
    return np.concatenate([corners, aligned, -aligned, extra, np.zeros((1, n))])


def fdd_witness(amat, hb, delta):
    """A member h of the feedback set around hb whose value h^H amat h is the
    S-lemma bound min over t >= 0 of ||hb||^2 lam_max(amat + t B),
    B = hdir hdir^H - c^2 I, c = 1 - delta^2 / 2, for 0 < c < 1.

    The top eigenvectors at both ends of the final bracket on t are
    phase-aligned on hdir and mixed, u = cos(a) v_lo + sin(a) v_hi, with the
    angle a bisected until |hdir^H u| = c ||u||; h is R u / ||u|| rotated so
    that hdir^H h > 0, which puts it on the set's boundary.
    """
    nrm = np.linalg.norm(hb)
    hdir, c = hb / nrm, 1.0 - 0.5 * delta**2
    shift = np.outer(hdir, hdir.conj()) - c**2 * np.eye(hb.size)

    def top(t):
        v = np.linalg.eigh(amat + t * shift)[1][:, -1]
        p = np.vdot(hdir, v)
        return v * (np.conj(p) / abs(p) if abs(p) > 0.0 else 1.0)

    def slope(u):
        return abs(np.vdot(hdir, u)) ** 2 - c**2 * np.vdot(u, u).real

    u = top(0.0)
    if slope(u) < 0.0:
        lo, hi = 0.0, 1.0
        while slope(top(hi)) < 0.0:
            lo, hi = hi, 2.0 * hi
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if slope(top(mid)) >= 0.0 else (mid, hi)
        v_lo, v_hi = top(lo), top(hi)
        a_lo, a_hi = 0.0, 0.5 * np.pi
        while a_lo < 0.5 * (a_lo + a_hi) < a_hi:
            mid = 0.5 * (a_lo + a_hi)
            a_lo, a_hi = (a_lo, mid) if slope(np.cos(mid) * v_lo + np.sin(mid) * v_hi) >= 0.0 else (mid, a_hi)
        u = np.cos(a_lo) * v_lo + np.sin(a_lo) * v_hi
    p = np.vdot(hdir, u)
    return nrm * u / np.linalg.norm(u) * np.conj(p) / abs(p)


def fdd_members(rng, count, hb, delta):
    """Random members h = R (alpha hdir + beta d) of the feedback set around
    hb: |alpha|^2 + beta^2 = 1, Re(alpha) >= 1 - delta^2 / 2, d a unit vector
    orthogonal to hdir."""
    nrm = np.linalg.norm(hb)
    hdir = hb / nrm
    re = rng.uniform(max(-1.0, 1.0 - 0.5 * delta**2), 1.0, count)
    alpha = re + 1j * rng.uniform(-1.0, 1.0, count) * np.sqrt(1.0 - re**2)
    beta = np.sqrt(np.maximum(1.0 - np.abs(alpha) ** 2, 0.0))
    d = rng.standard_normal((count, hb.size)) + 1j * rng.standard_normal((count, hb.size))
    d -= (d @ hdir.conj())[:, None] * hdir[None, :]
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return nrm * (alpha[:, None] * hdir[None, :] + beta[:, None] * d)


def near_hard_fdd(rng):
    """A feedback instance whose unit direction hdir has almost no weight on
    amat's top eigenvector: N = 2-8, the top two eigenvalues 1e-12 to 1e-6
    apart, hdir's weight on the top one 1e-12 to 1e-2 or zero, and delta
    from 0.001 to 1.4 (log-uniform)."""
    n = int(rng.integers(2, 9))
    lam = np.sort(rng.standard_normal(n))[::-1] * rng.uniform(0.1, 5.0)
    lam[1] = lam[0] - 10 ** rng.uniform(-12, -6)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    amat = (q * lam) @ q.conj().T
    rest = q[:, 1:] @ (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    weight = 0.0 if rng.random() < 0.25 else 10 ** rng.uniform(-12, -2)
    hdir = weight * q[:, 0] + rest / np.linalg.norm(rest)
    delta = 10 ** rng.uniform(-3, np.log10(1.4))
    return 0.5 * (amat + amat.conj().T), hdir / np.linalg.norm(hdir), float(delta)


def assert_fdd_exact(w, sc, user):
    """The fdd margin's ends are equal, fdd_witness is a member to 1e-12,
    and its value matches the ends to 1e-12 of sigma^2 + R^2 ||A||."""
    lower, upper = worst_case_margin(w, sc, user)
    assert lower == upper
    amat, hb = margin_matrix(w, sc.gamma, user), sc.presumed[:, user]
    nrm, noise = np.linalg.norm(hb), sc.noise_power[user]
    h = fdd_witness(amat, hb, sc.uncertainty.direction_error)
    assert abs(np.linalg.norm(h) - nrm) <= 1e-12 * nrm
    assert np.linalg.norm(h - hb) <= (sc.uncertainty.direction_error + 1e-12) * nrm
    scale = noise + nrm**2 * np.linalg.norm(amat, 2)
    assert abs(noise + np.vdot(h, amat @ h).real - upper) <= 1e-12 * scale
    return upper


class TestWorstCaseMargin:
    def test_zero_design_gives_noise_power(self):
        rng = np.random.default_rng(47)
        sc = sphere_scenario(rng, 4, 2, 0.2, noise=0.1)
        w = np.zeros((2, 4, 4), dtype=complex)
        assert worst_case_margin(w, sc, 0) == pytest.approx(0.1, abs=1e-12)
        assert worst_case_margin(w, sc, 1) == pytest.approx(0.1, abs=1e-12)

    def test_aligned_single_user_formula(self):
        hb = np.zeros((3, 1), dtype=complex)
        hb[1, 0] = 2.0
        power, eps, noise = 0.7, 0.3, 0.1
        sc = ChannelScenario(hb, [noise], [1.0], SphereUncertainty([eps]))
        what = hb[:, 0] / np.linalg.norm(hb[:, 0])
        w = np.stack([power * np.outer(what, what.conj())])
        expect = noise - power * (2.0 - eps) ** 2
        assert worst_case_margin(w, sc, 0) == pytest.approx(expect, rel=1e-9)

    def test_dominates_sampled_channels(self):
        rng = np.random.default_rng(53)
        sc = sphere_scenario(rng, 3, 2, 0.25)
        w = np.stack(
            [
                np.outer(sc.presumed[:, i], sc.presumed[:, i].conj())
                for i in range(2)
            ]
        )
        gam = sc.gamma
        for i in range(2):
            margin = worst_case_margin(w, sc, i)
            amat = w.sum(axis=0) - w[i] - w[i] / gam[i]
            amat = 0.5 * (amat + amat.conj().T)
            for trial in range(200):
                step = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                step *= 0.25 * rng.uniform() / np.linalg.norm(step)
                h = sc.presumed[:, i] + step
                value = sc.noise_power[i] + (h.conj() @ amat @ h).real
                assert value <= margin + 1e-9

    def test_near_hard_case_margins_match_dual_bound(self):
        """On this design user 2's worst case is a near-hard trust-region
        subproblem: lin has almost no weight on A's top eigenvector. Every
        margin equals sigma^2 + hbar^H A hbar plus the subproblem's dual
        bound, and user 2's active constraint reads as active."""
        sc = sample_scenario(25, 4, 3, 1.0, 0.1, 0.1, 2.3165)
        outcome, index = solve_robust(sc)
        assert outcome.status is conic.Status.OPTIMAL
        sol = extract_solution(index, outcome)
        radius = sc.uncertainty.radius
        for user in range(3):
            amat, hb = margin_matrix(sol.W, sc.gamma, user), sc.presumed[:, user]
            noise = sc.noise_power[user]
            const = noise + np.vdot(hb, amat @ hb).real
            bound = const + trs_dual_bound(amat, amat @ hb, radius[user])
            margin = worst_case_margin(sol, sc, user)
            scale = noise + np.linalg.norm(amat, 2) * radius[user] ** 2 + abs(const)
            assert abs(margin - bound) <= 1e-12 * scale
        assert worst_case_margin(sol, sc, 2) >= -1e-8 * sc.noise_power[2]

    def test_accepts_design_solution(self):
        rng = np.random.default_rng(59)
        sc = sphere_scenario(rng, 3, 2, 0.15)
        outcome, index = solve_robust(sc)
        sol = extract_solution(index, outcome)
        from_arrays = worst_case_margin(sol.W, sc, 0)
        from_solution = worst_case_margin(sol, sc, 0)
        assert from_arrays == pytest.approx(from_solution, abs=1e-12)

    def test_ball_radius_reaches_farthest_member(self):
        """_ball_radius is each user's largest admissible deviation: one
        member of the error set is that far from the presumed channel, and
        the box ascent's points are no farther."""
        rng = np.random.default_rng(61)
        hb = random_channels(rng, 3, 2)
        q, _ = np.linalg.qr(random_channels(rng, 3, 3))
        axis = q[:, 2]  # the ellipsoid's longest semi-axis, 0.3
        shapes = np.stack([q @ np.diag([0.01, 0.04, 0.09]) @ q.conj().T] * 2)
        delta = 0.3

        def fdd_far(h):
            # Keeps the norm and sits on the edge Re(alpha) = 1 - delta^2 / 2.
            d = axis - np.vdot(h, axis) / np.vdot(h, h) * h
            alpha = 1.0 - 0.5 * delta**2
            beta = np.sqrt(1.0 - alpha**2) * np.linalg.norm(h) / np.linalg.norm(d)
            return alpha * h + beta * d

        cases = [
            (SphereUncertainty([0.2, 0.2]), lambda h: h + 0.2 * axis, None),
            (EllipsoidUncertainty(shapes), lambda h: h + 0.3 * axis, None),
            (
                BoxUncertainty([0.1, 0.1]),
                lambda h: h + 0.1j * np.ones(3),
                lambda h: h + 0.1 * _box_ascent(random_hermitian(rng, 3), h, 0.1)[1][None, :],
            ),
            (FddUncertainty(delta), fdd_far, None),
        ]
        for model, far, samples in cases:
            sc = ChannelScenario(hb, [0.1] * 2, [1.0] * 2, model)
            radius = _ball_radius(sc)
            for i, h in enumerate(hb.T):
                assert np.linalg.norm(far(h) - h) == pytest.approx(radius[i], rel=1e-12)
                if samples is not None:
                    dist = np.linalg.norm(samples(h) - h, axis=1)
                    assert np.max(dist) <= radius[i] * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_box_corner_split_matches_enumeration(self, n):
        # n = 1 leaves the first half-grid empty.
        rng = np.random.default_rng(n)
        amat = random_hermitian(rng, n)
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        width = 0.3
        want = -np.inf
        for e in itertools.product([1, 1j, -1, -1j], repeat=n):
            e = np.array(e)
            value = 2 * width * np.vdot(e, lin).real + width**2 * np.vdot(e, amat @ e).real
            want = max(want, value)
        assert _box_corner_max(amat, lin, width) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 8, 9, 16])
    def test_box_lower_end_at_or_above_former_samples(self, n):
        """The lower end is at or above the maximum over the sample set it
        replaced, each channel evaluated on its own. The boxes are wide
        enough that random points beat the phase-aligned one on some users."""
        rng = np.random.default_rng(80 + n)
        k, noise = 2, 0.1
        sc = ChannelScenario(
            random_channels(rng, n, k), [noise] * k, [1.0] * k, BoxUncertainty([0.5, 2.0])
        )
        g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        w = 0.05 * np.einsum("kij,klj->kil", g, g.conj())
        for user in range(k):
            amat = margin_matrix(w, sc.gamma, user)
            hb, width = sc.presumed[:, user], sc.uncertainty.halfwidth[user]
            chans = hb + width * former_box_samples(amat @ hb)
            floor = noise + np.einsum("sn,nm,sm->s", chans.conj(), amat, chans).real.max()
            lower, upper = worst_case_margin(w, sc, user)
            assert lower >= floor - 1e-12 * (abs(floor) + noise)
            assert lower <= upper + 1e-12 * (abs(upper) + noise)
            if n == 1:
                # The one-entry box is the circumscribed disk, which the ascent solves.
                assert lower == pytest.approx(upper, abs=1e-12 * (abs(upper) + noise))

    def test_box_random_corners_pinned(self):
        # Beyond 4^8 corners the lower end once sampled 65,536 random corners;
        # those lower ends are floors now, and the upper ends stay pinned.
        rng = np.random.default_rng(71)
        n, k = 9, 2
        sc = ChannelScenario(
            random_channels(rng, n, k), [0.1] * k, [1.0] * k, BoxUncertainty([0.05, 0.1])
        )
        g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        w = 0.05 * np.einsum("kij,klj->kil", g, g.conj())
        pinned = [
            (-0.20207535768421167, -0.14054213816493877),
            (-1.9969505996707002, -1.877154916062497),
        ]
        for user, (floor, upper) in enumerate(pinned):
            got = worst_case_margin(w, sc, user)
            assert got[0] >= floor * (1.0 + 1e-12)
            assert got[1] == pytest.approx(upper, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_box_ascent_point_attains_value(self, n):
        """The ascent's point lies in the box, attains the returned value and
        is no worse than the phase-aligned start."""
        rng = np.random.default_rng(60 + n)
        for width in (0.05, 2.0):
            amat = random_hermitian(rng, n)
            lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)

            def f(e):
                return 2 * width * np.vdot(e, lin).real + width**2 * np.vdot(e, amat @ e).real

            value, e = _box_ascent(amat, lin, width)
            scale = width * np.abs(lin).sum() + width**2 * n * np.linalg.norm(amat, 2)
            assert np.all(np.abs(e) <= 1.0 + 1e-15)
            assert value == pytest.approx(f(e), abs=1e-12 * scale)
            assert value >= f(np.exp(1j * np.angle(lin))) - 1e-12 * scale

    def test_box_ascent_zero_gradient(self):
        # With lin = 0 and a diagonal A every g is 0: a convex entry stays on
        # the unit circle and a concave one moves to 0.
        value, e = _box_ascent(np.diag([1.0, -1.0]).astype(complex), np.zeros(2, dtype=complex), 0.5)
        assert value == 0.25
        np.testing.assert_array_equal(e, [1.0, 0.0])

    def test_box_ascent_sweep_cap(self, monkeypatch):
        """The cap bounds the sweeps: at one, the ascent returns the
        phase-aligned start, though the full ascent climbs above it."""
        rng = np.random.default_rng(63)
        amat = random_hermitian(rng, 4)
        lin = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        start = np.exp(1j * np.angle(lin))
        full, _ = _box_ascent(amat, lin, 0.1)
        monkeypatch.setattr(formulations, "BOX_ASCENT_SWEEPS", 1)
        capped, e = _box_ascent(amat, lin, 0.1)
        np.testing.assert_array_equal(e, start)
        assert capped == 0.1 * np.vdot(start, 2.0 * lin + 0.1 * (amat @ start)).real
        assert full > capped

    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.9, 1.4])
    def test_fdd_aligned_single_user_closed_form(self, delta):
        # Every member has |hdir^H h| >= c R, with equality on the boundary,
        # so the worst case of -(p / gamma) |hdir^H h|^2 is -(p / gamma) c^2 R^2.
        hb = np.array([[1.0 + 2.0j], [-0.5j], [0.3]])
        power, noise, rate = 0.7, 0.1, 1.3
        sc = ChannelScenario(hb, [noise], [rate], FddUncertainty(delta))
        what = hb[:, 0] / np.linalg.norm(hb)
        w = np.stack([power * np.outer(what, what.conj())])
        c = 1.0 - 0.5 * delta**2
        expect = noise - power * c**2 * np.vdot(hb, hb).real / sc.gamma[0]
        lower, upper = worst_case_margin(w, sc, 0)
        assert lower == upper
        assert upper == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("delta", [1.5, 2.5])
    def test_fdd_wide_set_is_whole_sphere_maximum(self, delta):
        # c = 1 - delta^2 / 2 <= 0: the phase closure of the set is the whole
        # sphere of radius ||hbar||. In the second design user 0's top
        # eigenvector is orthogonal to hbar_0, outside |hdir^H u| >= |c|.
        rng = np.random.default_rng(43)
        sc = ChannelScenario(random_channels(rng, 3, 2), [0.1] * 2, [1.0] * 2, FddUncertainty(delta))
        g = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        off = np.cross(sc.presumed[:, 0].conj(), sc.presumed[:, 1].conj())
        hdir = sc.presumed[:, 0] / np.linalg.norm(sc.presumed[:, 0])
        orthogonal = np.stack([np.outer(hdir, hdir.conj()), np.outer(off, off.conj())])
        for w, user in itertools.product((0.05 * np.einsum("kij,klj->kil", g, g.conj()), orthogonal), range(2)):
            amat = margin_matrix(w, sc.gamma, user)
            nrm2 = np.vdot(sc.presumed[:, user], sc.presumed[:, user]).real
            expect = 0.1 + nrm2 * np.linalg.eigvalsh(amat)[-1]
            lower, upper = worst_case_margin(w, sc, user)
            assert lower == upper
            assert upper == pytest.approx(expect, rel=1e-12)

    def test_fdd_edge_cases(self):
        # N = 1: every member is e^{j phi} hbar, so the value is the presumed one.
        sc = ChannelScenario(np.array([[1.5 - 0.5j, 0.2j]]), [0.1] * 2, [1.0] * 2, FddUncertainty(0.3))
        w = np.array([0.4, 0.9]).reshape(2, 1, 1).astype(complex)
        for user in range(2):
            amat = margin_matrix(w, sc.gamma, user)[0, 0].real
            expect = 0.1 + abs(sc.presumed[0, user]) ** 2 * amat
            assert worst_case_margin(w, sc, user) == pytest.approx((expect, expect), rel=1e-12)
        rng = np.random.default_rng(45)
        sc = ChannelScenario(random_channels(rng, 4, 2), [0.1] * 2, [1.0] * 2, FddUncertainty(0.3))
        assert worst_case_margin(np.zeros((2, 4, 4), dtype=complex), sc, 1) == (0.1, 0.1)

    @pytest.mark.parametrize("delta", [0.01, 0.3, 1.0, 1.9])
    def test_fdd_single_antenna_skips_the_trs(self, delta, monkeypatch):
        """At N = 1 the presumed direction is a top eigenvector of the 1 x 1
        matrix, so the oracle returns lam_max before it would pose a TRS on
        the direction's empty complement (TrsInstance rejects n = 0)."""

        def no_trs(inst):
            raise AssertionError("the N = 1 fdd oracle reached the TRS")

        monkeypatch.setattr(formulations, "trs_maximize", no_trs)
        amat = np.array([[-0.7 + 0j]])
        assert _fdd_worst(amat, np.array([np.exp(0.4j)]), delta) == -0.7

    def test_fdd_witness_attains_value_on_designs(self):
        """Seeded 4x3 designs (seeds 0-5, delta 0.1, 0.3 and 0.6): every
        OPTIMAL design and the same design times 0.9, 72 margins in all."""
        checked = 0
        for seed, delta in itertools.product(range(6), (0.1, 0.3, 0.6)):
            sc = replace(sample_scenario(seed, 4, 3, 1.0, 0.1, 0.1, 1.0), uncertainty=FddUncertainty(delta))
            outcome, index = solve_robust(sc)
            if outcome.status is not conic.Status.OPTIMAL:
                continue
            w = extract_solution(index, outcome).W
            for scale, user in itertools.product((1.0, 0.9), range(3)):
                value = assert_fdd_exact(scale * w, sc, user)
                if scale == 1.0:
                    assert value <= 1e-6 * sc.noise_power[user]
                checked += 1
        assert checked == 72

    @pytest.mark.parametrize("n, k, delta", [(2, 2, 0.1), (3, 3, 0.3), (5, 2, 0.6), (4, 3, 1.0), (6, 3, 1.3)])
    def test_fdd_witness_attains_value_on_random_designs(self, n, k, delta):
        """The witness attains the value, and no sampled member exceeds it."""
        rng = np.random.default_rng(100 + n)
        sc = ChannelScenario(random_channels(rng, n, k), [0.1] * k, [1.0] * k, FddUncertainty(delta))
        g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        w = 0.05 * np.einsum("kij,klj->kil", g, g.conj())
        for user in range(k):
            value = assert_fdd_exact(w, sc, user)
            amat, hb = margin_matrix(w, sc.gamma, user), sc.presumed[:, user]
            chans = fdd_members(rng, 20_000, hb, delta)
            assert np.max(np.linalg.norm(chans - hb, axis=1)) <= delta * np.linalg.norm(hb) * (1 + 1e-12)
            sampled = 0.1 + np.einsum("sn,nm,sm->s", chans.conj(), amat, chans).real.max()
            assert sampled <= value + 1e-12 * (0.1 + np.vdot(hb, hb).real * np.linalg.norm(amat, 2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_fdd_near_hard_matches_witness(self, seed):
        amat, hdir, delta = near_hard_fdd(np.random.default_rng(seed))
        h = fdd_witness(amat, hdir, delta)
        tol = 1e-12 * (1.0 + np.linalg.norm(amat, 2))
        assert abs(_fdd_worst(amat, hdir, delta) - np.vdot(h, amat @ h).real) <= tol

    def test_fdd_top_eigenvalue_returned_exactly(self):
        """With c = 1 - delta^2 / 2 <= 0, or with amat's top eigenvector
        inside the cap |hdir^H u| >= c, the value is lam_max(amat) itself."""
        rng = np.random.default_rng(41)
        for n in (2, 4, 7):
            amat = random_hermitian(rng, n)
            lam, vec = np.linalg.eigh(amat)
            other = vec[:, 0] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            for delta in (np.sqrt(2.0), 1.5, 2.5):
                hdir = random_channels(rng, n, 1)[:, 0]
                assert _fdd_worst(amat, hdir / np.linalg.norm(hdir), delta) == lam[-1]
            for delta, angle in ((0.1, 0.0), (0.1, 0.09), (0.6, 0.5)):
                # |hdir^H v| = cos(angle) >= 1 - delta^2 / 2.
                hdir = np.cos(angle) * vec[:, -1] + np.sin(angle) * other
                assert _fdd_worst(amat, hdir, delta) == lam[-1]

    def test_rejects_bad_user(self):
        rng = np.random.default_rng(61)
        sc = sphere_scenario(rng, 3, 2, 0.15)
        w = np.zeros((2, 3, 3), dtype=complex)
        with pytest.raises(ValueError):
            worst_case_margin(w, sc, 2)


class TestExtractSolution:
    def test_round_trip_objective_and_blocks(self):
        rng = np.random.default_rng(67)
        sc = sphere_scenario(rng, 4, 3, 0.2)
        outcome, index = solve_robust(sc)
        assert outcome.status is conic.Status.OPTIMAL
        sol = extract_solution(index, outcome)
        assert sol.objective == pytest.approx(outcome.objective, abs=1e-8)
        total = sum(np.trace(wi).real for wi in sol.W)
        assert sol.objective == pytest.approx(total, abs=1e-8)
        gam = sc.gamma
        for i in range(3):
            qmat = sol.W[i] / gam[i] - (sol.W.sum(axis=0) - sol.W[i])
            hbar = sc.presumed[:, i]
            top = qmat + sol.t[i, 0] * np.eye(4)
            rvec = qmat @ hbar
            eps2 = sc.uncertainty.radius[i] ** 2
            corner = (hbar.conj() @ qmat @ hbar).real
            corner -= sc.noise_power[i] + sol.t[i, 0] * eps2
            expect = np.zeros((5, 5), dtype=complex)
            expect[:4, :4] = top
            expect[:4, 4] = rvec
            expect[4, :4] = rvec.conj()
            expect[4, 4] = corner
            assert np.max(np.abs(sol.Z[i] - expect)) <= 1e-7
        for block in (sol.W, sol.Z, sol.t):
            assert not np.shares_memory(block, outcome.x)

    def test_psd_within_tolerance(self):
        rng = np.random.default_rng(71)
        sc = sphere_scenario(rng, 4, 2, 0.2)
        outcome, index = solve_robust(sc)
        sol = extract_solution(index, outcome)
        for block in (*sol.W, *sol.Z):
            lam, _ = eig_hermitian(block)
            assert lam[-1] >= -1e-9

    def test_fixed_solution_mu_nonnegative(self):
        rng = np.random.default_rng(73)
        hb = random_channels(rng, 4, 3)
        program, index = build_fixed_sdp(
            rank_one_stack(hb), [0.1] * 3, [1.0] * 3
        )
        outcome = conic.solve(program)
        sol = extract_solution(index, outcome)
        assert np.all(sol.mu >= -1e-9)

    def test_requires_optimal_status(self):
        rng = np.random.default_rng(1)
        hb = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        sc = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([0.3] * 3)
        )
        program, index = build_robust_sdp(sc)
        outcome = conic.solve(program)
        with pytest.raises(ValueError):
            extract_solution(index, outcome)

    def test_rejects_unknown_map(self):
        rng = np.random.default_rng(79)
        sc = sphere_scenario(rng, 3, 1, 0.1)
        outcome, _ = solve_robust(sc)
        with pytest.raises(TypeError):
            extract_solution(object(), outcome)
