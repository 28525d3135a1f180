import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_miso import conic
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
    _box_corner_max,
    _box_samples,
    _fdd_samples,
    worst_case_margin,
)
from robust_miso.harness import sample_scenario
from robust_miso.hermitian import eig_hermitian, numerical_rank, real_embedding


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
    """Solve a bracketed-margin (fdd or box) scenario; every user's sampled
    lower bound must be nonpositive and below the circumscribed-ball bound."""
    outcome, index = solve_robust(scenario)
    assert outcome.status is conic.Status.OPTIMAL, outcome.message
    sol = extract_solution(index, outcome)
    for i in range(scenario.n_users):
        lower, upper = worst_case_margin(sol, scenario, i)
        assert lower <= 1e-6
        assert lower <= upper + 1e-12


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

    def test_accepts_design_solution(self):
        rng = np.random.default_rng(59)
        sc = sphere_scenario(rng, 3, 2, 0.15)
        outcome, index = solve_robust(sc)
        sol = extract_solution(index, outcome)
        from_arrays = worst_case_margin(sol.W, sc, 0)
        from_solution = worst_case_margin(sol, sc, 0)
        assert from_arrays == pytest.approx(from_solution, abs=1e-12)

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

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_box_lower_bracket_matches_full_enumeration(self, n):
        """The lower end over all 4^n corners plus the phase-aligned, random
        and zero points, each channel evaluated on its own. The boxes are wide
        enough that a corner sets the maximum for some users at n = 4 and 8."""
        rng = np.random.default_rng(80 + n)
        k, noise = 2, 0.1
        sc = ChannelScenario(
            random_channels(rng, n, k), [noise] * k, [1.0] * k, BoxUncertainty([0.5, 2.0])
        )
        g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        w = 0.05 * np.einsum("kij,klj->kil", g, g.conj())
        for user in range(k):
            amat = w.sum(axis=0) - w[user] - w[user] / sc.gamma[user]
            amat = 0.5 * (amat + amat.conj().T)
            hb, width = sc.presumed[:, user], sc.uncertainty.halfwidth[user]
            grids = np.meshgrid(*([np.array([1, 1j, -1, -1j])] * n), indexing="ij")
            corners = np.stack([grid.reshape(-1) for grid in grids], axis=1)
            phases = np.exp(1j * np.angle(amat @ hb))[None, :]
            draws = np.random.default_rng(0)
            extra = draws.random((256, n)) * np.exp(2j * np.pi * draws.random((256, n)))
            errs = np.concatenate([corners, phases, -phases, extra, np.zeros((1, n))])
            chans = hb + width * errs
            want = noise + np.einsum("sn,nm,sm->s", chans.conj(), amat, chans).real.max()
            lower, _ = worst_case_margin(w, sc, user)
            assert lower == pytest.approx(want, abs=1e-12 * noise)

    def test_box_random_corners_pinned(self):
        # Beyond 4^8 corners the lower end samples random corners; these are
        # the values of the full-sample evaluation.
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
        for user, (lower, upper) in enumerate(pinned):
            got = worst_case_margin(w, sc, user)
            assert got[0] == pytest.approx(lower, rel=1e-12)
            assert got[1] == pytest.approx(upper, rel=1e-12)

    @pytest.mark.parametrize(
        "n, k, model",
        [(16, 2, BoxUncertainty([0.05, 0.1])), (4, 3, FddUncertainty(0.3))],
        ids=["box-16", "fdd-4x3"],
    )
    def test_sampled_lower_bracket_matches_einsum(self, n, k, model):
        """The sampled lower end equals the maximum over the same sample set
        evaluated by the three-operand einsum, channel by channel."""
        rng = np.random.default_rng(90 + n)
        noise = 0.1
        sc = ChannelScenario(random_channels(rng, n, k), [noise] * k, [1.0] * k, model)
        g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        w = 0.05 * np.einsum("kij,klj->kil", g, g.conj())
        for user in range(k):
            amat = w.sum(axis=0) - w[user] - w[user] / sc.gamma[user]
            amat = 0.5 * (amat + amat.conj().T)
            hb = sc.presumed[:, user]
            draws = np.random.default_rng(0)
            if isinstance(model, BoxUncertainty):
                chans = _box_samples(draws, hb, model.halfwidth[user], amat @ hb)
            else:
                chans = _fdd_samples(draws, 4096, hb, model.direction_error)
                chans = np.concatenate([chans, hb[None, :]])
            want = noise + np.einsum("sn,nm,sm->s", chans.conj(), amat, chans).real.max()
            lower, _ = worst_case_margin(w, sc, user)
            assert lower == pytest.approx(want, abs=1e-12 * noise)

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
