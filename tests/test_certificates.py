import numpy as np
import pytest

from robust_miso import conic
from robust_miso.certificates import (
    CertificateReport,
    certificate_report,
    cur_probability_bound,
    direction_margin,
    fact3_check,
    model_margins,
    projector_gains,
    prop4_mu_bound,
    remark1_margin,
    song_margin,
    theorem1_margin,
)
from robust_miso.formulations import (
    BoxUncertainty,
    ChannelScenario,
    EllipsoidUncertainty,
    FddUncertainty,
    LiftedChannel,
    SphereUncertainty,
    build_fixed_sdp,
    build_mu_max_pair,
    build_robust_sdp,
    extract_solution,
)
from robust_miso.hermitian import numerical_rank


def random_channels(rng, n, k, rho=1.0):
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return g * np.sqrt(rho / 2.0)


def orthonormal_scenario(n, k, eps2, rate=1.0, noise=0.1):
    hb = np.eye(n, dtype=complex)[:, :k]
    return ChannelScenario(
        hb, [noise] * k, [rate] * k, SphereUncertainty([np.sqrt(eps2)] * k)
    )


class TestProjectorGains:
    def test_matches_qr_oracle(self):
        rng = np.random.default_rng(2)
        hb = random_channels(rng, 6, 3)
        gains = projector_gains(hb)
        for i in range(3):
            others = np.delete(hb, i, axis=1)
            q, _ = np.linalg.qr(others)
            resid = hb[:, i] - q @ (q.conj().T @ hb[:, i])
            assert gains[i] == pytest.approx(np.linalg.norm(resid), abs=1e-10)

    def test_single_user_is_norm(self):
        rng = np.random.default_rng(3)
        hb = random_channels(rng, 4, 1)
        assert projector_gains(hb)[0] == pytest.approx(
            np.linalg.norm(hb[:, 0]), abs=1e-12
        )


class TestTheorem1Margin:
    def test_single_user_threshold_is_two(self):
        hb = np.zeros((3, 1), dtype=complex)
        hb[0, 0] = np.sqrt(0.3)
        sc = ChannelScenario(hb, [0.1], [1.0], SphereUncertainty([np.sqrt(0.1)]))
        np.testing.assert_allclose(theorem1_margin(sc), [1.0], atol=1e-12)

    def test_orthonormal_three_users(self):
        sc = orthonormal_scenario(4, 3, 0.1)
        np.testing.assert_allclose(
            theorem1_margin(sc), [3.333333333333333] * 3, atol=1e-12
        )

    def test_high_rate_defeats_certificate(self):
        sc = orthonormal_scenario(4, 3, 0.1, rate=20.0)
        assert np.all(theorem1_margin(sc) < -1e5)

    def test_requires_sphere(self):
        hb = np.eye(3, dtype=complex)
        sc = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, BoxUncertainty([0.1] * 3)
        )
        with pytest.raises(ValueError):
            theorem1_margin(sc)

    def test_noise_independent(self):
        rng = np.random.default_rng(5)
        hb = random_channels(rng, 5, 3)
        unc = SphereUncertainty([0.2] * 3)
        low = ChannelScenario(hb, [0.1] * 3, [1.0] * 3, unc)
        high = ChannelScenario(hb, [3.7] * 3, [1.0] * 3, unc)
        assert np.array_equal(theorem1_margin(low), theorem1_margin(high))


class TestRemark1Margin:
    def test_single_user_sharper_threshold(self):
        # Gate needs ratio >= 4; at ratio 5 the margin is 5 - 1.
        hb = np.zeros((3, 1), dtype=complex)
        hb[0, 0] = np.sqrt(0.5)
        sc = ChannelScenario(hb, [0.1], [1.0], SphereUncertainty([np.sqrt(0.1)]))
        margin, ok = remark1_margin(sc)
        assert ok[0]
        assert margin[0] == pytest.approx(4.0, abs=1e-12)

    def test_three_user_threshold(self):
        sc = orthonormal_scenario(4, 3, 0.05)
        margin, ok = remark1_margin(sc)
        assert np.all(ok)
        np.testing.assert_allclose(margin, [14.17157287525381] * 3, atol=1e-12)

    def test_gate_failure(self):
        # Ratio 9 sits below the (K+1)^2 = 16 gate for three users.
        sc = orthonormal_scenario(4, 3, 1.0 / 9.0)
        _, ok = remark1_margin(sc)
        assert not np.any(ok)


class TestSongMargin:
    def test_single_user_substitution(self):
        hb = np.zeros((3, 1), dtype=complex)
        hb[0, 0] = 1.0
        sc = ChannelScenario(hb, [0.1], [1.0], SphereUncertainty([0.2]))
        # Closed-form optimal value gamma sigma^2 / (|h| - eps)^2.
        margin = song_margin(sc, 0.15625)
        assert margin[0] == pytest.approx(0.6, abs=1e-12)
        assert margin[0] == pytest.approx(0.8**2 - 0.2**2, abs=1e-12)

    def test_negative_beyond_half_norm(self):
        hb = np.zeros((3, 1), dtype=complex)
        hb[0, 0] = 1.0
        sc = ChannelScenario(hb, [0.1], [1.0], SphereUncertainty([0.6]))
        v_star = 0.1 / 0.4**2
        assert song_margin(sc, v_star)[0] < 0.0

    def test_large_value_tends_to_negative_radius_squared(self):
        sc = orthonormal_scenario(4, 3, 0.1)
        np.testing.assert_allclose(song_margin(sc, 1e12), [-0.1] * 3, atol=1e-9)

    def test_rejects_nonpositive_value(self):
        sc = orthonormal_scenario(4, 3, 0.1)
        with pytest.raises(ValueError):
            song_margin(sc, 0.0)
        with pytest.raises(ValueError):
            song_margin(sc, -1.0)


class TestDirectionMargin:
    def test_orthonormal_equals_projector_version(self):
        sc = orthonormal_scenario(4, 3, 0.1)
        np.testing.assert_allclose(
            direction_margin(sc), theorem1_margin(sc), atol=1e-12
        )

    def test_never_exceeds_projector_version(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            hb = random_channels(rng, 8, 3)
            sc = ChannelScenario(
                hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([0.3] * 3)
            )
            assert np.all(direction_margin(sc) <= theorem1_margin(sc) + 1e-9)

    def test_rank_deficient_directions(self):
        hb = np.zeros((4, 2), dtype=complex)
        hb[0, 0] = 1.0
        hb[0, 1] = 2.0
        sc = ChannelScenario(
            hb, [0.1] * 2, [1.0] * 2, SphereUncertainty([0.1] * 2)
        )
        assert np.all(direction_margin(sc) < 0.0)

    def test_needs_enough_antennas(self):
        rng = np.random.default_rng(10)
        hb = random_channels(rng, 3, 4)
        sc = ChannelScenario(
            hb, [0.1] * 4, [1.0] * 4, SphereUncertainty([0.1] * 4)
        )
        with pytest.raises(ValueError):
            direction_margin(sc)


class TestCurProbabilityBound:
    def test_eta_twelve_three(self):
        eta, _ = cur_probability_bound(12, 3, 1.0, np.sqrt(0.1), 1.0)
        np.testing.assert_allclose(eta, [8.0] * 3, atol=1e-12)

    def test_base_one_gives_one_minus_k(self):
        # CUR pinned at eta * e makes every summand exactly one.
        eta = 8.0
        rho = eta * np.e * 0.1 / 12.0
        _, bound = cur_probability_bound(12, 3, rho, np.sqrt(0.1), 1.0)
        assert bound == pytest.approx(1.0 - 3.0, abs=1e-10)

    def test_table_point(self):
        # Frozen from 1 - 3 (8e/120)^10.
        _, bound = cur_probability_bound(12, 3, 1.0, np.sqrt(0.1), 1.0)
        assert bound == pytest.approx(0.9999998854082154, abs=1e-15)

    def test_rejects_wide_layouts(self):
        with pytest.raises(ValueError):
            cur_probability_bound(3, 4, 1.0, 0.1, 1.0)


class TestModelMargins:
    def test_ellipsoid_ball_reduction(self):
        rng = np.random.default_rng(12)
        hb = random_channels(rng, 4, 3)
        eps = np.sqrt(0.1)
        sphere = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([eps] * 3)
        )
        shapes = np.stack([eps**2 * np.eye(4)] * 3).astype(complex)
        ball = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, EllipsoidUncertainty(shapes)
        )
        np.testing.assert_allclose(
            model_margins(ball), theorem1_margin(sphere), atol=1e-10
        )

    def test_fdd_orthonormal(self):
        hb = np.eye(4, dtype=complex)[:, :3]
        sc = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, FddUncertainty(np.sqrt(0.05))
        )
        np.testing.assert_allclose(
            model_margins(sc), [13.333333333333332] * 3, atol=1e-12
        )

    def test_box_circumscribed_ball_reduction(self):
        rng = np.random.default_rng(14)
        hb = random_channels(rng, 4, 3)
        eps = 0.3
        sphere = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([eps] * 3)
        )
        box = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, BoxUncertainty([eps / 2.0] * 3)
        )
        np.testing.assert_allclose(
            model_margins(box), theorem1_margin(sphere), atol=1e-10
        )

    def test_rejects_sphere(self):
        sc = orthonormal_scenario(4, 3, 0.1)
        with pytest.raises(ValueError):
            model_margins(sc)


class TestFact3Check:
    def test_pure_channels_certify_with_one(self):
        rng = np.random.default_rng(16)
        hb = random_channels(rng, 4, 3)
        lifted = [
            LiftedChannel(user=i, h=hb[:, i], xi=np.zeros((4, 4), dtype=complex))
            for i in range(3)
        ]
        margins = fact3_check(lifted, [0.5, 1.0, 2.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(margins, [1.0] * 3, atol=1e-14)

    def test_boundary_multiplier(self):
        h = np.array([1.0, 0.0], dtype=complex)
        xi = np.diag([0.0, 0.25]).astype(complex)
        lifted = [LiftedChannel(user=0, h=h, xi=xi)]
        margins = fact3_check(lifted, [4.0], [1.0])
        assert margins[0] == pytest.approx(0.0, abs=1e-14)

    def test_rejects_mismatched_lengths(self):
        h = np.array([1.0], dtype=complex)
        lifted = [LiftedChannel(user=0, h=h, xi=np.zeros((1, 1), dtype=complex))]
        with pytest.raises(ValueError):
            fact3_check(lifted, [1.0, 2.0], [1.0, 1.0])

    def test_rejects_indefinite_residual(self):
        h = np.array([1.0, 0.0], dtype=complex)
        xi = np.diag([1.0, -0.5]).astype(complex)
        lifted = [LiftedChannel(user=0, h=h, xi=xi)]
        with pytest.raises(ValueError):
            fact3_check(lifted, [1.0], [1.0])

    def test_rejects_duplicate_user(self):
        h = np.array([1.0, 0.0], dtype=complex)
        xi = np.zeros((2, 2), dtype=complex)
        lifted = [LiftedChannel(0, h, xi), LiftedChannel(0, h, xi)]
        with pytest.raises(ValueError):
            fact3_check(lifted, [1.0, 1.0], [1.0, 1.0])

    def test_positive_margins_imply_rank_one(self):
        rng = np.random.default_rng(18)
        for trial in range(3):
            hb = random_channels(rng, 4, 3)
            xi = []
            for i in range(3):
                g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
                xi.append(0.003 * g @ g.conj().T)
            chans = np.stack(
                [np.outer(hb[:, i], hb[:, i].conj()) + xi[i] for i in range(3)]
            )
            program, index = build_fixed_sdp(chans, [0.1] * 3, [1.0] * 3)
            outcome = conic.solve(program)
            if outcome.status is not conic.Status.OPTIMAL:
                continue
            sol = extract_solution(index, outcome)
            lifted = [LiftedChannel(i, hb[:, i], xi[i]) for i in range(3)]
            margins = fact3_check(lifted, sol.mu, np.ones(3))
            if np.all(margins > 0.0):
                for wi in sol.W:
                    assert numerical_rank(wi, tau=1e-6) == 1


class TestProp4MuBound:
    def test_single_user_closed_form(self):
        hb = np.zeros((3, 1), dtype=complex)
        hb[0, 0] = 2.0
        sc = ChannelScenario(hb, [0.1], [1.0], SphereUncertainty([0.3]))
        bound, ok = prop4_mu_bound(sc, [0.1], user=0)
        assert ok
        assert bound == pytest.approx(0.2770083102493075, rel=1e-12)

    def test_scaled_orthonormal_value(self):
        # gap = 2 eps sqrt(gamma (K-1)) - eps clears the separation strictly
        # when gamma (K-1) > 1; denominator 0.08 - 0.02 gives bound 50.
        eps = 0.1
        hb = np.eye(4, dtype=complex)[:, :3]
        hb[:, 0] *= 2.0 * eps * np.sqrt(2.0)
        sc = ChannelScenario(
            hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([eps] * 3)
        )
        bound, ok = prop4_mu_bound(sc, [0.0, 0.0, 0.0], user=0)
        assert ok
        assert bound == pytest.approx(50.0, rel=1e-10)

    def test_inapplicable_when_separation_fails(self):
        sc = orthonormal_scenario(4, 3, 0.64)
        bound, ok = prop4_mu_bound(sc, [0.0] * 3, user=0)
        assert not ok
        assert np.isnan(bound)

    def test_dominates_solved_multiplier(self):
        rng = np.random.default_rng(20)
        checked = 0
        for trial in range(8):
            hb = random_channels(rng, 6, 3)
            sc = ChannelScenario(
                hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([0.15] * 3)
            )
            # Pure-center lifted channels leave the full radius as slack.
            bound, ok = prop4_mu_bound(sc, sc.uncertainty.radius, user=0)
            if not ok:
                continue
            chans = np.stack(
                [np.outer(hb[:, i], hb[:, i].conj()) for i in range(3)]
            )
            (prog1, _), _ = build_mu_max_pair(chans, sc.gamma, user=0)
            out1 = conic.solve(prog1)
            assert out1.status is conic.Status.OPTIMAL
            assert -out1.objective <= bound + 1e-6
            checked += 1
        assert checked >= 3

    def test_rejects_zeta_outside_radius(self):
        sc = orthonormal_scenario(4, 3, 0.01)
        with pytest.raises(ValueError):
            prop4_mu_bound(sc, [0.2, 0.0, 0.0], user=0)
        with pytest.raises(ValueError):
            prop4_mu_bound(sc, [-0.1, 0.0, 0.0], user=0)


class TestCertificateSoundness:
    def test_positive_margins_give_rank_one_solves(self):
        rng = np.random.default_rng(22)
        certified = 0
        for trial in range(6):
            hb = random_channels(rng, 8, 3)
            sc = ChannelScenario(
                hb, [0.1] * 3, [1.0] * 3, SphereUncertainty([np.sqrt(0.1)] * 3)
            )
            if not np.all(theorem1_margin(sc) > 0.0):
                continue
            program, index = build_robust_sdp(sc)
            outcome = conic.solve(program)
            if outcome.status is not conic.Status.OPTIMAL:
                continue
            sol = extract_solution(index, outcome)
            for wi in sol.W:
                assert numerical_rank(wi, tau=1e-6) == 1
            certified += 1
        assert certified >= 3

    def test_noise_scaling_preserves_ranks(self):
        rng = np.random.default_rng(24)
        hb = random_channels(rng, 4, 2)
        ranks = []
        for noise in (0.1, 0.9):
            sc = ChannelScenario(
                hb, [noise] * 2, [1.0] * 2, SphereUncertainty([0.2] * 2)
            )
            program, index = build_robust_sdp(sc)
            outcome = conic.solve(program)
            assert outcome.status is conic.Status.OPTIMAL
            sol = extract_solution(index, outcome)
            ranks.append([numerical_rank(wi, tau=1e-6) for wi in sol.W])
        assert ranks[0] == ranks[1]


class TestCertificateReport:
    def test_sphere_report_fields(self):
        sc = orthonormal_scenario(4, 3, 0.1)
        report = certificate_report(sc, v_star=0.5)
        assert isinstance(report, CertificateReport)
        np.testing.assert_allclose(report.beta, [1.0] * 3, atol=1e-10)
        assert report.sigma_min == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(report.theorem1, [10.0 - 20.0 / 3.0] * 3)
        assert report.song is not None
        assert report.direction is not None
        assert report.ellipsoid is None and report.fdd is None
        assert report.box is None
        np.testing.assert_allclose(report.cur, [10.0] * 3, atol=1e-10)
        assert report.holds_all
        np.testing.assert_array_equal(report.holds, report.theorem1 > 0.0)

    def test_sphere_report_without_value_skips_posterior(self):
        sc = orthonormal_scenario(4, 3, 0.1)
        assert certificate_report(sc).song is None

    def test_ellipsoid_report(self):
        rng = np.random.default_rng(26)
        hb = random_channels(rng, 4, 2)
        shapes = np.stack([0.01 * np.eye(4)] * 2).astype(complex)
        sc = ChannelScenario(
            hb, [0.1] * 2, [1.0] * 2, EllipsoidUncertainty(shapes)
        )
        report = certificate_report(sc)
        assert report.theorem1 is None
        assert report.ellipsoid is not None
        np.testing.assert_array_equal(report.holds, report.ellipsoid > 0.0)

    @pytest.mark.parametrize(
        "model", [FddUncertainty(0.1), BoxUncertainty([0.05] * 2)], ids=["fdd", "box"]
    )
    def test_fdd_and_box_reports(self, model):
        """The model's own field holds model_margins and decides holds; the
        ball-only and other models' fields stay empty."""
        hb = random_channels(np.random.default_rng(27), 4, 2)
        sc = ChannelScenario(hb, [0.1] * 2, [1.0] * 2, model)
        report = certificate_report(sc, v_star=0.5)
        margins = report.fdd if model.kind == "fdd" else report.box
        np.testing.assert_array_equal(margins, model_margins(sc))
        other = report.box if model.kind == "fdd" else report.fdd
        assert other is None and report.ellipsoid is None
        assert report.theorem1 is None and report.song is None and report.cur is None
        assert report.direction is None and report.probability_bound is None
        np.testing.assert_array_equal(report.holds, margins > 0.0)
        assert report.holds_all == bool(np.all(margins > 0.0))

    def test_wide_layout_skips_spectrum_fields(self):
        rng = np.random.default_rng(28)
        hb = random_channels(rng, 3, 4)
        sc = ChannelScenario(
            hb, [0.1] * 4, [1.0] * 4, SphereUncertainty([0.1] * 4)
        )
        report = certificate_report(sc)
        assert report.direction is None
        assert report.cur is None
        assert report.probability_bound is None

    def test_zero_column_skips_direction_quantities(self):
        hb = np.zeros((4, 2), dtype=complex)
        hb[0, 0] = 1.0
        sc = ChannelScenario(
            hb, [0.1] * 2, [1.0] * 2, SphereUncertainty([0.1] * 2)
        )
        report = certificate_report(sc)
        assert report.sigma_min is None
        assert report.direction is None
