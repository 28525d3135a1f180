import dataclasses
import os

import numpy as np
import pytest

from robust_miso import conic
from robust_miso import harness
from robust_miso.certificates import projector_gains, theorem1_margin
from robust_miso.formulations import (
    ChannelScenario,
    DesignSolution,
    SphereUncertainty,
    build_fixed_sdp,
    build_robust_sdp,
    extract_solution,
)
from robust_miso.harness import (
    MmfResult,
    StudyConfig,
    certificate_study,
    counterexample_instance,
    duality_audit,
    gap_audit,
    kkt_rank_audit,
    mmf_rate,
    rank_study,
    sample_scenario,
)


def solve_robust(scenario):
    program, index = build_robust_sdp(scenario)
    outcome = conic.solve(program)
    assert outcome.status is conic.Status.OPTIMAL
    return extract_solution(index, outcome)


def orthonormal_scenario(n, k, eps, rate=1.0, noise=0.1):
    hb = np.eye(n, dtype=complex)[:, :k]
    return ChannelScenario(hb, [noise] * k, [rate] * k, SphereUncertainty([eps] * k))


@pytest.fixture(scope="module")
def solved_sample():
    scenario = sample_scenario(11, 4, 3, 1.0, 0.1, 0.1, 1.0)
    return scenario, solve_robust(scenario)


class TestSampleScenario:
    def test_deterministic_under_seed(self):
        a = sample_scenario(42, 5, 3, 1.0, 0.1, 0.1, 1.5)
        b = sample_scenario(42, 5, 3, 1.0, 0.1, 0.1, 1.5)
        np.testing.assert_array_equal(a.presumed, b.presumed)
        np.testing.assert_array_equal(a.rate_target, b.rate_target)
        np.testing.assert_array_equal(a.uncertainty.radius, b.uncertainty.radius)

    def test_tuple_seed_matches_seed_sequence_spawn(self):
        a = sample_scenario((3, 1, 4), 4, 2, 1.0, 0.1, 0.1, 1.0)
        b = sample_scenario((3, 1, 4), 4, 2, 1.0, 0.1, 0.1, 1.0)
        np.testing.assert_array_equal(a.presumed, b.presumed)

    def test_column_norm_law_of_large_numbers(self):
        # E ||h_i||^2 = rho * n for entries (g1 + i g2) sqrt(rho/2).
        rho, n = 2.0, 4
        total, count = 0.0, 0
        for seed in range(100):
            sc = sample_scenario(seed, n, 100, rho, 0.1, 0.1, 1.0)
            total += np.sum(np.linalg.norm(sc.presumed, axis=0) ** 2)
            count += 100
        mean = total / count
        assert abs(mean - rho * n) <= 0.03 * rho * n

    def test_projector_gain_chi_square_mean(self):
        # ||proj_perp h_k||^2 is (1/2) chi^2 with 2(n - k + 1) degrees of
        # freedom at rho = 1, so its mean is n - k + 1.
        n, k = 12, 3
        values = []
        for seed in range(1200):
            sc = sample_scenario(seed, n, k, 1.0, 0.1, 0.1, 1.0)
            values.extend(projector_gains(sc.presumed) ** 2)
        mean = np.mean(values)
        expect = n - k + 1
        assert abs(mean - expect) <= 0.03 * expect

    def test_scenario_fields(self):
        sc = sample_scenario(0, 6, 2, 1.0, 0.2, 0.09, 1.7)
        assert sc.n_antennas == 6 and sc.n_users == 2
        np.testing.assert_allclose(sc.noise_power, [0.2, 0.2])
        np.testing.assert_allclose(sc.rate_target, [1.7, 1.7])
        np.testing.assert_allclose(sc.uncertainty.radius, [0.3, 0.3])


class TestStudyConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            StudyConfig(n_antennas=4, n_users=2, rates=(1.0,), trials=0)

    def test_rejects_unsorted_rates(self):
        with pytest.raises(ValueError, match="increasing"):
            StudyConfig(n_antennas=4, n_users=2, rates=(2.0, 1.0), trials=1)

    def test_rejects_empty_or_nonpositive_rates(self):
        with pytest.raises(ValueError):
            StudyConfig(n_antennas=4, n_users=2, rates=(), trials=1)
        with pytest.raises(ValueError):
            StudyConfig(n_antennas=4, n_users=2, rates=(0.0, 1.0), trials=1)

    @pytest.mark.parametrize("rates", [(float("nan"),), (1.0, float("inf")), (0.5, float("nan"))])
    def test_rejects_nonfinite_rates(self, rates):
        with pytest.raises(ValueError, match="rates must be positive and finite"):
            StudyConfig(n_antennas=4, n_users=2, rates=rates, trials=1)

    @pytest.mark.parametrize("seed", [-1, True, 2.0, "3", None])
    def test_rejects_seed_that_is_not_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            StudyConfig(n_antennas=4, n_users=2, rates=(1.0,), trials=1, seed=seed)

    def test_accepts_numpy_integer_seed(self):
        assert StudyConfig(n_antennas=4, n_users=2, rates=(1.0,), trials=1, seed=np.int64(3)).seed == 3


class TestRankStudy:
    def test_easy_cell_all_feasible_rank_one(self):
        # Scaled-down version of the generous-antenna table cell; the full
        # 200-trial cell runs in the acceptance suite.
        cfg = StudyConfig(n_antennas=8, n_users=3, rates=(2.3165,), trials=20, seed=1)
        row = rank_study(cfg).rows[0]
        assert row.feasible == 20
        assert row.rank_one == 20
        assert row.failures == 0

    def test_hopeless_cell_all_infeasible(self):
        cfg = StudyConfig(n_antennas=4, n_users=3, rates=(6.0022,), trials=20, seed=1)
        row = rank_study(cfg).rows[0]
        assert row.feasible == 0
        assert row.rank_one == 0

    def test_reports_bit_identical(self):
        cfg = StudyConfig(n_antennas=4, n_users=3, rates=(0.5, 2.0), trials=4, seed=7)
        assert rank_study(cfg).rows == rank_study(cfg).rows

    def test_count_invariants(self):
        cfg = StudyConfig(n_antennas=4, n_users=3, rates=(1.0, 3.5), trials=8, seed=3)
        for row in rank_study(cfg).rows:
            assert 0 <= row.rank_one <= row.feasible <= row.trials
            assert 0 <= row.song_holds <= row.feasible
            assert 0 <= row.thm1_holds <= row.trials
            assert row.failures >= 0
            assert row.feasible + row.failures <= row.trials

    def test_worker_pool_matches_serial(self, monkeypatch):
        cfg = StudyConfig(n_antennas=4, n_users=3, rates=(0.5, 2.0), trials=6, seed=7)
        serial = rank_study(cfg)
        monkeypatch.setenv(harness.THREADS_ENV, "2")
        assert rank_study(cfg).rows == serial.rows

    def test_garbage_thread_env_means_serial(self, monkeypatch):
        monkeypatch.setenv(harness.THREADS_ENV, "lots")
        assert harness._study_workers() == 1

    def test_huge_thread_env_capped_at_usable_cpus(self, monkeypatch):
        # Only the worker count is read: no pool is started and no study runs.
        monkeypatch.setenv(harness.THREADS_ENV, "100000")
        workers = harness._study_workers()
        assert 1 <= workers <= (os.cpu_count() or 1)
        if hasattr(os, "sched_getaffinity"):
            assert workers == len(os.sched_getaffinity(0))

    def test_observer_sees_every_trial_in_order(self):
        cfg = StudyConfig(n_antennas=4, n_users=2, rates=(0.5, 1.5), trials=3, seed=5)
        seen = []

        def observer(rate_idx, trial, scenario, outcome, solution):
            seen.append((rate_idx, trial))
            assert scenario.n_users == 2
            if outcome.status is conic.Status.OPTIMAL:
                assert solution is not None
                assert solution.objective == pytest.approx(outcome.objective)
            else:
                assert solution is None

        rank_study(cfg, observer=observer)
        assert seen == [(i, t) for i in range(2) for t in range(3)]

    def test_certified_trials_are_rank_one(self):
        # Spot check of the soundness invariant: positive margins plus an
        # Optimal solve never classify as higher-rank.
        cfg = StudyConfig(n_antennas=8, n_users=3, rates=(2.0,), trials=10, seed=2)
        checked = 0

        def observer(rate_idx, trial, scenario, outcome, solution):
            nonlocal checked
            if solution is None:
                return
            if np.all(theorem1_margin(scenario) > 0.0):
                assert all(w_rank == 1 for w_rank in _ranks(solution))
                checked += 1

        def _ranks(solution):
            from robust_miso.hermitian import numerical_rank

            return [numerical_rank(wi) for wi in solution.W]

        rank_study(cfg, observer=observer)
        assert checked > 0


class TestCertificateStudy:
    def test_probabilities_match_counts(self):
        cfg = StudyConfig(n_antennas=4, n_users=3, rates=(0.5, 2.0), trials=5, seed=7)
        counts = rank_study(cfg)
        probs = certificate_study(cfg)
        for crow, rrow in zip(probs.rows, counts.rows):
            assert crow.rate == rrow.rate
            assert crow.thm1_prob == rrow.thm1_holds / rrow.trials
            assert crow.song_prob == rrow.song_holds / rrow.trials
            assert crow.feasible_prob == rrow.feasible / rrow.trials

    def test_tall_layout_low_rate_certificate_tracks_feasibility(self):
        # With many antennas and a low rate both probabilities saturate and
        # the empirical fraction respects the analytic lower bound.
        cfg = StudyConfig(n_antennas=12, n_users=3, rates=(1.0,), trials=10, seed=0)
        row = certificate_study(cfg).rows[0]
        assert row.feasible_prob == 1.0
        assert row.thm1_prob == 1.0
        assert 0.999 < row.prop1_bound < 1.0
        assert row.thm1_prob >= row.prop1_bound

    def test_vanishing_uncertainty_saturates_certificate(self):
        cfg = StudyConfig(
            n_antennas=4, n_users=3, rates=(1.0,), trials=200, seed=4, eps2=1e-6
        )
        row = certificate_study(cfg).rows[0]
        assert row.thm1_prob == 1.0

    def test_wide_layout_bound_is_nan(self):
        cfg = StudyConfig(n_antennas=3, n_users=4, rates=(0.25,), trials=3, seed=9)
        row = certificate_study(cfg).rows[0]
        assert np.isnan(row.prop1_bound)


class TestMmfRate:
    def test_single_user_closed_form(self):
        # One user with unit presumed norm and radius 0.2: the robust power
        # at rate r is gamma(r) sigma^2 / (1 - 0.2)^2, so the budget P
        # inverts to r = log2(1 + 0.64 P / sigma^2).
        h = np.zeros((3, 1), dtype=complex)
        h[0, 0] = 1.0
        sc = ChannelScenario(h, [0.1], [1.0], SphereUncertainty([0.2]))
        result = mmf_rate(sc, p_total=2.0)
        expect = np.log2(1.0 + 2.0 * 0.64 / 0.1)
        assert result.feasible
        assert result.rate == pytest.approx(expect, abs=1.5e-3)
        assert result.power <= 2.0

    def test_orthonormal_near_perfect_csi(self):
        # The ball model requires a positive radius, so a vanishing one
        # stands in for perfect CSI: equal power split over orthonormal
        # channels gives r = log2(1 + P / (K sigma^2)).
        sc = orthonormal_scenario(4, 3, eps=1e-7)
        result = mmf_rate(sc, p_total=3.0)
        expect = np.log2(1.0 + 3.0 / (3 * 0.1))
        assert result.rate == pytest.approx(expect, abs=2e-3)

    def test_doubling_power_raises_rate(self):
        sc = sample_scenario(8, 3, 2, 1.0, 0.1, 0.04, 1.0)
        low = mmf_rate(sc, p_total=1.0)
        high = mmf_rate(sc, p_total=2.0)
        assert high.rate > low.rate + 1e-3

    def test_bisection_bracket(self):
        sc = sample_scenario(2, 3, 2, 1.0, 0.1, 0.04, 1.0)
        tol = 1e-2
        result = mmf_rate(sc, p_total=1.5, tol_bits=tol)
        assert result.feasible and result.power <= 1.5
        above = dataclasses.replace(
            sc, rate_target=np.full(2, result.rate + 2 * tol)
        )
        outcome = conic.solve(build_robust_sdp(above)[0])
        assert (
            outcome.status is not conic.Status.OPTIMAL
            or outcome.objective > 1.5
        )

    def test_zero_budget_flagged(self):
        sc = sample_scenario(0, 3, 2, 1.0, 0.1, 0.04, 1.0)
        assert mmf_rate(sc, p_total=0.0) == MmfResult(0.0, 0.0, False)

    def test_unreachable_tolerance_flagged(self):
        # Tiny budget against huge noise: even the optimistic bracket end
        # sits below the bit tolerance.
        h = np.zeros((2, 1), dtype=complex)
        h[0, 0] = 1.0
        sc = ChannelScenario(h, [1e6], [1.0], SphereUncertainty([0.1]))
        result = mmf_rate(sc, p_total=1e-3)
        assert result == MmfResult(0.0, 0.0, False)

    def test_failed_probes_reported(self):
        # One interior-point iteration cannot certify any rate, so the one
        # probe, at tol_bits, fails numerically and must be counted, not
        # hidden.
        sc = sample_scenario(0, 3, 2, 1.0, 0.1, 0.04, 1.0)
        result = mmf_rate(sc, p_total=2.0, settings=conic.SolverSettings(max_iter=1))
        assert result == MmfResult(0.0, 0.0, False, failed_probes=1)
        assert mmf_rate(sc, p_total=2.0).failed_probes == 0

    def test_rejects_bad_tolerance(self):
        sc = sample_scenario(0, 3, 2, 1.0, 0.1, 0.04, 1.0)
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol_bits"):
                mmf_rate(sc, p_total=1.0, tol_bits=tol)


class TestDualityAudit:
    def test_multiplier_member_meets_robust_power(self, solved_sample):
        scenario, solution = solved_sample
        report = duality_audit(scenario, solution, samples=1)
        assert report.evaluated == 1
        assert report.violations == 0
        assert report.p_best <= report.v_star + 1e-6
        assert report.gap <= 1e-6 * report.v_star

    def test_single_user_witness_closes_gap(self):
        # For one user the worst channel is the presumed one shrunk by the
        # radius; its fixed-channel power equals the robust optimum.
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        sc = ChannelScenario(h, [0.1], [1.5], SphereUncertainty([0.3]))
        solution = solve_robust(sc)
        worst = (1.0 - 0.3 / np.linalg.norm(h)) * h[:, 0]
        chans = np.stack([np.outer(worst, worst.conj())])
        outcome = conic.solve(build_fixed_sdp(chans, sc.noise_power, sc.gamma)[0])
        assert outcome.status is conic.Status.OPTIMAL
        assert abs(outcome.objective - solution.objective) <= 1e-6

    def test_hundred_samples_no_violations(self, solved_sample):
        scenario, solution = solved_sample
        report = duality_audit(scenario, solution, samples=100, seed=3)
        assert report.evaluated == 100
        assert report.violations == 0
        assert report.failures == 0
        assert report.gap >= -1e-6

    @pytest.mark.parametrize("n,k", [(4, 3), (8, 3), (8, 7)], ids=["4x3", "8x3", "8x7"])
    def test_multiplier_members_close_gap(self, n, k):
        # Every user's LMI multiplier gives a lifted channel whose
        # fixed-channel power is v_star. The 8x7 design forms its W part
        # factored by user, so its dual slack comes through that path.
        scenario = sample_scenario(0, n, k, 1.0, 0.1, 0.1, 1.0)
        solution = solve_robust(scenario)
        report = duality_audit(scenario, solution, samples=4, seed=2)
        assert report.gap <= 1e-6 * report.v_star
        assert report.violations == 0
        assert report.failures == 0
        assert len(report.best_members) == k
        eps2 = scenario.uncertainty.radius**2
        for member in report.best_members:
            assert member.membership_slack(scenario) >= -1e-12 * eps2[member.user]
            lam = np.linalg.eigvalsh(member.xi)
            assert lam[0] >= -1e-12 * lam[-1]

    def test_multiplier_member_shrinks_into_budget(self, solved_sample):
        # diag(2 I, 1) Y diag(2 I, 1) is still PSD but doubles y12/y22 and
        # quadruples xi, so the member is four times over budget. Shrinking
        # must put it on the boundary, at about the unscaled member.
        scenario, solution = solved_sample
        d = np.r_[np.full(scenario.n_antennas, 2.0), 1.0]
        eps2 = scenario.uncertainty.radius**2
        for user, y in enumerate(solution.Y):
            base = harness._multiplier_member(scenario, y, user)
            shrunk = harness._multiplier_member(scenario, d[:, None] * y * d, user)
            assert abs(shrunk.membership_slack(scenario)) <= 1e-12 * eps2[user]
            np.testing.assert_allclose(shrunk.h, base.h, rtol=1e-6)
            np.testing.assert_allclose(shrunk.xi, base.xi, rtol=1e-6, atol=1e-9)

    def test_failed_member_solves_counted(self, solved_sample):
        # One interior-point iteration certifies no member power: every
        # sample is a failure and none is evaluated.
        scenario, solution = solved_sample
        settings = conic.SolverSettings(max_iter=1)
        report = duality_audit(scenario, solution, samples=3, settings=settings)
        assert (report.evaluated, report.violations, report.failures) == (0, 0, 3)
        assert report.p_best == -np.inf and report.gap == np.inf

    def test_violations_counted_against_a_halved_objective(self, solved_sample):
        # A design claiming half its power: the multiplier member's power
        # (v_star itself) and every sampled one above v_star / 2 violate.
        scenario, solution = solved_sample
        honest = duality_audit(scenario, solution, samples=4, seed=1)
        halved = dataclasses.replace(solution, objective=0.5 * solution.objective)
        report = duality_audit(scenario, halved, samples=4, seed=1)
        assert (report.evaluated, report.failures) == (4, 0)
        assert honest.violations == 0 and report.violations >= 1
        assert report.p_best == honest.p_best
        assert report.gap == pytest.approx(report.v_star - honest.p_best)
        assert report.gap < 0

    def test_rejects_design_without_multipliers(self, solved_sample):
        scenario, solution = solved_sample
        chans = np.stack([np.outer(h, h.conj()) for h in scenario.presumed.T])
        program, index = build_fixed_sdp(chans, scenario.noise_power, scenario.gamma)
        outcome = conic.solve(program)
        assert outcome.status is conic.Status.OPTIMAL
        fixed = extract_solution(index, outcome)
        hand_built = DesignSolution(W=solution.W, objective=solution.objective)
        for design in (fixed, hand_built):
            with pytest.raises(ValueError, match="robust solution with multipliers"):
                duality_audit(scenario, design)

    def test_rejects_other_models_and_bad_counts(self, solved_sample):
        scenario, solution = solved_sample
        from robust_miso.formulations import BoxUncertainty

        boxed = ChannelScenario(
            scenario.presumed,
            scenario.noise_power,
            scenario.rate_target,
            BoxUncertainty(np.full(3, 0.05)),
        )
        with pytest.raises(ValueError, match="ball"):
            duality_audit(boxed, solution)
        with pytest.raises(ValueError, match="samples"):
            duality_audit(scenario, solution, samples=0)


class TestCounterexampleInstance:
    def test_frozen_reference_point(self):
        sc, rec = counterexample_instance(5, 5, 1.0)
        assert rec.radius == pytest.approx(0.042806973496989774, rel=1e-14)
        assert rec.delta_max == pytest.approx(24 - 10 * np.sqrt(5), rel=1e-14)
        assert rec.gamma == 124.75
        assert rec.rate_bound == pytest.approx(125.0, rel=1e-12)
        assert rec.rate_ok
        np.testing.assert_allclose(sc.presumed, np.eye(5, dtype=complex))
        np.testing.assert_allclose(sc.rate_target, np.log2(1 + 124.75))

    def test_analytic_bounds_match_formulas(self):
        n = k = 5
        sc, rec = counterexample_instance(n, k, 1.0, noise_power=0.1)
        eps = 1.0 / (2 * n * np.sqrt(k) + 1)
        gamma = (4 * n * n * k - 1.0) / (k - 1)
        lower = k * 0.1 / ((1 + eps**2 / n) / gamma - (k - 1) * eps**2 / n)
        upper = k * gamma * 0.1 / (1 - np.sqrt(k) * eps) ** 2
        assert rec.lower_v == pytest.approx(lower, rel=1e-14)
        assert rec.upper_d == pytest.approx(upper, rel=1e-14)
        assert rec.lower_v == pytest.approx(76.30069503120546, rel=1e-12)
        assert rec.upper_d == pytest.approx(76.27883254946389, rel=1e-12)
        assert rec.strict_gap_ok

    def test_margin_vanishes_at_construction_boundary(self):
        margins = []
        for delta in (0.5, 1.0, 1.5, 0.999 * (24 - 10 * np.sqrt(5))):
            _, rec = counterexample_instance(5, 5, delta)
            assert rec.strict_gap_ok
            margins.append(rec.lower_v - rec.upper_d)
        assert all(a > b for a, b in zip(margins, margins[1:]))
        assert margins[-1] < 1e-4

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n >= k >= 5"):
            counterexample_instance(4, 4, 0.5)
        with pytest.raises(ValueError, match="n >= k >= 5"):
            counterexample_instance(5, 6, 0.5)
        with pytest.raises(ValueError, match="delta"):
            counterexample_instance(5, 5, 0.0)
        with pytest.raises(ValueError, match="delta"):
            counterexample_instance(5, 5, 24 - 10 * np.sqrt(5))
        with pytest.raises(ValueError, match="noise"):
            counterexample_instance(5, 5, 1.0, noise_power=0.0)


@pytest.fixture(scope="module")
def reference_audit():
    sc, rec = counterexample_instance(5, 5, 1.0)
    return rec, gap_audit(sc, rec)


class TestGapAudit:
    def test_all_flags_pass(self, reference_audit):
        rec, report = reference_audit
        assert report.analytic_ok
        assert report.v_above_lower and report.d_below_upper
        assert report.numeric_gap_ok and report.control_ok
        assert report.passed and not report.inconclusive

    def test_fixed_value_matches_decoupled_closed_form(self, reference_audit):
        # Orthonormal presumed channels decouple the fixed problem, so
        # d equals K gamma sigma^2 exactly.
        rec, report = reference_audit
        assert report.numeric_d == pytest.approx(5 * 124.75 * 0.1, abs=1e-6)
        assert report.control_primal == pytest.approx(report.numeric_d, abs=1e-6)

    def test_robust_value_within_analytic_bracket(self, reference_audit):
        # Upper end of the bracket comes from the uniform feasible design
        # along the presumed directions.
        rec, report = reference_audit
        eps, gamma, k = rec.radius, rec.gamma, rec.k
        step1_power = k * 0.1 / ((1 - eps) ** 2 / gamma - (k - 1) * eps**2)
        assert rec.lower_v - 1e-6 <= report.numeric_v <= step1_power

    def test_solver_failure_flagged_inconclusive(self):
        sc, rec = counterexample_instance(5, 5, 1.0)
        report = gap_audit(sc, rec, settings=conic.SolverSettings(max_iter=1))
        assert report.inconclusive
        assert not report.passed
        assert report.numeric_v is None


class TestKktRankAudit:
    def test_solved_instance_passes(self, solved_sample):
        _, solution = solved_sample
        report = kkt_rank_audit(solution)
        assert report.passed
        assert report.t_positive and report.t_min > 1e-9
        assert all(r == 1 for r in report.ranks_w)
        n = solution.W.shape[1]
        assert all(r <= n for r in report.ranks_z)

    def test_rank_inequality_budget(self, solved_sample):
        _, solution = solved_sample
        report = kkt_rank_audit(solution)
        n = solution.W.shape[1]
        k = solution.n_users
        lhs = sum(r**2 for r in report.ranks_w)
        rhs = k * (n**2 + 2 * n) - sum(r**2 for r in report.ranks_z)
        assert lhs <= rhs

    def test_single_user(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        sc = ChannelScenario(h, [0.1], [1.2], SphereUncertainty([0.2]))
        report = kkt_rank_audit(solve_robust(sc))
        assert report.passed and report.ranks_w == (1,)

    def test_noise_scaling_leaves_audit_invariant(self):
        base = sample_scenario(13, 4, 2, 1.0, 0.1, 0.04, 1.0)
        scaled = ChannelScenario(
            base.presumed,
            9.0 * base.noise_power,
            base.rate_target,
            base.uncertainty,
        )
        rep_a = kkt_rank_audit(solve_robust(base))
        rep_b = kkt_rank_audit(solve_robust(scaled))
        assert rep_a.passed and rep_b.passed
        assert rep_a.ranks_w == rep_b.ranks_w
        assert rep_b.t_min == pytest.approx(9.0 * rep_a.t_min, rel=1e-4)

    def test_requires_robust_solution(self, solved_sample):
        _, solution = solved_sample
        stripped = dataclasses.replace(solution, Z=None, t=None)
        with pytest.raises(ValueError, match="robust"):
            kkt_rank_audit(stripped)
