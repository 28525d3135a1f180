"""End-to-end acceptance runs for the headline guarantees.

One test per criterion, each printing a single pass/fail verdict through
pytest. The table-reproduction study is computed once per module and feeds
the soundness, worst-case-margin, and structural-audit criteria; everything
else runs inline. Expect several minutes of wall time, dominated by the
four thousand robust solves of the table study.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.optimize

from robust_miso import conic
from robust_miso.certificates import (
    cur_probability_bound,
    prop4_mu_bound,
    theorem1_margin,
)
from robust_miso.conic import (
    ConicProgram,
    NonNeg,
    Psd,
    Status,
    cone_distance,
    solve,
    svec,
)
from robust_miso.formulations import (
    ChannelScenario,
    EllipsoidUncertainty,
    SphereUncertainty,
    _ball_samples,
    build_fixed_sdp,
    build_mu_max_pair,
    build_robust_sdp,
    extract_solution,
    worst_case_margin,
)
from robust_miso.harness import (
    StudyConfig,
    counterexample_instance,
    duality_audit,
    gap_audit,
    kkt_rank_audit,
    mmf_rate,
    rank_study,
    sample_scenario,
)

TABLE_RATES = (0.1375, 0.2122, 0.3233, 0.4835, 0.7057, 1.0, 1.3701, 1.8122, 2.3165, 2.8698)
SEED = 2026


@dataclass
class StudyEvidence:
    """Everything the table study yields beyond its count rows."""

    reports: dict = field(default_factory=dict)
    empty_cell: object = None
    elapsed: float = 0.0
    margin_pairs: int = 0
    worst_margin: float = -np.inf
    audited: int = 0
    audit_failures: int = 0
    certified: int = 0
    certified_higher_rank: int = 0
    certified_by_shape: dict = field(default_factory=dict)


@pytest.fixture(scope="module")
def table_evidence():
    evidence = StudyEvidence()

    def observer(rate_idx, trial, scenario, outcome, solution):
        if solution is None:
            return
        audit = kkt_rank_audit(solution)
        evidence.audited += 1
        evidence.audit_failures += not audit.passed
        for user in range(scenario.n_users):
            margin = worst_case_margin(solution, scenario, user)
            evidence.margin_pairs += 1
            evidence.worst_margin = max(evidence.worst_margin, margin)
        if np.all(theorem1_margin(scenario) > 0.0):
            shape = (scenario.n_antennas, scenario.n_users)
            evidence.certified += 1
            evidence.certified_by_shape[shape] = (
                evidence.certified_by_shape.get(shape, 0) + 1
            )
            if any(r != 1 for r in audit.ranks_w):
                evidence.certified_higher_rank += 1

    start = time.time()
    for n, k in ((4, 3), (8, 3)):
        cfg = StudyConfig(
            n_antennas=n, n_users=k, rates=TABLE_RATES, trials=200, seed=SEED
        )
        evidence.reports[(n, k)] = rank_study(cfg, observer=observer)
    empty_cfg = StudyConfig(
        n_antennas=4, n_users=3, rates=(6.0022,), trials=200, seed=SEED
    )
    evidence.empty_cell = rank_study(empty_cfg).rows[0]
    evidence.elapsed = time.time() - start

    # A tight-layout batch so the soundness evidence spans all three shapes.
    cfg87 = StudyConfig(
        n_antennas=8, n_users=7, rates=(0.7057,), trials=50, seed=SEED
    )
    rank_study(cfg87, observer=observer)
    return evidence


def test_criterion_01_table_rank_one_occurrence(table_evidence):
    for shape, report in table_evidence.reports.items():
        for row in report.rows:
            assert row.failures == 0, (shape, row)
            assert row.feasible > 0, (shape, row)
            fraction = row.rank_one / row.feasible
            assert fraction >= 0.99, (shape, row)
    assert table_evidence.empty_cell.feasible == 0
    assert table_evidence.elapsed < 600.0


def test_criterion_02_certificate_soundness_at_scale(table_evidence):
    assert table_evidence.certified >= 500
    assert table_evidence.certified_higher_rank == 0
    for shape in ((4, 3), (8, 3), (8, 7)):
        assert table_evidence.certified_by_shape.get(shape, 0) > 0, shape


def test_criterion_03_worst_case_margins(table_evidence):
    # Ball-model pairs come from the table study; an ellipsoid batch of its
    # own brings the second exactly-evaluated model into the count.
    pairs = table_evidence.margin_pairs
    worst = table_evidence.worst_margin
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    for i in range(120):
        sc = sample_scenario((SEED, 3, i), 4, 3, 1.0, 0.1, 0.1, 1.0)
        shapes = []
        for _ in range(3):
            q, _ = np.linalg.qr(
                rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            )
            lam = 0.1 * rng.uniform(0.3, 1.0, 4)
            shapes.append(q @ np.diag(lam) @ q.conj().T)
        sc = ChannelScenario(
            sc.presumed,
            sc.noise_power,
            sc.rate_target,
            EllipsoidUncertainty(np.stack(shapes)),
        )
        program, index = build_robust_sdp(sc)
        outcome = conic.solve(program)
        if outcome.status is not Status.OPTIMAL:
            continue
        solution = extract_solution(index, outcome)
        for user in range(3):
            worst = max(worst, worst_case_margin(solution, sc, user))
            pairs += 1
            checked += 1
    assert checked > 0
    assert pairs >= 1000
    assert worst <= 1e-6


def test_criterion_04_single_user_closed_forms():
    rng = np.random.default_rng(SEED + 4)
    for i in range(100):
        n = int(rng.integers(2, 7))
        h = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
        norm = np.linalg.norm(h)
        eps = float(rng.uniform(0.05, 0.5)) * norm
        rate = float(rng.uniform(0.25, 3.0))
        sigma2 = float(rng.uniform(0.05, 0.5))
        sc = ChannelScenario(h, [sigma2], [rate], SphereUncertainty([eps]))
        outcome = conic.solve(build_robust_sdp(sc)[0])
        assert outcome.status is Status.OPTIMAL, (i, outcome.status)
        expect = sc.gamma[0] * sigma2 / (norm - eps) ** 2
        assert abs(outcome.objective - expect) <= 1e-6 * expect, i
        p_total = float(rng.uniform(0.5, 4.0))
        result = mmf_rate(sc, p_total)
        expect_rate = np.log2(1.0 + p_total * (norm - eps) ** 2 / sigma2)
        assert result.feasible, i
        assert abs(result.rate - expect_rate) <= 1e-3 + 1e-6, i


def test_criterion_05_duality_audits():
    for i in range(50):
        sc = sample_scenario((SEED, 5, i), 4, 3, 1.0, 0.1, 0.1, 1.0)
        program, index = build_robust_sdp(sc)
        outcome = conic.solve(program)
        assert outcome.status is Status.OPTIMAL, (i, outcome.status)
        solution = extract_solution(index, outcome)
        report = duality_audit(sc, solution, samples=100, seed=i)
        assert report.evaluated == 100, i
        assert report.gap <= 1e-6 * report.v_star, i
        assert report.violations == 0, i
        assert report.failures == 0, i
    # Single-user strong duality witnessed exactly by the shrunk channel.
    rng = np.random.default_rng(SEED + 5)
    h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    sc = ChannelScenario(h, [0.1], [1.5], SphereUncertainty([0.3]))
    outcome = conic.solve(build_robust_sdp(sc)[0])
    assert outcome.status is Status.OPTIMAL
    worst = (1.0 - 0.3 / np.linalg.norm(h)) * h[:, 0]
    chans = np.stack([np.outer(worst, worst.conj())])
    inner = conic.solve(build_fixed_sdp(chans, sc.noise_power, sc.gamma)[0])
    assert inner.status is Status.OPTIMAL
    assert abs(inner.objective - outcome.objective) <= 1e-6


def test_criterion_06_counterexample_gap():
    scenario, record = counterexample_instance(5, 5, 1.0, noise_power=0.1)
    assert record.lower_v > record.upper_d
    report = gap_audit(scenario, record)
    assert not report.inconclusive
    assert report.v_above_lower and report.d_below_upper
    assert report.numeric_v > report.numeric_d + 1e-6
    # No-uncertainty control: at radius zero the robust program is the
    # fixed-channel program, whose primal and dual values must coincide.
    assert report.control_ok
    assert abs(report.control_primal - report.numeric_d) <= 1e-6
    assert report.passed


def test_criterion_07_probability_bound():
    trials = 2000
    holds = 0
    for trial in range(trials):
        sc = sample_scenario((SEED, 7, trial), 12, 3, 1.0, 0.1, 0.1, 1.0)
        holds += bool(np.all(theorem1_margin(sc) > 0.0))
    p_hat = holds / trials
    _, bound = cur_probability_bound(12, 3, 1.0, np.sqrt(0.1), 1.0)
    stderr = np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    assert p_hat >= bound - 3.0 * stderr


def test_criterion_08_structural_audit(table_evidence):
    assert table_evidence.audited > 0
    assert table_evidence.audit_failures == 0


def test_criterion_09_mu_bound_audit():
    rng = np.random.default_rng(SEED + 9)
    checked = 0
    attempts = 0
    while checked < 50:
        attempts += 1
        assert attempts <= 400, "separation condition too rarely satisfied"
        sc = sample_scenario((SEED, 9, attempts), 6, 3, 1.0, 0.1, 0.1, 1.0)
        zeta = 0.5 * np.sqrt(0.1)
        bound, applicable = prop4_mu_bound(sc, zeta, 0)
        if not applicable:
            continue
        drawn = np.stack(
            [
                sc.presumed[:, i] + _ball_samples(rng, 1, 6, zeta)[0]
                for i in range(3)
            ],
            axis=1,
        )
        chans = np.stack([np.outer(drawn[:, i], drawn[:, i].conj()) for i in range(3)])
        (program, _), _ = build_mu_max_pair(chans, sc.gamma, 0)
        outcome = conic.solve(program)
        assert outcome.status is Status.OPTIMAL, attempts
        mu_star = -outcome.objective
        assert mu_star <= bound + 1e-6, (attempts, mu_star, bound)
        checked += 1


def _rand_pd(order, rng, shift=0.5):
    g = rng.standard_normal((order, order))
    return g @ g.T + shift * np.eye(order)


def _cone_point(cones, rng):
    parts = []
    for cone in cones:
        if isinstance(cone, NonNeg):
            parts.append(rng.uniform(0.3, 3.0, cone.length))
        else:
            parts.append(svec(_rand_pd(cone.order, rng)))
    return np.concatenate(parts)


def _mixed_cones(rng):
    cones = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            cones.append(NonNeg(int(rng.integers(1, 9))))
        else:
            cones.append(Psd(int(rng.integers(2, 13))))
    return cones


def test_criterion_10_solver_certification():
    rng = np.random.default_rng(SEED + 10)
    # 140 mixed feasible programs with a known primal-dual bracket.
    for _ in range(140):
        cones = _mixed_cones(rng)
        n = sum(cone.dim for cone in cones)
        m = int(rng.integers(2, max(3, (3 * n) // 4)))
        a = rng.standard_normal((m, n))
        x0, s0 = _cone_point(cones, rng), _cone_point(cones, rng)
        y0 = rng.standard_normal(m)
        prog = ConicProgram(c=a.T @ y0 + s0, A=a, b=a @ x0, cones=cones)
        out = solve(prog)
        assert out.status is Status.OPTIMAL, out.message
        pres = np.linalg.norm(a @ out.x - prog.b) / (1 + np.linalg.norm(prog.b))
        dres = np.linalg.norm(a.T @ out.y + out.s - prog.c) / (
            1 + np.linalg.norm(prog.c)
        )
        gap = abs(prog.c @ out.x - prog.b @ out.y) / (1 + abs(prog.c @ out.x))
        assert max(pres, dres, gap) <= 1e-8
        assert out.objective <= prog.c @ x0 + 1e-6 * (1 + abs(prog.c @ x0))
        assert out.dual_objective >= prog.b @ y0 - 1e-6 * (1 + abs(prog.b @ y0))
    # 30 linear programs against an independent solver.
    for _ in range(30):
        n, m = 10, 5
        a = rng.standard_normal((m, n))
        x0 = rng.uniform(0.5, 2.0, n)
        c = a.T @ rng.standard_normal(m) + rng.uniform(0.5, 2.0, n)
        prog = ConicProgram(c=c, A=a, b=a @ x0, cones=[NonNeg(n)])
        out = solve(prog)
        ref = scipy.optimize.linprog(
            c, A_eq=a, b_eq=a @ x0, bounds=(0, None), method="highs"
        )
        assert out.status is Status.OPTIMAL and ref.status == 0
        assert abs(out.objective - ref.fun) <= 1e-6 * (1 + abs(ref.fun))
    # 10 top-eigenvalue programs at the largest supported orders.
    for order in (20, 22, 24, 26, 25, 21, 23, 26, 24, 26):
        c_mat = _rand_pd(order, rng, shift=0.0)
        prog = ConicProgram(
            c=-svec(c_mat),
            A=svec(np.eye(order))[None, :],
            b=np.array([1.0]),
            cones=[Psd(order)],
        )
        out = solve(prog)
        lam = float(np.linalg.eigvalsh(c_mat)[-1])
        assert out.status is Status.OPTIMAL
        assert abs(-out.objective - lam) <= 1e-6 * (1 + lam)
    # 20 constructed-infeasible programs must certify.
    for _ in range(20):
        cones = _mixed_cones(rng)
        n = sum(cone.dim for cone in cones)
        m = int(rng.integers(2, max(3, n // 2 + 2)))
        s0 = _cone_point(cones, rng)
        a_top = rng.standard_normal((m - 1, n))
        y_top = rng.standard_normal(m - 1)
        a = np.vstack([a_top, -(a_top.T @ y_top + s0)[None, :]])
        y0 = np.concatenate([y_top, [1.0]])
        b = rng.standard_normal(m)
        b = b + (1.0 - b @ y0) / (y0 @ y0) * y0
        prog = ConicProgram(c=rng.standard_normal(n), A=a, b=b, cones=cones)
        out = solve(prog)
        assert out.status is Status.PRIMAL_INFEASIBLE
        assert abs(b @ out.y - 1.0) <= 1e-7
        assert cone_distance(-(a.T @ out.y), prog.cones) <= 1e-7
