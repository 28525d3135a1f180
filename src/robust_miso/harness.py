"""Study drivers: Monte-Carlo rank statistics, certificate satisfaction
rates, max-min-fair rate search, duality audits, and the analytic
worst-case-gap construction.

Everything here is a deterministic function of its configuration and seed:
per-trial generators are spawned from (seed, rate index, trial index), so
reports are bit-identical across runs and across worker counts. Trials can
run on a process pool sized by the ROBUST_MISO_THREADS environment
variable, capped at the usable CPUs and at the number of trials; the
default is serial execution.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import conic
from .certificates import cur_probability_bound, song_margin, theorem1_margin
from .formulations import (
    ChannelScenario,
    DesignSolution,
    LiftedChannel,
    SphereUncertainty,
    _ball_samples,
    build_fixed_dual,
    build_fixed_sdp,
    build_robust_sdp,
    extract_solution,
    gamma_from_rate,
)
from .hermitian import hermitian_part, numerical_rank

THREADS_ENV = "ROBUST_MISO_THREADS"
# Largest antenna count N and user count K accepted from a caller. The bound
# only rejects absurd N or K early: a robust design has K (N + 1)^2 equality
# rows and a dense Schur complement of that order, so designs run out of
# memory far below it (N = 1024, K = 1 asks for terabytes while the program
# is built), and the CLI reports that MemoryError as bad input.
MAX_DIMENSION = 1024


def sample_scenario(seed, n, k, rho, sigma2, eps2, r) -> ChannelScenario:
    """Random ball-model scenario with i.i.d. complex Gaussian channels.

    Each presumed entry is (g1 + i g2) sqrt(rho / 2) with g standard normal,
    so a column has mean squared norm rho * n. seed is anything
    numpy.random.SeedSequence accepts (an int or a tuple of ints), and equal
    seeds give bit-identical scenarios.
    """
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    presumed = g * np.sqrt(rho / 2.0)
    radius = np.full(k, np.sqrt(eps2))
    return ChannelScenario(
        presumed, np.full(k, sigma2), np.full(k, r), SphereUncertainty(radius)
    )


@dataclass(frozen=True)
class StudyConfig:
    """Shape, noise, uncertainty, rate grid, and seeding for one study."""

    n_antennas: int
    n_users: int
    rates: tuple[float, ...]
    trials: int
    noise_power: float = 0.1
    eps2: float = 0.1
    rho: float = 1.0
    seed: int = 0
    rank_tau: float = 1e-6
    settings: conic.SolverSettings | None = None

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if not (1 <= self.n_antennas <= MAX_DIMENSION and 1 <= self.n_users <= MAX_DIMENSION):
            raise ValueError(
                f"n_antennas (n) and n_users (k) must be at least 1 and at most {MAX_DIMENSION}"
            )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not rates or any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("rates must be nonempty and strictly increasing")
        if min(rates) <= 0.0:
            raise ValueError("rates must be positive")
        for name in ("noise_power", "eps2", "rho"):
            if not 0.0 < float(getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class RankStudyRow:
    """Classification counts for one rate point."""

    rate: float
    trials: int
    feasible: int
    rank_one: int
    thm1_holds: int
    song_holds: int
    failures: int


@dataclass(frozen=True)
class RankStudyReport:
    config: StudyConfig
    rows: tuple[RankStudyRow, ...]


@dataclass(frozen=True)
class CertificateStudyRow:
    """Per-rate satisfaction and feasibility fractions with the analytic
    lower bound on the a-priori certificate probability (nan when the
    layout is wider than tall)."""

    rate: float
    thm1_prob: float
    song_prob: float
    feasible_prob: float
    prop1_bound: float


@dataclass(frozen=True)
class CertificateStudyReport:
    config: StudyConfig
    rows: tuple[CertificateStudyRow, ...]


def _rank_trial(cfg: StudyConfig, rate_idx: int, trial: int):
    """Solve and classify one sampled instance.

    Returns (scenario, outcome, solution_or_None, flags) where flags is
    (feasible, rank_one, thm1, song, failed), the order of RankStudyRow's
    counters.
    """
    rate = cfg.rates[rate_idx]
    scenario = sample_scenario(
        (cfg.seed, rate_idx, trial),
        cfg.n_antennas,
        cfg.n_users,
        cfg.rho,
        cfg.noise_power,
        cfg.eps2,
        rate,
    )
    thm1 = bool(np.all(theorem1_margin(scenario) > 0.0))
    program, index = build_robust_sdp(scenario)
    outcome = conic.solve(program, settings=cfg.settings)
    feasible = rank_one = song = failed = False
    solution = None
    if outcome.status is conic.Status.OPTIMAL:
        feasible = True
        solution = extract_solution(index, outcome)
        ranks = [numerical_rank(wi, tau=cfg.rank_tau) for wi in solution.W]
        rank_one = all(r == 1 for r in ranks)
        song = bool(np.all(song_margin(scenario, outcome.objective) > 0.0))
    elif outcome.status is not conic.Status.PRIMAL_INFEASIBLE:
        failed = True
    return scenario, outcome, solution, (feasible, rank_one, thm1, song, failed)


def _rank_flags(cfg: StudyConfig, rate_idx: int, trial: int) -> tuple[bool, ...]:
    """Only the classification flags of one trial, cheap to return from a worker."""
    return _rank_trial(cfg, rate_idx, trial)[3]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _study_workers() -> int:
    """Worker processes from ROBUST_MISO_THREADS, capped at the usable CPUs;
    1 when it is unset or not an integer."""
    raw = os.environ.get(THREADS_ENV, "")
    try:
        return min(max(1, int(raw)), _usable_cpus())
    except ValueError:
        return 1


def rank_study(cfg: StudyConfig, observer=None) -> RankStudyReport:
    """Monte-Carlo classification of sampled instances over a rate grid.

    Per trial the robust program is solved and classified as infeasible,
    feasible with every covariance numerically rank one, feasible
    higher-rank, or solver failure; the a-priori and posterior certificates
    are tallied alongside. observer, when given, is called as
    observer(rate_idx, trial, scenario, outcome, solution_or_None) for every
    trial in deterministic order and forces serial execution.
    """
    tasks = [
        (rate_idx, trial)
        for rate_idx in range(len(cfg.rates))
        for trial in range(cfg.trials)
    ]
    workers = 1 if observer is not None else min(_study_workers(), len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            flags = list(
                pool.map(
                    _rank_flags,
                    (cfg for _ in tasks),
                    (t[0] for t in tasks),
                    (t[1] for t in tasks),
                    chunksize=8,
                )
            )
    else:
        flags = []
        for rate_idx, trial in tasks:
            scenario, outcome, solution, trial_flags = _rank_trial(cfg, rate_idx, trial)
            if observer is not None:
                observer(rate_idx, trial, scenario, outcome, solution)
            flags.append(trial_flags)

    counts = np.zeros((len(cfg.rates), 5), dtype=int)
    for (rate_idx, _), trial_flags in zip(tasks, flags):
        counts[rate_idx] += trial_flags
    rows = tuple(
        RankStudyRow(rate, cfg.trials, *(int(v) for v in row))
        for rate, row in zip(cfg.rates, counts)
    )
    return RankStudyReport(config=cfg, rows=rows)


def certificate_study(cfg: StudyConfig, observer=None) -> CertificateStudyReport:
    """Satisfaction and feasibility fractions over a rate grid.

    Runs the same trials as rank_study and reduces the counts to
    probabilities, attaching the analytic certificate-probability lower
    bound per rate when the layout has at least as many antennas as users.
    """
    report = rank_study(cfg, observer=observer)
    rows = []
    for row in report.rows:
        if cfg.n_antennas >= cfg.n_users:
            _, bound = cur_probability_bound(
                cfg.n_antennas,
                cfg.n_users,
                cfg.rho,
                np.sqrt(cfg.eps2),
                gamma_from_rate(row.rate),
            )
        else:
            bound = float("nan")
        rows.append(
            CertificateStudyRow(
                rate=row.rate,
                thm1_prob=row.thm1_holds / row.trials,
                song_prob=row.song_holds / row.trials,
                feasible_prob=row.feasible / row.trials,
                prop1_bound=bound,
            )
        )
    return CertificateStudyReport(config=cfg, rows=tuple(rows))


@dataclass(frozen=True)
class MmfResult:
    """Largest common rate certified within the power budget.

    failed_probes counts bisection solves that ended in NUMERICAL_FAILURE;
    each was read as "not certified", which can only lower the rate.
    """

    rate: float
    power: float
    feasible: bool
    failed_probes: int = 0


def mmf_rate(
    scenario: ChannelScenario,
    p_total: float,
    tol_bits: float = 1e-3,
    settings: conic.SolverSettings | None = None,
) -> MmfResult:
    """Bisection for the largest common rate feasible within a power budget.

    The scenario's own rate targets are ignored; every user gets the same
    candidate rate. A rate is accepted when the power-minimization solve is
    Optimal with objective at most p_total, so the returned rate is always
    certified by a solve. The bracket is [tol_bits, r_hi] with r_hi =
    min_i log2(1 + p_total |h_i|^2 / sigma_i^2) for the presumed channels
    h_i, and r_hi is never probed: h_i lies in every error set, so at rate
    r_hi the user i that sets it has tr(W_i) |h_i|^2 >= h_i^H W_i h_i >=
    gamma sigma_i^2 = p_total |h_i|^2, a power of at least p_total. Returns
    rate 0 with feasible=False when even tol_bits is out of reach.
    """
    if not 0.0 < tol_bits < np.inf:
        raise ValueError("tol_bits must be positive and finite")
    if not np.isfinite(p_total) or p_total <= 0.0:
        return MmfResult(rate=0.0, power=0.0, feasible=False)

    failed = 0

    def probe(rate: float) -> tuple[bool, float]:
        nonlocal failed
        cand = replace(scenario, rate_target=np.full(scenario.n_users, rate))
        program, _ = build_robust_sdp(cand)
        outcome = conic.solve(program, settings=settings)
        failed += outcome.status is conic.Status.NUMERICAL_FAILURE
        if outcome.status is not conic.Status.OPTIMAL:
            return False, float("nan")
        return outcome.objective <= p_total, outcome.objective

    gain = np.linalg.norm(scenario.presumed, axis=0) ** 2
    r_hi = float(np.min(np.log2(1.0 + p_total * gain / scenario.noise_power)))
    if r_hi <= tol_bits:
        return MmfResult(rate=0.0, power=0.0, feasible=False)

    ok, power = probe(tol_bits)
    if not ok:
        return MmfResult(rate=0.0, power=0.0, feasible=False, failed_probes=failed)
    lo, hi = tol_bits, r_hi
    best_power = power
    while hi - lo > tol_bits:
        mid = 0.5 * (lo + hi)
        ok, power = probe(mid)
        if ok:
            lo, best_power = mid, power
        else:
            hi = mid
    return MmfResult(rate=lo, power=best_power, feasible=True, failed_probes=failed)


@dataclass(frozen=True)
class DualityAuditReport:
    """Lower bounds on v_star from fixed-channel powers at lifted channels.

    p_best is the largest fixed-channel optimal value found over members of
    the lifted error sets, gap = v_star - p_best (about zero, since one
    evaluation is at the LMI multipliers' worst-case members), violations
    counts evaluations exceeding v_star + 1e-6 (zero when the solved design
    is truly worst-case safe), and failures counts inner solves that did
    not return Optimal.
    """

    v_star: float
    p_best: float
    gap: float
    evaluated: int
    violations: int
    failures: int
    best_members: tuple[LiftedChannel, ...]


def _sample_member(rng, scenario: ChannelScenario, user: int) -> LiftedChannel:
    """One draw from user's lifted error set, interior and boundary mixed."""
    n = scenario.n_antennas
    eps = scenario.uncertainty.radius[user]
    e = _ball_samples(rng, 1, n, eps)[0]
    slack = eps**2 - np.linalg.norm(e) ** 2
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = g @ g.conj().T
    xi = rng.uniform(0.0, slack) * gram / np.trace(gram).real
    return LiftedChannel(user=user, h=scenario.presumed[:, user] + e, xi=xi)


def _multiplier_member(scenario: ChannelScenario, y: np.ndarray, user: int) -> LiftedChannel:
    """User's worst-case lifted channel read from its LMI multiplier.

    With Y = [[Y11, y12], [y12^H, y22]] the member is h = hbar + y12/y22 and
    xi = Y11/y22 - y12 y12^H/y22^2. Where roundoff leaves it over the ball
    budget, h - hbar is scaled by f and xi by f^2, which brings both terms
    of the budget down by f^2 and keeps xi PSD.
    """
    n = scenario.n_antennas
    dev = y[:n, n] / y[n, n].real
    xi = hermitian_part(y[:n, :n] / y[n, n].real - np.outer(dev, dev.conj()))
    used = np.vdot(dev, dev).real + np.trace(xi).real
    budget = scenario.uncertainty.radius[user] ** 2
    f = math.sqrt(budget / used) if used > budget else 1.0
    return LiftedChannel(user=user, h=scenario.presumed[:, user] + f * dev, xi=f * f * xi)


def _member_power(
    scenario: ChannelScenario,
    members,
    settings: conic.SolverSettings | None,
) -> float:
    chans = np.stack([m.matrix() for m in members])
    program, _ = build_fixed_sdp(chans, scenario.noise_power, scenario.gamma)
    outcome = conic.solve(program, settings=settings)
    if outcome.status is not conic.Status.OPTIMAL:
        return float("nan")
    return outcome.objective


def check_duality_audit(scenario: ChannelScenario, samples: int) -> None:
    """Raises ValueError unless duality_audit accepts the scenario and the
    sample count, so that a caller can check before solving the design."""
    if scenario.uncertainty.kind != "sphere":
        raise ValueError("duality audit needs the ball error model")
    if samples < 1:
        raise ValueError("samples must be at least 1")


def duality_audit(
    scenario: ChannelScenario,
    solution: DesignSolution,
    samples: int = 100,
    seed: int = 0,
    settings: conic.SolverSettings | None = None,
) -> DualityAuditReport:
    """Check v_star against fixed-channel powers over the lifted error sets.

    Sample zero takes every user's worst-case member from its LMI
    multiplier in solution.Y; by the lifted duality its fixed-channel power
    equals v_star, so the gap shows how exact the design is. The other
    `samples - 1` member tuples are random draws. Every evaluated power is
    compared against v_star + 1e-6 and counted in violations when above.
    """
    check_duality_audit(scenario, samples)
    if solution.Y is None:
        raise ValueError("audit needs a robust solution with multipliers")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    v_star = solution.objective
    k = scenario.n_users
    members = best = tuple(_multiplier_member(scenario, solution.Y[i], i) for i in range(k))
    evaluated = violations = failures = 0
    p_best = -math.inf
    for sample in range(samples):
        if sample:
            members = tuple(_sample_member(rng, scenario, i) for i in range(k))
        power = _member_power(scenario, members, settings)
        if math.isnan(power):
            failures += 1
            continue
        evaluated += 1
        if power > v_star + 1e-6:
            violations += 1
        if power > p_best:
            p_best, best = power, members

    return DualityAuditReport(
        v_star=v_star,
        p_best=p_best,
        gap=v_star - p_best,
        evaluated=evaluated,
        violations=violations,
        failures=failures,
        best_members=best,
    )


@dataclass(frozen=True)
class CounterexampleRecord:
    """Analytic data for the constructed worst-case-gap instance.

    lower_v bounds the robust optimum from below and upper_d bounds the
    pure-channel maximin value from above; strict_gap_ok records that the
    former exceeds the latter, which is what makes the instance a
    counterexample to interchanging the min and the max without lifting.
    """

    n: int
    k: int
    delta: float
    delta_max: float
    radius: float
    gamma: float
    noise_power: float
    rate_bound: float
    rate_ok: bool
    lower_v: float
    upper_d: float
    strict_gap_ok: bool


def counterexample_instance(
    n: int, k: int, delta: float, noise_power: float = 0.1
) -> tuple[ChannelScenario, CounterexampleRecord]:
    """Orthonormal-channel instance whose robust and maximin values differ.

    Uses the first k columns of the identity as presumed channels, radius
    1/(2 n sqrt(k) + 1), and target SINR (4 n^2 k - delta)/(k - 1). Needs
    n >= k >= 5 and 0 < delta < n k - 2 n sqrt(k) - 1 for the analytic
    bounds to produce a strict gap while keeping the instance feasible.
    """
    if k < 5 or n < k:
        raise ValueError("construction needs n >= k >= 5")
    if n > MAX_DIMENSION:
        raise ValueError(f"n and k must be at most {MAX_DIMENSION}")
    delta_max = n * k - 2.0 * n * np.sqrt(k) - 1.0
    if not 0.0 < delta < delta_max:
        raise ValueError(f"delta must lie in (0, {delta_max})")
    if noise_power <= 0.0:
        raise ValueError("noise_power must be positive")
    radius = 1.0 / (2.0 * n * np.sqrt(k) + 1.0)
    gamma = (4.0 * n**2 * k - delta) / (k - 1.0)
    rate = float(np.log2(1.0 + gamma))
    presumed = np.eye(n, dtype=complex)[:, :k]
    scenario = ChannelScenario(
        presumed,
        np.full(k, noise_power),
        np.full(k, rate),
        SphereUncertainty(np.full(k, radius)),
    )
    rate_bound = (1.0 / radius - 1.0) ** 2 / (k - 1.0)
    lb_denom = (1.0 + radius**2 / n) / gamma - (k - 1.0) * radius**2 / n
    lower_v = k * noise_power / lb_denom if lb_denom > 0.0 else float("inf")
    root = 1.0 - np.sqrt(k) * radius
    upper_d = k * gamma * noise_power / root**2 if root > 0.0 else float("inf")
    record = CounterexampleRecord(
        n=n,
        k=k,
        delta=delta,
        delta_max=delta_max,
        radius=radius,
        gamma=gamma,
        noise_power=noise_power,
        rate_bound=rate_bound,
        rate_ok=gamma < rate_bound,
        lower_v=lower_v,
        upper_d=upper_d,
        strict_gap_ok=lb_denom > 0.0 and root > 0.0 and lower_v > upper_d,
    )
    return scenario, record


@dataclass(frozen=True)
class GapAuditReport:
    """Numeric confirmation of the analytic worst-case gap.

    numeric_v is the solved robust optimum; numeric_d is the fixed-channel
    dual value at the presumed channels, with control_primal its primal
    partner (the two must agree, which is the no-uncertainty control).
    inconclusive flags solver failures, in which case passed is False.
    """

    record: CounterexampleRecord
    lower_v: float
    upper_d: float
    numeric_v: float | None
    numeric_d: float | None
    control_primal: float | None
    analytic_ok: bool
    v_above_lower: bool
    d_below_upper: bool
    numeric_gap_ok: bool
    control_ok: bool
    inconclusive: bool
    passed: bool


def gap_audit(
    scenario: ChannelScenario,
    record: CounterexampleRecord,
    settings: conic.SolverSettings | None = None,
) -> GapAuditReport:
    """Solve the constructed instance and check it against its analytics."""
    robust = conic.solve(build_robust_sdp(scenario)[0], settings=settings)
    chans = np.stack(
        [
            np.outer(scenario.presumed[:, i], scenario.presumed[:, i].conj())
            for i in range(scenario.n_users)
        ]
    )
    fixed = conic.solve(
        build_fixed_sdp(chans, scenario.noise_power, scenario.gamma)[0],
        settings=settings,
    )
    dual = conic.solve(
        build_fixed_dual(chans, scenario.noise_power, scenario.gamma)[0],
        settings=settings,
    )
    inconclusive = (
        robust.status is not conic.Status.OPTIMAL
        or fixed.status is not conic.Status.OPTIMAL
        or dual.status is not conic.Status.OPTIMAL
    )
    numeric_v = robust.objective if robust.status is conic.Status.OPTIMAL else None
    control = fixed.objective if fixed.status is conic.Status.OPTIMAL else None
    numeric_d = -dual.objective if dual.status is conic.Status.OPTIMAL else None
    if inconclusive:
        v_above = d_below = gap_ok = control_ok = False
    else:
        v_above = numeric_v >= record.lower_v - 1e-6
        d_below = numeric_d <= record.upper_d + 1e-6
        gap_ok = numeric_v > numeric_d + 1e-6
        scale = max(1.0, abs(numeric_d))
        control_ok = abs(control - numeric_d) <= 1e-6 * scale
    passed = (
        not inconclusive
        and record.rate_ok
        and record.strict_gap_ok
        and v_above
        and d_below
        and gap_ok
        and control_ok
    )
    return GapAuditReport(
        record=record,
        lower_v=record.lower_v,
        upper_d=record.upper_d,
        numeric_v=numeric_v,
        numeric_d=numeric_d,
        control_primal=control,
        analytic_ok=record.rate_ok and record.strict_gap_ok,
        v_above_lower=v_above,
        d_below_upper=d_below,
        numeric_gap_ok=gap_ok,
        control_ok=control_ok,
        inconclusive=inconclusive,
        passed=passed,
    )


@dataclass(frozen=True)
class KktRankAuditReport:
    """Structural facts every optimal ball-model solution must satisfy."""

    t_min: float
    ranks_w: tuple[int, ...]
    ranks_z: tuple[int, ...]
    t_positive: bool
    slack_rank_ok: bool
    rank_sum_ok: bool
    passed: bool


def kkt_rank_audit(
    solution: DesignSolution, tau: float = 1e-6
) -> KktRankAuditReport:
    """Audit multiplier positivity and the slack-rank budget at an optimum.

    Checks every multiplier exceeds 1e-9, every LMI slack has numerical
    rank at most N, and the combined rank inequality
    sum_i rank(W_i)^2 <= K (N^2 + 2N) - sum_i rank(Z_i)^2.
    """
    if solution.Z is None or solution.t is None:
        raise ValueError("audit needs a robust solution with slacks")
    k = solution.n_users
    n = solution.W.shape[1]
    ranks_w = tuple(numerical_rank(wi, tau=tau) for wi in solution.W)
    ranks_z = tuple(numerical_rank(zi, tau=tau) for zi in solution.Z)
    t_min = float(np.min(solution.t))
    t_positive = t_min > 1e-9
    slack_rank_ok = all(r <= n for r in ranks_z)
    budget = k * (n**2 + 2 * n) - sum(r**2 for r in ranks_z)
    rank_sum_ok = sum(r**2 for r in ranks_w) <= budget
    return KktRankAuditReport(
        t_min=t_min,
        ranks_w=ranks_w,
        ranks_z=ranks_z,
        t_positive=t_positive,
        slack_rank_ok=slack_rank_ok,
        rank_sum_ok=rank_sum_ok,
        passed=t_positive and slack_rank_ok and rank_sum_ok,
    )
