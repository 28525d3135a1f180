"""The three benchmark workloads: inputs from a seed, one operation, checks.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one returns. Inputs are generated from
the workload seed before timing starts and handed to the program as they
would come from a user (study configurations, scenarios, scenario files).

A workload provides
  inputs(seed, workdir, count) -> count operation inputs (the loop cycles
                          through its `pool` of them),
  op(item)              -> the operation's raw output (timed),
  check(item, output)   -> Checked (untimed verification).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from robust_miso import certificates, cli, conic, formulations, harness

import verify

# The paper's ten table rates, plus the 4x3 cell where every trial is
# infeasible (criterion 01's empty cell).
TABLE_RATES = (0.1375, 0.2122, 0.3233, 0.4835, 0.7057, 1.0, 1.3701, 1.8122, 2.3165, 2.8698)
EMPTY_CELL_RATE = 6.0022
NOISE_POWER = 0.1
EPS2 = 0.1


@dataclass
class Checked:
    """Verification result of one operation.

    calls, optimal, infeasible and failed_solves count the solves the
    benchmark can see from outside; iterations is None where the
    operation's solves are not visible (the CLI keeps them inside).
    """

    fails: list = field(default_factory=list)
    calls: int = 0
    iterations: int | None = 0
    optimal: int = 0
    infeasible: int | None = 0
    failed_solves: int | None = 0
    worst_margin_rel: float = -np.inf
    report_bytes: int = 0

    def count(self, outcome) -> None:
        self.calls += 1
        self.iterations += outcome.iterations
        self.optimal += outcome.status is conic.Status.OPTIMAL
        self.infeasible += outcome.status is conic.Status.PRIMAL_INFEASIBLE
        self.failed_solves += outcome.status is conic.Status.NUMERICAL_FAILURE


def _channels(rng, n: int, k: int) -> np.ndarray:
    """i.i.d. CN(0, 1) presumed channels (unit-power entries, rho = 1)."""
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) * np.sqrt(0.5)


def _shuffled_cycle(rng, values, count: int) -> list:
    """count values cycling through fresh shuffles of values, so every
    value appears equally often in any window of whole cycles."""
    out = []
    while len(out) < count:
        out.extend(values[i] for i in rng.permutation(len(values)))
    return out[:count]


class TableStudy:
    """One Monte-Carlo trial of harness.rank_study with criterion 01's
    observer (KKT rank audit, worst-case margin of every user, theorem-1
    certificate) per operation. Three 4x3 trials per 8x3 trial; 4x3 trials
    cycle over the ten table rates plus the all-infeasible 6.0022 cell,
    8x3 trials over the ten table rates."""

    name = "table-study"
    pool = 2048
    window = 40  # ten 4-op cycles: 30 4x3 trials, 10 8x3 trials
    tail_percentile = 90  # inside the 8x3 mode, which is 1 op in 4

    def inputs(self, seed: int, workdir: str, count: int) -> list:
        rng = np.random.default_rng([seed, 1])
        small = _shuffled_cycle(rng, TABLE_RATES + (EMPTY_CELL_RATE,), count)
        large = _shuffled_cycle(rng, TABLE_RATES, count // 4)
        trial_seeds = rng.integers(0, 2**31, size=count)
        items = []
        for i in range(count):
            n, rate = (8, large[i // 4]) if i % 4 == 3 else (4, small[i - i // 4])
            cfg = harness.StudyConfig(
                n_antennas=n, n_users=3, rates=(rate,), trials=1,
                noise_power=NOISE_POWER, eps2=EPS2, seed=int(trial_seeds[i]),
            )
            items.append(cfg)
        return items

    def op(self, cfg):
        seen = []

        def observer(rate_idx, trial, scenario, outcome, solution):
            audit = margins = certified = None
            if solution is not None:
                audit = harness.kkt_rank_audit(solution)
                margins = [
                    formulations.worst_case_margin(solution, scenario, user)
                    for user in range(scenario.n_users)
                ]
                certified = bool(np.all(certificates.theorem1_margin(scenario) > 0.0))
            seen.append((scenario, outcome, solution, audit, margins, certified))

        report = harness.rank_study(cfg, observer=observer)
        return report.rows[0], seen[0]

    def check(self, cfg, output) -> Checked:
        row, (scenario, outcome, solution, audit, margins, certified) = output
        res = Checked()
        res.count(outcome)
        prog, _ = formulations.build_robust_sdp(scenario)
        res.fails += verify.check_outcome(prog, outcome)
        if row.failures:
            res.fails.append(("study", "rank_study counted a failed trial"))
        if outcome.status is conic.Status.OPTIMAL:
            res.fails += verify.check_design(solution, outcome)
            fails, res.worst_margin_rel = verify.check_margins(scenario, margins)
            res.fails += fails
            if not audit.passed:
                res.fails.append(("audit", "KKT rank audit failed"))
            if certified and any(r != 1 for r in audit.ranks_w):
                res.fails.append(("certificates", "certified instance is not rank one"))
        return res


class LargeDesign:
    """build_robust_sdp -> solve -> extract_solution -> worst_case_margin
    for all 7 users at 8x7, cycling sphere, ellipsoid, fdd and box models."""

    name = "large-design"
    pool = 32
    window = 4  # one design per error model
    tail_percentile = None  # about 15 ops per run: too few for a tail above p75
    n, k, rate = 8, 7, 0.7057
    models = ("sphere", "ellipsoid", "fdd", "box")

    def _uncertainty(self, rng, model: str):
        n, k = self.n, self.k
        if model == "sphere":
            return formulations.SphereUncertainty(np.sqrt(rng.uniform(0.5, 1.0, k) * EPS2))
        if model == "ellipsoid":
            shapes = []
            for _ in range(k):
                q, _ = np.linalg.qr(_channels(rng, n, n))
                axes2 = rng.uniform(0.5, 1.5, n) * EPS2
                shapes.append((q * axes2) @ q.conj().T)
            return formulations.EllipsoidUncertainty(np.stack(shapes))
        if model == "fdd":
            return formulations.FddUncertainty(rng.uniform(0.05, 0.1))
        return formulations.BoxUncertainty(rng.uniform(0.05, 0.1, k))

    def inputs(self, seed: int, workdir: str, count: int) -> list:
        rng = np.random.default_rng([seed, 2])
        items = []
        for i in range(count):
            presumed = _channels(rng, self.n, self.k)
            model = self.models[i % len(self.models)]
            items.append(
                formulations.ChannelScenario(
                    presumed,
                    np.full(self.k, NOISE_POWER),
                    np.full(self.k, self.rate),
                    self._uncertainty(rng, model),
                )
            )
        return items

    def op(self, scenario):
        prog, index = formulations.build_robust_sdp(scenario)
        outcome = conic.solve(prog)
        solution = formulations.extract_solution(index, outcome)
        margins = [
            formulations.worst_case_margin(solution, scenario, user)
            for user in range(scenario.n_users)
        ]
        return prog, outcome, solution, margins

    def check(self, scenario, output) -> Checked:
        prog, outcome, solution, margins = output
        res = Checked()
        res.count(outcome)
        res.fails += verify.check_outcome(prog, outcome)
        res.fails += verify.check_design(solution, outcome)
        fails, res.worst_margin_rel = verify.check_margins(scenario, margins)
        res.fails += fails
        return res


class CliAudit:
    """One in-process `robust-miso audit` on a distinct seeded 4x3 ball-model
    scenario file: a robust solve, SAMPLES fixed-channel solves at sampled
    members of the lifted error sets, the KKT rank audit and an atomic JSON
    report write. Ascent is off (--patience 0) because the number of ascent
    sweeps, and with it the work of an operation, varies 3x between seeds."""

    name = "cli-audit"
    pool = 256
    window = 16
    tail_percentile = None  # about 60 ops per run: too few for a tail above p75
    samples = 24
    # One rate keeps the per-operation cost unimodal, so the median does
    # not jump between the modes of several rates.
    rate = 0.3233

    def inputs(self, seed: int, workdir: str, count: int) -> list:
        rng = np.random.default_rng([seed, 3])
        items = []
        for i in range(count):
            presumed = _channels(rng, 4, 3)
            scenario = {
                "n": 4,
                "k": 3,
                "noise_power": [NOISE_POWER] * 3,
                "rate_targets": [self.rate] * 3,
                "uncertainty": {"type": "sphere", "parameters": {"radius": float(np.sqrt(EPS2))}},
                "channels": {"re": presumed.real.tolist(), "im": presumed.imag.tolist()},
            }
            path = os.path.join(workdir, f"scenario-{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)
            out = os.path.join(workdir, f"report-{i:04d}.json")
            items.append((path, int(rng.integers(0, 2**31)), out))
        return items

    def argv(self, item) -> list[str]:
        path, audit_seed, out = item
        return [
            "audit", "--scenario", path, "--samples", str(self.samples),
            "--patience", "0", "--seed", str(audit_seed), "--out", out,
        ]

    def op(self, item):
        return cli.main(self.argv(item))

    def check(self, item, code) -> Checked:
        out = item[2]
        res = Checked(iterations=None, infeasible=None, failed_solves=None)
        report = None
        if os.path.exists(out):
            res.report_bytes = os.path.getsize(out)
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            os.unlink(out)
        res.fails += verify.check_audit_report(code, report)
        if report is not None:
            duality = report["duality"]
            res.calls = 1 + duality["evaluated"] + duality["failures"]
            res.optimal = 1 + duality["evaluated"]
        return res


WORKLOADS = {w.name: w for w in (TableStudy, LargeDesign, CliAudit)}
