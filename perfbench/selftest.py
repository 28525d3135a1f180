"""Self-test of the benchmark's verification and span arithmetic.

    python3 perfbench/selftest.py

Solves one small feasible and one infeasible design, checks that the true
outcomes pass verification, then injects wrong outcomes (perturbed primal
and dual vectors, a point outside the cone, a wrong objective, a broken
Farkas certificate, a failed status, positive worst-case margins, failed
audit reports) and checks that each is rejected with the expected reason.
Exits 0 when every case behaves, 1 otherwise. Takes about a second.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from robust_miso import conic, formulations, harness  # noqa: E402

import verify  # noqa: E402
from tracing import layer_metrics  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, fails: list, reason: str | None) -> None:
    """reason=None: the case must pass; otherwise some failure message
    must contain `reason`."""
    messages = [message for _, message in fails]
    ok = not messages if reason is None else any(reason in m for m in messages)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {messages or 'accepted'}")
    if not ok:
        FAILURES.append(label)


def _negate_first_psd_block(v: np.ndarray, cones) -> np.ndarray:
    out = v.copy()
    out[: cones[0].dim] *= -1.0
    return out


def main() -> int:
    scenario = harness.sample_scenario(7, 4, 3, 1.0, 0.1, 0.1, 0.7057)
    prog, index = formulations.build_robust_sdp(scenario)
    good = conic.solve(prog)
    if good.status is not conic.Status.OPTIMAL:
        print(f"FAIL reference solve returned {good.status.name}")
        return 1
    design = formulations.extract_solution(index, good)
    margins = [formulations.worst_case_margin(design, scenario, u) for u in range(3)]

    expect("optimal outcome", verify.check_outcome(prog, good), None)
    expect("primal vector perturbed", verify.check_outcome(prog, replace(good, x=good.x * 1.001)),
           "primal residual")
    expect("dual vector perturbed", verify.check_outcome(prog, replace(good, y=good.y + 1e-3)),
           "dual residual")
    expect("x outside the cone",
           verify.check_outcome(prog, replace(good, x=_negate_first_psd_block(good.x, prog.cones))),
           "x outside the cone")
    expect("objective misreported",
           verify.check_outcome(prog, replace(good, objective=good.objective * 1.01)),
           "reported objective")
    expect("numerical failure",
           verify.check_outcome(prog, replace(good, status=conic.Status.NUMERICAL_FAILURE,
                                              message="iteration limit reached")),
           "iteration limit")
    expect("design objective", verify.check_design(replace(design, objective=2.0 * design.objective), good),
           "differs from the objective")

    expect("exact margins", verify.check_margins(scenario, margins)[0], None)
    sigma2 = float(scenario.noise_power[0])
    expect("positive exact margin", verify.check_margins(scenario, [0.01 * sigma2] + margins[1:])[0],
           "exact worst-case margin")
    expect("positive sampled margin", verify.check_margins(scenario, [(0.01 * sigma2, 1.0)])[0],
           "sampled worst-case margin")

    empty = harness.sample_scenario(7, 4, 3, 1.0, 0.1, 0.1, 6.0022)
    eprog, _ = formulations.build_robust_sdp(empty)
    cert = conic.solve(eprog)
    if cert.status is not conic.Status.PRIMAL_INFEASIBLE:
        print(f"FAIL infeasible reference returned {cert.status.name}")
        return 1
    expect("Farkas certificate", verify.check_outcome(eprog, cert), None)
    expect("certificate not normalized", verify.check_outcome(eprog, replace(cert, y=2.0 * cert.y)),
           "not normalized")
    flipped = cert.y.copy()
    flipped[np.argmax(np.abs(flipped))] *= -1.0
    flipped /= float(eprog.b @ flipped)
    expect("certificate outside the dual cone", verify.check_outcome(eprog, replace(cert, y=flipped)),
           "within tolerance of the cone")

    report = {"duality": {"violations": 0, "failures": 0}, "kkt": {"passed": True}}
    expect("audit report", verify.check_audit_report(0, report), None)
    expect("audit exit code", verify.check_audit_report(1, report), "exit code")
    expect("audit violations", verify.check_audit_report(
        0, {**report, "duality": {"violations": 2, "failures": 0}}), "violations")
    expect("audit inner failures", verify.check_audit_report(
        0, {**report, "duality": {"violations": 0, "failures": 1}}), "inner solver failures")
    expect("audit KKT", verify.check_audit_report(0, {**report, "kkt": {"passed": False}}),
           "KKT rank audit")

    # Self time: a 10 s harness span holding a 6 s solve and a 1 s build.
    info = {"status": "optimal", "iterations": 12, "rows": 75, "nnz": 30, "size": 300, "shape": "4x3"}
    spans = [
        ["bench.op", 0.0, 11.0, -1, 0, None],
        ["harness.rank_study", 0.5, 10.5, 0, 0, None],
        ["formulations.build_robust_sdp", 1.0, 2.0, 1, 0, {"shape": "4x3"}],
        ["conic.solve", 3.0, 9.0, 1, 0, info],
        ["conic.cone_distance", 8.0, 8.5, 3, 0, None],
    ]
    metrics, shapes = layer_metrics(spans, 1, [1.0])
    arithmetic = [
        ("harness self time", metrics["harness.self_s"], 3.0),
        ("conic busy time counts the outer span only", metrics["conic.busy_s"], 6.0),
        ("seconds per iteration", metrics["conic.s_per_iteration"], 0.5),
        ("build time", metrics["formulations.build_s"], 1.0),
        ("per-shape solve p50", shapes["4x3"]["solve_p50_s"], 6.0),
    ]
    for label, got, want in arithmetic:
        expect(label, [] if abs(got - want) < 1e-12 else [("span", f"{got} != {want}")], None)

    print(f"selftest: {len(FAILURES)} case(s) failed" if FAILURES else "selftest: all cases passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
