"""Command-line front end: scenario files in, reports and CSV studies out.

Scenario files are JSON objects with keys n, k, noise_power (length-K
array), rate_targets (length-K array), uncertainty, and channels. The
uncertainty object carries a type ("sphere" | "ellipsoid" | "fdd" | "box")
and a parameters object per model: sphere {radius}, ellipsoid
{shape: {re, im}} with one N x N matrix per user, fdd {direction_error},
box {halfwidth}; radius and halfwidth may be a scalar or a length-K
array. channels is either {re, im} with N x K real parts, or {seed, rho}
to draw presumed channels reproducibly from the study sampler.

Exit codes: 0 success, 1 infeasible (or a failed-but-conclusive audit),
2 solver failure, 3 bad input, a scenario too large for memory included.
audit checks its scenario and --samples before it solves, so an input it
cannot audit exits 3 even when the design is infeasible.
Reports are JSON, studies are CSV; both are written atomically (temp file
then rename) and round-trip losslessly since floats are serialized with
shortest-repr decimals.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import stat
import sys
import tempfile

import numpy as np

from . import conic
from .certificates import certificate_report
from .formulations import (
    BoxUncertainty,
    ChannelScenario,
    EllipsoidUncertainty,
    FddUncertainty,
    SphereUncertainty,
    build_robust_sdp,
    extract_solution,
    worst_case_margin,
)
from .harness import (
    MAX_DIMENSION,
    StudyConfig,
    certificate_study,
    check_duality_audit,
    counterexample_instance,
    duality_audit,
    gap_audit,
    kkt_rank_audit,
    mmf_rate,
    rank_study,
    sample_scenario,
)
from .hermitian import eig_hermitian, numerical_rank

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_SOLVER_FAILURE = 2
EXIT_BAD_INPUT = 3

# Default rate grid for studies: the ten targets used by the rank-one
# occurrence tables up to the last column where small layouts stay feasible.
TABLE_RATES = (
    0.1375,
    0.2122,
    0.3233,
    0.4835,
    0.7057,
    1.0,
    1.3701,
    1.8122,
    2.3165,
    2.8698,
)

RANK_CSV_HEADER = ("r", "trials", "feasible", "rank_one", "thm1_holds", "song_holds", "failures")
CERT_CSV_HEADER = ("r", "thm1_prob", "song_prob", "feasible_prob", "prop1_bound")


class ScenarioError(ValueError):
    """Raised for any malformed scenario file or flag set (exit 3)."""


def _real_array(node, name: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name} must be a number or an array of numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{name} must contain finite numbers")
    return arr


def _complex_matrix(node, name: str) -> np.ndarray:
    if not isinstance(node, dict) or set(node) != {"re", "im"}:
        raise ScenarioError(f"{name} must be an object with re and im arrays")
    re = _real_array(node["re"], f"{name}.re")
    im = _real_array(node["im"], f"{name}.im")
    if re.shape != im.shape:
        raise ScenarioError(f"{name}.re and {name}.im must have equal shapes")
    return re + 1j * im


def _per_user(node, k: int, name: str) -> np.ndarray:
    arr = _real_array(node, name)
    if arr.ndim == 0:
        return np.full(k, float(arr))
    return arr


def _uncertainty_from_node(node, n: int, k: int):
    if not isinstance(node, dict) or "type" not in node:
        raise ScenarioError("uncertainty must be an object with a type")
    kind = node["type"]
    params = node.get("parameters", {})
    if not isinstance(params, dict):
        raise ScenarioError("uncertainty.parameters must be an object")
    if kind == "sphere":
        if "radius" not in params:
            raise ScenarioError("sphere uncertainty needs a radius")
        return SphereUncertainty(_per_user(params["radius"], k, "radius"))
    if kind == "ellipsoid":
        if "shape" not in params:
            raise ScenarioError("ellipsoid uncertainty needs shape matrices")
        return EllipsoidUncertainty(_complex_matrix(params["shape"], "shape"))
    if kind == "fdd":
        if "direction_error" not in params:
            raise ScenarioError("fdd uncertainty needs direction_error")
        delta = _real_array(params["direction_error"], "direction_error")
        if delta.ndim != 0:
            raise ScenarioError("direction_error must be a single number")
        return FddUncertainty(float(delta))
    if kind == "box":
        if "halfwidth" not in params:
            raise ScenarioError("box uncertainty needs a halfwidth")
        return BoxUncertainty(_per_user(params["halfwidth"], k, "halfwidth"))
    raise ScenarioError(f"unknown uncertainty type {kind!r}")


def _integral(value) -> bool:
    """Whether a parsed JSON value is an integral number.

    JSON true reads as the int 1, int() truncates 2.7 and parses "3", so
    only non-bool numbers with v % 1 == 0 pass (v % 1 is NaN for inf and
    NaN).
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool) and not value % 1


def scenario_from_mapping(data) -> ChannelScenario:
    """Build and validate a ChannelScenario from parsed JSON."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    missing = {"n", "k", "noise_power", "rate_targets", "uncertainty", "channels"} - set(data)
    if missing:
        raise ScenarioError(f"scenario file missing keys: {sorted(missing)}")
    if not (_integral(data["n"]) and _integral(data["k"])):
        raise ScenarioError("n and k must be integers")
    n, k = int(data["n"]), int(data["k"])
    if max(n, k) > MAX_DIMENSION:
        raise ScenarioError(f"n and k must be at most {MAX_DIMENSION}")
    chan = data["channels"]
    if isinstance(chan, dict) and "seed" in chan:
        if not _integral(chan["seed"]):
            raise ScenarioError("channels seed must be an integer")
        try:
            rho = float(chan.get("rho", 1.0))
            presumed = sample_scenario(int(chan["seed"]), n, k, rho, 1.0, 1.0, 1.0).presumed
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"channels seed and rho: {exc}") from exc
    else:
        presumed = _complex_matrix(chan, "channels")
    if presumed.shape != (n, k):
        raise ScenarioError(f"channels must be {n} x {k}, got {presumed.shape}")
    try:
        return ChannelScenario(
            presumed,
            _real_array(data["noise_power"], "noise_power"),
            _real_array(data["rate_targets"], "rate_targets"),
            _uncertainty_from_node(data["uncertainty"], n, k),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path: str) -> ChannelScenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_mapping(data)


def _json_default(value):
    """json.dumps's hook for what it cannot write itself: complex arrays and
    numbers as {re, im}, real arrays as nested lists, numpy scalars as
    Python's. numpy's float64 is a float, which json writes unaided."""
    if np.iscomplexobj(value):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _atomic_write(path: str, text: str) -> None:
    """Writes text to path through a temp file and a rename. The file gets
    the mode of the file it replaces, or that of a plain open (0666 less
    the umask): mkstemp creates its file 0600, and the rename keeps that."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_json(payload, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def emit_csv(header, rows, out_path: str) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    _atomic_write(out_path, buffer.getvalue())


def _settings_from_tol(tol: float | None) -> conic.SolverSettings | None:
    if tol is None:
        return None
    try:
        return conic.SolverSettings(tol_feas=tol, tol_gap=tol)
    except ValueError as exc:
        raise ScenarioError(f"--tol: {exc}") from exc


def _solver_stats(outcome: conic.SolveOutcome) -> dict:
    return {
        "status": outcome.status.value,
        "iterations": outcome.iterations,
        "primal_res": outcome.primal_res,
        "dual_res": outcome.dual_res,
        "gap_res": outcome.gap_res,
        "message": outcome.message,
    }


def _failure_exit(status: conic.Status) -> int:
    """Exit code for a solve that did not reach OPTIMAL."""
    if status is conic.Status.PRIMAL_INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_SOLVER_FAILURE


def _margin_entry(value):
    if isinstance(value, tuple):
        return {"lower": value[0], "upper": value[1]}
    return value


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    settings = _settings_from_tol(args.tol)
    program, index = build_robust_sdp(scenario)
    outcome = conic.solve(program, settings=settings)
    if outcome.status is not conic.Status.OPTIMAL:
        emit_json({"solver": _solver_stats(outcome)}, args.out)
        print(f"solve: {outcome.status.value}", file=sys.stderr)
        return _failure_exit(outcome.status)
    solution = extract_solution(index, outcome)
    spectra = [eig_hermitian(wi)[0] for wi in solution.W]
    report = {
        "objective": solution.objective,
        "powers": solution.powers(),
        "covariance_spectra": spectra,
        "numerical_ranks": [numerical_rank(wi) for wi in solution.W],
        "slack_ranks": [numerical_rank(zi) for zi in solution.Z],
        "multipliers": solution.t,
        "worst_case_margins": [
            _margin_entry(worst_case_margin(solution, scenario, i))
            for i in range(scenario.n_users)
        ],
        "solver": _solver_stats(outcome),
    }
    emit_json(report, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        report = certificate_report(scenario, v_star=args.v_star)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    emit_json(dataclasses.asdict(report), args.out)
    return EXIT_OK


def cmd_mmf(args) -> int:
    scenario = load_scenario(args.scenario)
    if not 0.0 <= args.power < np.inf:
        raise ScenarioError("--power must be nonnegative and finite")
    try:
        result = mmf_rate(scenario, args.power, tol_bits=args.tol)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    emit_json(dataclasses.asdict(result), args.out)
    return EXIT_OK


def _study_config(args) -> StudyConfig:
    try:
        rates = tuple(float(tok) for tok in args.rates.split(",") if tok.strip())
    except ValueError as exc:
        raise ScenarioError("--rates must be a comma-separated list of numbers") from exc
    try:
        return StudyConfig(
            n_antennas=args.n,
            n_users=args.k,
            rates=rates,
            trials=args.trials,
            noise_power=args.sigma2,
            eps2=args.eps2,
            rho=args.rho,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def cmd_study(args) -> int:
    """rank-study or cert-study: the report's rows, whose fields are in the
    order of the CSV header, one line each."""
    report = args.study(_study_config(args))
    emit_csv(args.header, map(dataclasses.astuple, report.rows), args.out)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    try:
        scenario, record = counterexample_instance(
            args.n, args.k, args.delta, noise_power=args.sigma2
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    report = gap_audit(scenario, record)
    emit_json(dataclasses.asdict(report), args.out)
    if report.inconclusive:
        print("counterexample: solver failure, audit inconclusive", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def cmd_audit(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        check_duality_audit(scenario, args.samples)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    program, index = build_robust_sdp(scenario)
    outcome = conic.solve(program)
    if outcome.status is not conic.Status.OPTIMAL:
        print(f"audit: {outcome.status.value}", file=sys.stderr)
        return _failure_exit(outcome.status)
    solution = extract_solution(index, outcome)
    try:
        duality = duality_audit(scenario, solution, samples=args.samples, seed=args.seed)
        kkt = kkt_rank_audit(solution)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    report = {
        "duality": {
            "v_star": duality.v_star,
            "p_best": duality.p_best,
            "gap": duality.gap,
            "evaluated": duality.evaluated,
            "violations": duality.violations,
            "failures": duality.failures,
            "best_channels": [
                {"user": m.user, "h": m.h, "xi": m.xi} for m in duality.best_members
            ],
        },
        "kkt": dataclasses.asdict(kkt),
    }
    emit_json(report, args.out)
    passed = duality.violations == 0 and kkt.passed
    return EXIT_OK if passed else EXIT_INFEASIBLE


# One parser per process: parsing does not change it.
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-miso",
        description="Robust downlink beamforming designs, certificates, and studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve the robust design for a scenario file")
    solve.add_argument("--scenario", required=True)
    solve.add_argument("--out", default=None)
    solve.add_argument("--tol", type=float, default=None)
    solve.set_defaults(handler=cmd_solve)

    certify = sub.add_parser("certify", help="evaluate rank-one certificates")
    certify.add_argument("--scenario", required=True)
    certify.add_argument("--v-star", type=float, default=None, dest="v_star")
    certify.add_argument("--out", default=None)
    certify.set_defaults(handler=cmd_certify)

    mmf = sub.add_parser("mmf", help="max-min-fair common rate under a power budget")
    mmf.add_argument("--scenario", required=True)
    mmf.add_argument("--power", type=float, required=True)
    mmf.add_argument("--tol", type=float, default=1e-3)
    mmf.add_argument("--out", default=None)
    mmf.set_defaults(handler=cmd_mmf)

    for name, run, header in (
        ("rank-study", rank_study, RANK_CSV_HEADER),
        ("cert-study", certificate_study, CERT_CSV_HEADER),
    ):
        study = sub.add_parser(name, help=f"run a Monte-Carlo {name.replace('-', ' ')}")
        study.add_argument("--n", type=int, required=True)
        study.add_argument("--k", type=int, required=True)
        study.add_argument("--eps2", type=float, default=0.1)
        study.add_argument("--sigma2", type=float, default=0.1)
        study.add_argument("--rho", type=float, default=1.0)
        study.add_argument("--rates", default=",".join(repr(r) for r in TABLE_RATES))
        study.add_argument("--trials", type=int, default=200)
        study.add_argument("--seed", type=int, default=0)
        study.add_argument("--out", required=True)
        study.set_defaults(handler=cmd_study, study=run, header=header)

    ce = sub.add_parser("counterexample", help="build and audit the worst-case-gap instance")
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--delta", type=float, required=True)
    ce.add_argument("--sigma2", type=float, default=0.1)
    ce.add_argument("--out", default=None)
    ce.set_defaults(handler=cmd_counterexample)

    audit = sub.add_parser("audit", help="duality and rank audits on a solved scenario")
    audit.add_argument("--scenario", required=True)
    audit.add_argument("--samples", type=int, default=100, help="fixed-channel solves")
    audit.add_argument("--seed", type=int, default=0)
    # The worst-case members come from the LMI multipliers: no search to tune.
    for flag in ("--proposals", "--patience"):
        audit.add_argument(flag, type=int, default=None, help="accepted and ignored")
    audit.add_argument("--out", default=None)
    audit.set_defaults(handler=cmd_audit)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; normalize to the bad-input code.
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT
    try:
        return args.handler(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:
        # numpy's message names the bytes and the shape it could not allocate.
        print(f"error: scenario too large for memory: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
