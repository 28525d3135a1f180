#!/usr/bin/env python3
"""Interleaved A/B timing of conic.solve between two checkouts.

    python3 tools/ab_solve.py PARENT CHANGE [--rounds 21] [--passes 3] [--sets audit,4x3]
    python3 tools/ab_solve.py --aa CHECKOUT [--rounds 21]

PARENT and CHANGE are the roots of two checkouts of this repository (each
with src/ and perfbench/). The programs are built once, by PARENT's code,
and both sides solve the same ones. Each round runs one worker process per
side, in alternating order (A first in even rounds, B first in odd ones);
a worker solves every program once untimed, then times the given number
of passes over each set and keeps the fastest. The fixed sets, all of them
unless --sets names some:

  audit  the m = 3 fixed-channel programs of the first two cli-audit
         operations of benchmark seed 1 (24 lifted-channel members each);
  4x3    the first 12 4x3 table-study trials of seed 1;
  8x3    the first 4 8x3 table-study trials of seed 1;
  large  the first 4 large-design inputs of seed 1 (8x7, one per model).

The run fails (exit 1) when a program's status or iteration count differs
between the sides. Otherwise it prints, per set, whether x, y and s are
byte-equal, the Python and C calls per iteration of the set's first program
(sys.setprofile call events over one solve, divided by its iterations), the
median time per iteration of each side, the median ratio CHANGE / PARENT
and the rounds that CHANGE won. --aa runs a checkout against itself, which
calibrates the noise of the machine: its ratio should read 1 and its wins
about half of the rounds.

The BLAS is pinned to one thread in every worker.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time

SETS = ("audit", "4x3", "8x3", "large")
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_checkout(root: str):
    """robust_miso and perfbench/workloads.py of the checkout at root."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from robust_miso import conic

    import workloads

    return conic, workloads


def _captured(conic, call) -> list:
    """The programs that conic.solve receives while call() runs."""
    solve, progs = conic.solve, []

    def capture(prog, settings=None):
        progs.append(prog)
        return solve(prog, settings)

    conic.solve = capture
    try:
        call()
    finally:
        conic.solve = solve
    return progs


def build(root: str, path: str) -> None:
    """Writes the fixed sets, as (c, A, b, cones) tuples, to path."""
    conic, workloads = _import_checkout(root)
    from robust_miso import harness

    sets = {}
    with tempfile.TemporaryDirectory() as tmp:
        audit = workloads.CliAudit()
        sets["audit"] = [
            prog
            for item in audit.inputs(1, tmp, 2)
            for prog in _captured(conic, lambda item=item: audit.op(item))
            if prog.m == 3
        ]
    trials = workloads.TableStudy().inputs(1, ".", 64)
    for name, n, count in (("4x3", 4, 12), ("8x3", 8, 4)):
        cfgs = [cfg for cfg in trials if cfg.n_antennas == n][:count]
        sets[name] = [
            prog
            for cfg in cfgs
            for prog in _captured(conic, lambda cfg=cfg: harness.rank_study(cfg))
        ]
    large = workloads.LargeDesign()
    sets["large"] = [
        workloads.formulations.build_robust_sdp(sc)[0] for sc in large.inputs(1, ".", 4)
    ]
    plain = {
        name: [
            (p.c, p.A, p.b, [(type(k).__name__, k.dim if isinstance(k, conic.NonNeg) else k.order)
                             for k in p.cones])
            for p in progs
        ]
        for name, progs in sets.items()
    }
    with open(path, "wb") as fh:
        pickle.dump(plain, fh)


def _calls_per_iteration(conic, prog) -> float:
    """Python and C function calls of one solve over its iterations."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        out = conic.solve(prog)
    finally:
        sys.setprofile(None)
    return (count - 1) / max(out.iterations, 1)


def work(root: str, path: str, passes: int, names: list[str]) -> None:
    """Solves the sets of path with the checkout at root; prints one JSON
    line: per set its digests, iterations, calls per iteration and the
    fastest of `passes` timed passes."""
    conic, _ = _import_checkout(root)
    with open(path, "rb") as fh:
        plain = pickle.load(fh)
    result = {}
    for name in names:
        items = plain[name]
        progs = [
            conic.ConicProgram(c, a, b, [getattr(conic, kind)(size) for kind, size in cones])
            for c, a, b, cones in items
        ]
        digests, iterations = [], 0
        for prog in progs:
            out = conic.solve(prog)
            digest = hashlib.sha256()
            for v in (out.x, out.y, out.s):
                digest.update(b"none" if v is None else v.tobytes())
            digests.append((out.status.name, out.iterations, digest.hexdigest()))
            iterations += out.iterations
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            for prog in progs:
                conic.solve(prog)
            best = min(best, time.perf_counter() - start)
        result[name] = {
            "digests": digests,
            "iterations": iterations,
            "calls": _calls_per_iteration(conic, progs[0]),
            "seconds": best,
        }
    print(json.dumps(result))


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, **{var: "1" for var in _BLAS_VARS})
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        env=env, capture_output=True, text=True, check=True,
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", help="PARENT CHANGE")
    parser.add_argument("--aa", metavar="CHECKOUT", help="run CHECKOUT against itself")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--sets", default=",".join(SETS), help="comma-separated set names")
    parser.add_argument("--build", nargs=2, metavar=("ROOT", "PATH"), help=argparse.SUPPRESS)
    parser.add_argument("--work", nargs=2, metavar=("ROOT", "PATH"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build:
        build(*args.build)
        return 0
    names = args.sets.split(",")
    if set(names) - set(SETS):
        parser.error(f"--sets takes names from {', '.join(SETS)}")
    if args.work:
        work(*args.work, args.passes, names)
        return 0
    sides = [args.aa, args.aa] if args.aa else args.checkouts
    if len(sides) != 2 or args.aa and args.checkouts:
        parser.error("give PARENT and CHANGE, or --aa CHECKOUT")
    if args.rounds < 2 or args.passes < 1:
        parser.error("--rounds must be at least 2 and --passes at least 1")
    sides = [os.path.abspath(side) for side in sides]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "programs.pickle")
        _run(["--build", sides[0], path])
        runs = [[], []]
        for rnd in range(args.rounds):
            for side in (0, 1) if rnd % 2 == 0 else (1, 0):
                work_args = ["--work", sides[side], path, "--passes", str(args.passes)]
                proc = _run(work_args + ["--sets", args.sets])
                runs[side].append(json.loads(proc.stdout.splitlines()[-1]))

    failed = False
    print(f"A = {sides[0]}\nB = {sides[1]}\n{args.rounds} rounds, best of {args.passes} passes")
    for name in names:
        a, b = runs[0][0][name], runs[1][0][name]
        counts_a = [d[:2] for d in a["digests"]]
        counts_b = [d[:2] for d in b["digests"]]
        if counts_a != counts_b:
            failed = True
            diff = sum(x != y for x, y in zip(counts_a, counts_b))
            print(f"{name}: status or iterations differ on {diff} of {len(counts_a)} programs")
            continue
        equal = sum(x == y for x, y in zip(a["digests"], b["digests"]))
        its, count = a["iterations"], len(a["digests"])
        per_it = [[r[name]["seconds"] / its * 1e3 for r in side] for side in runs]
        ratios = [tb / ta for ta, tb in zip(*per_it)]
        won = sum(r < 1.0 for r in ratios)
        print(
            f"{name}: {count} programs, {its} iterations, x y s byte-equal on {equal} of "
            f"{count}; calls/iteration {a['calls']:.0f} -> {b['calls']:.0f}; ms/iteration "
            f"{statistics.median(per_it[0]):.4f} -> {statistics.median(per_it[1]):.4f}; "
            f"ratio median {statistics.median(ratios):.3f} "
            f"(quartiles {' '.join(f'{q:.3f}' for q in statistics.quantiles(ratios, n=4))}); "
            f"B won {won} of {len(ratios)}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
