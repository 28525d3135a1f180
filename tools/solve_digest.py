#!/usr/bin/env python3
"""Bit-identity digest of conic.solve over fixed seeded sets of programs.

Prints one line per solve: a label, the status, the iteration count, the
number of Schur factorizations that potrf rejected before the diagonal
jitter let one through, the message, one sha256 of the bytes of x, y and s,
and the number of QR re-solves tried and taken. The counts are the
outcome's SolveStats. Run it in two checkouts and diff the outputs; a
change that claims to keep every result must leave the two files equal:

    PYTHONPATH=src python3 tools/solve_digest.py seeded grid large > digest.txt

A change that alters the bytes on purpose (a different but equally exact
arithmetic, such as the factored W part of the 8x7 designs) compares only
the first five fields, label to message, which must still be equal:

    cut -d'|' -f1-5 digest.txt

Digests written before the QR counts were added have six fields; compare
fields 1-6 with them (cut leaves the space before the seventh field's bar):

    cut -d'|' -f1-6 digest.txt | sed 's/ $//'

The sets, any of which may be named (seeded and grid when none is):
  seeded  85 programs: 48 robust designs (sphere, ellipsoid, fdd and box at
          2x2, 4x3, 8x3 and 3x4, seeds 0-2), 28 fixed-channel programs
          (build_fixed_sdp, build_fixed_dual and both build_mu_max_pair
          programs of every user, 2x2 and 4x3, seeds 0-1) and 9
          failure-path designs at channel gain 1e4.
  grid    the 288-point 4x3 stress grid of tests/test_solver.py.
  large   the 32 large-design inputs of benchmark seed 1 (8x7, read from
          perfbench/workloads.py).
  stress8x7  64 designs at 8x7, sample_scenario(seed, 8, 7, rho, sigma2,
          0.3, rate) over seeds 0-1, rho 1e-3 and 1e4, sigma2 1e-5 and 0.1
          and rate 0.7 and 2.0, for the four models built as the benchmark
          builds them: an ellipsoid with squared semi-axes 0.5-1.5 times the
          squared ball radius r^2 on a random unitary basis, fdd at delta
          0.3 and a box of halfwidth r / sqrt(N).

A set may be named twice. The solver keeps the layouts of recent sparsity
patterns (conic._PATTERNS), so the second pass of

    PYTHONPATH=src python3 tools/solve_digest.py seeded grid seeded grid

reuses every layout that the first pass built (the two sets have 20
patterns); its lines must equal the first pass's. CI runs this check.

Digests depend on the BLAS build and its thread count. The BLAS is pinned
to one thread before numpy loads; compare files from one machine only. The
two passes of one run share a process, so their comparison holds on any
BLAS build.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
from dataclasses import replace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from robust_miso import conic  # noqa: E402
from robust_miso.formulations import (  # noqa: E402
    BoxUncertainty,
    EllipsoidUncertainty,
    FddUncertainty,
    SphereUncertainty,
    build_fixed_dual,
    build_fixed_sdp,
    build_mu_max_pair,
    build_robust_sdp,
)
from robust_miso.harness import sample_scenario  # noqa: E402

MODELS = ("sphere", "ellipsoid", "fdd", "box")


def model_scenario(seed, n, k, model):
    """Seeded scenario for one error model, as in tests/test_solver.py."""
    sc = sample_scenario(seed, n, k, 1.0, 0.1, 0.1, 0.7)
    rng = np.random.default_rng(seed)
    if model == "ellipsoid":
        z = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        q, _ = np.linalg.qr(z)
        axes2 = rng.uniform(0.05, 0.15, (k, n))
        shapes = np.einsum("kij,kj,klj->kil", q, axes2, q.conj())
        return replace(sc, uncertainty=EllipsoidUncertainty(shapes))
    if model == "fdd":
        return replace(sc, uncertainty=FddUncertainty(0.08))
    if model == "box":
        return replace(sc, uncertainty=BoxUncertainty(rng.uniform(0.05, 0.1, k)))
    return sc


def seeded():
    shapes = ((2, 2), (4, 3), (8, 3), (3, 4))
    for (n, k), model, seed in itertools.product(shapes, MODELS, range(3)):
        prog = build_robust_sdp(model_scenario(seed, n, k, model))[0]
        yield f"robust {n}x{k} {model} seed {seed}", prog
    for (n, k), seed in itertools.product(((2, 2), (4, 3)), range(2)):
        sc = sample_scenario(seed, n, k, 1.0, 0.1, 0.1, 0.7)
        chans = np.stack([np.outer(h, h.conj()) for h in sc.presumed.T])
        yield f"fixed {n}x{k} seed {seed}", build_fixed_sdp(chans, sc.noise_power, sc.gamma)[0]
        yield f"dual {n}x{k} seed {seed}", build_fixed_dual(chans, sc.noise_power, sc.gamma)[0]
        for user in range(k):
            (mu_dual, _), (mu_primal, _) = build_mu_max_pair(chans, sc.gamma, user)
            yield f"mu-dual {n}x{k} seed {seed} user {user}", mu_dual
            yield f"mu-primal {n}x{k} seed {seed} user {user}", mu_primal
    for seed, sigma2, eps2 in ((2, 1e-7, 1000.0), (1, 1e-7, 0.3), (3, 1e-5, 1.0)):
        sc = sample_scenario(seed, 4, 3, 1e4, sigma2, eps2, 2.0)
        for name, unc in (
            ("sphere", sc.uncertainty),
            ("fdd 0.3", FddUncertainty(0.3)),
            ("box 0.05", BoxUncertainty(np.full(3, 0.05))),
        ):
            label = f"failure-path seed {seed} sigma2 {sigma2:g} eps2 {eps2:g} {name}"
            yield label, build_robust_sdp(replace(sc, uncertainty=unc))[0]


def grid():
    rng = np.random.default_rng(7)
    axes, _ = np.linalg.qr(rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
    for model, sigma2, rho, frac, rate in itertools.product(
        MODELS, (1e-7, 1e-5, 0.1, 1e3), (1e-3, 1.0, 1e4), (1e-3, 0.3, 0.9), (0.3, 2.0)
    ):
        sc = sample_scenario(1, 4, 3, rho, sigma2, 1.0, 0.3)
        radius = frac * np.min(np.linalg.norm(sc.presumed, axis=0))
        if model == "ellipsoid":
            half_axes2 = radius**2 * np.linspace(0.5, 1.0, 4)
            unc = EllipsoidUncertainty(np.einsum("kij,j,klj->kil", axes, half_axes2, axes.conj()))
        elif model == "fdd":
            unc = FddUncertainty(frac)
        elif model == "box":
            unc = BoxUncertainty(np.full(3, radius / 2))
        else:
            unc = SphereUncertainty(np.full(3, radius))
        sc = replace(sc, rate_target=np.full(3, rate), uncertainty=unc)
        label = f"grid {model} sigma2 {sigma2:g} rho {rho:g} frac {frac:g} rate {rate:g}"
        yield label, build_robust_sdp(sc)[0]


def large():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
    from workloads import LargeDesign

    workload = LargeDesign()
    for i, sc in enumerate(workload.inputs(1, ".", workload.pool)):
        yield f"large-design seed 1 input {i} {workload.models[i % 4]}", build_robust_sdp(sc)[0]


def stress8x7():
    n, k = 8, 7
    for seed, rho, sigma2, rate in itertools.product((0, 1), (1e-3, 1e4), (1e-5, 0.1), (0.7, 2.0)):
        sc = sample_scenario(seed, n, k, rho, sigma2, 0.3, rate)
        radius = sc.uncertainty.radius
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        q, _ = np.linalg.qr(z)
        axes2 = rng.uniform(0.5, 1.5, (k, n)) * radius[:, None] ** 2
        models = {
            "sphere": sc.uncertainty,
            "ellipsoid": EllipsoidUncertainty(np.einsum("kij,kj,klj->kil", q, axes2, q.conj())),
            "fdd": FddUncertainty(0.3),
            "box": BoxUncertainty(radius / np.sqrt(n)),
        }
        for model, unc in models.items():
            label = f"stress8x7 {model} seed {seed} rho {rho:g} sigma2 {sigma2:g} rate {rate:g}"
            yield label, build_robust_sdp(replace(sc, uncertainty=unc))[0]


SETS = {"seeded": seeded, "grid": grid, "large": large, "stress8x7": stress8x7}


def main(argv: list[str]) -> int:
    names = argv or ["seeded", "grid"]
    unknown = [name for name in names if name not in SETS]
    if unknown:
        print(f"unknown set {unknown[0]!r}; choose from {', '.join(SETS)}", file=sys.stderr)
        return 2
    for name in names:
        for label, prog in SETS[name]():
            out = conic.solve(prog)
            digest = hashlib.sha256()
            for v in (out.x, out.y, out.s):
                digest.update(b"none" if v is None else v.tobytes())
            stats = out.stats
            print(
                f"{label} | {out.status.name} | {out.iterations} | {stats.schur_rejected} | "
                f"{out.message} | {digest.hexdigest()} | {stats.qr_tried} | {stats.qr_taken}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
