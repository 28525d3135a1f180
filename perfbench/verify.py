"""Checks on each operation's output, recomputed from the problem data.

Nothing here trusts a residual or flag the solver reports about itself:
residuals, gaps, cone membership and certificate distances are recomputed
from (A, b, c) and the returned vectors. Each check returns a list of
failure reasons, one (status, message) pair per failed condition; messages
carry no numbers so that equal causes group together in the histogram.
"""

from __future__ import annotations

import numpy as np

# Ten times the solver's default feasibility, gap and certificate tolerance.
RESIDUAL_TOL = 1e-7
CERTIFICATE_TOL = 1e-7
# Smallest eigenvalue accepted for a cone member, relative to its block norm.
CONE_TOL = 1e-9
# Worst-case rate-constraint value accepted, relative to the user's noise power.
MARGIN_REL_TOL = 1e-6


def _blocks(v: np.ndarray, cones):
    """Yield each cone block of v as a vector (orthant) or symmetric matrix."""
    off = 0
    for cone in cones:
        seg = v[off : off + cone.dim]
        off += cone.dim
        order = getattr(cone, "order", None)
        if order is None:
            yield seg
            continue
        iu, ju = np.triu_indices(order)
        mat = np.zeros((order, order))
        mat[iu, ju] = seg / np.where(iu == ju, 1.0, np.sqrt(2.0))
        mat[ju, iu] = mat[iu, ju]
        yield mat


def _eigs(block: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(block) if block.ndim == 2 else block


def cone_min_rel(v: np.ndarray, cones) -> float:
    """Smallest eigenvalue over the blocks of v, each over max(1, block norm)."""
    return min(
        float(_eigs(b).min()) / max(1.0, float(np.linalg.norm(b))) for b in _blocks(v, cones)
    )


def cone_distance(v: np.ndarray, cones) -> float:
    """Euclidean distance from v to the cone: the norm of its negative part."""
    neg = sum(float(np.sum(np.minimum(_eigs(b), 0.0) ** 2)) for b in _blocks(v, cones))
    return float(np.sqrt(neg))


def check_outcome(prog, outcome) -> list[tuple[str, str]]:
    """Verify an OPTIMAL or PRIMAL_INFEASIBLE outcome against its program."""
    status = outcome.status.name
    a, b, c = prog.A, prog.b, prog.c
    fails = []
    if status == "OPTIMAL":
        x, y, s = outcome.x, outcome.y, outcome.s
        pobj, dobj = float(c @ x), float(b @ y)
        if np.linalg.norm(a @ x - b) / (1.0 + np.linalg.norm(b)) > RESIDUAL_TOL:
            fails.append((status, "primal residual above tolerance"))
        if np.linalg.norm(a.T @ y + s - c) / (1.0 + np.linalg.norm(c)) > RESIDUAL_TOL:
            fails.append((status, "dual residual above tolerance"))
        if abs(pobj - dobj) / (1.0 + abs(pobj)) > RESIDUAL_TOL:
            fails.append((status, "duality gap above tolerance"))
        if cone_min_rel(x, prog.cones) < -CONE_TOL:
            fails.append((status, "x outside the cone"))
        if cone_min_rel(s, prog.cones) < -CONE_TOL:
            fails.append((status, "s outside the cone"))
        if abs(outcome.objective - pobj) > 1e-9 * (1.0 + abs(pobj)):
            fails.append((status, "reported objective differs from <c, x>"))
    elif status == "PRIMAL_INFEASIBLE":
        y = outcome.y
        if abs(float(b @ y) - 1.0) > 1e-9:
            fails.append((status, "certificate not normalized to <b, y> = 1"))
        if cone_distance(-(a.T @ y), prog.cones) > CERTIFICATE_TOL:
            fails.append((status, "-A^T y not within tolerance of the cone"))
    else:
        fails.append((status, outcome.message or "no message"))
    return fails


def check_design(solution, outcome) -> list[tuple[str, str]]:
    """The extracted design must carry the solved objective."""
    if abs(solution.objective - outcome.objective) > 1e-8 * (1.0 + abs(outcome.objective)):
        return [("design", "total covariance trace differs from the objective")]
    return []


def check_margins(scenario, margins) -> tuple[list[tuple[str, str]], float]:
    """Worst-case rate-constraint values of a verified design.

    Exact values (ball and ellipsoid) and the sampled lower end of a
    bracket (feedback and box) must not exceed MARGIN_REL_TOL times the
    user's noise power. Returns the failures and the largest exact value
    over the noise power (-inf when no value is exact).
    """
    fails = []
    worst = -np.inf
    kind = scenario.uncertainty.kind
    for user, value in enumerate(margins):
        sigma2 = float(scenario.noise_power[user])
        if isinstance(value, tuple):
            lower, upper = value
            if not lower <= MARGIN_REL_TOL * sigma2:
                fails.append((kind, "sampled worst-case margin above tolerance"))
            if not lower <= upper + MARGIN_REL_TOL * sigma2:
                fails.append((kind, "margin bracket inverted"))
        else:
            if not value <= MARGIN_REL_TOL * sigma2:
                fails.append((kind, "exact worst-case margin above tolerance"))
            worst = max(worst, float(value) / sigma2)
    return fails, worst


def check_audit_report(code: int, report: dict | None) -> list[tuple[str, str]]:
    """An audit run must exit 0 with no violations, no failures and a passed
    KKT audit."""
    if code != 0:
        return [("cli", f"exit code {code}")]
    if report is None:
        return [("cli", "no report written")]
    fails = []
    duality, kkt = report["duality"], report["kkt"]
    if duality["violations"] != 0:
        fails.append(("cli", "duality audit found violations"))
    if duality["failures"] != 0:
        fails.append(("cli", "duality audit had inner solver failures"))
    if not kkt["passed"]:
        fails.append(("cli", "KKT rank audit failed"))
    return fails
