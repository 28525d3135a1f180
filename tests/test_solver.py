"""Tests for the dense conic interior-point solver."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from robust_miso.conic import (
    ConicProgram,
    NonNeg,
    Psd,
    SolverSettings,
    Status,
    cone_distance,
    cone_identity,
    cone_min_eig,
    cone_project,
    smat,
    solve,
    svec,
)
from robust_miso.formulations import build_robust_sdp
from robust_miso.harness import sample_scenario


def rand_pd(order, rng, shift=0.5):
    g = rng.standard_normal((order, order))
    return g @ g.T + shift * np.eye(order)


def random_cones(rng, max_order=6):
    cones = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.4:
            cones.append(NonNeg(int(rng.integers(1, 5))))
        else:
            cones.append(Psd(int(rng.integers(2, max_order + 1))))
    return cones


def feasible_instance(rng, cones=None):
    """Program with a known strictly feasible primal-dual pair."""
    cones = cones or random_cones(rng)
    n = sum(k.dim for k in cones)
    m = int(rng.integers(2, max(3, (3 * n) // 4)))
    a = rng.standard_normal((m, n))
    parts_x, parts_s = [], []
    for k in cones:
        if isinstance(k, NonNeg):
            parts_x.append(rng.uniform(0.3, 3.0, k.length))
            parts_s.append(rng.uniform(0.3, 3.0, k.length))
        else:
            parts_x.append(svec(rand_pd(k.order, rng)))
            parts_s.append(svec(rand_pd(k.order, rng)))
    x0 = np.concatenate(parts_x)
    s0 = np.concatenate(parts_s)
    y0 = rng.standard_normal(m)
    prog = ConicProgram(c=a.T @ y0 + s0, A=a, b=a @ x0, cones=cones)
    return prog, x0, y0


def kkt_residual(prog, out):
    """Largest of the relative primal, dual and gap residuals at out."""
    a, b, c = prog.A, prog.b, prog.c
    pres = np.linalg.norm(a @ out.x - b) / (1 + np.linalg.norm(b))
    dres = np.linalg.norm(a.T @ out.y + out.s - c) / (1 + np.linalg.norm(c))
    gap = abs(c @ out.x - b @ out.y) / (1 + abs(c @ out.x))
    return max(pres, dres, gap)


def test_svec_smat_round_trip():
    rng = np.random.default_rng(3)
    for p in (1, 2, 5, 9):
        m = rand_pd(p, rng, shift=0.0)
        v = svec(m)
        assert v.shape == (p * (p + 1) // 2,)
        np.testing.assert_allclose(smat(v, p), m, atol=1e-12)


def test_svec_preserves_inner_product():
    rng = np.random.default_rng(4)
    a = rand_pd(6, rng)
    b = rand_pd(6, rng)
    assert np.trace(a @ b) == pytest.approx(float(svec(a) @ svec(b)), rel=1e-12)


def test_svec_stacked():
    rng = np.random.default_rng(5)
    stack = np.stack([rand_pd(4, rng) for _ in range(3)])
    v = svec(stack)
    assert v.shape == (3, 10)
    np.testing.assert_allclose(smat(v, 4), stack, atol=1e-12)


def test_cone_identity_and_min_eig():
    cones = [NonNeg(2), Psd(3)]
    e = cone_identity(cones)
    assert e.shape == (2 + 6,)
    assert cone_min_eig(e, cones) == pytest.approx(1.0)
    v = e.copy()
    v[0] = -2.0
    assert cone_min_eig(v, cones) == pytest.approx(-2.0)


def test_cone_project_is_metric_projection():
    rng = np.random.default_rng(6)
    cones = [NonNeg(3), Psd(4)]
    v = rng.standard_normal(3 + 10)
    p = cone_project(v, cones)
    assert cone_min_eig(p, cones) >= -1e-12
    # Projection is no farther than an arbitrary cone member.
    w = np.concatenate([rng.uniform(0, 2, 3), svec(rand_pd(4, rng))])
    assert np.linalg.norm(v - p) <= np.linalg.norm(v - w) + 1e-12
    assert cone_distance(p, cones) <= 1e-12


def test_program_validation():
    cones = [NonNeg(2)]
    with pytest.raises(ValueError, match="dimensions"):
        ConicProgram(c=np.zeros(3), A=np.zeros((1, 2)), b=np.zeros(1), cones=cones)
    with pytest.raises(ValueError, match="finite"):
        ConicProgram(
            c=np.array([np.inf, 0.0]), A=np.ones((1, 2)), b=np.ones(1), cones=cones
        )
    with pytest.raises(ValueError, match="cone"):
        ConicProgram(c=np.zeros(0), A=np.zeros((1, 0)), b=np.zeros(1), cones=[])
    with pytest.raises(ValueError):
        NonNeg(0)
    with pytest.raises(ValueError):
        Psd(-1)


def test_lp_analytic():
    # min -x1 subject to x1 + x2 = 2, x >= 0 attains -2 at (2, 0).
    prog = ConicProgram(
        c=np.array([-1.0, 0.0]),
        A=np.array([[1.0, 1.0]]),
        b=np.array([2.0]),
        cones=[NonNeg(2)],
    )
    out = solve(prog)
    assert out.status is Status.OPTIMAL
    assert out.objective == pytest.approx(-2.0, abs=1e-7)
    np.testing.assert_allclose(out.x, [2.0, 0.0], atol=1e-6)


def test_sdp_analytic_trace():
    # min tr(X) with pinned diagonal; the off-diagonal entry vanishes.
    a = np.zeros((2, 3))
    a[0, 0] = 1.0
    a[1, 2] = 1.0
    prog = ConicProgram(c=svec(np.eye(2)), A=a, b=np.ones(2), cones=[Psd(2)])
    out = solve(prog)
    assert out.status is Status.OPTIMAL
    assert out.objective == pytest.approx(2.0, abs=1e-7)
    x = smat(out.x, 2)
    np.testing.assert_allclose(x, np.eye(2), atol=1e-6)


def test_sdp_largest_eigenvalue_dual():
    # max <C, X> s.t. tr X = 1, X >= 0 equals lambda_max(C); we minimize -<C,X>.
    rng = np.random.default_rng(11)
    c_mat = rand_pd(4, rng, shift=0.0)
    prog = ConicProgram(
        c=-svec(c_mat),
        A=svec(np.eye(4))[None, :],
        b=np.array([1.0]),
        cones=[Psd(4)],
    )
    out = solve(prog)
    assert out.status is Status.OPTIMAL
    lam_max = float(np.linalg.eigvalsh(c_mat)[-1])
    assert -out.objective == pytest.approx(lam_max, rel=1e-7)


@pytest.mark.parametrize("seed", range(6))
def test_lp_matches_scipy_linprog(seed):
    rng = np.random.default_rng(100 + seed)
    n, m = 8, 4
    a = rng.standard_normal((m, n))
    x0 = rng.uniform(0.5, 2.0, n)
    c = a.T @ rng.standard_normal(m) + rng.uniform(0.5, 2.0, n)
    b = a @ x0
    prog = ConicProgram(c=c, A=a, b=b, cones=[NonNeg(n)])
    out = solve(prog)
    ref = scipy.optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert out.status is Status.OPTIMAL
    assert ref.status == 0
    assert out.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)


def test_small_sdp_matches_slsqp():
    # Two-variable parametrization of a PSD constraint solved generically by
    # SLSQP on the Cholesky factor, as an independent check.
    rng = np.random.default_rng(42)
    c_mat = rand_pd(2, rng)
    a_mat = rand_pd(2, rng)
    b_val = 3.0
    prog = ConicProgram(
        c=svec(c_mat), A=svec(a_mat)[None, :], b=np.array([b_val]), cones=[Psd(2)]
    )
    out = solve(prog)
    assert out.status is Status.OPTIMAL

    def unpack(z):
        l = np.array([[z[0], 0.0], [z[1], z[2]]])
        return l @ l.T

    def obj(z):
        return float(np.trace(c_mat @ unpack(z)))

    cons = {"type": "eq", "fun": lambda z: float(np.trace(a_mat @ unpack(z))) - b_val}
    best = np.inf
    for _ in range(8):
        z0 = rng.standard_normal(3)
        res = scipy.optimize.minimize(obj, z0, method="SLSQP", constraints=[cons])
        if res.success:
            best = min(best, res.fun)
    assert out.objective == pytest.approx(best, rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("seed", range(12))
def test_random_feasible_mixed(seed):
    """Random strictly feasible programs solve to tight KKT residuals."""
    rng = np.random.default_rng(1000 + seed)
    prog, x0, y0 = feasible_instance(rng)
    out = solve(prog)
    assert out.status is Status.OPTIMAL, out.message
    assert kkt_residual(prog, out) <= 1e-8
    b, c = prog.b, prog.c
    assert cone_min_eig(out.x, prog.cones) >= -1e-9
    assert cone_min_eig(out.s, prog.cones) >= -1e-9
    # x0 is primal feasible and y0 dual feasible, so they bracket the optimum.
    assert out.objective <= c @ x0 + 1e-6 * (1 + abs(c @ x0))
    assert out.dual_objective >= b @ y0 - 1e-6 * (1 + abs(b @ y0))


@pytest.mark.parametrize("cones, factor", [([NonNeg(8)], 1.0), ([Psd(4)], -2.5)])
def test_redundant_equality_row_solves(cones, factor):
    """A repeated (or scaled) equality row makes the Schur complement
    singular; the diagonal jitter lets Cholesky factor it anyway."""
    prog, _, _ = feasible_instance(np.random.default_rng(0), cones=cones)
    a = np.vstack([prog.A, factor * prog.A[:1]])
    b = np.append(prog.b, factor * prog.b[0])
    redundant = ConicProgram(c=prog.c, A=a, b=b, cones=cones)
    out = solve(redundant)
    assert out.status is Status.OPTIMAL, out.message
    assert kkt_residual(redundant, out) <= 1e-8
    assert out.objective == pytest.approx(solve(prog).objective, rel=1e-6, abs=1e-6)


def test_weak_duality_holds_at_solution():
    rng = np.random.default_rng(77)
    prog, _, _ = feasible_instance(rng)
    out = solve(prog)
    assert out.status is Status.OPTIMAL
    assert out.objective >= out.dual_objective - 1e-7 * (1 + abs(out.objective))


def test_primal_infeasible_certificate():
    # A^T y0 = -s0 with s0 interior and <b, y0> = 1 is a Farkas witness.
    rng = np.random.default_rng(9)
    for _ in range(6):
        cones = random_cones(rng)
        n = sum(k.dim for k in cones)
        m = int(rng.integers(2, n // 2 + 2))
        parts = []
        for k in cones:
            if isinstance(k, NonNeg):
                parts.append(rng.uniform(0.3, 3.0, k.length))
            else:
                parts.append(svec(rand_pd(k.order, rng)))
        s0 = np.concatenate(parts)
        a_top = rng.standard_normal((m - 1, n))
        y_top = rng.standard_normal(m - 1)
        a = np.vstack([a_top, -(a_top.T @ y_top + s0)[None, :]])
        y0 = np.concatenate([y_top, [1.0]])
        b = rng.standard_normal(m)
        b = b + (1.0 - b @ y0) / (y0 @ y0) * y0
        prog = ConicProgram(c=rng.standard_normal(n), A=a, b=b, cones=cones)
        out = solve(prog)
        assert out.status is Status.PRIMAL_INFEASIBLE
        assert b @ out.y == pytest.approx(1.0, rel=1e-9)
        assert cone_distance(-(a.T @ out.y), cones) <= 1e-7
        assert out.cert_res <= 1e-7


def test_dual_infeasible_certificate():
    # A ray x0 in the cone interior with A x0 = 0 and <c, x0> < 0.
    rng = np.random.default_rng(10)
    for _ in range(6):
        cones = random_cones(rng)
        n = sum(k.dim for k in cones)
        m = int(rng.integers(2, n // 2 + 2))
        parts = []
        for k in cones:
            if isinstance(k, NonNeg):
                parts.append(rng.uniform(0.3, 3.0, k.length))
            else:
                parts.append(svec(rand_pd(k.order, rng)))
        x0 = np.concatenate(parts)
        a = rng.standard_normal((m, n))
        a = a - np.outer(a @ x0, x0) / (x0 @ x0)
        c = rng.standard_normal(n)
        if c @ x0 > 0:
            c = -c
        prog = ConicProgram(c=c, A=a, b=a @ x0, cones=cones)
        out = solve(prog)
        assert out.status is Status.DUAL_INFEASIBLE
        assert c @ out.x == pytest.approx(-1.0, rel=1e-9)
        assert np.linalg.norm(a @ out.x) <= 1e-7
        assert cone_min_eig(out.x, cones) >= -1e-9


def test_iteration_cap_reports_failure_with_diagnostics():
    rng = np.random.default_rng(12)
    prog, _, _ = feasible_instance(rng)
    out = solve(prog, SolverSettings(max_iter=2))
    assert out.status is Status.NUMERICAL_FAILURE
    assert "iteration limit" in out.message
    assert out.x is not None
    assert np.isfinite(out.primal_res)


def test_settings_tolerances_respected():
    rng = np.random.default_rng(13)
    prog, _, _ = feasible_instance(rng)
    loose = solve(prog, SolverSettings(tol_feas=1e-4, tol_gap=1e-4))
    tight = solve(prog)
    assert loose.status is Status.OPTIMAL
    assert tight.status is Status.OPTIMAL
    assert loose.iterations <= tight.iterations


def test_breakdown_returns_failure_with_best_iterate():
    """A robust design at tiny noise and large channel gain breaks the
    iteration down numerically; the solve must report that, not raise."""
    scenario = sample_scenario(2, 4, 3, 1e4, 1e-7, 1000.0, 2.0)
    out = solve(build_robust_sdp(scenario)[0])
    assert out.status is Status.NUMERICAL_FAILURE
    assert out.message
    assert np.isfinite(out.primal_res)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_solver_never_reports_unverified_optimal(seed):
    """Whatever the draw, a reported status carries a checkable witness."""
    rng = np.random.default_rng(seed)
    prog, _, _ = feasible_instance(rng, cones=[Psd(3), NonNeg(2)])
    out = solve(prog)
    if out.status is Status.OPTIMAL:
        assert kkt_residual(prog, out) <= 1.1e-8
    elif out.status is Status.PRIMAL_INFEASIBLE:
        assert out.cert_res <= 1e-7
    elif out.status is Status.DUAL_INFEASIBLE:
        assert out.cert_res <= 1e-7
