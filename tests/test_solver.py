"""Tests for the dense conic interior-point solver."""

import gc
import inspect
import itertools
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from hypothesis import given, settings, strategies as st

from robust_miso import conic
from robust_miso.conic import (
    ConicProgram,
    NonNeg,
    Psd,
    SolverSettings,
    SolveStats,
    Status,
    cone_dim,
    cone_distance,
    cone_identity,
    cone_min_eig,
    smat,
    solve,
    svec,
)
from robust_miso.conic import _Scaling, _Workspace
from robust_miso.formulations import (
    BoxUncertainty,
    EllipsoidUncertainty,
    FddUncertainty,
    SphereUncertainty,
    build_fixed_dual,
    build_fixed_sdp,
    build_mu_max_pair,
    build_robust_sdp,
    extract_solution,
    worst_case_margin,
)
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


def test_cone_distance_of_known_point():
    # The nearest cone point clips each negative eigenvalue to zero, so the
    # distance is the norm of the negative entries and eigenvalues.
    cones = [NonNeg(3), Psd(3)]
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    block = (q * np.array([1.0, -4.0, 2.0])) @ q.T
    v = np.concatenate([[-3.0, 1.0, 0.0], svec(block)])
    assert cone_distance(v, cones) == pytest.approx(5.0, rel=1e-12)
    v[0] = 3.0
    assert cone_distance(v, cones) == pytest.approx(4.0, rel=1e-12)
    assert cone_distance(cone_identity(cones), cones) == 0.0


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


@pytest.mark.parametrize("field", ["tol_feas", "tol_gap", "tol_inf"])
def test_settings_reject_bad_tolerances(field):
    for value in (0.0, -1e-8, np.nan, np.inf):
        with pytest.raises(ValueError, match=field):
            SolverSettings(**{field: value})


def test_settings_reject_bad_iteration_limits():
    """max_iter is a non-negative int: 2.5 would run 3 iterations, -3 would
    stop at iteration 0 as if the limit were reached, and True is a bool."""
    for value in (2.5, -3, True):
        with pytest.raises(ValueError, match="max_iter"):
            SolverSettings(max_iter=value)
    for value in (0, 7, np.int64(7)):
        assert SolverSettings(max_iter=value).max_iter == value


def test_breakdown_returns_failure_with_best_iterate():
    """A robust design at tiny noise and large channel gain breaks the
    iteration down numerically; the solve must report that, not raise."""
    scenario = sample_scenario(2, 4, 3, 1e4, 1e-7, 1000.0, 2.0)
    out = solve(build_robust_sdp(scenario)[0])
    assert out.status is Status.NUMERICAL_FAILURE
    assert out.message
    assert np.isfinite(out.primal_res)


def test_step_limit_breakdown_returns_best_iterate(monkeypatch):
    """A non-finite direction makes the step-length eigvalsh raise inside a
    step; the solve returns NUMERICAL_FAILURE with the best iterate, the
    one an iteration cap at the same iteration returns."""
    prog, _, _ = feasible_instance(np.random.default_rng(12), cones=[Psd(3), NonNeg(2)])
    capped = solve(prog, SolverSettings(max_iter=1))
    calls = []
    step_limit = _Scaling.step_limit

    def poisoned(self, pair):
        # The first call of iteration 1 is its predictor; xbar turns to NaN
        # in every part's blocks.
        calls.append(1)
        if len(calls) == 3:
            pair = [np.array((b[0] * np.nan, b[1])) for b in pair]
        return step_limit(self, pair)

    monkeypatch.setattr(_Scaling, "step_limit", poisoned)
    out = solve(prog)
    assert out.status is Status.NUMERICAL_FAILURE
    assert out.iterations == 1
    assert out.message == "Eigenvalues did not converge"
    for got, want in ((out.x, capped.x), (out.y, capped.y), (out.s, capped.s)):
        assert got.tobytes() == want.tobytes()
    assert out.primal_res == capped.primal_res


def test_improving_ray_checked_after_normalization():
    """On this box design the unnormalized iterate passes the ray test, but
    x / -<c, x> does not (<c, x> = -0.5, |A x| ~ 1e6, smallest eigenvalue
    -5.5). A power minimization has no improving ray, so the solve must not
    report DUAL_INFEASIBLE."""
    sc = sample_scenario(7, 4, 3, 1e5, 1e-7, 1.0, 3.0)
    sc = replace(sc, uncertainty=BoxUncertainty(np.full(3, 227.3277387491483)))
    out = solve(build_robust_sdp(sc)[0])
    assert (out.status, out.message, out.iterations) == (
        Status.NUMERICAL_FAILURE, "nonnegative block left the interior", 165
    )


def test_farkas_cert_res_is_negative_part_norm():
    """cert_res is the norm of the negative eigenvalues of -A^T y, block by
    block; |v - P(v)| loses it to cancellation when v is large (here
    |A^T y| ~ 1e9 and it read 1.4e-6)."""
    sc = replace(sample_scenario(0, 4, 3, 1e4, 1e-5, 1.0, 2.0), uncertainty=FddUncertainty(0.3))
    prog = build_robust_sdp(sc)[0]
    out = solve(prog)
    assert out.status is Status.PRIMAL_INFEASIBLE
    # The solver's own product with A^T, its blocks split here.
    v = -_Workspace(prog).a_tdot(out.y)
    neg, off = [], 0
    for k in prog.cones:
        seg = v[off : off + k.dim]
        off += k.dim
        if isinstance(k, Psd):
            mat = np.zeros((k.order, k.order))
            mat[np.triu_indices(k.order)] = seg / svec(np.ones((k.order, k.order)))
            seg = np.linalg.eigvalsh(mat + np.triu(mat, 1).T)
        neg.append(np.minimum(seg, 0.0))
    want = np.sqrt(sum(float(np.sum(part**2)) for part in neg))
    assert out.cert_res == pytest.approx(want, rel=1e-12)
    assert out.cert_res <= 1e-7


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


def interior_point(rng, cones):
    parts = []
    for k in cones:
        if isinstance(k, NonNeg):
            parts.append(rng.uniform(0.3, 3.0, k.length))
        else:
            parts.append(svec(rand_pd(k.order, rng)))
    return np.concatenate(parts)


def interior_pair(rng, cones):
    """An interior iterate (x, s), stacked as the solver keeps it."""
    x = interior_point(rng, cones)
    return np.array((x, interior_point(rng, cones)))


def patterned_program(rng):
    """Mixed program whose blocks touch chosen rows of A: two equal-size
    disjoint supports, two equal-size overlapping ones, a single odd one,
    a NonNeg block on two rows, a block on every row, one on all rows but
    one (stored as full: its square would exceed half the Schur complement)
    and one on none."""
    cones = [NonNeg(3), Psd(3), Psd(3), Psd(2), Psd(2), Psd(4), Psd(2), Psd(2), Psd(3)]
    supports = [
        [2, 3], [0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 2], [2, 3, 4], [1, 5, 6], range(8), range(7), []
    ]
    m = 8
    blocks = []
    for k, rows in zip(cones, supports):
        blk = np.zeros((m, k.dim))
        blk[list(rows)] = rng.standard_normal((len(rows), k.dim))
        blocks.append(blk)
    a = np.hstack(blocks)
    x0, s0 = interior_point(rng, cones), interior_point(rng, cones)
    y0 = rng.standard_normal(m)
    return ConicProgram(c=a.T @ y0 + s0, A=a, b=a @ x0, cones=cones)


def model_scenario(seed, n, k, model):
    """Seeded scenario for one of the four error models."""
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


MODELS = ("sphere", "ellipsoid", "fdd", "box")


def stored_a(ws):
    """A rebuilt from the only copies of its values that the workspace
    keeps: the matrices of its PSD blocks in a_mats and the NonNeg values
    that scaled_gram reads, each on its support rows, and blockdiag(chat_g)
    (alpha (x) I) B for a factored part, whose a_mats hold the matrices of
    its basis B."""
    m, n = ws.prog.A.shape
    out = np.zeros((m, n))
    for part in ws.parts:
        if part in ws.g.low_rank:
            f = ws.g.low_rank[part]
            # Block j of C on group g's rows is alpha[g, j] chat_g: (q, m, r).
            c = [f.alpha[g][:, None, None] * f.chat[rows] for g, rows in enumerate(f.groups)]
            vals = np.matmul(np.concatenate(c, axis=1), svec(ws.a_mats[part][0]))
        elif part.order is None:
            vals = ws.g_chunks[part][0][0]
        else:
            vals = svec(ws.a_mats[part])
        rows = part.rows if part.rows is not None else np.broadcast_to(np.arange(m), vals.shape[:2])
        out[rows[:, :, None], part.cols[:, None, :]] = vals
    return out


def assert_matches_dense_gram(prog, seed=0, ws=None):
    """The workspace's G = A F, read as the rows G^T e_i one at a time and
    stacked (the input of the QR re-solve, equal to the bit), its Schur
    complement G G^T (written into the workspace's buffer, as solve does),
    A's stored values and the products with A and G equal the dense
    reference built column by column from F."""
    rng = np.random.default_rng(seed)
    ws = ws or _Workspace(prog)
    scal = _Scaling(ws, interior_pair(rng, prog.cones))
    g_ref = prog.A @ np.column_stack([scal.fwd_x(e) for e in np.eye(prog.n)])
    s_ref = g_ref @ g_ref.T
    g = scal.scaled_gram()
    u, y = rng.standard_normal(prog.n), rng.standard_normal(prog.m)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    rows = np.array([g.tdot(e) for e in np.eye(prog.m)])
    close(rows, g_ref)
    assert np.array_equal(g.tdot(np.eye(prog.m)), rows)
    close(g.gram(out=ws.schur), s_ref)
    close(g.dot(u), g_ref @ u)
    close(g.tdot(y), g_ref.T @ y)
    close(stored_a(ws), prog.A)
    close(ws.a_dot(u), prog.A @ u)
    close(ws.a_tdot(y), prog.A.T @ y)
    return ws


def test_gram_on_partial_row_supports():
    prog = patterned_program(np.random.default_rng(21))
    ws = assert_matches_dense_gram(prog)
    # Every kind of support is present, so the narrow path is exercised.
    narrow = [p for p in ws.parts if p.rows is not None]
    assert {p.rows.shape for p in narrow} == {(1, 2), (2, 4), (2, 3), (1, 3)}
    assert ws.g.full.shape == (8, 3 + 3)
    assert sum(p.cols.shape[0] for p in ws.parts) == len(prog.cones) - 1
    out = solve(prog)
    assert out.status is Status.OPTIMAL, out.message
    assert kkt_residual(prog, out) <= 1e-8


@pytest.mark.parametrize(
    "cones, in_order", [([Psd(3), Psd(3), NonNeg(2)], True), ([Psd(3), NonNeg(2), Psd(3)], False)]
)
def test_gram_with_all_full_supports(cones, in_order):
    prog, _, _ = feasible_instance(np.random.default_rng(22), cones)
    ws = assert_matches_dense_gram(prog)
    assert not ws.g.narrow
    assert ws.g.full.shape == prog.A.shape
    # In x's column order the layout is whole: products with A are A's own.
    assert isinstance(ws.full_cols, slice) is ws.g.whole is in_order
    # The NonNeg columns are one run, so their values are a view of A.
    [nn_part] = [p for p in ws.parts if p.order is None]
    assert np.shares_memory(ws.g_chunks[nn_part][0][0], prog.A)


def bincount_products(a):
    """A u and A^T y as np.bincount over A's nonzeros in row-major order:
    the reference the workspace's CSR products must equal to the bit."""
    m, n = a.shape
    flat = np.flatnonzero(a != 0)
    rows, cols = divmod(flat, n)
    vals = a.ravel()[flat]
    return (
        lambda u: np.bincount(rows, vals * u[cols], minlength=m),
        lambda y: np.bincount(cols, vals * y[rows], minlength=n),
    )


def product_programs(program):
    """The programs of one case of test_a_products_match_bincount."""
    if program == "fixed-4x3":
        return fixed_programs(4, 3, 0)
    if program == "patterned":
        return [patterned_program(np.random.default_rng(21))]
    if program == "full-supports":
        rng = np.random.default_rng(22)
        orders = ([Psd(3), Psd(3), NonNeg(2)], [Psd(3), NonNeg(2), Psd(3)])
        return [feasible_instance(rng, cones)[0] for cones in orders]
    shape, model = program.split("-")
    n, k = map(int, shape.split("x"))
    return [build_robust_sdp(model_scenario(0, n, k, model))[0]]


@pytest.mark.parametrize(
    "program",
    [f"{n}x{k}-{model}" for n, k in ((4, 3), (8, 3), (8, 7)) for model in MODELS]
    + ["fixed-4x3", "patterned", "full-supports"],
)
def test_a_products_match_bincount(program):
    """Products with A call scipy's csr_matvec on one CSR copy of A and
    products with A^T its csc_matvec on the same arrays, read as the CSC
    form of A^T, except in a whole layout, which binds A's own products.
    csr_matvec sums each row of A from 0.0 in ascending column order and
    csc_matvec each column in ascending row order, the orders in which
    np.bincount accumulates A's row-major nonzeros, so on 20 vectors whose
    entries span 1e-8 to 1e8 both products equal bincount's to the bit; so
    they do on a strided view, a row of a stacked pair and an integer
    vector. They are the kernels csr_array(A) @ u and csr_array(A).T @ y
    run after scipy's dispatch, to the byte. That assumes a scipy build
    whose csr_matvec and csc_matvec are not contracted into fused
    multiply-adds, as in the x86-64 wheels; with FMA the products would
    round differently."""
    rng = np.random.default_rng(28)
    wholes = []
    for prog in product_programs(program):
        ws = _Workspace(prog)
        wholes.append(ws.g.whole)
        if ws.g.whole:
            assert ws.a_dot.__self__ is prog.A and ws.a_tdot.__self__.base is prog.A
            continue
        dot_vars = inspect.getclosurevars(ws.a_dot).nonlocals
        tdot_vars = inspect.getclosurevars(ws.a_tdot).nonlocals
        assert dot_vars["kernel"] is csr_matvec and tdot_vars["kernel"] is csc_matvec
        assert (dot_vars["rows"], dot_vars["cols"]) == (tdot_vars["cols"], tdot_vars["rows"])
        assert (dot_vars["rows"], dot_vars["cols"]) == prog.A.shape
        for name in ("indptr", "indices", "data"):
            assert dot_vars[name] is tdot_vars[name]
        assert len(dot_vars["indptr"]) == prog.m + 1
        dot, tdot = bincount_products(prog.A)
        csr = csr_array(prog.A)
        vectors = []
        for _ in range(20):
            u = rng.standard_normal(prog.n) * 10.0 ** rng.uniform(-8.0, 8.0, prog.n)
            y = rng.standard_normal(prog.m) * 10.0 ** rng.uniform(-8.0, 8.0, prog.m)
            vectors.append((u, y))
        wide_u, wide_y = rng.standard_normal(2 * prog.n), rng.standard_normal(2 * prog.m)
        pair_u, pair_y = rng.standard_normal((2, prog.n)), rng.standard_normal((2, prog.m))
        vectors += [
            (wide_u[::2], wide_y[::2]),
            (pair_u[1], pair_y[1]),
            (rng.integers(-9, 10, prog.n), rng.integers(-9, 10, prog.m)),
        ]
        for u, y in vectors:
            au, aty = ws.a_dot(u), ws.a_tdot(y)
            assert au.dtype == aty.dtype == np.float64
            assert np.array_equal(au, dot(u)) and au.tobytes() == (csr @ u).tobytes()
            assert np.array_equal(aty, tdot(y)) and aty.tobytes() == (csr.T @ y).tobytes()
    # The m = 3 fixed programs and full supports in x's column order are
    # whole; the fixed duals add a narrow block.
    want = {"fixed-4x3": [True, False, False, True], "full-supports": [True, False]}
    assert wholes == want.get(program, [False])


@pytest.mark.parametrize("model", MODELS)
def test_gram_on_robust_sdp(model):
    prog, _ = build_robust_sdp(model_scenario(0, 4, 3, model))
    ws = assert_matches_dense_gram(prog)
    # Each user's rows touch only that user's own slack block.
    z_part = [p for p in ws.parts if p.rows is not None and p.cols.shape == (3, 55)]
    assert z_part and z_part[0].rows.shape == (3, 25)


@pytest.mark.parametrize("model", MODELS)
def test_gram_on_low_rank_parts(model):
    """At 8x7 the 136 svec columns of each W block of A span N^2 = 64
    dimensions, and each user's 81 LMI rows combine the 7 W blocks with one
    coefficient vector, so the W part is factored by user: A, G, its Gram
    and its products still match the dense reference, and G's full matrix
    keeps none of the W columns."""
    prog, _ = build_robust_sdp(model_scenario(0, 8, 7, model))
    ws = assert_matches_dense_gram(prog)
    [(part, f)] = ws.g.low_rank.items()
    assert part.order == 16 and part not in ws.g.offsets
    assert f.chat.shape == (prog.m, 64) and f.alpha.shape == (7, 7) and f.ms.shape == (7, 64, 136)
    assert f.groups == [slice(81 * g, 81 * (g + 1)) for g in range(7)]
    assert ws.g.full.shape[1] == sum(p.cols.size for p in ws.parts if p.rows is None) - 7 * 136


def factored_program(rng, coef):
    """Three order-4 PSD blocks (d = 10) on every row, whose A columns span
    r = 6 of their svec dimensions: block j of row i is coef[i, j] e_i, e_i
    random in that span. Feasible by construction, as patterned_program."""
    cones = [Psd(4)] * 3
    span = rng.standard_normal((6, 10))
    e = rng.standard_normal((len(coef), 6)) @ span
    a = (coef[:, :, None] * e[:, None, :]).reshape(len(coef), -1)
    x0, s0 = interior_point(rng, cones), interior_point(rng, cones)
    return ConicProgram(c=a.T @ rng.standard_normal(len(coef)) + s0, A=a, b=a @ x0, cones=cones)


def synthetic_rows(layout):
    """A factored_program of 12 rows in runs of 4, 3 and 5 with the run
    coefficients; one row perturbed off rank one, two runs interleaved row
    by row, or row 5 zero, as layout says."""
    rng = np.random.default_rng(27)
    runs = rng.standard_normal((3, 3))
    coef = np.repeat(runs, (4, 3, 5), axis=0)
    if layout == "interleaved":
        coef = runs[np.arange(12) % 2]
    if layout == "zero-row":
        coef[5] = 0.0
    prog = factored_program(rng, coef)
    if layout == "not-rank-one":
        prog.A[5, 10:20] += 1e-6 * prog.A[6, 10:20]
    return prog, runs


@pytest.mark.parametrize("layout", ["grouped", "not-rank-one", "interleaved"])
def test_factoring_of_synthetic_rows(layout, monkeypatch):
    """Rows in runs of equal coefficients across the blocks are factored
    into those runs, alpha parallel to each run's coefficients. A row that
    is not rank one across the blocks leaves the part on the exact path, and
    so do interleaved groups, whose runs are single rows that cannot pay.
    Either way G, its Gram and its products match the dense reference, and
    the factored program solves."""
    monkeypatch.setattr(conic, "_LOW_RANK_FLOPS", 0.0)
    prog, runs = synthetic_rows(layout)
    ws = assert_matches_dense_gram(prog)
    if layout != "grouped":
        assert not ws.g.low_rank and ws.g.full.shape == prog.A.shape
        return
    [(part, f)] = ws.g.low_rank.items()
    assert f.groups == [slice(0, 4), slice(4, 7), slice(7, 12)]
    cos = np.abs(np.sum(f.alpha * runs, axis=1)) / np.linalg.norm(runs, axis=1)
    assert np.allclose(cos, 1.0, rtol=0.0, atol=1e-14)
    assert f.chat.shape == (12, 6) and ws.g.full.shape == (12, 0)
    out = solve(prog)
    assert out.status is Status.OPTIMAL, out.message
    assert kkt_residual(prog, out) <= 1e-8


def eigh_low_rank(vals, order):
    """conic._low_rank with each row's lead direction taken from a batched
    eigh of its q x q Gram: the reference for the Gram-column lead."""
    q, m, d = vals.shape
    if conic._low_rank_gain(m, q, d, 0) < conic._LOW_RANK_FLOPS:
        return None
    lam, vecs = np.linalg.eigh(np.matmul(vals.transpose(0, 2, 1), vals).sum(axis=0))
    basis = vecs[:, lam > 1e-12 * lam[-1]].T
    r = len(basis)
    if r == d or conic._low_rank_gain(m, q, d, r) < conic._LOW_RANK_FLOPS:
        return None
    c = np.matmul(vals, basis.T).transpose(1, 0, 2)
    grams = np.matmul(c, c.transpose(0, 2, 1))
    lead = np.linalg.eigh(grams)[1][..., -1]
    parallel = np.abs(np.sum(lead[1:] * lead[:-1], axis=1)) >= 1.0 - 1e-12
    group = np.cumsum(np.append(0, ~parallel))
    starts = np.flatnonzero(np.append(True, ~parallel))
    alpha = np.linalg.eigh(np.add.reduceat(grams, starts))[1][..., -1]
    chat = np.matmul(alpha[group][:, None], c)[:, 0]
    resid = c - alpha[group][:, :, None] * chat[:, None]
    off = np.einsum("ijk,ijk->i", resid, resid) > 1e-24 * np.einsum("ijk,ijk->i", c, c)
    if np.any(off) or conic._low_rank_gain(m, q, d, r, len(starts)) < conic._LOW_RANK_FLOPS:
        return None
    return smat(basis, order), chat, alpha, group, starts


@pytest.mark.parametrize("case", [*MODELS, "grouped", "not-rank-one", "interleaved", "zero-row"])
def test_low_rank_lead_matches_eigh(case, monkeypatch):
    """The lead direction of a rank-one row is the Gram column of its largest
    block, and a row with a zero Gram runs alone: on the 8x7 designs and the
    synthetic rows, every full PSD part is factored or left exact as with
    eigh leads, with the same basis, groups, alpha and chat to the bit."""
    if case in MODELS:
        prog = build_robust_sdp(model_scenario(0, 8, 7, case))[0]
    else:
        monkeypatch.setattr(conic, "_LOW_RANK_FLOPS", 0.0)
        prog = synthetic_rows(case)[0]
    factored = []
    for part in _Workspace(prog).parts:
        if part.order is None or part.rows is not None:
            continue
        vals = prog.A[:, part.col_index].reshape(prog.m, *part.cols.shape).transpose(1, 0, 2)
        got, want = conic._low_rank(vals, part.order), eigh_low_rank(vals, part.order)
        assert (got is None) is (want is None)
        if got is None:
            continue
        mats, f = got
        assert np.array_equal(mats[0], want[0])
        for name, ref in zip(("chat", "alpha", "group", "starts"), want[1:]):
            assert np.array_equal(getattr(f, name), ref), name
        factored.append(len(f.starts))
    runs = {"grouped": [3], "zero-row": [5], "not-rank-one": [], "interleaved": []}
    assert factored == runs.get(case, [7])


def fixed_programs(n, k, seed):
    """build_fixed_sdp, build_fixed_dual and both build_mu_max_pair programs
    (user 0) of the seeded scenario's lifted channels h h^H, in that order."""
    sc = sample_scenario(seed, n, k, 1.0, 0.1, 0.1, 0.7)
    chans = np.stack([np.outer(h, h.conj()) for h in sc.presumed.T])
    (mu_dual, _), (mu_primal, _) = build_mu_max_pair(chans, sc.gamma, 0)
    return [
        build_fixed_sdp(chans, sc.noise_power, sc.gamma)[0],
        build_fixed_dual(chans, sc.noise_power, sc.gamma)[0],
        mu_dual,
        mu_primal,
    ]


@pytest.mark.parametrize("program", ["robust-4x3", "robust-8x3", "fixed-4x3"])
def test_small_programs_keep_every_column_of_g(program):
    """The table study's 4x3 and 8x3 designs, the 4x3 stress grid and the
    m = 3 fixed programs form G on A's own columns: the gain bound at rank 0
    rules the row-space basis out before its eigh."""
    if program == "fixed-4x3":
        progs = fixed_programs(4, 3, 0)
    else:
        n = 4 if program == "robust-4x3" else 8
        progs = [build_robust_sdp(model_scenario(0, n, 3, model))[0] for model in MODELS]
    for prog in progs:
        ws = _Workspace(prog)
        assert not ws.g.low_rank
        assert ws.g.full.shape[1] == sum(p.cols.size for p in ws.parts if p.rows is None)
        for part in ws.parts:
            if part.order is not None and part.rows is None:
                bound = conic._low_rank_gain(prog.m, *part.cols.shape, 0)
                assert bound < conic._LOW_RANK_FLOPS


def test_scaled_gram_stores_each_block_congruence():
    """Every PSD block b of G holds svec(R_b^T A_b R_b) to the bit, both in
    the full matrix (the W blocks) and on its support rows (the Z blocks)."""
    rng = np.random.default_rng(23)
    prog, _ = build_robust_sdp(model_scenario(0, 8, 3, "box"))
    ws = _Workspace(prog)
    scal = _Scaling(ws, interior_pair(rng, prog.cones))
    g = scal.scaled_gram()
    stored_full = []
    for part in ws.parts:
        if part.order is None:
            continue
        stored_full.append(part.rows is None)
        for got, a_b, r_b in zip(g.values(part), ws.a_mats[part], scal.R[part]):
            assert np.array_equal(got, svec(np.matmul(r_b.T, np.matmul(a_b, r_b))))
    assert sorted(stored_full) == [False, True]


def test_scaled_gram_congruence_in_row_chunks():
    """At 8x7 the Z part's congruences run over several chunks of its
    support rows, the last one shorter; every PSD block of G still holds
    svec(R_b^T A_b R_b) to the bit, and the low-rank W part's M the
    congruences of its basis matrices."""
    rng = np.random.default_rng(25)
    prog, _ = build_robust_sdp(model_scenario(0, 8, 7, "box"))
    ws = _Workspace(prog)
    scal = _Scaling(ws, interior_pair(rng, prog.cones))
    g = scal.scaled_gram()
    [z_part] = [p for p in ws.parts if p.order is not None and p.rows is not None]
    rows = [dest.shape[1] for *_, dest in ws.g_chunks[z_part]]
    assert len(rows) >= 2 and rows[-1] < rows[0] and sum(rows) == z_part.rows.shape[1]
    for part in ws.parts:
        if part.order is None:
            continue
        for got, a_b, r_b in zip(g.values(part), ws.a_mats[part], scal.R[part]):
            assert np.array_equal(got, svec(np.matmul(r_b.T, np.matmul(a_b, r_b))))


@pytest.mark.parametrize("program", ["patterned", "robust-8x3-box"])
def test_gram_buffers_keep_no_stale_rows(program):
    """G, the Schur complement and the chunk scratch belong to the workspace
    and every scaled_gram/gram call overwrites them: after one scaling, the
    next one's results match its own dense reference."""
    if program == "patterned":
        prog = patterned_program(np.random.default_rng(21))
    else:
        prog = build_robust_sdp(model_scenario(0, 8, 3, "box"))[0]
    ws = _Workspace(prog)
    rng = np.random.default_rng(26)
    first = _Scaling(ws, interior_pair(rng, prog.cones))
    first.scaled_gram().gram(out=ws.schur)
    assert_matches_dense_gram(prog, seed=1, ws=ws)


def test_solve_peak_memory_8x7():
    """Per-solve buffers for G and the one Schur buffer that potrf factors
    in place, A's values kept once, the row-chunked congruence and the W
    part factored by user on its rank-64 row-space basis keep the traced
    peak of an 8x7 solve within 1.25 times the bytes of A for every model,
    1.00x to 1.04x for these designs. Fresh arrays every iteration peaked
    at 4.26x, a separate factor buffer and a copy of A's full columns at up
    to 2.88x (the ellipsoid), the W blocks' own matrices at 2.01x to 2.06x,
    and the W part's C = A B^T with its C T^T columns in G at 1.26x to
    1.31x."""
    for model in MODELS:
        prog, _ = build_robust_sdp(model_scenario(0, 8, 7, model))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = solve(prog)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.status is Status.OPTIMAL, model
        assert peak <= 1.25 * prog.A.nbytes, (model, peak / prog.A.nbytes)


def test_solve_leaves_no_reference_cycle():
    """The workspace, about twice the bytes of A at 8x7, is freed by
    reference counting when solve returns: with the cyclic collector off,
    traced memory after a solve whose outcome is deleted is back at its
    baseline. A buffer pointing back at the workspace would hold it in a
    cycle until the collector ran, and peak RSS across solves would grow."""
    prog, _ = build_robust_sdp(model_scenario(0, 8, 7, "box"))
    _Workspace(prog)  # fills the svec index cache of every block order
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = solve(prog)
        assert out.status is Status.OPTIMAL
        del out
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left <= 64 * 1024


def outcome_bytes(out):
    """Status, iterations and the bytes of x, y and s of one outcome."""
    arrays = [b"none" if v is None else v.tobytes() for v in (out.x, out.y, out.s)]
    return out.status, out.iterations, *arrays


def test_pattern_reuse_keeps_every_bit():
    """Programs of one cone list and nonzero pattern share one _Pattern:
    solved one after another, each returns the status, iterations and bytes
    of x, y and s of a solve run after clearing the cache. The sets cover
    m = 3 fixed programs, 4x3 robust designs and an 8x7 design whose W part
    is factored."""
    groups = [
        [fixed_programs(4, 3, seed)[0] for seed in (0, 1)],
        [build_robust_sdp(model_scenario(seed, 4, 3, "sphere"))[0] for seed in (0, 1, 2)],
        [build_robust_sdp(model_scenario(seed, 8, 7, "box"))[0] for seed in (0, 1)],
    ]
    for progs in groups:
        conic._PATTERNS.clear()
        patterns = {id(_Workspace(prog).pattern) for prog in progs}
        assert len(patterns) == 1
        warm = [outcome_bytes(solve(prog)) for prog in progs]
        cold = []
        for prog in progs:
            conic._PATTERNS.clear()
            cold.append(outcome_bytes(solve(prog)))
        assert warm == cold


def test_pattern_follows_the_nonzero_positions():
    """Equal cones and equal nonzero positions share a pattern whatever A's
    values; zeroing one row of a block, or adding a zero row, makes a new
    pattern whose supports differ."""
    rng = np.random.default_rng(29)
    prog, _, _ = feasible_instance(rng, [Psd(3), NonNeg(2), Psd(3)])
    first = _Workspace(prog).pattern
    scaled = replace(prog, A=2.0 * prog.A)
    assert _Workspace(scaled).pattern is first
    a = prog.A.copy()
    a[0, :6] = 0.0
    other = _Workspace(replace(prog, A=a)).pattern
    assert other is not first
    sizes = lambda pattern: sorted((p.order or 0, p.rows is None) for p in pattern.layout)
    assert sizes(other) != sizes(first)
    padded = replace(prog, A=np.vstack([prog.A, np.zeros(prog.n)]), b=np.append(prog.b, 0.0))
    assert _Workspace(padded).pattern is not first


def test_pattern_cache_is_bounded():
    """The cache keeps at most _PATTERN_CACHE patterns, the most recently
    used: a pattern used again stays while older ones are evicted."""
    rng = np.random.default_rng(30)
    conic._PATTERNS.clear()
    bound = conic._PATTERN_CACHE
    progs = []
    for i in range(1, bound + 9):
        a = rng.uniform(1.0, 2.0, 8) * [(i >> j) & 1 for j in range(8)]
        progs.append(ConicProgram(c=np.ones(4), A=a.reshape(2, 4), b=np.ones(2), cones=[NonNeg(4)]))
    kept = _Workspace(progs[0]).pattern
    seen = []
    for prog in progs[1:]:
        seen.append(_Workspace(prog).pattern)
        assert _Workspace(progs[0]).pattern is kept
        assert len(conic._PATTERNS) <= bound
    assert len(set(map(id, seen))) == len(seen)
    assert len(conic._PATTERNS) == bound
    assert _Workspace(progs[-1]).pattern is seen[-1]
    assert _Workspace(progs[1]).pattern is not seen[0]


def test_pattern_cache_under_threads():
    """Eight threads look up 40 patterns, more than the cache keeps, with a
    short switch interval: every lookup returns the pattern of its own
    program, and the cache stays within its bound."""
    rng = np.random.default_rng(32)
    progs = []
    for i in range(1, 41):
        a = rng.uniform(1.0, 2.0, 12) * [(i >> j) & 1 for j in range(12)]
        prog = ConicProgram(c=np.ones(6), A=a.reshape(2, 6), b=np.ones(2), cones=[Psd(1)] * 6)
        progs.append(prog)

    def signature(pattern):
        rows = [None if p.rows is None else p.rows.tobytes() for p in pattern.layout]
        return [p.cols.tobytes() for p in pattern.layout], rows

    conic._PATTERNS.clear()
    want = [signature(_Workspace(prog).pattern) for prog in progs]
    assert len({str(sig) for sig in want}) == len(progs)
    errors = []

    def worker(seed):
        order = np.random.default_rng(seed).permutation(len(progs) * 5) % len(progs)
        try:
            for i in order:
                if signature(_Workspace(progs[i]).pattern) != want[i]:
                    errors.append(i)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(conic._PATTERNS) <= conic._PATTERN_CACHE


def pattern_tables(pattern):
    """Copies of every array of a pattern and of its parts."""
    out = []
    for obj in [pattern, *pattern.layout]:
        for name, value in vars(obj).items():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
                out.append((name, value.copy()))
    return out


@pytest.mark.parametrize("program", ["robust-8x7-box", "robust-4x3-sphere"])
def test_cached_pattern_unchanged_by_a_solve(program):
    """A solve reads its pattern and never writes it: every array of the
    cached pattern and of its parts is read-only and keeps its values, here
    across an 8x7 solve whose W part is factored and a 4x3 solve."""
    _, shape, model = program.split("-")
    n, k = map(int, shape.split("x"))
    prog = build_robust_sdp(model_scenario(0, n, k, model))[0]
    ws = _Workspace(prog)
    assert bool(ws.g.low_rank) is (shape == "8x7")
    before = pattern_tables(ws.pattern)
    assert solve(prog).status is Status.OPTIMAL
    assert _Workspace(prog).pattern is ws.pattern
    after = pattern_tables(ws.pattern)
    assert [name for name, _ in after] == [name for name, _ in before]
    for (name, got), (_, want) in zip(after, before):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_identity_scaling_is_the_factored_scaling_at_e():
    """The first iteration's scaling, taken without factoring, equals the
    NT scaling factored at x = s = e bit for bit: R, its transpose, Rinv,
    lambda, 1 / sqrt(lambda) and lam_vec, for PSD orders 1 to 20 and the
    blocks of the robust designs and the m = 3 programs."""
    rng = np.random.default_rng(31)
    cones = [NonNeg(3)] + [Psd(p) for p in range(1, 21)]
    n = cone_dim(cones)
    synthetic = ConicProgram(c=np.ones(n), A=rng.standard_normal((2, n)), b=np.ones(2), cones=cones)
    progs = [synthetic, patterned_program(rng), *fixed_programs(4, 3, 0)]
    for n, k in ((2, 2), (4, 3), (8, 3)):
        progs.append(build_robust_sdp(model_scenario(0, n, k, "box"))[0])
    for prog in progs:
        ws = _Workspace(prog)
        got, want = _Scaling.identity(ws), _Scaling(ws, np.array((ws.e, ws.e)))
        for name in ("R", "Rt", "Rinv", "Rinvt", "lam", "isq"):
            got_parts, want_parts = getattr(got, name), getattr(want, name)
            assert list(got_parts) == list(want_parts), name
            for part, value in want_parts.items():
                mine, value = np.ascontiguousarray(got_parts[part]), np.ascontiguousarray(value)
                assert mine.shape == value.shape and mine.tobytes() == value.tobytes(), name
        assert got.lam_vec.tobytes() == want.lam_vec.tobytes()


def svec_round_trip(v, cones):
    """svec(smat(.)) of every PSD block of v; NonNeg entries as they are."""
    parts, off = [], 0
    for k in cones:
        seg = v[off : off + k.dim]
        parts.append(seg if isinstance(k, NonNeg) else svec(smat(seg, k.order)))
        off += k.dim
    return np.concatenate(parts)


@pytest.mark.parametrize("program", ["robust-8x3-box", "fixed-4x3"])
def test_part_gather_and_scatter_tables(program):
    """Each part gathers its blocks from a stacked pair with one take: smat
    of each row's columns to the bit, as the row alone gathers them, and
    scatter writes back their svec, into the pair or into one n-vector. A
    PSD part scatters through flat tables over all its blocks: a stacked
    (k = 3) output gets, in each row, every block's upper triangle times its
    svec scale to the bit. The 8x3 box program has a narrow NonNeg, a full W
    and a narrow Z part; the m = 3 fixed program keeps every block in the
    full matrix. The step limit of a pair is the smaller of its rows'
    limits."""
    rng = np.random.default_rng(24)
    if program == "fixed-4x3":
        sc = sample_scenario(0, 4, 3, 1.0, 0.1, 0.1, 0.7)
        chans = np.stack([np.outer(h, h.conj()) for h in sc.presumed.T])
        prog = build_fixed_sdp(chans, sc.noise_power, sc.gamma)[0]
    else:
        prog = build_robust_sdp(model_scenario(0, 8, 3, "box"))[0]
    ws = _Workspace(prog)
    kinds = {(p.order is None, p.rows is None) for p in ws.layout}
    if program == "fixed-4x3":
        assert ws.g.whole and kinds == {(True, True), (False, True)}
    else:
        assert kinds == {(True, False), (False, True), (False, False)}
    xs = interior_pair(rng, prog.cones)
    scal = _Scaling(ws, xs)
    for pair in (xs, np.array((scal.lam_vec, rng.standard_normal(prog.n)))):
        out, first = np.full(pair.shape, np.nan), np.full(prog.n, np.nan)
        for part in ws.layout:
            got = part.gather(pair)
            for row, u in zip(got, pair):
                vals = u[part.cols]
                assert np.array_equal(row, vals if part.order is None else smat(vals, part.order))
                assert np.array_equal(row, part.gather(u))
            part.scatter(out, got)
            part.scatter(first, got[0])
        # Equal to u itself on the NonNeg and diagonal entries; dividing by
        # sqrt(2) and multiplying back need not return an off-diagonal one.
        for row, u in zip(out, pair):
            assert np.array_equal(row, svec_round_trip(u, prog.cones))
        assert np.array_equal(first, out[0])
    triple = np.full((3, prog.n), np.nan)
    for part in ws.layout:
        blocks = part.gather(rng.standard_normal((3, prog.n)))
        part.scatter(triple, blocks)
        for row, got in zip(triple, blocks):
            if part.order is not None:
                # The per-block reference: each block's upper triangle times enc.
                got = got.reshape(len(got), -1).take(part.upper, axis=-1) * part.enc
            assert row[part.cols].tobytes() == got.tobytes()
    assert not np.isnan(triple).any()
    du, dv = rng.standard_normal((2, prog.n))
    pairs = [np.array(pair) for pair in ((du, dv), (du, du), (dv, dv))]
    limits = [scal.step_limit(scal.blocks(pair)) for pair in pairs]
    assert limits[0] == min(limits[1:])


@pytest.mark.parametrize("program", ["robust-4x3", "fixed-4x3"])
def test_pair_update_matches_row_maps(program):
    """The update maps a scaled pair (xbar, sbar), given as its blocks, to
    (F xbar, F^-T sbar) in one pass over the layout: the bits of fwd_x and
    unscale_s of its rows. scale_s of a stacked pair, as of (c, -r_x), maps
    both rows with one product per part, to the bits each row takes alone.
    Both hold for the NT scaling at an interior point and for the first
    iteration's identity scaling, on a 4x3 design of each error model and on
    the m = 3 program."""
    rng = np.random.default_rng(27)
    if program == "fixed-4x3":
        progs = [fixed_programs(4, 3, 0)[0]]
    else:
        progs = [build_robust_sdp(model_scenario(0, 4, 3, model))[0] for model in MODELS]
    for prog in progs:
        ws = _Workspace(prog)
        for scal in (_Scaling(ws, interior_pair(rng, prog.cones)), _Scaling.identity(ws)):
            pair = rng.standard_normal((2, prog.n))
            dx, ds = scal.unscale(scal.blocks(pair))
            assert dx.tobytes() == scal.fwd_x(pair[0]).tobytes()
            assert ds.tobytes() == scal.unscale_s(pair[1]).tobytes()
            for got, row in zip(scal.scale_s(pair), pair):
                assert got.tobytes() == scal.scale_s(row[None]).tobytes()


def test_lapack_loops_match_numpy_linalg():
    """The NT factorization and the step limit call numpy's LAPACK loops
    without np.linalg's wrappers. On float64 stacks they return np.linalg's
    bits; where np.linalg raises (an indefinite block, NaN or inf entries)
    they raise LinAlgError with its message, both under the default
    floating-point state and under the solver's, and they warn of nothing."""
    rng = np.random.default_rng(41)
    loops = [
        (conic._CHOLESKY, np.linalg.cholesky),
        (conic._EIGVALSH, np.linalg.eigvalsh),
        (conic._SVD, np.linalg.svd),
    ]

    def outcome(fn, a):
        try:
            out = fn(a)
        except np.linalg.LinAlgError as exc:
            return str(exc)
        return [v.tobytes() for v in (out if isinstance(out, tuple) else (out,))]

    for order in (1, 8, 20):
        pd = np.array([[rand_pd(order, rng) for _ in range(3)] for _ in range(2)])
        indefinite = pd - 2.0 * np.abs(pd).max() * np.eye(order)
        stacks = [pd, indefinite, np.where(pd > pd.mean(), np.nan, pd), np.full_like(pd, np.inf)]
        for a, (mine, theirs) in itertools.product(stacks, loops):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert outcome(mine, a) == outcome(theirs, a)
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    assert outcome(mine, a) == outcome(theirs, a)
    assert outcome(conic._CHOLESKY, indefinite) == "Matrix is not positive definite"


def test_breakdowns_leak_no_runtime_warnings():
    """Two failure-path solves run through overflow and NaN. The status and
    message report the breakdown; numpy's warnings stay inside the solve."""
    sphere = sample_scenario(2, 4, 3, 1e4, 1e-7, 1000.0, 2.0)
    fdd = replace(sample_scenario(1, 4, 3, 1e4, 1e-7, 0.3, 2.0), uncertainty=FddUncertainty(0.3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outs = [solve(build_robust_sdp(sc)[0]) for sc in (sphere, fdd)]
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    got = [(out.status, out.message, out.iterations) for out in outs]
    assert got == [
        (Status.NUMERICAL_FAILURE, "degenerate tau equation", 168),
        (Status.NUMERICAL_FAILURE, "step length collapsed", 33),
    ]


# Status, iterations and the number of Schur factorizations that failed
# before the diagonal jitter let one through, for fdd designs at 4x3.
PINNED_JITTER = [
    ((1, 1e4, 1e-5, 0.1), ("OPTIMAL", 17, 10)),
    ((2, 1e4, 1e-5, 0.3), ("PRIMAL_INFEASIBLE", 25, 18)),
    ((0, 1.0, 0.1, 0.3), ("PRIMAL_INFEASIBLE", 9, 1)),
]


@pytest.mark.parametrize("instance, pinned", PINNED_JITTER)
def test_schur_jitter_retries_pinned(instance, pinned):
    """A failed potrf leaves the Schur buffer partly factored; each retry
    forms the complement again and adds a larger jitter. No seeded robust
    solve takes this path, these fdd designs do."""
    seed, rho, sigma2, delta = instance
    sc = sample_scenario(seed, 4, 3, rho, sigma2, 1.0, 2.0)
    out = solve(build_robust_sdp(replace(sc, uncertainty=FddUncertainty(delta)))[0])
    assert (out.status.name, out.iterations, out.stats.schur_rejected) == pinned


def test_remedy_counts_match_outside_wrappers(monkeypatch):
    """SolveStats against counts taken from outside the solver: potrf's
    rejections (info > 0), and the QR re-solves, each a run of the QR's
    triangular solves after a run of Cholesky's potrs solves (every KKT
    solve starts with Cholesky). The QR factors G once per iteration that
    tries it, and takes no more re-solves than it tries. The 4x3 fdd
    stress-grid design at sigma2 1e-5, rho 1, delta 0.9 and rate 2.0 takes
    every remedy."""
    calls = []

    def wrap(owner, name, tag):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            calls.append(tag(result))
            return result

        monkeypatch.setattr(owner, name, counted)

    wrap(conic, "_POTRF", lambda result: "rejected" if result[1] > 0 else "potrf")
    wrap(conic, "_POTRS", lambda _: "chol")
    wrap(conic.sla, "solve_triangular", lambda _: "qr-solve")
    wrap(conic.sla, "qr", lambda _: "qr")
    sc = replace(
        sample_scenario(1, 4, 3, 1.0, 1e-5, 1.0, 0.3),
        rate_target=np.full(3, 2.0),
        uncertainty=FddUncertainty(0.9),
    )
    out = solve(build_robust_sdp(sc)[0])
    solves = [tag for tag in calls if tag in ("chol", "qr-solve")]
    tried = sum(b == "qr-solve" and a == "chol" for a, b in zip(solves, solves[1:]))
    stats = out.stats
    assert (out.status, out.iterations) == (Status.PRIMAL_INFEASIBLE, 11)
    assert (stats.schur_rejected, stats.qr_tried) == (calls.count("rejected"), tried)
    assert 0 < calls.count("qr") <= stats.qr_tried
    assert stats == SolveStats(schur_rejected=5, qr_tried=8, qr_taken=5)


def test_refinement_corrects_only_between_checks(monkeypatch):
    """Each KKT solve runs _KKT_REFINE corrections between its _KKT_REFINE
    + 1 residual checks: no correction follows the last check. Cholesky
    solves every KKT system of this sphere stress-grid design (sigma2 0.1,
    rho 1e4, r = 1e-3 min ||h_i||, rate 0.3), one potrs per system and one
    per correction, 53 in all; the two systems whose refinement ran out
    each took one more, discarded, correction when one followed the last
    check (55)."""
    calls = []
    potrs = conic._POTRS

    def counted(*args, **kwargs):
        calls.append(1)
        return potrs(*args, **kwargs)

    monkeypatch.setattr(conic, "_POTRS", counted)
    sc = sample_scenario(1, 4, 3, 1e4, 0.1, 1.0, 0.3)
    radius = 1e-3 * np.min(np.linalg.norm(sc.presumed, axis=0))
    sc = replace(sc, uncertainty=SphereUncertainty(np.full(3, radius)))
    out = solve(build_robust_sdp(sc)[0])
    assert (out.status, out.iterations, out.stats.qr_tried) == (Status.OPTIMAL, 14, 0)
    assert len(calls) == 53


# Status and iteration count of each seeded solve, as before the Gram and
# Schur assembly exploited A's row supports; at 8x7, as before G's W part
# was formed on its row-space basis.
PINNED = {
    (4, 3, "sphere"): [("OPTIMAL", 10), ("OPTIMAL", 9)],
    (4, 3, "ellipsoid"): [("OPTIMAL", 11), ("OPTIMAL", 11)],
    (4, 3, "fdd"): [("OPTIMAL", 11), ("OPTIMAL", 9)],
    (4, 3, "box"): [("OPTIMAL", 11), ("OPTIMAL", 12)],
    (8, 3, "sphere"): [("OPTIMAL", 10), ("OPTIMAL", 12)],
    (8, 3, "ellipsoid"): [("OPTIMAL", 11), ("OPTIMAL", 11)],
    (8, 3, "fdd"): [("OPTIMAL", 10), ("OPTIMAL", 12)],
    (8, 3, "box"): [("OPTIMAL", 13), ("OPTIMAL", 11)],
    (8, 7, "sphere"): [("OPTIMAL", 11), ("OPTIMAL", 14)],
    (8, 7, "ellipsoid"): [("OPTIMAL", 12), ("OPTIMAL", 14)],
    (8, 7, "fdd"): [("OPTIMAL", 12), ("OPTIMAL", 11)],
    (8, 7, "box"): [("OPTIMAL", 13), ("OPTIMAL", 12)],
}


@pytest.mark.parametrize("shape_model", sorted(PINNED))
def test_seeded_robust_solves_pinned(shape_model):
    # None of these solves may fall back to the QR re-solve: it repairs any
    # inaccurate KKT solve, so a wrong Schur complement would otherwise keep
    # every pinned status and iteration count.
    n, k, model = shape_model
    got = []
    for seed in (0, 1):
        out = solve(build_robust_sdp(model_scenario(seed, n, k, model))[0])
        got.append((out.status.name, out.iterations, out.stats.qr_tried))
    assert got == [pinned + (0,) for pinned in PINNED[shape_model]]


# The fixed-channel programs (lifted channels h h^H of the seeded scenario)
# run the whole-matrix layout, one row per user; their duals add a narrow
# slack block beside a full NonNeg block.
PINNED_FIXED = {
    (2, 2, 0): [("OPTIMAL", 7), ("OPTIMAL", 7), ("OPTIMAL", 7), ("OPTIMAL", 7)],
    (2, 2, 1): [("OPTIMAL", 7), ("OPTIMAL", 7), ("OPTIMAL", 10), ("OPTIMAL", 7)],
    (4, 3, 0): [("OPTIMAL", 7), ("OPTIMAL", 7), ("OPTIMAL", 7), ("OPTIMAL", 7)],
    (4, 3, 1): [("OPTIMAL", 7), ("OPTIMAL", 8), ("OPTIMAL", 9), ("OPTIMAL", 9)],
}


@pytest.mark.parametrize("shape_seed", sorted(PINNED_FIXED))
def test_seeded_fixed_and_dual_solves_pinned(shape_seed):
    """Status and iterations of the four fixed_programs, in their order."""
    got = [(out.status.name, out.iterations) for out in map(solve, fixed_programs(*shape_seed))]
    assert got == PINNED_FIXED[shape_seed]


def stress_uncertainty(model, frac, radius, axes):
    """The stress grid's error set of one model at radius r = frac * min ||h_i||."""
    if model == "ellipsoid":
        half_axes2 = radius**2 * np.linspace(0.5, 1.0, 4)
        return EllipsoidUncertainty(np.einsum("kij,j,klj->kil", axes, half_axes2, axes.conj()))
    if model == "fdd":
        return FddUncertainty(frac)
    if model == "box":
        return BoxUncertainty(np.full(3, radius / 2))
    return SphereUncertainty(np.full(3, radius))


# (OPTIMAL, PRIMAL_INFEASIBLE, NUMERICAL_FAILURE) counts of each model's 72
# stress-grid solves. Every failure is at rho = 1e4 with rate 2.0.
STRESS_COUNTS = {
    "sphere": (48, 20, 4),
    "ellipsoid": (48, 20, 4),
    "fdd": (48, 21, 3),
    "box": (48, 20, 4),
}


@pytest.mark.parametrize("model", MODELS)
def test_stress_grid_status_counts(model):
    """4x3 robust designs across noise powers 1e-7 to 1e3, channel gains
    1e-3 to 1e4, radii of 1e-3 to 0.9 of the smallest channel norm and
    rates 0.3 and 2.0, all on one channel draw. Every OPTIMAL design with an
    exact margin oracle (all but the box) at noise power 0.1 or above holds
    each user's worst case to 1e-6 of its noise power; below that the
    absolute solver tolerances let margins reach 1e-2 of it."""
    rng = np.random.default_rng(7)
    axes, _ = np.linalg.qr(rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
    counts = Counter()
    for sigma2, rho, frac, rate in itertools.product(
        (1e-7, 1e-5, 0.1, 1e3), (1e-3, 1.0, 1e4), (1e-3, 0.3, 0.9), (0.3, 2.0)
    ):
        sc = sample_scenario(1, 4, 3, rho, sigma2, 1.0, 0.3)
        radius = frac * np.min(np.linalg.norm(sc.presumed, axis=0))
        sc = replace(
            sc,
            rate_target=np.full(3, rate),
            uncertainty=stress_uncertainty(model, frac, radius, axes),
        )
        program, index = build_robust_sdp(sc)
        outcome = solve(program)
        counts[outcome.status] += 1
        if outcome.status is Status.OPTIMAL and sigma2 >= 0.1 and model != "box":
            design = extract_solution(index, outcome)
            for user in range(3):
                value = worst_case_margin(design, sc, user)
                upper = value[1] if isinstance(value, tuple) else value
                assert upper <= 1e-6 * sigma2, (sigma2, rho, frac, rate, user, upper)
    got = tuple(
        counts[s] for s in (Status.OPTIMAL, Status.PRIMAL_INFEASIBLE, Status.NUMERICAL_FAILURE)
    )
    assert got == STRESS_COUNTS[model]
