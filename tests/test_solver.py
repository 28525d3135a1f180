"""Tests for the dense conic interior-point solver."""

import itertools
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from robust_miso import conic
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


@pytest.mark.parametrize("field", ["tol_feas", "tol_gap", "tol_inf"])
def test_settings_reject_bad_tolerances(field):
    for value in (0.0, -1e-8, np.nan, np.inf):
        with pytest.raises(ValueError, match=field):
            SolverSettings(**{field: value})


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


def interior_point(rng, cones):
    parts = []
    for k in cones:
        if isinstance(k, NonNeg):
            parts.append(rng.uniform(0.3, 3.0, k.length))
        else:
            parts.append(svec(rand_pd(k.order, rng)))
    return np.concatenate(parts)


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


def assert_matches_dense_gram(prog, seed=0):
    """The workspace's G = A F, its Schur complement G G^T and the products
    with A and G equal the dense reference built column by column from F."""
    rng = np.random.default_rng(seed)
    ws = _Workspace(prog)
    scal = _Scaling(ws, interior_point(rng, prog.cones), interior_point(rng, prog.cones))
    g_ref = prog.A @ np.column_stack([scal.fwd_x(e) for e in np.eye(prog.n)])
    s_ref = g_ref @ g_ref.T
    g = scal.scaled_gram()
    u, y = rng.standard_normal(prog.n), rng.standard_normal(prog.m)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    close(g.dense(), g_ref)
    close(g.gram(), s_ref)
    close(g.dot(u), g_ref @ u)
    close(g.tdot(y), g_ref.T @ y)
    close(ws.a.dense(), prog.A)
    close(ws.a_dot(u), prog.A @ u)
    close(ws.a_tdot(y), prog.A.T @ y)
    return ws


def test_gram_on_partial_row_supports():
    prog = patterned_program(np.random.default_rng(21))
    ws = assert_matches_dense_gram(prog)
    # Every kind of support is present, so the narrow path is exercised.
    narrow = [p for p in ws.parts if p.rows is not None]
    assert {p.rows.shape for p in narrow} == {(1, 2), (2, 4), (2, 3), (1, 3)}
    assert ws.a.full.shape == (8, 3 + 3)
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
    assert not ws.a.narrow
    assert ws.a.full.shape == prog.A.shape
    # In x's column order the full matrix is A itself; otherwise a permutation.
    assert isinstance(ws.full_cols, slice) is in_order


@pytest.mark.parametrize("model", MODELS)
def test_gram_on_robust_sdp(model):
    prog, _ = build_robust_sdp(model_scenario(0, 4, 3, model))
    ws = assert_matches_dense_gram(prog)
    # Each user's rows touch only that user's own slack block.
    z_part = [p for p in ws.parts if p.rows is not None and p.cols.shape == (3, 55)]
    assert z_part and z_part[0].rows.shape == (3, 25)


def test_scaled_gram_stores_each_block_congruence():
    """Every PSD block b of G holds svec(R_b^T A_b R_b) to the bit, both in
    the full matrix (the W blocks) and on its support rows (the Z blocks)."""
    rng = np.random.default_rng(23)
    prog, _ = build_robust_sdp(model_scenario(0, 8, 3, "box"))
    ws = _Workspace(prog)
    scal = _Scaling(ws, interior_point(rng, prog.cones), interior_point(rng, prog.cones))
    g = scal.scaled_gram()
    stored_full = []
    for part in ws.parts:
        if part.order is None:
            continue
        stored_full.append(part.rows is None)
        for got, a_b, r_b in zip(g.values(part), ws.a_mats[part], scal.R[part]):
            assert np.array_equal(got, svec(np.matmul(r_b.T, np.matmul(a_b, r_b))))
    assert sorted(stored_full) == [False, True]


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
    """Each part gathers its blocks with one take: smat of its columns to the
    bit, for one n-vector and for a stacked pair, and scatter writes back
    their svec. The 8x3 box program has a narrow NonNeg, a full W and a
    narrow Z part; the m = 3 fixed program keeps every block in the full
    matrix."""
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
        assert ws.a.whole and kinds == {(True, True), (False, True)}
    else:
        assert kinds == {(True, False), (False, True), (False, False)}
    x, s = interior_point(rng, prog.cones), interior_point(rng, prog.cones)
    scal = _Scaling(ws, x, s)
    for u, v in ((x, s), (scal.lam_vec, rng.standard_normal(prog.n))):
        out = np.full(prog.n, np.nan)
        for part in ws.layout:
            got = part.gather(u)
            vals = u[part.cols]
            assert np.array_equal(got, vals if part.order is None else smat(vals, part.order))
            pair = part.gather(np.stack([u, v]))
            assert np.array_equal(pair, np.stack([got, part.gather(v)]))
            part.scatter(out, got)
        # Equal to u itself on the NonNeg and diagonal entries; dividing by
        # sqrt(2) and multiplying back need not return an off-diagonal one.
        assert np.array_equal(out, svec_round_trip(u, prog.cones))
    du, dv = rng.standard_normal((2, prog.n))
    assert scal.step_limit(du, dv) == min(scal.step_limit(du, du), scal.step_limit(dv, dv))


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


# Status and iteration count of each seeded solve, as before the Gram and
# Schur assembly exploited A's row supports.
PINNED = {
    (4, 3, "sphere"): [("OPTIMAL", 10), ("OPTIMAL", 9)],
    (4, 3, "ellipsoid"): [("OPTIMAL", 11), ("OPTIMAL", 11)],
    (4, 3, "fdd"): [("OPTIMAL", 11), ("OPTIMAL", 9)],
    (4, 3, "box"): [("OPTIMAL", 11), ("OPTIMAL", 12)],
    (8, 3, "sphere"): [("OPTIMAL", 10), ("OPTIMAL", 12)],
    (8, 3, "ellipsoid"): [("OPTIMAL", 11), ("OPTIMAL", 11)],
    (8, 3, "fdd"): [("OPTIMAL", 10), ("OPTIMAL", 12)],
    (8, 3, "box"): [("OPTIMAL", 13), ("OPTIMAL", 11)],
}


@pytest.mark.parametrize("shape_model", sorted(PINNED))
def test_seeded_robust_solves_pinned(shape_model, monkeypatch):
    # None of these solves may fall back to the QR re-solve: it repairs any
    # inaccurate KKT solve, so a wrong Schur complement would otherwise keep
    # every pinned status and iteration count.
    qr_calls = []
    qr = conic.sla.qr
    monkeypatch.setattr(conic.sla, "qr", lambda *args, **kw: qr_calls.append(1) or qr(*args, **kw))
    n, k, model = shape_model
    got = []
    for seed in (0, 1):
        out = solve(build_robust_sdp(model_scenario(seed, n, k, model))[0])
        got.append((out.status.name, out.iterations))
    assert got == PINNED[shape_model]
    assert len(qr_calls) == 0


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
    """Status and iterations of build_fixed_sdp, build_fixed_dual and both
    build_mu_max_pair programs (user 0), in that order."""
    n, k, seed = shape_seed
    sc = sample_scenario(seed, n, k, 1.0, 0.1, 0.1, 0.7)
    chans = np.stack([np.outer(h, h.conj()) for h in sc.presumed.T])
    (mu_dual, _), (mu_primal, _) = build_mu_max_pair(chans, sc.gamma, 0)
    progs = [
        build_fixed_sdp(chans, sc.noise_power, sc.gamma)[0],
        build_fixed_dual(chans, sc.noise_power, sc.gamma)[0],
        mu_dual,
        mu_primal,
    ]
    got = [(out.status.name, out.iterations) for out in map(solve, progs)]
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
    rates 0.3 and 2.0, all on one channel draw."""
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
        counts[solve(build_robust_sdp(sc)[0]).status] += 1
    got = tuple(
        counts[s] for s in (Status.OPTIMAL, Status.PRIMAL_INFEASIBLE, Status.NUMERICAL_FAILURE)
    )
    assert got == STRESS_COUNTS[model]
