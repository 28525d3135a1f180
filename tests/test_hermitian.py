import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_miso.hermitian import (
    TrsInstance,
    eig_hermitian,
    hermitian_from_real_embedding,
    is_hermitian,
    numerical_rank,
    orth_complement_projector,
    real_embedding,
    trs_maximize,
)


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestEig:
    def test_descending_and_reconstruction(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 9):
            x = random_hermitian(rng, n, scale=3.0)
            lam, v = eig_hermitian(x)
            assert np.all(np.diff(lam) <= 1e-12)
            recon = (v * lam) @ v.conj().T
            assert np.max(np.abs(recon - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12

    def test_eigenvector_residual(self):
        rng = np.random.default_rng(8)
        x = random_hermitian(rng, 6)
        lam, v = eig_hermitian(x)
        for j in range(6):
            res = np.linalg.norm(x @ v[:, j] - lam[j] * v[:, j])
            assert res <= 1e-10 * max(1.0, np.linalg.norm(x))


class TestProjector:
    def test_empty_set_gives_identity(self):
        p = orth_complement_projector(np.zeros((4, 0), dtype=complex))
        assert np.array_equal(p, np.eye(4))

    def test_matches_qr_oracle(self):
        # Independent construction: economy QR of the columns, P = I - Q Q^H.
        rng = np.random.default_rng(21)
        for n, k in ((4, 2), (8, 3), (8, 7), (6, 6)):
            f = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            q, _ = np.linalg.qr(f)
            oracle = np.eye(n) - q @ q.conj().T
            p = orth_complement_projector(f)
            assert np.max(np.abs(p - oracle)) <= 1e-10

    def test_idempotent_hermitian_annihilates(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        p = orth_complement_projector(f)
        assert is_hermitian(p)
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(p @ f)) <= 1e-12

    def test_rank_deficient_columns(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        f = np.hstack([v, 2 * v, -0.5 * v])
        p = orth_complement_projector(f)
        # Only one independent direction is removed.
        assert np.allclose(np.trace(p).real, 4.0, atol=1e-10)

    def test_residual_norm_bound_full_column_set(self):
        # For n >= k the leave-one-out residual dominates the smallest
        # singular value of the normalized column matrix.
        rng = np.random.default_rng(11)
        for n, k in ((4, 3), (8, 3), (8, 7), (12, 11)):
            f = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            fhat = f / np.linalg.norm(f, axis=0, keepdims=True)
            smin = np.linalg.svd(fhat, compute_uv=False)[-1]
            for i in range(k):
                others = np.delete(f, i, axis=1)
                beta = np.linalg.norm(orth_complement_projector(others) @ f[:, i])
                assert beta >= np.linalg.norm(f[:, i]) * smin - 1e-9


class TestNumericalRank:
    def test_threshold_behaviour(self):
        assert numerical_rank(np.diag([1.0, 1e-7]), tau=1e-6) == 1
        assert numerical_rank(np.diag([1.0, 1e-5]), tau=1e-6) == 2
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        w = random_unit(rng, 5)
        x = np.outer(w, w.conj()) + 1e-8 * np.eye(5)
        for c in (1e-6, 1.0, 1e6):
            assert numerical_rank(c * x) == 1

    def test_projector_rank(self):
        rng = np.random.default_rng(17)
        f = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        assert numerical_rank(orth_complement_projector(f)) == 4


class TestRealEmbedding:
    def test_pauli_like_block(self):
        x = np.array([[0.0, -1j], [1j, 0.0]])
        y = real_embedding(x)
        assert np.allclose(y, y.T)
        assert np.allclose(np.sort(np.linalg.eigvalsh(y)), [-1, -1, 1, 1])

    def test_trace_and_rank_double(self):
        rng = np.random.default_rng(19)
        w = random_unit(rng, 4)
        x = np.outer(w, w.conj())
        y = real_embedding(x)
        assert np.isclose(np.trace(y), 2 * np.trace(x).real)
        assert np.linalg.matrix_rank(y, tol=1e-10) == 2

    def test_psd_both_directions(self):
        rng = np.random.default_rng(23)
        a = random_hermitian(rng, 4)
        apsd = a @ a.conj().T
        assert np.linalg.eigvalsh(real_embedding(apsd))[0] >= -1e-12
        indef = random_hermitian(rng, 4)
        indef -= (np.linalg.eigvalsh(indef)[-1] + 1.0) * np.eye(4)
        assert np.linalg.eigvalsh(real_embedding(indef))[0] < 0

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, 3)
        assert np.max(np.abs(hermitian_from_real_embedding(real_embedding(x)) - x)) <= 1e-14
        stack = np.stack([x, random_hermitian(rng, 3), random_hermitian(rng, 3)])
        embedded = real_embedding(stack)
        np.testing.assert_array_equal(embedded, [real_embedding(m) for m in stack])
        np.testing.assert_array_equal(
            hermitian_from_real_embedding(embedded),
            [hermitian_from_real_embedding(m) for m in embedded],
        )

    def test_inner_product_factor_two(self):
        rng = np.random.default_rng(29)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        lhs = np.trace(real_embedding(a) @ real_embedding(b)).real
        assert np.isclose(lhs, 2 * np.trace(a @ b).real)


class TestTrs:
    def test_identity_quadratic_closed_form(self):
        # A = I, |b| = 1, radius 2: optimum at e = 2 b, value 4 + 4 = 8.
        b = np.array([1.0 + 0j, 0.0])
        val, e = trs_maximize(TrsInstance(np.eye(2), b, 2.0))
        assert val == pytest.approx(8.0, rel=1e-10)
        assert np.allclose(e, 2 * b, atol=1e-8)

    def test_negative_definite_interior(self):
        # A = -I: unconstrained max at e = b with value |b|^2.
        b = np.array([0.3, -0.4j])
        val, e = trs_maximize(TrsInstance(-np.eye(2), b, 10.0))
        assert val == pytest.approx(np.linalg.norm(b) ** 2, rel=1e-10)
        assert np.allclose(e, b, atol=1e-10)
        assert np.linalg.norm(e) < 10.0

    def test_hard_case(self):
        # b orthogonal to the top eigenspace; completion along it is needed.
        quad = np.diag([2.0, 1.0]).astype(complex)
        lin = np.array([0.0, 1.0 + 0j])
        val, e = trs_maximize(TrsInstance(quad, lin, 2.0))
        # max 2|e1|^2 + |e2|^2 + 2 Re e2 on |e|<=2 -> e2 = 1, |e1|^2 = 3.
        assert val == pytest.approx(9.0, rel=1e-10)
        assert abs(e[1] - 1.0) <= 1e-8
        assert abs(abs(e[0]) - np.sqrt(3.0)) <= 1e-8

    def test_pure_eigen_case(self):
        quad = np.diag([3.0, -1.0]).astype(complex)
        val, e = trs_maximize(TrsInstance(quad, np.zeros(2), 1.5))
        assert val == pytest.approx(3.0 * 1.5**2, rel=1e-12)
        assert abs(abs(e[0]) - 1.5) <= 1e-10

    def test_zero_radius(self):
        val, e = trs_maximize(TrsInstance(np.eye(3), np.ones(3), 0.0))
        assert val == 0.0
        assert np.array_equal(e, np.zeros(3))

    def test_argmax_attains_value(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = rng.integers(1, 9)
            quad = random_hermitian(rng, n, scale=rng.uniform(0.1, 5.0))
            lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            eps = rng.uniform(0.01, 3.0)
            val, e = trs_maximize(TrsInstance(quad, lin, eps))
            assert np.linalg.norm(e) <= eps * (1 + 1e-12)
            attained = (e.conj() @ quad @ e).real + 2 * (lin.conj() @ e).real
            assert attained == pytest.approx(val, rel=1e-10, abs=1e-12)

    @given(st.integers(0, 100000))
    @settings(max_examples=40, deadline=None)
    def test_dominates_boundary_samples(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        quad = random_hermitian(rng, n, scale=2.0)
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eps = float(rng.uniform(0.05, 2.5))
        val, _ = trs_maximize(TrsInstance(quad, lin, eps))
        dirs = rng.standard_normal((256, n)) + 1j * rng.standard_normal((256, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = eps * rng.uniform(0, 1, size=(256, 1)) ** (1 / (2 * n))
        pts = radii * dirs
        sampled = np.einsum("si,ij,sj->s", pts.conj(), quad, pts).real
        sampled += 2 * (pts @ lin.conj()).real
        assert val >= np.max(sampled) - 1e-9 * max(1.0, abs(val))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TrsInstance(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            TrsInstance(np.eye(2), np.zeros(2), -1.0)
        with pytest.raises(ValueError):
            TrsInstance(np.eye(3), np.zeros(2), 1.0)
