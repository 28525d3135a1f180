"""Complex Hermitian linear algebra primitives.

Everything downstream (SDP builders, rank certificates, worst-case oracles)
funnels through this module: eigendecompositions with a fixed ordering
convention, orthogonal-complement projectors, numerical rank with an explicit
tolerance, the 2n x 2n real symmetric embedding of Hermitian matrices, and an
exact solver for the trust-region subproblem

    maximize   e^H A e + 2 Re(b^H e)   subject to   ||e||_2 <= radius,

which is the inner worst-case problem for ball-shaped channel uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular value cutoff for range/pseudoinverse decisions.
PINV_CUTOFF = 1e-10
# Default relative eigenvalue threshold for numerical rank.
RANK_TAU = 1e-6
# Eigenvalues with max below this are treated as an all-zero matrix.
RANK_FLOOR = 1e-12
# Hermitian symmetry slack accepted by validation helpers.
HERM_ATOL = 1e-10

_TRS_NEWTON_MAX = 100


def is_hermitian(x: np.ndarray, atol: float = HERM_ATOL) -> bool:
    """True if x is square and equals its conjugate transpose within atol."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        return False
    return bool(np.max(np.abs(x - x.conj().T)) <= atol * max(1.0, np.max(np.abs(x))))


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian subspace, (x + x^H)/2; supports stacked (..., n, n)."""
    x = np.asarray(x)
    return 0.5 * (x + np.swapaxes(x.conj(), -1, -2))


def eig_hermitian(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (lam, v) with lam real descending and v unitary, so that
    x = v @ diag(lam) @ v^H. The input is symmetrized first; callers are
    expected to pass matrices that are Hermitian up to roundoff.
    """
    lam, v = np.linalg.eigh(hermitian_part(x))
    return lam[::-1].copy(), v[:, ::-1].copy()


def real_embedding(x: np.ndarray) -> np.ndarray:
    """Real symmetric 2n x 2n embedding [[Re x, -Im x], [Im x, Re x]] of each (..., n, n) x.

    The map is an algebra homomorphism on Hermitian matrices: it preserves
    positive semidefiniteness in both directions and doubles both trace and
    rank. Inner products pick up a factor 2:
    tr(T(a) T(b)) = 2 tr(a b) for Hermitian a, b.
    """
    x = np.asarray(x, dtype=complex)
    re, im = x.real, x.imag
    return np.concatenate([np.concatenate([re, -im], -1), np.concatenate([im, re], -1)], -2)


def hermitian_from_real_embedding(y: np.ndarray) -> np.ndarray:
    """Recover Hermitian matrices from real symmetric (..., 2n, 2n) block matrices.

    Averages over the embedding symmetry, so it is exact on embedded inputs
    and acts as the canonical projection otherwise: any skew component a PSD
    solver may have added is trace-orthogonal to embedded data and drops out.
    """
    y = np.asarray(y, dtype=float)
    n2 = y.shape[-1]
    if n2 % 2:
        raise ValueError("real embedding must have even order")
    n = n2 // 2
    re = 0.5 * (y[..., :n, :n] + y[..., n:, n:])
    im = 0.5 * (y[..., n:, :n] - y[..., :n, n:])
    return hermitian_part(re + 1j * im)


def orth_complement_projector(cols: np.ndarray) -> np.ndarray:
    """Projector onto the orthogonal complement of the column span of cols.

    cols is n x k complex (k may be 0, giving the identity). Rank decisions
    use singular values above PINV_CUTOFF relative to the largest one, which
    matches the pseudoinverse formula I - F (F^H F)^+ F^H.
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim == 1:
        cols = cols[:, None]
    n, k = cols.shape
    if k == 0 or not np.any(cols):
        return np.eye(n, dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    keep = s > PINV_CUTOFF * s[0]
    basis = u[:, keep]
    return np.eye(n, dtype=complex) - basis @ basis.conj().T


def numerical_rank(x: np.ndarray, tau: float = RANK_TAU) -> int:
    """Count eigenvalues exceeding tau times the largest one.

    Intended for (near) positive semidefinite Hermitian matrices; returns 0
    when the top eigenvalue does not exceed RANK_FLOOR.
    """
    lam = np.linalg.eigvalsh(hermitian_part(np.asarray(x, dtype=complex)))
    lam_max = lam[-1]
    if lam_max <= RANK_FLOOR:
        return 0
    return int(np.count_nonzero(lam > tau * lam_max))


@dataclass(frozen=True)
class TrsInstance:
    """Trust-region subproblem data: maximize e^H quad e + 2 Re(lin^H e)
    over the complex ball ||e|| <= radius."""

    quad: np.ndarray
    lin: np.ndarray
    radius: float

    def __post_init__(self):
        quad = np.asarray(self.quad, dtype=complex)
        lin = np.asarray(self.lin, dtype=complex).reshape(-1)
        if quad.shape != (lin.size, lin.size):
            raise ValueError("quad must be square and match lin")
        if not is_hermitian(quad):
            raise ValueError("quad must be Hermitian")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)


def _trs_value(lam: np.ndarray, bt: np.ndarray, coeff: np.ndarray) -> float:
    return float(np.sum(lam * np.abs(coeff) ** 2) + 2.0 * np.sum((bt.conj() * coeff).real))


def trs_maximize(inst: TrsInstance) -> tuple[float, np.ndarray]:
    """Global maximum of the ball-constrained quadratic, with an argmax.

    Works in the eigenbasis of quad. The stationarity condition for a global
    maximizer is (nu I - quad) e = lin with multiplier nu >= max(0, lam_max),
    so the boundary multiplier is located by a safeguarded Newton iteration on
    the secular function 1/||e(nu)|| - 1/radius, which is monotone on
    (lam_max, inf). When lin is orthogonal to the top eigenspace and the
    limiting solution is interior (the hard case), the maximizer is completed
    with a top-eigenvector component of the right length.
    """
    n = inst.lin.size
    eps = float(inst.radius)
    if eps == 0.0 or n == 0:
        return 0.0, np.zeros(n, dtype=complex)

    lam, v = np.linalg.eigh(hermitian_part(inst.quad))
    bt = v.conj().T @ inst.lin
    lam_max = lam[-1]
    scale = max(1.0, float(np.max(np.abs(lam))), float(np.linalg.norm(bt)) / eps)

    # Interior optimum is possible only when quad is negative definite.
    if lam_max < 0.0:
        c0 = bt / (0.0 - lam)
        if np.linalg.norm(c0) <= eps:
            return _trs_value(lam, bt, c0), v @ c0

    nu_lo = max(0.0, lam_max)
    top = lam >= lam_max - 1e-12 * scale
    b_top = np.linalg.norm(bt[top])

    if b_top <= 1e-14 * scale * eps:
        # Hard case: no pole at nu_lo; the non-top part alone may be interior.
        coeff = np.zeros(n, dtype=complex)
        rest = ~top
        coeff[rest] = bt[rest] / (nu_lo - lam[rest])
        nrm = np.linalg.norm(coeff)
        if nrm < eps:
            t = np.sqrt(max(eps * eps - nrm * nrm, 0.0))
            coeff[np.flatnonzero(top)[-1]] = t
            return _trs_value(lam, bt, coeff), v @ coeff
        # Otherwise the secular root sits strictly right of nu_lo; fall through.

    def norm_at(nu: float) -> float:
        return float(np.linalg.norm(bt / (nu - lam)))

    # Bracket the root of ||e(nu)|| = eps on (nu_lo, nu_hi].
    lo = nu_lo
    hi = nu_lo + np.linalg.norm(bt) / eps + 1e-8 * scale
    while norm_at(hi) > eps:
        hi = nu_lo + 2.0 * (hi - nu_lo)
    nu = min(hi, lo + max(float(np.linalg.norm(bt)) / eps, 1e-8 * scale))
    if not (lo < nu <= hi):
        nu = 0.5 * (lo + hi)

    for _ in range(_TRS_NEWTON_MAX):
        d = nu - lam
        c2 = np.abs(bt) ** 2 / d**2
        nrm = np.sqrt(float(np.sum(c2)))
        if nrm > eps:
            lo = nu
        else:
            hi = nu
        if abs(nrm - eps) <= 1e-14 * eps:
            break
        # Newton step on 1/||e|| - 1/eps, safeguarded by the bracket.
        dnorm2 = -2.0 * float(np.sum(c2 / d))
        phi = 1.0 / nrm - 1.0 / eps
        dphi = -0.5 * dnorm2 / nrm**3
        step = -phi / dphi if dphi > 0 else np.nan
        nu_new = nu + step
        if not np.isfinite(nu_new) or not (lo < nu_new < hi):
            nu_new = 0.5 * (lo + hi)
        if abs(nu_new - nu) <= 1e-16 * max(1.0, abs(nu)):
            nu = nu_new
            break
        nu = nu_new

    coeff = bt / (nu - lam)
    nrm = np.linalg.norm(coeff)
    if nrm > 0:
        coeff *= min(1.0, eps / nrm)
    return _trs_value(lam, bt, coeff), v @ coeff
