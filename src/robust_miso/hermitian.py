"""Complex Hermitian linear algebra primitives.

Everything downstream (SDP builders, rank certificates, worst-case oracles)
funnels through this module: eigendecompositions with a fixed ordering
convention, orthogonal-complement projectors, numerical rank with an explicit
tolerance, the 2n x 2n real symmetric embedding of Hermitian matrices, and an
exact solver for the trust-region subproblem

    maximize   e^H A e + 2 Re(b^H e)   subject to   ||e||_2 <= radius,

which is the inner worst-case problem for ball-shaped channel uncertainty.
Its boundary multiplier comes from one eigenvalue problem of order 2n
(Adachi, Iwata, Nakatsukasa and Takeda 2017), with no iteration.
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


def is_hermitian(x: np.ndarray, atol: float = HERM_ATOL) -> bool:
    """True if x is square and equals its conjugate transpose within atol."""
    x = np.asarray(x)
    return x.ndim == 2 and x.shape[0] == x.shape[1] and all_hermitian(x[None], atol)


def all_hermitian(stack: np.ndarray, atol: float = HERM_ATOL) -> bool:
    """True if every matrix of a stacked (K, n, n) array is finite and equals
    its conjugate transpose within atol times max(1, its largest entry)."""
    if not np.all(np.isfinite(stack)):
        return False
    skew = np.max(np.abs(stack - np.swapaxes(stack.conj(), -1, -2)), axis=(1, 2))
    return bool(np.all(skew <= atol * np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))))


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
    over the complex ball ||e|| <= radius, in at least one dimension."""

    quad: np.ndarray
    lin: np.ndarray
    radius: float

    def __post_init__(self):
        quad = np.asarray(self.quad, dtype=complex)
        lin = np.asarray(self.lin, dtype=complex).reshape(-1)
        if quad.shape != (lin.size, lin.size):
            raise ValueError("quad must be square and match lin")
        if lin.size == 0:
            raise ValueError("quad and lin must have at least one entry")
        if not (np.all(np.isfinite(quad)) and np.all(np.isfinite(lin))):
            raise ValueError("quad and lin must be finite")
        if not is_hermitian(quad):
            raise ValueError("quad must be Hermitian")
        if not (np.isfinite(self.radius) and self.radius >= 0):
            raise ValueError("radius must be finite and nonnegative")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)


def _trs_value(lam: np.ndarray, bt: np.ndarray, coeff: np.ndarray) -> float:
    return float(np.sum(lam * np.abs(coeff) ** 2) + 2.0 * np.sum((bt.conj() * coeff).real))


def trs_maximize(inst: TrsInstance) -> tuple[float, np.ndarray]:
    """Global maximum of the ball-constrained quadratic, with an argmax.

    In quad's eigenbasis (eigenvalues lam, lin's coordinates beta) a global
    maximizer solves (nu I - quad) e = lin with nu >= max(0, lam_max). Off
    the interior case, nu is the root above lam_max of
    sum |beta_i|^2 / (nu - lam_i)^2 = radius^2: the rightmost real
    eigenvalue of [[diag(lam), I], [|beta| |beta|^T / radius^2, diag(lam)]]
    (Adachi, Iwata, Nakatsukasa and Takeda, SIAM J. Optim. 27(1), 2017), so
    no iteration is needed. Coefficients off the top eigenspace are
    beta_i / (nu - lam_i); the top eigenspace takes the rest of the radius,
    along beta there, or along a top eigenvector when beta has no weight
    there. That covers the hard and near-hard cases, where nu sits at or
    just above lam_max and beta_top / (nu - lam_max) loses every digit.
    """
    n = inst.lin.size
    eps = float(inst.radius)
    if eps == 0.0:
        return 0.0, np.zeros(n, dtype=complex)

    lam, v = np.linalg.eigh(hermitian_part(inst.quad))
    bt = v.conj().T @ inst.lin
    lam_max = lam[-1]

    # Interior optimum is possible only when quad is negative definite.
    if lam_max < 0.0:
        c0 = bt / (0.0 - lam)
        if np.linalg.norm(c0) <= eps:
            return _trs_value(lam, bt, c0), v @ c0

    # Shifted by lam_max, so that nu - lam_max keeps its digits near the hard case.
    gap = lam - lam_max
    g = np.abs(bt)
    mat = np.block([[np.diag(gap), np.eye(n)], [np.outer(g, g) / eps**2, np.diag(gap)]])
    rise = max(0.0, float(np.max(np.linalg.eigvals(mat).real)))

    top = gap >= -1e-12 * max(1.0, float(np.max(np.abs(lam))))
    coeff = np.zeros(n, dtype=complex)
    coeff[~top] = bt[~top] / (rise - gap[~top])
    nrm = np.linalg.norm(coeff)
    if nrm >= eps:
        coeff *= eps / nrm
    else:
        rest = np.sqrt(eps * eps - nrm * nrm)
        b_top = np.linalg.norm(bt[top])
        if b_top > 0.0:
            coeff[top] = rest * bt[top] / b_top
        else:
            coeff[np.flatnonzero(top)[-1]] = rest
    return _trs_value(lam, bt, coeff), v @ coeff
