"""Dense conic solver for small standard-form programs.

Solves
    minimize    <c, x>
    subject to  A x = b,   x in K,
where K is a product of nonnegative-orthant and real PSD blocks, the latter
handled in scaled symmetric vectorization (svec) so that the Euclidean inner
product on x matches the trace inner product on the matrices.

Algorithm: Mehrotra-style predictor-corrector path following with
Nesterov-Todd scaling on the homogeneous self-dual embedding

    s = -A^T y + c tau,   0 = A x - b tau,   kappa = -<c,x> + <b,y>,

so primal/dual infeasibility certificates fall out of the tau/kappa split
instead of needing a separate phase. Per iteration the Newton system reduces
to an m x m Schur complement A H^-1 A^T = G G^T with G = A F (H is the NT
scaling Hessian, whose inverse F F^T is known in closed form), factored by
Cholesky with iterative refinement against the full augmented system.

The step is computed, combined and limited in scaled coordinates, as in the
CVXOPT cone solvers (Vandenberghe 2010): the KKT solve returns dy and
xbar = F^-1 dx, the scaled slack step is sbar = h - xbar for the
complementarity right-hand side h, the predictor's h is -lambda (the scaled
point F^-1 x = F^T s), and the step lengths and the Mehrotra term read xbar
and sbar directly. Each primal-dual pair is one stacked (2, n) array: the
iterate (x, s), every direction (xbar, sbar) and its image (dx, ds) =
(F xbar, F^-T sbar), formed for the update and for each residual check of
the KKT refinement. A part gathers both rows of a pair with one take, once
per direction for its step limit, Jordan product and update, and scatters
them with one; every row keeps the bits it takes alone. On a PSD block, F,
F^T and F^-T share one congruence M^T V M, with M = R^T, R or R^-1 for the
NT factor R. The iteration starts at x = s = e, where the NT scaling is the
identity: the Cholesky factors and the SVD of an identity matrix are
exactly the identity, so the first iteration takes R = R^-1 = I and
lambda = e without factoring, to the same bits. Later iterations factor the
iterate's two rows of a part in one stacked Cholesky.

One block layout drives every batched operation. It is read from the cone
list and the row-major list of A's nonzeros: the support of a cone block is
the set of rows of A with a nonzero in its columns (the NonNeg columns count
as one block), and every block belongs to exactly one part, the blocks of one
kind, order and support size. The NT scaling, the step lengths and the
Newton right-hand sides loop over the parts; so do G and the Schur
complement, which are formed only on the (row, block) pairs of the parts
with nonempty support. The blocks supported on every row share one dense
matrix that enters the Schur complement as a single symmetric product; every
other block adds its own square on its support rows. Products with G take
the same split. Products with A call scipy's compiled csr_matvec on the
arrays of one CSR copy of A, built from the same list, and products with
A^T its csc_matvec on the same three arrays, which hold A^T in CSC form.
Each call adds into a fresh zero vector, which is what csr_array @ u and
csr_array.T @ y run after scipy's Python dispatch: the kernel, the zero
start of every sum and so every bit are scipy's, and the dispatch's 20 or
so calls per product are skipped. Each kernel sums the products of an
output entry from 0.0 in the order in which np.bincount accumulates the
row-major nonzeros: csr_matvec a row of A in ascending column order,
csc_matvec a column in ascending row order. So the products keep bincount's
bits (scipy's x86-64 builds do not contract these sums into FMA).
np.add.reduceat would round differently: it sums each segment pairwise. A
whole layout, every block full and in x's column order as in the m = 3
programs, takes A's own products, which cost less than the kernels' call
there. Every part gathers its blocks from an n-vector with one take through
a table built with the layout (the position of every matrix entry, divided
by its svec scale), and scatters them back with one take of a flat table of
all its blocks' upper triangles and one product with their tiled svec
scales. The Schur complement is factored and solved by LAPACK potrf and
potrs, called directly.

The layout depends on A's nonzero positions, not on its values, so solves
of one pattern share it: a module-level cache keeps the layouts of the
last _PATTERN_CACHE patterns, keyed by the cone list, m and the sha256 of
the nonzero list, read-only. It holds no per-solve array: A's values, its
CSR copy, the factoring of a full part (which depends on the values), the
place of each part in G's full matrix and every buffer belong to the
solve. The duality audit's m = 3 programs and the Monte-Carlo trials at
one shape and model each reuse one layout.

A full-support PSD part whose A columns span r < d of its blocks' d svec
dimensions, and whose rows combine its q blocks in groups, is factored once
per solve when it pays. B (r x d) takes the eigenvectors of
sum_j A_j^T A_j above 1e-12 of the largest eigenvalue, so A_j = C_j B with
C = A B^T, and C factors as C_j[i] = alpha[g, j] chat[i] on every row i of
a run g of consecutive rows: A = blockdiag(chat_g) (alpha (x) I) B. The
robust designs have this form, one group per user, because the K
covariances enter user g's LMI only through the SINR combination
W_g / gamma_g - sum_{j != g} W_j. Per iteration M_j = B F_j takes r
congruences instead of m, and the part's share of the Schur complement on
groups g and h is chat_g X_gh chat_h^T with X_gh = sum_j alpha[g, j]
alpha[h, j] K_j and K_j = M_j M_j^T: G's columns of the part are never
formed. K_j is never factored either, which would square M_j's condition
number. A part pays when the flops saved per iteration, _low_rank_gain,
reach _LOW_RANK_FLOPS; the gain at r = 0 bounds every other, so smaller
parts skip the eigh, and a part whose rows do not factor keeps every column
of G. Against the exact path (robust designs of the four models,
in-process, 1 BLAS thread, medians of two runs of 4 rounds) the solve took
0.80-0.98 of the time at 8x3 (gain 2.0e7), 0.83-0.84 at 8x4 (5.2e7),
0.67-0.72 at 8x5 (1.1e8), 0.59-0.63 at 8x7 (3.0e8), 0.83-0.92 at 12x3
(1.5e8), 0.64-0.83 at 12x4 (4.4e8) and 0.70-0.72 at 16x4 (2.1e9). The
constant sits just above the 8x3 bound of 3.6e7: 4x3, 8x3 and m = 3
programs keep every column of G, to the bit, and skip the eigh; 8x4 and
larger robust designs are factored.

The large per-iteration arrays are allocated once per solve and overwritten
every iteration: G's full matrix, the svec stores and block squares of the
narrow parts, M and the Schur-share buffers of the factored parts, and one
m x m Schur buffer that gram writes and potrf factors in place as its
Fortran-ordered transpose. potrf reads one triangle: gram writes both, and
they agree to rounding, not to the bit, where a factored part adds its
share. A retry after a failed factorization forms the buffer again with
gram, to the same bits, and adds the jitter. G's full matrix is
Fortran-ordered unless its columns are one run of A, as numpy gathers them;
the rounding of G's products depends on it. A factored part keeps chat,
alpha and the r matrices of its basis in place of its blocks' m matrices of
A: at 8x7, 0.4 MB instead of 8 MB. Each PSD part forms its congruences
R^T A_b R (of its basis matrices, if factored) over row chunks of about
_CHUNK doubles, so its two scratch stacks stay in cache; every product is
the same BLAS call as on the whole stack, so the chunking does not change a
bit of G.

Failure policy: the iteration has one handler for numerical breakdown. Each
predictor-corrector step runs inside it, and every breakdown in the step
raises LinAlgError: the NT scaling, the Schur factorization after jitter, a
degenerate tau equation, a collapsed step length and the step-length
eigenvalues. The handler, like the iteration limit, returns
NUMERICAL_FAILURE carrying the best iterate seen so far and a message naming
the cause. The only in-loop remedies are a diagonal jitter when the Schur
complement will not factor and a QR re-solve of a KKT system that Cholesky
solved inaccurately. The QR factors G^T, formed in one stacked call of the
tdot that the KKT solves apply, on the m rows of the identity, so it
factors exactly the G of dot and tdot. Every outcome counts the remedies
in its stats: the Schur factorizations that potrf rejected, and the QR
re-solves tried and taken (whose refined residual beat Cholesky's).

Free variables are not supported; callers encode them with equalities plus
cone blocks. Complex Hermitian blocks enter through their 2n x 2n real
embedding (see robust_miso.hermitian.real_embedding).
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg
import scipy.linalg as sla
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

DEFAULT_TOL_FEAS = 1e-8
DEFAULT_TOL_GAP = 1e-8
DEFAULT_TOL_INF = 1e-8
DEFAULT_MAX_ITER = 200

# Fraction-to-boundary factor for combined steps.
_STEP_ETA = 0.99
# KKT refinement corrections, run between a solve's _KKT_REFINE + 1 residual checks.
_KKT_REFINE = 2
# The Schur complement's Cholesky factor and solve, called directly rather
# than through scipy's batching wrappers cho_factor and cho_solve.
_POTRF, _POTRS = sla.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
# Doubles per scratch stack (256 KB) in the row-chunked congruence of G.
_CHUNK = 32768
# Net flops per iteration (_low_rank_gain) that factoring a full PSD part's A
# columns must save.
_LOW_RANK_FLOPS = 4e7


def _lapack_loop(name: str, message: str):
    """numpy's batched LAPACK loop `name`, called on float64 stacks as
    np.linalg calls it but without its per-call checks and conversions, which
    dominate at the block orders of small programs: the same bits, and
    LinAlgError(message) where np.linalg raises it. None if numpy has no such loop."""
    loop = getattr(_umath_linalg, name, None)

    def fail(*_):
        raise np.linalg.LinAlgError(message)

    state = np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")
    return state(loop) if loop else None


# The NT factorization's and the step limit's LAPACK calls; np.linalg.svd on
# a numpy without the svd_f loop.
_CHOLESKY = _lapack_loop("cholesky_lo", "Matrix is not positive definite")
_EIGVALSH = _lapack_loop("eigvalsh_lo", "Eigenvalues did not converge")
_SVD = _lapack_loop("svd_f", "SVD did not converge") or np.linalg.svd


class Status(enum.Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class NonNeg:
    """Nonnegative orthant block of the given length."""

    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("NonNeg length must be positive")

    @property
    def dim(self) -> int:
        return self.length

    @property
    def barrier(self) -> int:
        return self.length


@dataclass(frozen=True)
class Psd:
    """Real symmetric PSD block of the given matrix order, svec-packed."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("Psd order must be positive")

    @property
    def dim(self) -> int:
        return self.order * (self.order + 1) // 2

    @property
    def barrier(self) -> int:
        return self.order


Cone = NonNeg | Psd


@lru_cache(maxsize=None)
def _svec_index(p: int):
    """For order p: the flat positions of the upper triangle in row-major
    order, their svec scaling, and the svec position of every matrix entry."""
    iu, ju = np.triu_indices(p)
    enc = np.where(iu == ju, 1.0, np.sqrt(2.0))
    pos = np.empty((p, p), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    return iu * p + ju, enc, pos.ravel()


def svec(m: np.ndarray) -> np.ndarray:
    """Scaled upper-triangular vectorization; supports stacked (..., p, p)."""
    p = m.shape[-1]
    upper, enc, _ = _svec_index(p)
    return m.reshape(m.shape[:-2] + (p * p,))[..., upper] * enc


def smat(v: np.ndarray, p: int) -> np.ndarray:
    """Inverse of svec; supports stacked (..., d) input."""
    _, enc, pos = _svec_index(p)
    return (v / enc).take(pos, axis=-1).reshape(v.shape[:-1] + (p, p))


def cone_dim(cones: tuple[Cone, ...] | list[Cone]) -> int:
    return sum(k.dim for k in cones)


def cone_identity(cones: list[Cone]) -> np.ndarray:
    parts = []
    for k in cones:
        if isinstance(k, NonNeg):
            parts.append(np.ones(k.length))
        else:
            parts.append(svec(np.eye(k.order)))
    return np.concatenate(parts) if parts else np.zeros(0)


def _cone_eigs(v: np.ndarray, cones: list[Cone]):
    """The eigenvalues of each block of v: a NonNeg block's entries, or
    those of a PSD block's matrix."""
    off = 0
    for k in cones:
        seg = v[off : off + k.dim]
        off += k.dim
        yield seg if isinstance(k, NonNeg) else np.linalg.eigvalsh(smat(seg, k.order))


def cone_min_eig(v: np.ndarray, cones: list[Cone]) -> float:
    """Smallest 'eigenvalue' of v across blocks (entries for NonNeg)."""
    return min((float(np.min(lam)) for lam in _cone_eigs(v, cones)), default=np.inf)


def cone_distance(v: np.ndarray, cones: list[Cone]) -> float:
    """Euclidean distance from v to K: the norm of the negative eigenvalues
    of its blocks, computed directly rather than as |v - P(v)|, which
    cancels when v is large."""
    neg = [np.minimum(lam, 0.0) for lam in _cone_eigs(v, cones)]
    return float(np.linalg.norm(np.concatenate(neg)))


@dataclass
class ConicProgram:
    """Problem data: min <c,x> s.t. A x = b, x in the product cone."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: list[Cone]

    def __post_init__(self):
        self.c = np.ascontiguousarray(self.c, dtype=float).reshape(-1)
        self.A = np.ascontiguousarray(self.A, dtype=float)
        self.b = np.ascontiguousarray(self.b, dtype=float).reshape(-1)
        if self.A.ndim != 2:
            raise ValueError("A must be a 2-d array")
        n = cone_dim(self.cones)
        if not self.cones:
            raise ValueError("at least one cone block is required")
        if self.A.shape != (self.b.size, self.c.size) or self.c.size != n:
            raise ValueError(
                f"inconsistent dimensions: A {self.A.shape}, b {self.b.size}, "
                f"c {self.c.size}, cones {n}"
            )
        if self.b.size < 1:
            raise ValueError("at least one equality row is required")
        for arr in (self.c, self.A, self.b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("problem data must be finite")

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class SolverSettings:
    tol_feas: float = DEFAULT_TOL_FEAS
    tol_gap: float = DEFAULT_TOL_GAP
    tol_inf: float = DEFAULT_TOL_INF
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        for name in ("tol_feas", "tol_gap", "tol_inf"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        # A bool is an int to Python, but no iteration count.
        count = self.max_iter
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
            raise ValueError("max_iter must be a non-negative integer")


@dataclass(frozen=True)
class SolveStats:
    """The remedies one solve took: Schur factorizations that potrf rejected
    (each retried with a larger jitter), and QR re-solves of a KKT system
    tried and taken, the latter when the QR's refined residual was smaller."""

    schur_rejected: int = 0
    qr_tried: int = 0
    qr_taken: int = 0


@dataclass
class SolveOutcome:
    """Result of a solve.

    At OPTIMAL, (x, y, s) is the scaled primal-dual pair and objective the
    primal value <c, x>. At PRIMAL_INFEASIBLE, y is a Farkas certificate
    normalized to <b, y> = 1 with -A^T y within tol of the cone (s holds that
    near-member); cert_res is the distance of -A^T y to the cone. At
    DUAL_INFEASIBLE, x is an improving ray normalized to <c, x> = -1 with
    A x ~ 0 and x in the cone, both within tol_inf; cert_res is |A x|. At
    NUMERICAL_FAILURE, x, y, s and the residuals are those of the
    best-scoring iterate. Residual fields always refer to the returned point.
    stats counts the solve's remedies over all its iterations, whatever the
    status.
    """

    status: Status
    x: np.ndarray | None
    y: np.ndarray | None
    s: np.ndarray | None
    objective: float
    dual_objective: float
    iterations: int
    primal_res: float
    dual_res: float
    gap_res: float
    cert_res: float = np.nan
    message: str = ""
    stats: SolveStats = SolveStats()


def _index(idx: np.ndarray):
    """idx flattened, or the equal slice when it is one ascending run."""
    flat = idx.ravel()
    if flat.size and flat[-1] - flat[0] + 1 == flat.size and np.all(flat[1:] > flat[:-1]):
        return slice(int(flat[0]), int(flat[-1]) + 1)
    return flat


def _low_rank_gain(m: int, q: int, d: int, r: int, groups: int = 1) -> float:
    """Flops per iteration saved by forming the Schur share of q full-support
    PSD blocks of svec length d from their factored A (see _Factored), on a
    rank-r basis of their rows and `groups` row groups, instead of from G's
    columns. The exact path costs the Schur product, m^2 of its flops per
    column, and m congruences of 4 p^3 flops per block; the factored one r
    congruences and K_j = M_j M_j^T (2 r^2 d) per block, chat X (2 m groups
    r^2) and (chat X) chat^T (m^2 r, one triangle)."""
    p = (np.sqrt(8.0 * d + 1.0) - 1.0) / 2.0
    exact = q * (m * m * d + 4.0 * p**3 * m)
    return exact - q * (4.0 * p**3 + 2.0 * r * d) * r - (m + 2.0 * groups * r) * m * r


def _low_rank(vals: np.ndarray, order: int):
    """For a full PSD part's (q, m, d) values of A, when factoring them pays
    (see _Factored): the matrices (q, r, order, order) of an orthonormal
    basis B (r, d) of their row space, and the factored form of C = A B^T;
    else None. The gain at r = 0 bounds every other, so small parts skip the
    eigh, and one row group bounds any number of them, so a part that cannot
    pay skips the factoring."""
    q, m, d = vals.shape
    if _low_rank_gain(m, q, d, 0) < _LOW_RANK_FLOPS:
        return None
    lam, vecs = np.linalg.eigh(np.matmul(_t(vals), vals).sum(axis=0))
    basis = vecs[:, lam > 1e-12 * lam[-1]].T
    r = len(basis)
    if r == d or _low_rank_gain(m, q, d, r) < _LOW_RANK_FLOPS:
        return None
    # C[i, j] = alpha[g, j] chat[i] with alpha[g] of unit norm, g running
    # over the runs of rows whose coefficients across the blocks are
    # parallel; every row must match its factors to 1e-12 of its norm. A
    # rank-one row's Gram is a a^T |chat[i]|^2 for its coefficients a, so
    # the column of its largest block is parallel to a; a row with a zero
    # Gram has no direction and runs alone.
    c = np.matmul(vals, basis.T).transpose(1, 0, 2)
    grams = np.matmul(c, _t(c))
    lead = grams[np.arange(m), :, grams.diagonal(axis1=1, axis2=2).argmax(axis=1)]
    norms = np.linalg.norm(lead, axis=1, keepdims=True)
    lead = np.divide(lead, norms, out=np.zeros_like(lead), where=norms > 0)
    parallel = np.abs(np.sum(lead[1:] * lead[:-1], axis=1)) >= 1.0 - 1e-12
    group = np.cumsum(np.append(0, ~parallel))
    starts = np.flatnonzero(np.append(True, ~parallel))
    alpha = np.linalg.eigh(np.add.reduceat(grams, starts))[1][..., -1]
    chat = np.matmul(alpha[group][:, None], c)[:, 0]
    # alpha[g] chat[i] - C[i] on a 2-D (m, q r) view: numpy writes it over
    # the product, and einsum sums 2-D rows faster than 3-D ones.
    resid = (alpha[group][:, :, None] * chat[:, None] - c).reshape(m, -1)
    off = np.einsum("ij,ij->i", resid, resid) > 1e-24 * np.einsum("ijk,ijk->i", c, c)
    if np.any(off) or _low_rank_gain(m, q, d, r, len(starts)) < _LOW_RANK_FLOPS:
        return None
    mats = np.broadcast_to(smat(basis, order), (q, r, order, order))
    return mats, _Factored(chat, alpha, group, starts, d)


class _Part:
    """Cone blocks of one kind and order whose row supports in A have the
    same size: the unit of every batched operation in an iteration.

    order is the matrix order of PSD blocks, or None for the NonNeg block
    (every NonNeg column, as one block). cols (q, d) holds the blocks'
    columns and rows (q, size) their supports. A part with rows None goes
    to G's full matrix, unless the solve factors it (see _Factored); where
    in that matrix is the workspace's. entries (q, p, p) holds the position
    in an n-vector of every matrix entry of every block and dec (p, p) their
    svec divisors, so one take gathers a part; diag (q, p) holds the
    positions of the blocks' diagonals, or the NonNeg columns; upper and enc
    are the svec table of its order, and uppers and encs the same over the
    part's q p^2 matrix entries, so one take and one product scatter it. A
    part depends on A's nonzero positions only, and its arrays are
    read-only: a _Pattern shares it across solves.
    """

    def __init__(self, order: int | None, cols: np.ndarray, rows: np.ndarray | None):
        # Read-only before any view of them is taken: the views inherit it.
        for table in (cols, rows):
            if table is not None:
                table.flags.writeable = False
        self.order, self.cols, self.rows = order, cols, rows
        self.col_index = _index(cols)
        self.entries = self.diag = cols
        if order is not None:
            q, p2 = len(cols), order * order
            self.upper, self.enc, pos = _svec_index(order)
            self.entries = cols[:, pos].reshape(q, order, order)
            self.dec = self.enc[pos].reshape(order, order)
            self.diag = cols[:, pos[:: order + 1]]
            self.uppers = (np.arange(0, q * p2, p2)[:, None] + self.upper).ravel()
            self.encs = np.tile(self.enc, q)
        if rows is not None:
            self.row_index = _index(rows)
            self.squares = []
            for r in rows:
                run = _index(r)
                self.squares.append((run, run) if isinstance(run, slice) else np.ix_(r, r))

    def gather(self, v: np.ndarray) -> np.ndarray:
        """The blocks of an n-vector, or of each row of a stacked (k, n)
        input: (..., q, p, p) symmetric matrices, or the (..., 1, length)
        entries of the NonNeg block."""
        vals = v.take(self.entries, axis=-1)
        return vals if self.order is None else vals / self.dec

    def scatter(self, out: np.ndarray, blocks: np.ndarray) -> None:
        """Writes the blocks, as gather returns them, into the n-vector out or
        the rows of a stacked (k, n) out. The columns are indexed through .T,
        numpy's fast path for an n-vector."""
        vals = blocks.reshape(out.shape[:-1] + (-1,))
        if self.order is not None:
            vals = vals.take(self.uppers, axis=-1) * self.encs
        out.T[self.col_index] = vals.T


class _Pattern:
    """Cone layout and the (row support, cone block) pattern of A: what a
    solve reads from the cone list and A's nonzero positions alone.

    The support of a block is the set of rows of A with a nonzero in the
    block's columns; the NonNeg columns count as one block. Every block
    belongs to exactly one _Part, keyed by kind, order and support size;
    layout lists them all, NonNeg first, and drives the NT scaling, the step
    lengths and the Newton right-hand sides. parts leaves out the blocks
    with empty support and drives G = A F and its products. Blocks supported
    on every row go to one full matrix (see _Workspace); the others are
    stored on their support rows only. A block whose support square exceeds
    half of m x m joins the full matrix too: the full product is symmetric,
    so there it costs less than the square. nu is the barrier parameter, e
    the cone identity and lam_pos the positions of lambda's nonzeros, the
    layout's diagonals in its order. Every array is read-only, so solves
    that share the pattern share one _Pattern (see _pattern).
    """

    def __init__(self, cones: tuple[Cone, ...], m: int, n: int, flat: np.ndarray):
        self.nu = sum(k.barrier for k in cones)
        self.e = cone_identity(cones)
        bounds = np.cumsum([0] + [k.dim for k in cones])
        ranges = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        nz_rows, nz_cols = divmod(flat, n)
        # touched[i, r]: cone i has a nonzero in row r of A.
        touched = np.zeros((len(cones), m), dtype=bool)
        touched[np.searchsorted(bounds, nz_cols, side="right") - 1, nz_rows] = True
        nn = [i for i, k in enumerate(cones) if isinstance(k, NonNeg)]
        blocks = []
        if nn:
            blocks.append((None, np.concatenate([ranges[i] for i in nn]), touched[nn].any(axis=0)))
        blocks += [
            (k.order, ranges[i], touched[i]) for i, k in enumerate(cones) if isinstance(k, Psd)
        ]
        keyed: dict[tuple, list] = {}
        for order, block_cols, hit in blocks:
            rows = np.flatnonzero(hit)
            keyed.setdefault((order, rows.size), []).append((block_cols, rows))
        # NonNeg (order None) first, then by order and support size.
        self.layout = []
        for order, size in sorted(keyed, key=lambda key: (key[0] or 0, key[1])):
            members = keyed[order, size]
            rows = np.stack([r for _, r in members]) if 2 * size * size <= m * m else None
            self.layout.append(_Part(order, np.stack([c for c, _ in members]), rows))
        self.parts = [p for p in self.layout if p.rows is None or p.rows.size]
        self.lam_pos = np.concatenate([p.diag.ravel() for p in self.layout])
        for obj in [self, *self.layout]:
            for value in vars(obj).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False


# Patterns of recent solves, keyed by the cone tuple, m and the sha256 of A's
# row-major nonzero list, least recently used first. At most _PATTERN_CACHE:
# a Monte-Carlo study or an audit uses a few, tools/solve_digest.py's seeded
# set 20. A pattern holds about 17 KB of arrays at 4x3 and 120 KB at 8x7.
_PATTERNS: dict[tuple, _Pattern] = {}
_PATTERN_CACHE = 32
_PATTERN_LOCK = threading.Lock()


def _pattern(cones: list[Cone], m: int, n: int, flat: np.ndarray) -> _Pattern:
    """The _Pattern of A's nonzeros at flat (row-major positions in an m x n
    A) under the cones, moved to the recent end, or built on a miss."""
    key = (tuple(cones), m, hashlib.sha256(flat).digest())
    with _PATTERN_LOCK:
        pattern = _PATTERNS.pop(key, None)
        if pattern is not None:
            _PATTERNS[key] = pattern
            return pattern
    pattern = _Pattern(key[0], m, n, flat)
    with _PATTERN_LOCK:
        _PATTERNS[key] = pattern
        while len(_PATTERNS) > _PATTERN_CACHE:
            del _PATTERNS[next(iter(_PATTERNS))]
    return pattern


class _Workspace:
    """A solve's values on its _Pattern: A's values, the products with A and
    the buffers of every iteration.

    layout, parts, nu and e are the pattern's. Blocks supported on every row
    share one full matrix, unless their part is factored (see _Factored),
    which depends on A's values. a_mats holds A's PSD blocks as matrices on
    their support rows, or for a factored part the matrices of its basis,
    which every block shares; g and schur hold G and the Schur complement,
    then its factor, for every iteration; g_chunks holds the views that
    scaled_gram writes G through. a_dot and a_tdot are the products with A
    and A^T: scipy's kernels on the arrays of its CSR copy (see _matvec), or
    A's own when the layout is whole.
    """

    def __init__(self, prog: ConicProgram):
        self.prog = prog
        a = prog.A
        m, n = a.shape
        # A's nonzeros, read once in row-major order; np.flatnonzero(a) on the
        # floats would take longer than on a != 0.
        flat = np.flatnonzero(a != 0)
        self.pattern = _pattern(prog.cones, m, n, flat)
        self.layout, self.parts = self.pattern.layout, self.pattern.parts
        self.nu, self.e = self.pattern.nu, self.pattern.e

        # A's (q, size, d) values per part; a view for a full part on one run.
        a_vals = {
            p: a[:, p.col_index].reshape(m, *p.cols.shape).transpose(1, 0, 2) if p.rows is None
            else a[p.rows[:, :, None], p.cols[:, None, :]]
            for p in self.parts
        }
        # A's PSD blocks in matrix form on their support rows, fixed across
        # iterations; a_vals is left with the NonNeg values alone. A factored
        # part keeps the matrices of its basis B and its _Factored form.
        self.a_mats, low_rank = {}, {}
        for p in [p for p in self.parts if p.order is not None]:
            vals = a_vals.pop(p)
            factored = _low_rank(vals, p.order) if p.rows is None else None
            if factored is None:
                self.a_mats[p] = smat(vals, p.order)
                continue
            self.a_mats[p], low_rank[p] = factored

        # Each full part's columns of G's full matrix.
        full = [p for p in self.parts if p.rows is None and p not in low_rank]
        full.sort(key=lambda p: p.cols[0, 0])
        offsets, stop = {}, 0
        for part in full:
            offsets[part] = slice(stop, stop + part.cols.size)
            stop += part.cols.size
        runs = [p.cols.ravel() for p in full]
        self.full_cols = _index(np.concatenate(runs) if runs else np.zeros(0, dtype=int))
        # G's rounding depends on the memory order of its stores: a narrow PSD
        # store has the svec axis outermost, the full matrix a[:, full_cols]'s.
        narrow = {
            p: np.empty(p.rows.shape + p.cols.shape[1:]) if p.order is None
            else np.empty(p.cols.shape[1:] + p.rows.shape).transpose(1, 2, 0)
            for p in self.parts if p.rows is not None
        }
        g_full = np.empty((m, stop), order="C" if isinstance(self.full_cols, slice) else "F")
        self.g = _Patterned(self.full_cols, g_full, offsets, narrow, low_rank, n)
        self.schur = np.empty((m, m))
        # Products with A itself read only its nonzeros, through the arrays of
        # one CSR copy of A, which are also A^T's in CSC form, unless every
        # block is full and in x's column order: then they are products with
        # A, which cost less than the kernels' call at m = 3. The CSR is built
        # from the nonzero list; csr_array(a) would scan A's floats again. The
        # list is dropped before G's chunk scratch is allocated, at the peak
        # of the workspace's memory.
        self.a_dot, self.a_tdot = a.__matmul__, a.T.__matmul__
        if not self.g.whole:
            nz_rows, nz_cols = divmod(flat, n)
            indptr = np.searchsorted(nz_rows, np.arange(m + 1)).astype(np.int32)
            csr = (indptr, nz_cols.astype(np.int32), a.ravel()[flat])
            self.a_dot = _matvec(csr_matvec, m, n, *csr)
            self.a_tdot = _matvec(csc_matvec, n, m, *csr)
            del nz_rows, nz_cols
        del flat
        self.g_chunks = self._chunk_views(a_vals)

    def _chunk_views(self, a_vals: dict) -> dict:
        """Per part, the views that scaled_gram writes G through. A NonNeg
        part has one pair (A's values, G's values). A PSD part has one tuple
        per chunk of its support rows: A's matrices, two scratch stacks, the
        second one flat, and the chunk's rows of G."""
        # Rows per chunk: at least one, at most the whole support.
        steps = {}
        for p, mats in self.a_mats.items():
            q, size = mats.shape[:2]
            steps[p] = min(size, max(1, _CHUNK // (q * p.order**2)))
        longest = max((self.a_mats[p][:, :step].size for p, step in steps.items()), default=0)
        first, second = np.empty((2, longest))
        views = {}
        for p in self.parts:
            dest = self.g.values(p)
            if p.order is None:
                views[p] = [(a_vals[p], dest)]
                continue
            views[p] = []
            for lo in range(0, dest.shape[1], steps[p]):
                mats = self.a_mats[p][:, lo : lo + steps[p]]
                stack = second[: mats.size].reshape(mats.shape)
                views[p].append((
                    mats,
                    first[: mats.size].reshape(mats.shape),
                    stack,
                    stack.reshape(mats.shape[:2] + (-1,)),
                    dest[:, lo : lo + steps[p]],
                ))
        return views


def _matvec(kernel, rows: int, cols: int, indptr, indices, data):
    """The product of a real vector with the rows x cols matrix that scipy's
    kernel (csr_matvec or csc_matvec) reads from indptr, indices and data.
    The kernel adds into a fresh zero vector, as scipy's csr_array @ v runs
    it after its dispatch, so each sum starts from 0.0 and every bit is
    scipy's."""

    def product(v: np.ndarray) -> np.ndarray:
        out = np.zeros(rows)
        kernel(rows, cols, indptr, indices, data, v, out)
        return out

    return product


class _Factored:
    """A full-support PSD part of q blocks whose A factors by row groups.

    Its blocks' columns span r < d of their svec dimensions, so A_j = C_j B
    on an orthonormal basis B (r, d), and every row i of group g (a run of
    consecutive rows) has C_j[i] = alpha[g, j] chat[i]: A = blockdiag(chat_g)
    (alpha (x) I) B. On group g's rows G_j = alpha[g, j] chat_g M_j with
    M_j = B F_j, so the part's share of the Schur complement on groups g and
    h is chat_g X_gh chat_h^T with X_gh = sum_j alpha[g, j] alpha[h, j] K_j
    and K_j = M_j M_j^T. K_j is formed but never factored, which would square
    M_j's condition number. group holds the group of every row, starts the
    first row of every group and groups their row slices. ms holds M
    (q, r, d), which scaled_gram writes; pairs holds alpha[g] * alpha[h] for
    g <= h, grouped by h, and k, x and z are gram's buffers.
    """

    def __init__(self, chat, alpha, group, starts, d: int):
        (m, r), q = chat.shape, alpha.shape[1]
        self.chat, self.alpha, self.group, self.starts = chat, alpha, group, starts
        self.groups = [slice(*run) for run in zip(starts, np.append(starts[1:], m))]
        self.pairs = np.einsum("gj,hj->hgj", alpha, alpha)[np.tril_indices(len(alpha))]
        self.ms = np.empty((q, r, d))
        self.k = np.empty((q, r, r))
        self.x = np.empty((len(self.pairs), r, r))
        self.z = np.empty((m, r))

    def dot(self, u: np.ndarray) -> np.ndarray:
        """G u for the part's (q, d) entries of u: chat_g sum_j alpha[g, j] M_j u_j."""
        w = self.alpha @ np.matmul(self.ms, u[:, :, None])[:, :, 0]
        return np.einsum("ir,ir->i", self.chat, w[self.group])

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """G^T y as (..., q, 1, d): M_j^T sum_g alpha[g, j] chat_g^T y_g."""
        z = np.add.reduceat(self.chat * y[..., None], self.starts, axis=-2)
        return np.matmul((self.alpha.T @ z)[..., None, :], self.ms)

    def gram(self, out: np.ndarray) -> None:
        """Adds the part's share of G G^T to the m x m out: column group h
        on the rows of groups g <= h, then its mirror below the diagonal."""
        np.matmul(self.ms, _t(self.ms), out=self.k)
        np.matmul(self.pairs, self.k.reshape(len(self.k), -1), out=self.x.reshape(len(self.x), -1))
        for h, cols in enumerate(self.groups):
            for g, rows in enumerate(self.groups[: h + 1]):
                np.matmul(self.chat[rows], self.x[h * (h + 1) // 2 + g], out=self.z[rows])
            out[: cols.stop, cols] += self.z[: cols.stop] @ self.chat[cols].T
            out[cols, : cols.start] = out[: cols.start, cols].T


class _Patterned:
    """An m x n matrix that is zero outside A's (row support, block) pattern.

    full holds the columns of every full-support block side by side, in the
    order of ws.full_cols, and offsets each part's slice of them, except
    those of the factored parts, which low_rank maps to their _Factored
    form; narrow maps every other part to its (q, size, d) values on its
    support rows and block_grams to a buffer of their squares. The scaled
    Gram G = A F is formed and multiplied only on A's pairs.
    """

    def __init__(
        self, full_cols, full: np.ndarray, offsets: dict, narrow: dict, low_rank: dict, n: int
    ):
        self.full_cols, self.full, self.offsets, self.n = full_cols, full, offsets, n
        self.narrow, self.low_rank = narrow, low_rank
        self.block_grams = {p: np.empty(v.shape[:2] + v.shape[1:2]) for p, v in narrow.items()}
        # Every block is in the full matrix, in x's column order: the
        # products are plain matrix products.
        self.whole = isinstance(full_cols, slice) and full.shape[1] == n
        if self.whole:
            self.dot = full.__matmul__
            self.tdot = full.__rmatmul__

    def values(self, part: _Part) -> np.ndarray:
        """(q, size, d) values of one part, or M of a factored part; a view
        for the other full-support parts."""
        if part.rows is not None:
            return self.narrow[part]
        if part in self.low_rank:
            return self.low_rank[part].ms
        q, d = part.cols.shape
        return self.full[:, self.offsets[part]].reshape(-1, q, d).transpose(1, 0, 2)

    def dot(self, u: np.ndarray) -> np.ndarray:
        out = self.full @ u[self.full_cols]
        for part, factored in self.low_rank.items():
            out += factored.dot(u[part.col_index].reshape(part.cols.shape))
        for part, vals in self.narrow.items():
            v = np.matmul(vals, u[part.col_index].reshape(part.cols.shape + (1,)))
            # Supports of blocks in one part may share rows; bincount sums them.
            out += np.bincount(part.rows.ravel(), v.ravel(), minlength=out.size)
        return out

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """G^T y, or G^T y_i in row i of the output for a stacked (k, m) y.
        The last axes are indexed through .T, numpy's fast path for 1-d y."""
        lead = y.shape[:-1]
        out = np.zeros(lead + (self.n,))
        out.T[self.full_cols] = (y @ self.full).T
        for part, factored in self.low_rank.items():
            out.T[part.col_index] = factored.tdot(y).reshape(lead + (-1,)).T
        for part, vals in self.narrow.items():
            w = np.matmul(y.T[part.row_index].T.reshape(lead + (len(vals), 1, -1)), vals)
            out.T[part.col_index] = w.reshape(lead + (-1,)).T
        return out

    def gram(self, out: np.ndarray) -> np.ndarray:
        """This matrix times its transpose, written into the m x m out: one
        product over the full-support columns, plus each factored part's
        share and each narrow block's square added on its support rows."""
        if self.full.shape[1]:
            np.matmul(self.full, self.full.T, out=out)
        else:
            out.fill(0.0)
        for factored in self.low_rank.values():
            factored.gram(out)
        for part, vals in self.narrow.items():
            blocks = np.matmul(vals, vals.transpose(0, 2, 1), out=self.block_grams[part])
            for square, blk in zip(part.squares, blocks):
                out[square] += blk
        return out


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-d array, computed as np.linalg.norm does."""
    return math.sqrt(v.dot(v))


def _t(mats: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return mats.swapaxes(-1, -2)


class _Scaling:
    """Nesterov-Todd scaling state for one iterate (x, s).

    The scaling map F satisfies F^-1 x = F^T s = lambda (the scaled point).
    The Newton step is computed, combined and step-limited in scaled
    coordinates, as one stacked pair (xbar, sbar) = (F^-1 dx, F^T ds) in the
    svec layout of x; G = A F acts on xbar through _Patterned.dot, and
    unscale maps the pair to (dx, ds). R, Rinv and lam hold each part's
    factors, keyed by the part, Rt and Rinvt the transposes of R and Rinv,
    isq 1 / sqrt(lam) on the PSD parts, and lam_vec lambda in the svec
    layout. On a PSD block F V = R V R^T, F^T V = R^T V R and
    F^-T V = Rinv^T V Rinv: one congruence M^T V M with M = R^T, R or Rinv.
    On the NonNeg block F is the diagonal R = sqrt(x / s), and it has no
    Rinv.
    """

    def __init__(self, ws: _Workspace, xs: np.ndarray):
        self.ws = ws
        self.R, self.Rt, self.Rinv, self.Rinvt, self.lam, self.isq = {}, {}, {}, {}, {}, {}
        for part in ws.layout:
            if part.order is None:
                xm, sm = pair = part.gather(xs)
                if (pair <= 0).any():
                    raise np.linalg.LinAlgError("nonnegative block left the interior")
                self.R[part] = np.sqrt(xm / sm)
                self.lam[part] = np.sqrt(xm * sm)
                continue
            lx, ls = _CHOLESKY(part.gather(xs))
            u, sig, vt = _SVD(np.matmul(_t(ls), lx))
            if (sig <= 0).any():
                raise np.linalg.LinAlgError("PSD block left the interior")
            isq = 1.0 / np.sqrt(sig)
            self.R[part] = np.matmul(lx, _t(vt)) * isq[:, None, :]
            self.Rinv[part] = np.matmul(isq[:, :, None] * _t(u), _t(ls))
            self.Rt[part], self.Rinvt[part] = _t(self.R[part]), _t(self.Rinv[part])
            self.lam[part] = sig
            self.isq[part] = isq
        # lambda is diagonal on every block: zero but on the layout's diagonals.
        self.lam_vec = np.zeros(ws.prog.n)
        diag = np.concatenate([lam.ravel() for lam in self.lam.values()])
        self.lam_vec[ws.pattern.lam_pos] = diag

    @classmethod
    def identity(cls, ws: _Workspace) -> _Scaling:
        """The scaling at x = s = e, the starting point, without factoring:
        R = Rinv = I, lambda = 1 and lam_vec = e. The Cholesky factors and
        the SVD of identity matrices are exactly the identity, so these are
        the bits that __init__ computes there."""
        self = cls.__new__(cls)
        self.ws = ws
        self.R, self.Rt, self.Rinv, self.Rinvt, self.lam, self.isq = {}, {}, {}, {}, {}, {}
        for part in ws.layout:
            ones = np.ones(part.diag.shape)
            self.R[part] = self.lam[part] = ones
            if part.order is not None:
                eye = np.broadcast_to(np.eye(part.order), part.diag.shape + (part.order,))
                self.R[part] = self.Rinv[part] = eye
                self.Rt[part] = self.Rinvt[part] = _t(eye)
                self.isq[part] = ones
        self.lam_vec = ws.e
        return self

    def blocks(self, v: np.ndarray) -> list:
        """Each layout part's blocks of the stacked v, as _Part.gather returns them."""
        return [part.gather(v) for part in self.ws.layout]

    def _congruence(self, blocks: list, maps) -> np.ndarray:
        """Rows given as their blocks, row i mapped by the i-th (mt, m, nonneg)
        of maps or all by a lone one: M^T V M on every PSD block V, with M =
        m[part] and M^T = mt[part], and nonneg(b, R) on the NonNeg entries b."""
        out = np.empty((len(blocks[0]), self.ws.prog.n))
        for part, b in zip(self.ws.layout, blocks):
            step = np.empty(b.shape)
            groups = zip(b, step, maps) if len(maps) > 1 else [(b, step, maps[0])]
            for rows, row, (mt, m, nonneg) in groups:
                if part.order is None:
                    nonneg(rows, self.R[part], out=row)
                else:
                    np.matmul(mt[part], np.matmul(rows, m[part]), out=row)
            part.scatter(out, step)
        return out

    def fwd_x(self, v: np.ndarray) -> np.ndarray:
        """F v: maps a scaled direction back to x-space."""
        return self._congruence(self.blocks(v[None]), [(self.R, self.Rt, np.multiply)])[0]

    def scale_s(self, v: np.ndarray) -> np.ndarray:
        """F^T v of each row of the stacked v: maps s-space rows to scaled coordinates."""
        return self._congruence(self.blocks(v), [(self.Rt, self.R, np.multiply)])

    def unscale_s(self, v: np.ndarray) -> np.ndarray:
        """F^-T v: maps a scaled direction back to s-space."""
        return self._congruence(self.blocks(v[None]), [(self.Rinvt, self.Rinv, np.divide)])[0]

    def unscale(self, pair: list) -> np.ndarray:
        """(F xbar, F^-T sbar) of a scaled pair (xbar, sbar) given as its
        blocks: fwd_x and unscale_s of its rows, with one scatter per part."""
        maps = [(self.R, self.Rt, np.multiply), (self.Rinvt, self.Rinv, np.divide)]
        return self._congruence(pair, maps)

    def jordan(self, pair: list) -> np.ndarray:
        """Jordan product u o v of a pair (u, v) given as its blocks:
        (U V + V U) / 2 on PSD blocks."""
        out = np.empty(self.ws.prog.n)
        for part, (a, b) in zip(self.ws.layout, pair):
            part.scatter(out, a * b if part.order is None else 0.5 * (a @ b + b @ a))
        return out

    def lam_div(self, v: np.ndarray) -> np.ndarray:
        """Inverse of the Jordan product with lambda, blockwise."""
        out = np.empty_like(v)
        for part in self.ws.layout:
            lam = self.lam[part]
            if part.order is not None:
                lam = 0.5 * (lam[:, :, None] + lam[:, None, :])
            part.scatter(out, part.gather(v) / lam)
        return out

    def scaled_gram(self) -> _Patterned:
        """G = A F on A's pattern, so G G^T = A H^-1 A^T. G is the
        workspace's, overwritten by the next call."""
        ws = self.ws
        for part in ws.parts:
            r = self.R[part][:, None]
            if part.order is None:
                [(vals, dest)] = ws.g_chunks[part]
                np.multiply(vals, r, out=dest)
                continue
            rt = _t(r)
            for mats, first, second, flat, dest in ws.g_chunks[part]:
                np.matmul(mats, r, out=first)
                np.matmul(rt, first, out=second)
                # svec of the chunk's congruences: np.take gathers the upper
                # triangles and the product with enc lands in G.
                np.multiply(flat.take(part.upper, axis=-1), part.enc, out=dest)
        return ws.g

    def step_limit(self, pair: list) -> float:
        """Largest alpha keeping lambda + alpha * u and lambda + alpha * v (scaled)
        in the cone, for both rows of a pair (u, v) given as its blocks."""
        worst = 0.0
        for part, b in zip(self.ws.layout, pair):
            if part.order is None:
                worst = max(worst, -float((b / self.lam[part]).min()))
                continue
            isq = self.isq[part]
            t = b * isq[:, :, None] * isq[:, None, :]
            t = 0.5 * (t + _t(t))
            worst = max(worst, -float(_EIGVALSH(t)[..., 0].min()))
        return np.inf if worst <= 0 else 1.0 / worst


# A breaking-down iteration may pass through overflow and NaN; its status and
# message report that, so numpy's floating-point warnings stay inside.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve(prog: ConicProgram, settings: SolverSettings | None = None) -> SolveOutcome:
    """Run the interior-point iteration, returning a certified outcome."""
    cfg = settings or SolverSettings()
    ws = _Workspace(prog)
    a_dot, a_tdot, b, c = ws.a_dot, ws.a_tdot, prog.b, prog.c
    m, n = prog.m, prog.n
    b_norm, c_norm = _norm(b), _norm(c)
    norm_b = 1.0 + b_norm
    norm_c = 1.0 + c_norm

    xs = np.array((ws.e, ws.e))
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    # The NUMERICAL_FAILURE outcome at the best-scoring iterate so far.
    best: SolveOutcome | None = None
    best_score = np.inf
    # The remedies taken so far, as SolveStats counts them.
    rejected = qr_tried = qr_taken = 0

    def _is_ray(av: np.ndarray, cv: float) -> bool:
        """<c, v> < 0 with A v ~ 0, given av = A v: the improving-ray test."""
        return cv < 0 and _norm(av) * max(1.0, c_norm) <= cfg.tol_inf * -cv

    def _classify(it: int, ax: np.ndarray, aty: np.ndarray, cx: float, by: float):
        nonlocal best, best_score
        # Optimality on the tau-scaled point, from A x, A^T y, <c, x> and <b, y>.
        (xh, sh), yh = xs / tau, y / tau
        pobj, dobj = float(c @ xh), float(b @ yh)
        pres = _norm(ax / tau - b) / norm_b
        dres = _norm(aty / tau + sh - c) / norm_c
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        score = max(pres, dres, gap)
        if best is None or score < best_score:
            best_score = score
            best = SolveOutcome(
                Status.NUMERICAL_FAILURE, xh, yh, sh, pobj, dobj, it, pres, dres, gap
            )
        if pres <= cfg.tol_feas and dres <= cfg.tol_feas and gap <= cfg.tol_gap:
            return SolveOutcome(
                Status.OPTIMAL, xh, yh, sh, pobj, dobj, it, pres, dres, gap
            )
        # Infeasibility certificates from the homogeneous part.
        if by > 0:
            res = _norm(aty + s) * max(1.0, b_norm)
            if res <= cfg.tol_inf * by:
                yn, sn = y / by, s / by
                cert = cone_distance(-a_tdot(yn), prog.cones)
                return SolveOutcome(
                    Status.PRIMAL_INFEASIBLE, None, yn, sn, np.nan, np.nan, it,
                    np.nan, np.nan, np.nan, cert_res=cert,
                    message="Farkas dual ray: <b,y>=1, -A^T y in cone",
                )
        if _is_ray(ax, cx):
            # The ray is returned normalized, so the normalized ray itself
            # must pass the test and lie in the cone.
            xn = x / (-cx)
            if _is_ray(a_dot(xn), float(c @ xn)) and cone_min_eig(xn, prog.cones) >= -cfg.tol_inf:
                return SolveOutcome(
                    Status.DUAL_INFEASIBLE, xn, None, None, np.nan, np.nan, it,
                    np.nan, np.nan, np.nan, cert_res=_norm(a_dot(xn)),
                    message="improving ray: <c,x>=-1, A x ~ 0, x in cone",
                )
        return None

    message = "iteration limit reached"
    try:
        for it in itertools.count():
            # A x, A^T y, <c, x> and <b, y>, shared with the residuals.
            x, s = xs
            ax, aty, cx, by = a_dot(x), a_tdot(y), float(c @ x), float(b @ y)
            out = _classify(it, ax, aty, cx, by)
            if out is not None:
                return replace(out, stats=SolveStats(rejected, qr_tried, qr_taken))
            if it >= cfg.max_iter:
                break

            mu = (float(x @ s) + tau * kappa) / (ws.nu + 1)
            # The iteration starts at x = s = e.
            scal = _Scaling(ws, xs) if it else _Scaling.identity(ws)
            g_mat = scal.scaled_gram()
            schur = g_mat.gram(out=ws.schur)
            jitter = 0.0
            for attempt in range(4):
                if attempt:
                    # potrf left the buffer partly factored; gram forms it again.
                    trace = np.trace(g_mat.gram(out=schur))
                    jitter = max(jitter * 100.0, 1e-13 * (1.0 + trace / m))
                    schur[np.diag_indices(m)] += jitter
                fac, info = _POTRF(schur.T, lower=True, clean=False, overwrite_a=True)
                if info == 0:
                    break
                rejected += 1
            else:
                raise np.linalg.LinAlgError("Schur factorization failed")

            qr_r: list[np.ndarray | None] = [None]

            def schur_chol(r: np.ndarray) -> np.ndarray:
                return _POTRS(fac, r, lower=True)[0]

            def schur_qr(r: np.ndarray) -> np.ndarray:
                z = sla.solve_triangular(qr_r[0], r, trans=1, check_finite=False)
                return sla.solve_triangular(qr_r[0], z, check_finite=False)

            def kkt(q1: np.ndarray, fq1: np.ndarray, q2: np.ndarray, h: np.ndarray, scale):
                # Solve ds + A^T dy = q1, A dx = q2 with the scaled-space
                # complementarity closure xbar + sbar = h, returning (dy, xbar);
                # fq1 is F^T q1 and scale is 1 + |q1| + |q2|, the refinement's
                # residual scale.
                # Everything is eliminated through the same floating-point G, so
                # iterative refinement against the unscaled equations contracts
                # reliably:
                #   xbar = h - F^T q1 + G^T dy,   G G^T dy = q2 - G (h - F^T q1).
                nonlocal qr_tried, qr_taken
                u0 = h - fq1

                def run(solver):
                    dy = solver(q2 - g_mat.dot(u0))
                    xbar = u0 + g_mat.tdot(dy)
                    state = None
                    for left in reversed(range(_KKT_REFINE + 1)):
                        dx, ds = scal.unscale(scal.blocks(np.array((xbar, h - xbar))))
                        e1 = q1 - ds - a_tdot(dy)
                        e2 = q2 - a_dot(dx)
                        res = (_norm(e1) + _norm(e2)) / scale
                        # The first pass is kept even when its residual is not
                        # finite; it then reads inf, so the QR re-solve runs.
                        if state is None or res < state[-1]:
                            state = (dy, xbar, res if res < np.inf else np.inf)
                        if not left or res <= 1e-13 or res > 10.0 * state[-1]:
                            break
                        # Correction solves the same system with zero h-part.
                        p = scal.scale_s(e1[None])[0]
                        cy = solver(e2 + g_mat.dot(p))
                        dy = dy + cy
                        xbar = xbar + (g_mat.tdot(cy) - p)
                    return state

                state = run(schur_chol)
                if state[-1] > 1e-11 and m <= n:
                    qr_tried += 1
                    if qr_r[0] is None:
                        # G^T as the rows G^T e_i: the G that dot and tdot apply.
                        g_t = g_mat.tdot(np.eye(m)).T
                        r_full = sla.qr(g_t, mode="r", check_finite=False)[0]
                        qr_r[0] = np.ascontiguousarray(r_full[:m, :])
                    try:
                        cand = run(schur_qr)
                        if cand[-1] < state[-1]:
                            state = cand
                            qr_taken += 1
                    except (np.linalg.LinAlgError, ValueError):
                        pass
                return state[:2]

            # -r_x and -r_y: to the bit, minus s + A^T y - c tau and A x - b tau.
            q1, q2 = c * tau - (s + aty), b * tau - ax
            rt = kappa + cx - by
            # <c, dx> = <F^T c, xbar>.
            fc, f_q1 = scal.scale_s(np.array((c, q1)))
            lam = scal.lam_vec
            r_scale = 1.0 + _norm(q1) + _norm(q2)

            dy1, xb1 = kkt(c, fc, b, np.zeros(n), 1.0 + c_norm + b_norm)
            # <c, dx1> - <b, dy1> equals -|xbar1|^2 when the solve is exact;
            # using that form keeps the tau denominator strictly negative.
            den = -float(xb1 @ xb1) - kappa / tau
            if not np.isfinite(den) or den >= -1e-300:
                raise np.linalg.LinAlgError("degenerate tau equation")

            def direction(h, d_tau_rhs):
                dy2, xb2 = kkt(q1, f_q1, q2, h, r_scale)
                gt = -rt - d_tau_rhs / tau
                dtau = (gt - float(fc @ xb2) + float(b @ dy2)) / den
                dkap = (d_tau_rhs - kappa * dtau) / tau
                xbar = xb2 + dtau * xb1
                pair = np.array((xbar, h - xbar))
                return pair, scal.blocks(pair), dy2 + dtau * dy1, dtau, dkap

            def step_limit(blocks, dtau, dkap):
                alpha = scal.step_limit(blocks)
                if dtau < 0:
                    alpha = min(alpha, -tau / dtau)
                if dkap < 0:
                    alpha = min(alpha, -kappa / dkap)
                return alpha

            # Predictor: pure Newton toward complementarity zero, lambda o (xbar
            # + sbar) = -lambda o lambda.
            aff, aff_blocks, _, dta, dka = direction(-lam, -tau * kappa)
            alpha_aff = min(1.0, step_limit(aff_blocks, dta, dka))
            xa, sa = lam + alpha_aff * aff
            mu_aff = (
                float(xa @ sa) + (tau + alpha_aff * dta) * (kappa + alpha_aff * dka)
            ) / (ws.nu + 1)
            sigma = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

            # Corrector with Mehrotra second-order term:
            # lambda o (xbar + sbar) = sigma mu e - lambda o lambda - xbar_a o sbar_a.
            h = scal.lam_div(sigma * mu * ws.e - scal.jordan(aff_blocks)) - lam
            d_tau_rhs = sigma * mu - tau * kappa - dta * dka
            _, blocks, dy, dtau, dkap = direction(h, d_tau_rhs)

            alpha = min(1.0, _STEP_ETA * step_limit(blocks, dtau, dkap))
            if alpha <= 1e-8:
                raise np.linalg.LinAlgError("step length collapsed")

            xs = xs + alpha * scal.unscale(blocks)
            y = y + alpha * dy
            tau = tau + alpha * dtau
            kappa = kappa + alpha * dkap
    except np.linalg.LinAlgError as exc:
        message = f"{exc}"
    stats = SolveStats(rejected, qr_tried, qr_taken)
    return replace(best, iterations=it, message=message, stats=stats)
