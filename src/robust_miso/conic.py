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
and sbar directly. dx = F xbar and ds = F^-T sbar are formed once per
iteration, for the update. On a PSD block, F, F^T and F^-T share one
congruence M^T V M, with M = R^T, R or R^-1 for the NT factor R.

One block layout drives every batched operation. It is read from A once per
solve: the support of a cone block is the set of rows of A with a nonzero in
its columns (the NonNeg columns count as one block), and every block belongs
to exactly one part, the blocks of one kind, order and support size. The NT
scaling, the step lengths and the Newton right-hand sides loop over the
parts; so do G and the Schur complement, which are formed only on the
(row, block) pairs of the parts with nonempty support. The blocks supported
on every row share one dense matrix that enters the Schur complement as a
single symmetric product; every other block adds its own square on its
support rows. Products with G take the same split, and products with A read
only its nonzeros. Every part gathers its blocks from an n-vector with one
take through a table built once per solve (the position of every matrix
entry, divided by its svec scale), and scatters them back with one take of
the upper triangles. The Schur complement is factored and solved by LAPACK
potrf and potrs, called directly.

Failure policy: the iteration has one exit for numerical breakdown. When the
scaling or the Schur factorization fails, the step length collapses, or the
iteration limit is reached, the solve returns NUMERICAL_FAILURE carrying the
best iterate seen so far and a message naming the cause. The only in-loop
remedies are a diagonal jitter when the Schur complement will not factor and
a QR re-solve of a KKT system that Cholesky solved inaccurately.

Free variables are not supported; callers encode them with equalities plus
cone blocks. Complex Hermitian blocks enter through their 2n x 2n real
embedding (see robust_miso.hermitian.real_embedding).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

DEFAULT_TOL_FEAS = 1e-8
DEFAULT_TOL_GAP = 1e-8
DEFAULT_TOL_INF = 1e-8
DEFAULT_MAX_ITER = 200

# Fraction-to-boundary factor for combined steps.
_STEP_ETA = 0.99
# Iterative refinement passes on each KKT solve.
_KKT_REFINE = 2
# The Schur complement's Cholesky factor and solve, called directly rather
# than through scipy's batching wrappers cho_factor and cho_solve.
_POTRF, _POTRS = sla.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


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
    # Indexing, unlike np.take, leaves the svec axis outermost in memory. The
    # narrow blocks of G are stored that way, and the rounding of their
    # products depends on it.
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


def cone_min_eig(v: np.ndarray, cones: list[Cone]) -> float:
    """Smallest 'eigenvalue' of v across blocks (entries for NonNeg)."""
    worst = np.inf
    off = 0
    for k in cones:
        seg = v[off : off + k.dim]
        if isinstance(k, NonNeg):
            worst = min(worst, float(np.min(seg)))
        else:
            worst = min(worst, float(np.linalg.eigvalsh(smat(seg, k.order))[0]))
        off += k.dim
    return worst


def cone_project(v: np.ndarray, cones: list[Cone]) -> np.ndarray:
    """Euclidean projection onto K, used for certificate distance checks."""
    out = np.empty_like(v)
    off = 0
    for k in cones:
        seg = v[off : off + k.dim]
        if isinstance(k, NonNeg):
            out[off : off + k.dim] = np.maximum(seg, 0.0)
        else:
            lam, q = np.linalg.eigh(smat(seg, k.order))
            out[off : off + k.dim] = svec((q * np.maximum(lam, 0.0)) @ q.T)
        off += k.dim
    return out


def cone_distance(v: np.ndarray, cones: list[Cone]) -> float:
    return float(np.linalg.norm(v - cone_project(v, cones)))


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


@dataclass
class SolveOutcome:
    """Result of a solve.

    At OPTIMAL, (x, y, s) is the scaled primal-dual pair and objective the
    primal value <c, x>. At PRIMAL_INFEASIBLE, y is a Farkas certificate
    normalized to <b, y> = 1 with -A^T y within tol of the cone (s holds that
    near-member). At DUAL_INFEASIBLE, x is an improving ray normalized to
    <c, x> = -1 with A x ~ 0. Residual fields always refer to the returned
    point.
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


def _index(idx: np.ndarray):
    """idx flattened, or the equal slice when it is one ascending run."""
    flat = idx.ravel()
    if flat.size and flat[-1] - flat[0] + 1 == flat.size and np.all(flat[1:] > flat[:-1]):
        return slice(int(flat[0]), int(flat[-1]) + 1)
    return flat


class _Part:
    """Cone blocks of one kind and order whose row supports in A have the
    same size: the unit of every batched operation in an iteration.

    order is the matrix order of PSD blocks, or None for the NonNeg block
    (every NonNeg column, as one block). cols (q, d) holds the blocks'
    columns and rows (q, size) their supports. A part stored in the full
    matrix has rows None and keeps its values at columns `full` of that
    matrix. entries (q, p*p) holds the position in an n-vector of every
    matrix entry of every block and dec their svec divisors, so one take
    gathers a part; upper and enc are the svec table of its order.
    """

    def __init__(self, order: int | None, cols: np.ndarray, rows: np.ndarray | None):
        self.order = order
        self.cols = cols
        self.rows = rows
        self.col_index = _index(cols)
        self.full: slice | None = None
        self.entries = cols
        if order is not None:
            self.upper, self.enc, pos = _svec_index(order)
            self.entries, self.dec = cols[:, pos], self.enc[pos]
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
        if self.order is None:
            return vals
        return (vals / self.dec).reshape(vals.shape[:-1] + (self.order, self.order))

    def scatter(self, out: np.ndarray, blocks: np.ndarray) -> None:
        """Writes the blocks, as gather returns them, into the n-vector out."""
        if self.order is not None:
            flat = blocks.reshape(blocks.shape[:-2] + (-1,))
            blocks = flat.take(self.upper, axis=-1) * self.enc
        out[self.col_index] = blocks.ravel()


class _Workspace:
    """Cone layout and the (row support, cone block) pattern of A.

    The support of a block is the set of rows of A with a nonzero in the
    block's columns; the NonNeg columns count as one block. Every block
    belongs to exactly one _Part, keyed by kind, order and support size;
    layout lists them all, NonNeg first, and drives the NT scaling, the step
    lengths and the Newton right-hand sides. parts leaves out the blocks
    with empty support and drives G = A F and its products. Blocks supported
    on every row share one full matrix; the others are stored on their
    support rows only. A block whose support square exceeds half of m x m
    joins the full matrix too: the full product is symmetric, so there it
    costs less than the square.
    """

    def __init__(self, prog: ConicProgram):
        self.prog = prog
        self.nu = sum(k.barrier for k in prog.cones)
        self.e = cone_identity(prog.cones)

        a = prog.A
        m = a.shape[0]
        bounds = np.cumsum([0] + [k.dim for k in prog.cones])
        ranges = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        # touched[i, r]: cone i has a nonzero in row r of A.
        touched = np.logical_or.reduceat(a != 0, bounds[:-1], axis=1).T
        nn = [i for i, k in enumerate(prog.cones) if isinstance(k, NonNeg)]
        blocks = []
        if nn:
            blocks.append((None, np.concatenate([ranges[i] for i in nn]), touched[nn].any(axis=0)))
        blocks += [
            (k.order, ranges[i], touched[i]) for i, k in enumerate(prog.cones) if isinstance(k, Psd)
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

        full = sorted((p for p in self.parts if p.rows is None), key=lambda p: p.cols[0, 0])
        stop = 0
        for part in full:
            part.full = slice(stop, stop + part.cols.size)
            stop = part.full.stop
        runs = [p.cols.ravel() for p in full]
        self.full_cols = _index(np.concatenate(runs) if runs else np.zeros(0, dtype=int))
        narrow = {
            p: a[p.rows[:, :, None], p.cols[:, None, :]] for p in self.parts if p.rows is not None
        }
        self.a = _Patterned(self.full_cols, a[:, self.full_cols], narrow, prog.n)
        # Products with A itself read only its nonzeros, which the full
        # matrix keeps alongside zeros, unless the full matrix is all of A.
        self.a_dot, self.a_tdot = self.a.dot, self.a.tdot
        if not self.a.whole:
            rows, cols = np.nonzero(a)
            vals = a[rows, cols]
            n = prog.n
            self.a_dot = lambda u: np.bincount(rows, vals * u[cols], minlength=m)
            self.a_tdot = lambda y: np.bincount(cols, vals * y[rows], minlength=n)
        # A's PSD blocks in matrix form on their support rows, fixed across iterations.
        self.a_mats = {
            p: smat(self.a.values(p), p.order) for p in self.parts if p.order is not None
        }


class _Patterned:
    """An m x n matrix that is zero outside A's (row support, block) pattern.

    full holds the columns of every full-support block side by side, in the
    order of ws.full_cols; narrow maps every other part to its (q, size, d)
    values on its support rows. The values of A and the scaled Gram G = A F
    are both kept this way, so G is formed and multiplied only on the pairs
    that A has.
    """

    def __init__(self, full_cols, full: np.ndarray, narrow: dict, n: int):
        self.full_cols = full_cols
        self.n = n
        self.full = full
        self.narrow = narrow
        # Every block is in the full matrix, in x's column order: the
        # products are plain matrix products.
        self.whole = isinstance(full_cols, slice) and full.shape[1] == n
        if self.whole:
            self.dot = full.__matmul__
            self.tdot = full.T.__matmul__

    def values(self, part: _Part) -> np.ndarray:
        """(q, size, d) values of one part; a view for full-support parts."""
        if part.rows is not None:
            return self.narrow[part]
        q, d = part.cols.shape
        return self.full[:, part.full].reshape(-1, q, d).transpose(1, 0, 2)

    def dot(self, u: np.ndarray) -> np.ndarray:
        out = self.full @ u[self.full_cols]
        for part, vals in self.narrow.items():
            v = np.matmul(vals, u[part.col_index].reshape(part.cols.shape + (1,)))
            # Supports of blocks in one part may share rows; bincount sums them.
            out += np.bincount(part.rows.ravel(), v.ravel(), minlength=out.size)
        return out

    def tdot(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        out[self.full_cols] = self.full.T @ y
        for part, vals in self.narrow.items():
            w = np.matmul(y[part.row_index].reshape(part.rows.shape[0], 1, -1), vals)
            out[part.col_index] = w.ravel()
        return out

    def gram(self) -> np.ndarray:
        """This matrix times its transpose: one product over the full-support
        columns, plus each narrow block's square added on its support rows."""
        out = self.full @ self.full.T
        for part, vals in self.narrow.items():
            for square, blk in zip(part.squares, np.matmul(vals, vals.transpose(0, 2, 1))):
                out[square] += blk
        return out

    def dense(self) -> np.ndarray:
        out = np.zeros((self.full.shape[0], self.n))
        out[:, self.full_cols] = self.full
        for part, vals in self.narrow.items():
            out[part.rows[:, :, None], part.cols[:, None, :]] = vals
        return out


def _norm(v: np.ndarray) -> np.floating:
    """Euclidean norm of a real 1-d array, computed as np.linalg.norm does."""
    return np.sqrt(v.dot(v))


def _t(mats: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return mats.swapaxes(-1, -2)


class _Scaling:
    """Nesterov-Todd scaling state for one iterate (x, s).

    The scaling map F satisfies F^-1 x = F^T s = lambda (the scaled point).
    The Newton step is computed, combined and step-limited in scaled
    coordinates, xbar = F^-1 dx and sbar = F^T ds, kept as plain n-vectors
    in the same svec layout as x, which the Gram matrix G = A F acts on
    through _Patterned.dot; dx = F xbar and ds = F^-T sbar are formed once,
    for the update. R, Rinv and lam hold each part's factors, keyed by the
    part, isq holds 1 / sqrt(lam) on the PSD parts, and lam_vec is lambda in
    the svec layout. On a PSD block F V = R V R^T, F^T V = R^T V R and
    F^-T V = Rinv^T V Rinv: one congruence M^T V M with M = R^T, R or Rinv.
    On the NonNeg block F is the diagonal R = sqrt(x / s), and it has no
    Rinv.
    """

    def __init__(self, ws: _Workspace, x: np.ndarray, s: np.ndarray):
        self.ws = ws
        self.R, self.Rt, self.Rinv, self.lam, self.isq = {}, {}, {}, {}, {}
        for part in ws.layout:
            xm, sm = part.gather(x), part.gather(s)
            if part.order is None:
                if np.any(xm <= 0) or np.any(sm <= 0):
                    raise np.linalg.LinAlgError("nonnegative block left the interior")
                self.R[part] = np.sqrt(xm / sm)
                self.lam[part] = np.sqrt(xm * sm)
                continue
            lx = np.linalg.cholesky(xm)
            ls = np.linalg.cholesky(sm)
            u, sig, vt = np.linalg.svd(np.matmul(_t(ls), lx))
            if np.any(sig <= 0):
                raise np.linalg.LinAlgError("PSD block left the interior")
            isq = 1.0 / np.sqrt(sig)
            self.R[part] = np.matmul(lx, _t(vt)) * isq[:, None, :]
            self.Rt[part] = _t(self.R[part])
            self.Rinv[part] = np.matmul(isq[:, :, None] * _t(u), _t(ls))
            self.lam[part] = sig
            self.isq[part] = isq
        self.lam_vec = np.empty(ws.prog.n)
        for part, lam in self.lam.items():
            diag = lam if part.order is None else lam[:, :, None] * np.eye(part.order)
            part.scatter(self.lam_vec, diag)

    def _congruence(self, v: np.ndarray, mats: dict, nonneg) -> np.ndarray:
        """M^T V M on every PSD block V of v, M = mats[part]; nonneg(b, R)
        on the NonNeg entries b."""
        out = np.empty_like(v)
        for part in self.ws.layout:
            b = part.gather(v)
            if part.order is None:
                part.scatter(out, nonneg(b, self.R[part]))
            else:
                m = mats[part]
                part.scatter(out, np.matmul(_t(m), np.matmul(b, m)))
        return out

    def fwd_x(self, v: np.ndarray) -> np.ndarray:
        """F v: maps a scaled direction back to x-space."""
        return self._congruence(v, self.Rt, np.multiply)

    def scale_s(self, v: np.ndarray) -> np.ndarray:
        """F^T v: maps an s-space vector into scaled coordinates."""
        return self._congruence(v, self.R, np.multiply)

    def unscale_s(self, v: np.ndarray) -> np.ndarray:
        """F^-T v: maps a scaled direction back to s-space."""
        return self._congruence(v, self.Rinv, np.divide)

    def jordan(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product u o v, blockwise: (U V + V U) / 2 on PSD blocks."""
        out = np.empty_like(u)
        for part in self.ws.layout:
            a, b = part.gather(u), part.gather(v)
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
        """G = A F on A's pattern, so G G^T = A H^-1 A^T."""
        ws = self.ws
        g = _Patterned(ws.full_cols, np.empty_like(ws.a.full), {}, ws.prog.n)
        for part in ws.parts:
            vals, r = ws.a.values(part), self.R[part][:, None]
            if part.order is None:
                prod = vals * r
            else:
                prod = np.matmul(_t(r), np.matmul(ws.a_mats[part], r))
            if part.rows is not None:
                g.narrow[part] = prod if part.order is None else svec(prod)
            elif part.order is None:
                g.values(part)[...] = prod
            else:
                # svec written straight into G's full matrix: np.take gathers
                # the upper triangles and the product with enc lands in place.
                flat = prod.reshape(prod.shape[:-2] + (-1,))
                np.multiply(flat.take(part.upper, axis=-1), part.enc, out=g.values(part))
        return g

    def step_limit(self, u: np.ndarray, v: np.ndarray) -> float:
        """Largest alpha keeping both lambda + alpha * u and lambda + alpha * v
        (scaled) in the cone."""
        uv = np.stack([u, v])
        worst = 0.0
        for part in self.ws.layout:
            b = part.gather(uv)
            if part.order is None:
                worst = max(worst, float(np.max(-b / self.lam[part])))
                continue
            isq = self.isq[part]
            t = b * isq[:, :, None] * isq[:, None, :]
            t = 0.5 * (t + _t(t))
            worst = max(worst, float(np.max(-np.linalg.eigvalsh(t)[..., 0])))
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

    x = ws.e.copy()
    s = ws.e.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    best = None  # (score, outcome fields) fallback diagnostics
    it = 0

    def _classify(it: int) -> SolveOutcome | None:
        nonlocal best
        # Optimality on the tau-scaled point.
        xh, yh, sh = x / tau, y / tau, s / tau
        pobj, dobj = float(c @ xh), float(b @ yh)
        pres = float(_norm(a_dot(xh) - b)) / norm_b
        dres = float(_norm(a_tdot(yh) + sh - c)) / norm_c
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        score = max(pres, dres, gap)
        if best is None or score < best[0]:
            best = (score, xh.copy(), yh.copy(), sh.copy(), pobj, dobj, pres, dres, gap, it)
        if pres <= cfg.tol_feas and dres <= cfg.tol_feas and gap <= cfg.tol_gap:
            return SolveOutcome(
                Status.OPTIMAL, xh, yh, sh, pobj, dobj, it, pres, dres, gap
            )
        # Infeasibility certificates from the homogeneous part.
        by = float(b @ y)
        if by > 0:
            res = float(_norm(a_tdot(y) + s)) * max(1.0, b_norm)
            if res <= cfg.tol_inf * by:
                yn, sn = y / by, s / by
                cert = cone_distance(-a_tdot(yn), prog.cones)
                return SolveOutcome(
                    Status.PRIMAL_INFEASIBLE, None, yn, sn, np.nan, np.nan, it,
                    np.nan, np.nan, np.nan, cert_res=cert,
                    message="Farkas dual ray: <b,y>=1, -A^T y in cone",
                )
        cx = float(c @ x)
        if cx < 0:
            res = float(_norm(a_dot(x))) * max(1.0, c_norm)
            if res <= cfg.tol_inf * (-cx):
                xn = x / (-cx)
                cert = float(_norm(a_dot(xn)))
                return SolveOutcome(
                    Status.DUAL_INFEASIBLE, xn, None, None, np.nan, np.nan, it,
                    np.nan, np.nan, np.nan, cert_res=cert,
                    message="improving ray: <c,x>=-1, A x ~ 0, x in cone",
                )
        return None

    def _fail(msg: str, it: int) -> SolveOutcome:
        _, xh, yh, sh, pobj, dobj, pres, dres, gap, _ = best
        return SolveOutcome(
            Status.NUMERICAL_FAILURE, xh, yh, sh, pobj, dobj, it, pres, dres, gap,
            message=msg,
        )

    while it < cfg.max_iter:
        out = _classify(it)
        if out is not None:
            return out

        mu = (float(x @ s) + tau * kappa) / (ws.nu + 1)

        try:
            scal = _Scaling(ws, x, s)
            g_mat = scal.scaled_gram()
            schur = g_mat.gram()
            jitter = 0.0
            for attempt in range(4):
                fac, info = _POTRF(
                    schur + (jitter * np.eye(m) if jitter else 0.0), lower=True, clean=False
                )
                if info == 0:
                    break
                jitter = max(jitter * 100.0, 1e-13 * (1.0 + np.trace(schur) / m))
            else:
                raise np.linalg.LinAlgError("Schur factorization failed")
        except np.linalg.LinAlgError as exc:
            return _fail(f"{exc}", it)

        qr_r: list[np.ndarray | None] = [None]

        def schur_chol(r: np.ndarray) -> np.ndarray:
            return _POTRS(fac, r, lower=True)[0]

        def schur_qr(r: np.ndarray) -> np.ndarray:
            z = sla.solve_triangular(qr_r[0], r, trans=1, check_finite=False)
            return sla.solve_triangular(qr_r[0], z, check_finite=False)

        def kkt(q1: np.ndarray, fq1: np.ndarray, q2: np.ndarray, h: np.ndarray):
            # Solve ds + A^T dy = q1, A dx = q2 with the scaled-space
            # complementarity closure xbar + sbar = h, returning (dy, xbar);
            # fq1 is F^T q1.
            # Everything is eliminated through the same floating-point G, so
            # iterative refinement against the unscaled equations contracts
            # reliably:
            #   xbar = h - F^T q1 + G^T dy,   G G^T dy = q2 - G (h - F^T q1).
            scale = 1.0 + _norm(q1) + _norm(q2)
            u0 = h - fq1

            def run(solver):
                dy = solver(q2 - g_mat.dot(u0))
                xbar = u0 + g_mat.tdot(dy)
                state = None
                for _ in range(_KKT_REFINE + 1):
                    e1 = q1 - scal.unscale_s(h - xbar) - a_tdot(dy)
                    e2 = q2 - a_dot(scal.fwd_x(xbar))
                    res = (_norm(e1) + _norm(e2)) / scale
                    # The first pass is kept even when its residual is not
                    # finite; it then reads inf, so the QR re-solve runs.
                    if state is None or res < state[-1]:
                        state = (dy, xbar, res if res < np.inf else np.inf)
                    if res <= 1e-13 or res > 10.0 * state[-1]:
                        break
                    # Correction solves the same system with zero h-part.
                    p = scal.scale_s(e1)
                    cy = solver(e2 + g_mat.dot(p))
                    dy = dy + cy
                    xbar = xbar + (g_mat.tdot(cy) - p)
                return state

            state = run(schur_chol)
            if state[-1] > 1e-11 and m <= n:
                if qr_r[0] is None:
                    r_full = sla.qr(g_mat.dense().T, mode="r", check_finite=False)[0]
                    qr_r[0] = np.ascontiguousarray(r_full[:m, :])
                try:
                    cand = run(schur_qr)
                    if cand[-1] < state[-1]:
                        state = cand
                except (np.linalg.LinAlgError, ValueError):
                    pass
            return state[:2]

        rx = s + a_tdot(y) - c * tau
        ry = a_dot(x) - b * tau
        rt = kappa + float(c @ x) - float(b @ y)
        # <c, dx> = <F^T c, xbar>.
        fc = scal.scale_s(c)
        f_rx = scal.scale_s(-rx)
        lam = scal.lam_vec

        dy1, xb1 = kkt(c, fc, b, np.zeros(n))
        # <c, dx1> - <b, dy1> equals -|xbar1|^2 when the solve is exact;
        # using that form keeps the tau denominator strictly negative.
        den = -float(xb1 @ xb1) - kappa / tau
        if not np.isfinite(den) or den >= -1e-300:
            return _fail("degenerate tau equation", it)

        def direction(h, d_tau_rhs):
            dy2, xb2 = kkt(-rx, f_rx, -ry, h)
            gt = -rt - d_tau_rhs / tau
            dtau = (gt - float(fc @ xb2) + float(b @ dy2)) / den
            dkap = (d_tau_rhs - kappa * dtau) / tau
            xbar = xb2 + dtau * xb1
            return xbar, h - xbar, dy2 + dtau * dy1, dtau, dkap

        def step_limit(xbar, sbar, dtau, dkap):
            alpha = scal.step_limit(xbar, sbar)
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkap < 0:
                alpha = min(alpha, -kappa / dkap)
            return alpha

        # Predictor: pure Newton toward complementarity zero, lambda o (xbar
        # + sbar) = -lambda o lambda.
        xba, sba, _, dta, dka = direction(-lam, -tau * kappa)
        alpha_aff = min(1.0, step_limit(xba, sba, dta, dka))
        mu_aff = (
            float((lam + alpha_aff * xba) @ (lam + alpha_aff * sba))
            + (tau + alpha_aff * dta) * (kappa + alpha_aff * dka)
        ) / (ws.nu + 1)
        sigma = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # Corrector with Mehrotra second-order term:
        # lambda o (xbar + sbar) = sigma mu e - lambda o lambda - xbar_a o sbar_a.
        h = scal.lam_div(sigma * mu * ws.e - scal.jordan(xba, sba)) - lam
        d_tau_rhs = sigma * mu - tau * kappa - dta * dka
        xb, sb, dy, dtau, dkap = direction(h, d_tau_rhs)

        alpha = min(1.0, _STEP_ETA * step_limit(xb, sb, dtau, dkap))
        if alpha <= 1e-8:
            return _fail("step length collapsed", it)

        x = x + alpha * scal.fwd_x(xb)
        y = y + alpha * dy
        s = s + alpha * scal.unscale_s(sb)
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkap
        it += 1

    out = _classify(it)
    if out is not None:
        return out
    return _fail("iteration limit reached", it)
