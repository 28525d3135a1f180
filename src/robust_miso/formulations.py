"""Scenario types and conic-program builders for robust downlink design.

Turns a channel scenario (presumed per-user channels, noise powers, rate
targets, and a channel error model) into standard-form conic programs:

  * the robust power-minimization SDP whose rate constraints hold for every
    channel in the per-user error set, for four error models: ball,
    ellipsoid, direction-quantized feedback, and elementwise box;
  * the fixed-channel power-minimization primal and its multiplier dual;
  * the pair of programs that bound a single dual multiplier from above.

Complex Hermitian unknowns enter the real solver through their 2n x 2n
symmetric embedding, which only _herm_coeff (solver rows of tr(F X)) and
_herm_blocks (Hermitian matrices back from solver blocks) encode. Each
robust rate constraint becomes a linear matrix inequality in an order-(N+1)
Hermitian slack; the builder emits one real equality per independent real
component of the slack definition, (N+1)^2 per user. Index maps keep one
slice per variable family and recover covariances, slacks, and multipliers
from raw solver vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conic import ConicProgram, NonNeg, Psd, SolveOutcome, Status, smat, svec
from .hermitian import (
    TrsInstance,
    eig_hermitian,
    hermitian_from_real_embedding,
    hermitian_part,
    is_hermitian,
    real_embedding,
    trs_maximize,
)

# Positive-definiteness floor for ellipsoid shape matrices.
ELLIPSOID_MIN_EIG = 1e-10
# Evaluation-point cap for the sampled worst-case lower bounds.
WORST_CASE_SAMPLE_CAP = 1 << 16


def gamma_from_rate(rate):
    """Target SINR 2**rate - 1 for a rate target in bits/s/Hz.

    Accepts a scalar or an array of nonnegative rates and returns the same
    shape; a rate of 0 maps to SINR 0.
    """
    arr = np.asarray(rate, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("rate targets must be finite and nonnegative")
    out = np.exp2(arr) - 1.0
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class SphereUncertainty:
    """Ball errors: per user i, ||h_i - presumed_i||_2 <= radius[i]."""

    radius: np.ndarray

    kind = "sphere"

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.radius, dtype=float))
        if r.ndim != 1 or not np.all(np.isfinite(r)) or np.any(r <= 0.0):
            raise ValueError("sphere radii must be positive and finite, one per user")
        object.__setattr__(self, "radius", r)


@dataclass(frozen=True)
class EllipsoidUncertainty:
    """Ellipsoidal errors: ||shape_i^(-1/2) (h_i - presumed_i)||_2 <= 1.

    shape stacks K Hermitian positive definite matrices; the eigenvalues of
    shape_i are the squared semi-axis lengths of user i's error region, so
    shape_i = radius^2 * I recovers the ball model.
    """

    shape: np.ndarray

    kind = "ellipsoid"

    def __post_init__(self):
        arr = np.asarray(self.shape, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError("ellipsoid shape must be stacked (K, N, N)")
        if not all(is_hermitian(mat) for mat in arr):
            raise ValueError("ellipsoid shape matrices must be Hermitian")
        if np.any(np.linalg.eigvalsh(hermitian_part(arr))[:, 0] <= ELLIPSOID_MIN_EIG):
            raise ValueError("ellipsoid shape matrices must be positive definite")
        object.__setattr__(self, "shape", arr)


@dataclass(frozen=True)
class FddUncertainty:
    """Direction-quantization errors with exactly known channel norm.

    Models limited feedback where each user reports its channel norm and a
    quantized direction: admissible channels keep the presumed norm and
    deviate by at most direction_error times that norm,
    ||h_i - presumed_i|| <= direction_error * ||presumed_i|| with
    ||h_i|| = ||presumed_i||.
    """

    direction_error: float

    kind = "fdd"

    def __post_init__(self):
        d = float(self.direction_error)
        if not np.isfinite(d) or d <= 0.0:
            raise ValueError("direction_error must be positive and finite")
        object.__setattr__(self, "direction_error", d)


@dataclass(frozen=True)
class BoxUncertainty:
    """Elementwise errors: |h_i[j] - presumed_i[j]| <= halfwidth[i] for all j."""

    halfwidth: np.ndarray

    kind = "box"

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.halfwidth, dtype=float))
        if w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("box halfwidths must be positive and finite, one per user")
        object.__setattr__(self, "halfwidth", w)


UncertaintyModel = SphereUncertainty | EllipsoidUncertainty | FddUncertainty | BoxUncertainty


@dataclass(frozen=True)
class ChannelScenario:
    """Inputs for one robust design problem.

    presumed holds the per-user channel estimates as columns of an N x K
    complex matrix. noise_power and rate_target are per user; the target
    SINRs derive from the rates as gamma = 2**r - 1 and are exposed via the
    gamma property.
    """

    presumed: np.ndarray
    noise_power: np.ndarray
    rate_target: np.ndarray
    uncertainty: UncertaintyModel

    def __post_init__(self):
        presumed = np.asarray(self.presumed, dtype=complex)
        noise = np.atleast_1d(np.asarray(self.noise_power, dtype=float))
        rate = np.atleast_1d(np.asarray(self.rate_target, dtype=float))
        if presumed.ndim != 2 or presumed.shape[0] < 1 or presumed.shape[1] < 1:
            raise ValueError("presumed channels must form an N x K matrix")
        if not np.all(np.isfinite(presumed.view(float))):
            raise ValueError("presumed channels must be finite")
        n, k = presumed.shape
        if noise.shape != (k,) or not np.all(np.isfinite(noise)) or np.any(noise <= 0.0):
            raise ValueError("noise_power must be K positive finite values")
        if rate.shape != (k,) or not np.all(np.isfinite(rate)) or np.any(rate <= 0.0):
            raise ValueError("rate_target must be K positive finite values")
        u = self.uncertainty
        if isinstance(u, SphereUncertainty):
            if u.radius.shape != (k,):
                raise ValueError("sphere model needs one radius per user")
        elif isinstance(u, EllipsoidUncertainty):
            if u.shape.shape != (k, n, n):
                raise ValueError("ellipsoid model needs K shape matrices of order N")
        elif isinstance(u, BoxUncertainty):
            if u.halfwidth.shape != (k,):
                raise ValueError("box model needs one halfwidth per user")
        elif isinstance(u, FddUncertainty):
            if np.any(np.linalg.norm(presumed, axis=0) == 0.0):
                raise ValueError("feedback model needs nonzero presumed channels")
        else:
            raise TypeError(f"unsupported uncertainty model {type(u).__name__}")
        object.__setattr__(self, "presumed", presumed)
        object.__setattr__(self, "noise_power", noise)
        object.__setattr__(self, "rate_target", rate)

    @property
    def n_antennas(self) -> int:
        return self.presumed.shape[0]

    @property
    def n_users(self) -> int:
        return self.presumed.shape[1]

    @property
    def gamma(self) -> np.ndarray:
        return gamma_from_rate(self.rate_target)


@dataclass(frozen=True)
class DesignSolution:
    """Solved transmit design with its certifying auxiliary blocks.

    W stacks the K transmit covariances (N x N Hermitian PSD, power units).
    Robust designs carry the K order-(N+1) LMI slacks in Z and the per-user
    nonnegative multiplier vectors in t; fixed-channel designs carry
    Z = t = None and expose the rate-constraint duals in mu. objective is
    the total transmit power sum_i tr(W_i).
    """

    W: np.ndarray
    objective: float
    Z: np.ndarray | None = None
    t: np.ndarray | None = None
    mu: np.ndarray | None = None

    @property
    def n_users(self) -> int:
        return self.W.shape[0]

    def powers(self) -> np.ndarray:
        """Per-user transmit powers tr(W_i)."""
        return np.trace(self.W, axis1=1, axis2=2).real


@dataclass(frozen=True)
class LiftedChannel:
    """One member of the semidefinite-relaxed error set for one user.

    Represents the lifted channel H = h h^H + xi with xi Hermitian PSD.
    Under the ball model, membership requires
    ||h - presumed_i||^2 + tr(xi) <= radius_i^2.
    """

    user: int
    h: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex).reshape(-1)
        xi = np.asarray(self.xi, dtype=complex)
        if xi.shape != (h.size, h.size):
            raise ValueError("xi must be square and match the channel dimension")
        if not is_hermitian(xi):
            raise ValueError("xi must be Hermitian")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "xi", hermitian_part(xi))

    def matrix(self) -> np.ndarray:
        """The lifted channel H = h h^H + xi."""
        return np.outer(self.h, self.h.conj()) + self.xi

    def membership_slack(self, scenario: ChannelScenario) -> float:
        """Remaining ball-model budget radius^2 - ||h - presumed||^2 - tr(xi).

        Nonnegative (up to roundoff) means this lifted channel belongs to
        the relaxed set of its user.
        """
        if not isinstance(scenario.uncertainty, SphereUncertainty):
            raise ValueError("membership_slack is defined for the ball model")
        radius = scenario.uncertainty.radius[self.user]
        dev = self.h - scenario.presumed[:, self.user]
        return float(radius**2 - np.vdot(dev, dev).real - np.trace(self.xi).real)


@lru_cache(maxsize=None)
def _hermitian_basis(order: int) -> np.ndarray:
    """Stacked basis functionals spanning real-linear maps on Hermitians.

    Returns (order^2, order, order) complex F with tr(F X) = Re X[k, l]
    for k <= l and tr(F X) = Im X[k, l] for k < l. Cached per order; do not
    mutate the returned array.
    """
    iu, ju = np.triu_indices(order)
    rows = np.concatenate([iu, iu[iu != ju]])
    cols = np.concatenate([ju, ju[iu != ju]])
    idx = np.arange(rows.size)
    # F = v E_kl + conj(v) E_lk, with v = 0.5 (so 1 on the diagonal) or 0.5j.
    v = np.where(idx < iu.size, 0.5, 0.5j)
    mats = np.zeros((rows.size, order, order), dtype=complex)
    mats[idx, rows, cols] += v
    mats[idx, cols, rows] += v.conj()
    return mats


def _herm_coeff(f: np.ndarray) -> np.ndarray:
    """Rows r with r @ x = tr(F X) for x the solver block of X; F may be stacked."""
    return 0.5 * svec(real_embedding(f))


def _herm_blocks(x: np.ndarray, region: slice, order: int) -> np.ndarray:
    """Stacked order x order Hermitian matrices held in a run of equal solver blocks."""
    blocks = x[region].reshape(-1, Psd(2 * order).dim)
    return hermitian_from_real_embedding(smat(blocks, 2 * order))


@lru_cache(maxsize=None)
def _basis_rows(order: int) -> np.ndarray:
    """_herm_coeff of the order's Hermitian basis. Cached; do not mutate."""
    return _herm_coeff(_hermitian_basis(order))


def _coupling(gamma: np.ndarray) -> np.ndarray:
    """C[i, j] = 1/gamma_i if i == j else -1, so Q_i = sum_j C[i, j] W_j."""
    coupling = -np.ones((gamma.size, gamma.size))
    np.fill_diagonal(coupling, 1.0 / gamma)
    return coupling


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition."""
    lam, vec = eig_hermitian(mat)
    root = np.sqrt(np.maximum(lam, 0.0))
    return (vec * root) @ vec.conj().T


@dataclass(frozen=True)
class RobustIndexMap:
    """Block locations of the robust design program in the solver vector."""

    scenario: ChannelScenario
    w_region: slice
    z_region: slice
    t_region: slice

    def covariances(self, x: np.ndarray) -> np.ndarray:
        return _herm_blocks(x, self.w_region, self.scenario.n_antennas)

    def slack_matrices(self, x: np.ndarray) -> np.ndarray:
        return _herm_blocks(x, self.z_region, self.scenario.n_antennas + 1)

    def multipliers(self, x: np.ndarray) -> np.ndarray:
        return x[self.t_region].reshape(self.scenario.n_users, -1).copy()


@dataclass(frozen=True)
class FixedIndexMap:
    """Block locations of the fixed-channel primal in the solver vector."""

    n: int
    w_region: slice

    def covariances(self, x: np.ndarray) -> np.ndarray:
        return _herm_blocks(x, self.w_region, self.n)

    def rate_duals(self, outcome: SolveOutcome) -> np.ndarray:
        """Multipliers of the rate constraints, one per user."""
        return np.asarray(outcome.y, dtype=float).copy()


@dataclass(frozen=True)
class DualIndexMap:
    """Block locations of the fixed-channel dual in the solver vector."""

    n: int
    s_region: slice
    mu_region: slice

    def multipliers(self, x: np.ndarray) -> np.ndarray:
        return x[self.mu_region].copy()

    def slack_matrices(self, x: np.ndarray) -> np.ndarray:
        return _herm_blocks(x, self.s_region, self.n)


def build_robust_sdp(scenario: ChannelScenario) -> tuple[ConicProgram, RobustIndexMap]:
    """Conic program for the worst-case rate-constrained power minimum.

    Variables are the K covariances W_i, the K LMI slacks Z_i of order N+1,
    and per-user nonnegative multipliers (one for ball and ellipsoid sets,
    N for the box set, three for the feedback set where the free norm
    multiplier is split into a difference of nonnegatives). With
    Q_i = W_i/gamma_i - sum_{j != i} W_j, each slack is pinned by (N+1)^2
    real equalities to the bordered matrix

        [[Q_i, Q_i hbar_i], [hbar_i^H Q_i, hbar_i^H Q_i hbar_i - sigma_i^2]]

    plus the model-specific multiplier terms, and constrained PSD, which is
    equivalent to the worst-case rate constraint of user i.
    """
    n, k = scenario.n_antennas, scenario.n_users
    model = scenario.uncertainty
    n1 = n + 1
    dw = Psd(2 * n).dim
    dz = Psd(2 * n1).dim
    t_len = {"sphere": 1, "ellipsoid": 1, "box": n, "fdd": 3}[model.kind]
    w_region = slice(0, k * dw)
    z_region = slice(k * dw, k * (dw + dz))
    t_region = slice(z_region.stop, z_region.stop + k * t_len)

    basis = _hermitian_basis(n1)
    rows_per_user = n1 * n1
    a = np.zeros((k * rows_per_user, t_region.stop))
    c = np.zeros(t_region.stop)
    c[w_region] = np.tile(_herm_coeff(np.eye(n)), k)
    coupling = _coupling(scenario.gamma)
    tr_top = np.einsum("bjj->b", basis[:, :n, :n]).real
    corner = basis[:, n, n].real

    for i in range(k):
        hb = scenario.presumed[:, i]
        border = np.concatenate([np.eye(n, dtype=complex), hb[:, None]], axis=1)
        mid = np.matmul(np.matmul(border, basis), border.conj().T)
        w_coeff = _herm_coeff(mid)
        rows = slice(i * rows_per_user, (i + 1) * rows_per_user)
        for j in range(k):
            a[rows, j * dw : (j + 1) * dw] = -coupling[i, j] * w_coeff
        a[rows, z_region.start + i * dz : z_region.start + (i + 1) * dz] = _basis_rows(n1)
        t_cols = slice(t_region.start + i * t_len, t_region.start + (i + 1) * t_len)
        if model.kind == "sphere":
            eps2 = model.radius[i] ** 2
            a[rows, t_cols] = -(tr_top - eps2 * corner)[:, None]
        elif model.kind == "ellipsoid":
            shape_inv = hermitian_part(np.linalg.inv(model.shape[i]))
            tr_shape = np.einsum("bjl,lj->b", basis[:, :n, :n], shape_inv).real
            a[rows, t_cols] = -(tr_shape - corner)[:, None]
        elif model.kind == "box":
            d2 = model.halfwidth[i] ** 2
            diag_f = np.einsum("bjj->bj", basis[:, :n, :n]).real
            a[rows, t_cols] = -(diag_f - d2 * corner[:, None])
        else:
            nrm2 = float(np.vdot(hb, hb).real)
            ball = tr_top - (model.direction_error**2 * nrm2) * corner
            norm_eq = tr_top + 2.0 * np.einsum("j,bj->b", hb.conj(), basis[:, :n, n]).real
            a[rows, t_cols] = np.stack([-ball, -norm_eq, norm_eq], axis=1)
    b = (-scenario.noise_power[:, None] * corner).ravel()

    cones = [Psd(2 * n)] * k + [Psd(2 * n1)] * k + [NonNeg(k * t_len)]
    prog = ConicProgram(c=c, A=a, b=b, cones=cones)
    return prog, RobustIndexMap(scenario, w_region, z_region, t_region)


def _positive_per_user(values, k: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.shape != (k,) or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be K positive values")
    return arr


def _validated_channels(channels: np.ndarray) -> np.ndarray:
    arr = np.asarray(channels, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("channel matrices must be stacked (K, N, N)")
    if not all(is_hermitian(mat) for mat in arr):
        raise ValueError("channel matrices must be Hermitian")
    return hermitian_part(arr)


def _fixed_program(
    channels: np.ndarray, gamma: np.ndarray, rhs: np.ndarray
) -> tuple[ConicProgram, FixedIndexMap]:
    k, n, _ = channels.shape
    w_region = slice(0, k * Psd(2 * n).dim)
    a = np.zeros((k, w_region.stop + k))
    c = np.zeros(w_region.stop + k)
    c[w_region] = np.tile(_herm_coeff(np.eye(n)), k)
    a[:, w_region] = (_coupling(gamma)[:, :, None] * _herm_coeff(channels)[:, None]).reshape(k, -1)
    a[np.arange(k), w_region.stop + np.arange(k)] = -1.0

    cones = [Psd(2 * n)] * k + [NonNeg(k)]
    prog = ConicProgram(c=c, A=a, b=np.asarray(rhs, dtype=float), cones=cones)
    return prog, FixedIndexMap(n, w_region)


def build_fixed_sdp(
    channels: np.ndarray, noise_power, gamma
) -> tuple[ConicProgram, FixedIndexMap]:
    """Power minimization for exactly known lifted channels.

    Encodes min sum_i tr(W_i) subject to
    tr(H_i (W_i/gamma_i - sum_{j != i} W_j)) >= sigma_i^2 and W_i PSD,
    where channels stacks the K Hermitian H_i. The rate-constraint duals of
    the solved program are the multipliers mu_i.
    """
    arr = _validated_channels(channels)
    k = arr.shape[0]
    noise = _positive_per_user(noise_power, k, "noise_power")
    gam = _positive_per_user(gamma, k, "gamma")
    return _fixed_program(arr, gam, noise)


def _dual_program(
    channels: np.ndarray, gamma: np.ndarray, weights: np.ndarray
) -> tuple[ConicProgram, DualIndexMap]:
    k, n, _ = channels.shape
    basis = _hermitian_basis(n)
    rows_per_user = n * n
    ds = Psd(2 * n).dim
    s_region = slice(0, k * ds)
    mu_region = slice(k * ds, k * ds + k)

    tr_h = np.einsum("bjl,ilj->bi", basis, channels).real
    a = np.zeros((k * rows_per_user, mu_region.stop))
    c = np.zeros(mu_region.stop)
    c[mu_region] = -np.asarray(weights, dtype=float)
    for j in range(k):
        a[j * rows_per_user : (j + 1) * rows_per_user, j * ds : (j + 1) * ds] = _basis_rows(n)
    a[:, mu_region] = (tr_h[None] * _coupling(gamma)[:, None, :]).reshape(-1, k)
    b = np.tile(np.einsum("bjj->b", basis).real, k)

    cones = [Psd(2 * n)] * k + [NonNeg(k)]
    prog = ConicProgram(c=c, A=a, b=b, cones=cones)
    return prog, DualIndexMap(n, s_region, mu_region)


def build_fixed_dual(
    channels: np.ndarray, noise_power, gamma
) -> tuple[ConicProgram, DualIndexMap]:
    """Multiplier dual of the fixed-channel power minimization.

    Encodes max sum_i sigma_i^2 mu_i subject to mu >= 0 and, per user j,
    I + sum_{i != j} mu_i H_i - (mu_j/gamma_j) H_j PSD (held as an explicit
    slack block). The solver minimizes the negated objective, so the dual
    value is minus the returned objective.
    """
    arr = _validated_channels(channels)
    k = arr.shape[0]
    noise = _positive_per_user(noise_power, k, "noise_power")
    gam = _positive_per_user(gamma, k, "gamma")
    return _dual_program(arr, gam, noise)


def build_mu_max_pair(channels: np.ndarray, gamma, user: int):
    """Programs bounding one rate-constraint multiplier from above.

    The first program maximizes mu_user over the fixed-channel dual
    feasible set; the second is its conic dual, a power minimization whose
    rate right-hand sides are 1 for the chosen user and 0 elsewhere. Returns
    ((program, map), (program, map)) for the two.
    """
    arr = _validated_channels(channels)
    k = arr.shape[0]
    gam = _positive_per_user(gamma, k, "gamma")
    if not 0 <= user < k:
        raise ValueError("user index out of range")
    weights = np.zeros(k)
    weights[user] = 1.0
    return _dual_program(arr, gam, weights), _fixed_program(arr, gam, weights)


def _ball_samples(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
    radial = radius * rng.random(count) ** (1.0 / (2.0 * dim))
    return z * radial[:, None]


def _fdd_samples(rng: np.random.Generator, count: int, presumed: np.ndarray, delta: float) -> np.ndarray:
    """Channels with the presumed norm within relative distance delta.

    Writes h = R (alpha hdir + beta d) with |alpha|^2 + beta^2 = 1 and d a
    random unit vector orthogonal to the presumed direction; membership in
    the feedback set is exactly Re(alpha) >= 1 - delta^2 / 2.
    """
    n = presumed.size
    nrm = float(np.linalg.norm(presumed))
    hdir = presumed / nrm
    re_lo = max(-1.0, 1.0 - 0.5 * delta**2)
    if n == 1:
        phi = rng.uniform(-1.0, 1.0, count) * np.arccos(re_lo)
        return nrm * np.exp(1j * phi)[:, None] * hdir[None, :]
    re = rng.uniform(re_lo, 1.0, count)
    im_cap = np.sqrt(np.maximum(1.0 - re**2, 0.0))
    im = rng.uniform(-1.0, 1.0, count) * im_cap
    alpha = re + 1j * im
    beta = np.sqrt(np.maximum(1.0 - np.abs(alpha) ** 2, 0.0))
    d = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    d -= (d @ hdir.conj())[:, None] * hdir[None, :]
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
    return nrm * (alpha[:, None] * hdir[None, :] + beta[:, None] * d)


_BOX_PHASES = np.array([1, 1j, -1, -1j])


def _box_corners(n: int) -> np.ndarray:
    """Every point of {1, j, -1, -j}^n, one per row; one empty row at n = 0."""
    digits = np.arange(4**n)[:, None] // 4 ** np.arange(n - 1, -1, -1) % 4
    return _BOX_PHASES[digits]


def _box_corner_max(amat: np.ndarray, lin: np.ndarray, width: float) -> float:
    """Maximum of 2 w Re(e^H lin) + w^2 e^H A e over every corner e of
    {1, j, -1, -j}^N, for w = width.

    The quadratic splits over the halves e = (e1, e2): its value is
    f1(e1) + f2(e2) + 2 w^2 Re(e1^H A12 e2), so two half-grids of 4^(N/2)
    corners and one product between them cover all 4^N corners, the
    meet-in-the-middle split of Horowitz and Sahni (1974).
    """
    h = lin.size // 2
    e1, e2 = _box_corners(h), _box_corners(lin.size - h)

    def half(e, blk, vec):
        quad = ((e.conj() @ blk) * e).sum(axis=1).real
        return 2.0 * width * (e.conj() @ vec).real + width**2 * quad

    f1 = half(e1, amat[:h, :h], lin[:h])
    f2 = half(e2, amat[h:, h:], lin[h:])
    cross = ((e1.conj() @ amat[:h, h:]) @ e2.T).real
    return float(np.max(f1[:, None] + f2[None, :] + 2.0 * width**2 * cross))


def _box_samples(rng: np.random.Generator, presumed: np.ndarray, width: float, lin: np.ndarray) -> np.ndarray:
    """Phase-aligned, random and zero points of the per-entry modulus box
    around presumed, led by WORST_CASE_SAMPLE_CAP random corners when the box
    has more corners than that (fewer are all covered by _box_corner_max)."""
    n = presumed.size
    errs = []
    if 4**n > WORST_CASE_SAMPLE_CAP:
        errs.append(_BOX_PHASES[rng.integers(0, 4, size=(WORST_CASE_SAMPLE_CAP, n))])
    phases = np.exp(1j * np.angle(lin))[None, :]
    extra = rng.random((256, n)) * np.exp(2j * np.pi * rng.random((256, n)))
    errs += [phases, -phases, extra, np.zeros((1, n))]
    return presumed[None, :] + width * np.concatenate(errs)


def worst_case_margin(design, scenario: ChannelScenario, user: int):
    """Worst-case rate-constraint value for one user.

    Evaluates the maximum over admissible channels h of

        sigma_u^2 + h^H (sum_{j != u} W_j - W_u / gamma_u) h,

    so a nonpositive result means the robust rate constraint holds. The
    maximum is exact for ball and ellipsoid sets (trust-region subproblem,
    after whitening for the ellipsoid). The feedback and box sets have no
    tractable exact oracle here; for those a (lower, upper) bracket is
    returned instead, the lower bound from deterministic sampling and the
    upper bound from the circumscribed ball. For the box with N <= 8 the
    lower bound is the exact maximum over all 4^N corners (every entry
    hbar_j + w {1, j, -1, -j}), found from two half-grids, and over the
    phase-aligned, random and zero points; for larger N,
    WORST_CASE_SAMPLE_CAP random corners take the place of the full set.
    design may be a DesignSolution or a stacked (K, N, N) array of
    covariances.
    """
    w = design.W if isinstance(design, DesignSolution) else np.asarray(design, dtype=complex)
    n, k = scenario.n_antennas, scenario.n_users
    if w.shape != (k, n, n):
        raise ValueError("covariances must be stacked (K, N, N)")
    if not 0 <= user < k:
        raise ValueError("user index out of range")
    gam = scenario.gamma
    amat = hermitian_part(w.sum(axis=0) - w[user] - w[user] / gam[user])
    hb = scenario.presumed[:, user]
    lin = amat @ hb
    const = float(scenario.noise_power[user] + np.vdot(hb, amat @ hb).real)
    model = scenario.uncertainty

    if isinstance(model, SphereUncertainty):
        val, _ = trs_maximize(TrsInstance(amat, lin, model.radius[user]))
        return const + val
    if isinstance(model, EllipsoidUncertainty):
        root = _psd_sqrt(model.shape[user])
        val, _ = trs_maximize(TrsInstance(root @ amat @ root, root @ lin, 1.0))
        return const + val

    def evaluate(chans: np.ndarray) -> float:
        quad = ((chans.conj() @ amat) * chans).sum(axis=1).real
        return float(np.max(quad) + scenario.noise_power[user])

    rng = np.random.default_rng(0)
    if isinstance(model, FddUncertainty):
        radius = model.direction_error * float(np.linalg.norm(hb))
        chans = _fdd_samples(rng, 4096, hb, model.direction_error)
        lower = max(evaluate(chans), evaluate(hb[None, :]))
        val, _ = trs_maximize(TrsInstance(amat, lin, radius))
        return lower, const + val
    width = model.halfwidth[user]
    lower = evaluate(_box_samples(rng, hb, width, lin))
    if 4**n <= WORST_CASE_SAMPLE_CAP:
        lower = max(lower, const + _box_corner_max(amat, lin, width))
    val, _ = trs_maximize(TrsInstance(amat, lin, np.sqrt(n) * width))
    return lower, const + val


def extract_solution(maps, outcome: SolveOutcome) -> DesignSolution:
    """Domain solution from a solved builder program.

    Accepts the index map of build_robust_sdp or build_fixed_sdp together
    with an Optimal outcome; inverts the real embedding per block and
    recomputes the objective as the total covariance trace.
    """
    if outcome.status is not Status.OPTIMAL:
        raise ValueError(f"cannot extract a design from status {outcome.status.value}")
    if not isinstance(maps, (RobustIndexMap, FixedIndexMap)):
        raise TypeError(f"unsupported index map {type(maps).__name__}")
    w = maps.covariances(outcome.x)
    objective = float(np.trace(w, axis1=1, axis2=2).real.sum())
    if isinstance(maps, FixedIndexMap):
        return DesignSolution(W=w, objective=objective, mu=maps.rate_duals(outcome))
    return DesignSolution(
        W=w, objective=objective, Z=maps.slack_matrices(outcome.x), t=maps.multipliers(outcome.x)
    )
