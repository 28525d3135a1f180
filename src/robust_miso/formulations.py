"""Scenario types and conic-program builders for robust downlink design.

Turns a channel scenario (presumed per-user channels, noise powers, rate
targets, and a channel error model) into standard-form conic programs:

  * the robust power-minimization SDP whose rate constraints hold for every
    channel in the per-user error set, for four error models: ball,
    ellipsoid, direction-quantized feedback, and elementwise box;
  * the fixed-channel power-minimization primal and its multiplier dual;
  * the pair of programs that bound a single dual multiplier from above.

Complex Hermitian unknowns enter the real solver through their 2n x 2n
symmetric embedding. Each robust rate constraint becomes a linear matrix
inequality in an order-(N+1) Hermitian slack; the builder emits one real
equality per independent real component of the slack definition, (N+1)^2
per user. Index maps recover covariances, slacks, and multipliers from raw
solver vectors.
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
        for mat in arr:
            if not is_hermitian(mat):
                raise ValueError("ellipsoid shape matrices must be Hermitian")
            if np.linalg.eigvalsh(hermitian_part(mat))[0] <= ELLIPSOID_MIN_EIG:
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
    mats = []
    for k in range(order):
        for l in range(k, order):
            f = np.zeros((order, order), dtype=complex)
            if k == l:
                f[k, k] = 1.0
            else:
                f[k, l] = 0.5
                f[l, k] = 0.5
            mats.append(f)
    for k in range(order):
        for l in range(k + 1, order):
            f = np.zeros((order, order), dtype=complex)
            f[k, l] = 0.5j
            f[l, k] = -0.5j
            mats.append(f)
    return np.stack(mats)


def _embed_stack(mats: np.ndarray) -> np.ndarray:
    """real_embedding applied along the leading axis."""
    re, im = mats.real, mats.imag
    top = np.concatenate([re, -im], axis=-1)
    bot = np.concatenate([im, re], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition."""
    lam, vec = eig_hermitian(mat)
    root = np.sqrt(np.maximum(lam, 0.0))
    return (vec * root) @ vec.conj().T


def _hermitian_blocks(x: np.ndarray, slices: tuple[slice, ...], order: int) -> np.ndarray:
    """Stacked order x order Hermitian matrices from real-embedded svec blocks."""
    return np.stack([hermitian_from_real_embedding(smat(x[sl], 2 * order)) for sl in slices])


@dataclass(frozen=True)
class RobustIndexMap:
    """Block locations of the robust design program in the solver vector."""

    scenario: ChannelScenario
    w_slices: tuple[slice, ...]
    z_slices: tuple[slice, ...]
    t_slices: tuple[slice, ...]

    def covariances(self, x: np.ndarray) -> np.ndarray:
        return _hermitian_blocks(x, self.w_slices, self.scenario.n_antennas)

    def slack_matrices(self, x: np.ndarray) -> np.ndarray:
        return _hermitian_blocks(x, self.z_slices, self.scenario.n_antennas + 1)

    def multipliers(self, x: np.ndarray) -> np.ndarray:
        return np.stack([x[sl] for sl in self.t_slices])


@dataclass(frozen=True)
class FixedIndexMap:
    """Block locations of the fixed-channel primal in the solver vector."""

    n: int
    k: int
    w_slices: tuple[slice, ...]
    slack_slice: slice

    def covariances(self, x: np.ndarray) -> np.ndarray:
        return _hermitian_blocks(x, self.w_slices, self.n)

    def rate_slacks(self, x: np.ndarray) -> np.ndarray:
        return x[self.slack_slice].copy()

    def rate_duals(self, outcome: SolveOutcome) -> np.ndarray:
        """Multipliers of the rate constraints, one per user."""
        return np.asarray(outcome.y, dtype=float).copy()


@dataclass(frozen=True)
class DualIndexMap:
    """Block locations of the fixed-channel dual in the solver vector."""

    n: int
    k: int
    s_slices: tuple[slice, ...]
    mu_slice: slice

    def multipliers(self, x: np.ndarray) -> np.ndarray:
        return x[self.mu_slice].copy()

    def slack_matrices(self, x: np.ndarray) -> np.ndarray:
        return _hermitian_blocks(x, self.s_slices, self.n)


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
    gam = scenario.gamma
    model = scenario.uncertainty
    n1 = n + 1
    dw = Psd(2 * n).dim
    dz = Psd(2 * n1).dim
    t_len = {"sphere": 1, "ellipsoid": 1, "box": n, "fdd": 3}[model.kind]

    z_off = k * dw
    t_off = z_off + k * dz
    nvar = t_off + k * t_len
    w_slices = tuple(slice(i * dw, (i + 1) * dw) for i in range(k))
    z_slices = tuple(slice(z_off + i * dz, z_off + (i + 1) * dz) for i in range(k))
    t_slices = tuple(slice(t_off + i * t_len, t_off + (i + 1) * t_len) for i in range(k))

    basis = _hermitian_basis(n1)
    rows_per_user = n1 * n1
    a = np.zeros((k * rows_per_user, nvar))
    b = np.zeros(k * rows_per_user)
    c = np.zeros(nvar)
    half_eye = 0.5 * svec(np.eye(2 * n))
    for sl in w_slices:
        c[sl] = half_eye

    z_coeff = 0.5 * svec(_embed_stack(basis))
    tr_top = np.einsum("bjj->b", basis[:, :n, :n]).real
    corner = basis[:, n, n].real

    for i in range(k):
        hb = scenario.presumed[:, i]
        border = np.concatenate([np.eye(n, dtype=complex), hb[:, None]], axis=1)
        mid = np.matmul(np.matmul(border, basis), border.conj().T)
        w_coeff = 0.5 * svec(_embed_stack(mid))
        rows = slice(i * rows_per_user, (i + 1) * rows_per_user)
        a[rows, z_slices[i]] = z_coeff
        for j in range(k):
            coef = 1.0 / gam[i] if j == i else -1.0
            a[rows, w_slices[j]] = -coef * w_coeff
        if model.kind == "sphere":
            eps2 = model.radius[i] ** 2
            a[rows, t_slices[i]] = -(tr_top - eps2 * corner)[:, None]
        elif model.kind == "ellipsoid":
            shape_inv = hermitian_part(np.linalg.inv(model.shape[i]))
            tr_shape = np.einsum("bjl,lj->b", basis[:, :n, :n], shape_inv).real
            a[rows, t_slices[i]] = -(tr_shape - corner)[:, None]
        elif model.kind == "box":
            d2 = model.halfwidth[i] ** 2
            diag_f = np.einsum("bjj->bj", basis[:, :n, :n]).real
            a[rows, t_slices[i]] = -(diag_f - d2 * corner[:, None])
        else:
            nrm2 = float(np.vdot(hb, hb).real)
            ball = tr_top - (model.direction_error**2 * nrm2) * corner
            norm_eq = tr_top + 2.0 * np.einsum("j,bj->b", hb.conj(), basis[:, :n, n]).real
            a[rows, t_slices[i]] = np.stack([-ball, -norm_eq, norm_eq], axis=1)
        b[rows] = -scenario.noise_power[i] * corner

    cones = (
        [Psd(2 * n) for _ in range(k)]
        + [Psd(2 * n1) for _ in range(k)]
        + [NonNeg(k * t_len)]
    )
    prog = ConicProgram(c=c, A=a, b=b, cones=cones)
    return prog, RobustIndexMap(scenario, w_slices, z_slices, t_slices)


def _positive_per_user(values, k: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.shape != (k,) or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be K positive values")
    return arr


def _validated_channels(channels: np.ndarray) -> np.ndarray:
    arr = np.asarray(channels, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("channel matrices must be stacked (K, N, N)")
    for mat in arr:
        if not is_hermitian(mat):
            raise ValueError("channel matrices must be Hermitian")
    return np.stack([hermitian_part(mat) for mat in arr])


def _fixed_program(
    channels: np.ndarray, gamma: np.ndarray, rhs: np.ndarray
) -> tuple[ConicProgram, FixedIndexMap]:
    k, n, _ = channels.shape
    dw = Psd(2 * n).dim
    nvar = k * dw + k
    w_slices = tuple(slice(i * dw, (i + 1) * dw) for i in range(k))
    slack_slice = slice(k * dw, nvar)

    a = np.zeros((k, nvar))
    c = np.zeros(nvar)
    half_eye = 0.5 * svec(np.eye(2 * n))
    for sl in w_slices:
        c[sl] = half_eye
    for i in range(k):
        functional = 0.5 * svec(real_embedding(channels[i]))
        for j in range(k):
            coef = 1.0 / gamma[i] if j == i else -1.0
            a[i, w_slices[j]] = coef * functional
        a[i, k * dw + i] = -1.0

    cones = [Psd(2 * n) for _ in range(k)] + [NonNeg(k)]
    prog = ConicProgram(c=c, A=a, b=np.asarray(rhs, dtype=float), cones=cones)
    return prog, FixedIndexMap(n, k, w_slices, slack_slice)


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
    nvar = k * ds + k
    s_slices = tuple(slice(j * ds, (j + 1) * ds) for j in range(k))
    mu_slice = slice(k * ds, nvar)

    s_coeff = 0.5 * svec(_embed_stack(basis))
    tr_h = np.stack(
        [np.einsum("bjl,lj->b", basis, channels[i]).real for i in range(k)], axis=1
    )
    a = np.zeros((k * rows_per_user, nvar))
    b = np.zeros(k * rows_per_user)
    c = np.zeros(nvar)
    c[mu_slice] = -np.asarray(weights, dtype=float)
    eye_rhs = np.einsum("bjj->b", basis).real

    for j in range(k):
        rows = slice(j * rows_per_user, (j + 1) * rows_per_user)
        a[rows, s_slices[j]] = s_coeff
        coef = np.ones(k)
        coef[j] = -1.0 / gamma[j]
        a[rows, mu_slice] = -tr_h * coef[None, :]
        b[rows] = eye_rhs

    cones = [Psd(2 * n) for _ in range(k)] + [NonNeg(k)]
    prog = ConicProgram(c=c, A=a, b=b, cones=cones)
    return prog, DualIndexMap(n, k, s_slices, mu_slice)


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


def _box_samples(rng: np.random.Generator, presumed: np.ndarray, width: float, lin: np.ndarray) -> np.ndarray:
    """Extreme and random points of the per-entry modulus box around presumed."""
    n = presumed.size
    if 4**n <= WORST_CASE_SAMPLE_CAP:
        grids = np.meshgrid(*([np.array([1, 1j, -1, -1j])] * n), indexing="ij")
        corners = np.stack([g.reshape(-1) for g in grids], axis=1)
    else:
        idx = rng.integers(0, 4, size=(WORST_CASE_SAMPLE_CAP, n))
        corners = np.array([1, 1j, -1, -1j])[idx]
    phases = np.exp(1j * np.angle(lin))[None, :]
    extra = rng.random((256, n)) * np.exp(2j * np.pi * rng.random((256, n)))
    errs = np.concatenate([corners, phases, -phases, extra, np.zeros((1, n))])
    return presumed[None, :] + width * errs


def worst_case_margin(design, scenario: ChannelScenario, user: int):
    """Worst-case rate-constraint value for one user.

    Evaluates the maximum over admissible channels h of

        sigma_u^2 + h^H (sum_{j != u} W_j - W_u / gamma_u) h,

    so a nonpositive result means the robust rate constraint holds. The
    maximum is exact for ball and ellipsoid sets (trust-region subproblem,
    after whitening for the ellipsoid). The feedback and box sets have no
    tractable exact oracle here; for those a (lower, upper) bracket is
    returned instead, the lower bound from deterministic sampling and the
    upper bound from the circumscribed ball. design may be a DesignSolution
    or a stacked (K, N, N) array of covariances.
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
        quad = np.einsum("sn,nm,sm->s", chans.conj(), amat, chans).real
        return float(np.max(quad) + scenario.noise_power[user])

    rng = np.random.default_rng(0)
    if isinstance(model, FddUncertainty):
        radius = model.direction_error * float(np.linalg.norm(hb))
        chans = _fdd_samples(rng, 4096, hb, model.direction_error)
        lower = max(evaluate(chans), evaluate(hb[None, :]))
        val, _ = trs_maximize(TrsInstance(amat, lin, radius))
        return lower, const + val
    width = model.halfwidth[user]
    chans = _box_samples(rng, hb, width, lin)
    lower = evaluate(chans)
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
    if isinstance(maps, RobustIndexMap):
        w = maps.covariances(outcome.x)
        objective = float(np.trace(w, axis1=1, axis2=2).real.sum())
        return DesignSolution(
            W=w,
            objective=objective,
            Z=maps.slack_matrices(outcome.x),
            t=maps.multipliers(outcome.x),
        )
    if isinstance(maps, FixedIndexMap):
        w = maps.covariances(outcome.x)
        objective = float(np.trace(w, axis1=1, axis2=2).real.sum())
        return DesignSolution(W=w, objective=objective, mu=maps.rate_duals(outcome))
    raise TypeError(f"unsupported index map {type(maps).__name__}")
