"""Rank-one certificates and dual bounds for robust downlink designs.

Each certificate is a closed-form per-user margin; a strictly positive
margin guarantees that every optimal transmit covariance of the matching
robust program has rank one, so the design is implementable by single-stream
beamforming. The margins come in two flavors:

  * a priori: computable from the scenario alone, before any solve
    (theorem1_margin, remark1_margin, direction_margin, model_margins for
    the ellipsoid / quantized-direction / box error models);
  * posterior: needing the solved optimal value (song_margin) or a solved
    dual point (fact3_check).

cur_probability_bound gives the analytic probability that the a-priori
certificate holds under Rayleigh-fading channel draws, and prop4_mu_bound
caps the dual multiplier reachable on any lifted channel meeting a
projector-separation condition. certificate_report bundles everything for
one scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulations import ChannelScenario, LiftedChannel, _ball_radius
from .hermitian import eig_hermitian, is_hermitian, orth_complement_projector

# PSD tolerance for lifting residuals fed to fact3_check.
LIFT_PSD_TOL = 1e-9


def _require_model(scenario: ChannelScenario, kind: str) -> None:
    actual = scenario.uncertainty.kind
    if actual != kind:
        raise ValueError(f"certificate needs the {kind} error model, got {actual}")


def _threshold(k_users: int, gamma: np.ndarray) -> np.ndarray:
    """Common certificate threshold 1 + K + (K - 1/K) gamma."""
    return 1.0 + k_users + (k_users - 1.0 / k_users) * np.asarray(gamma, dtype=float)


def projector_gains(presumed: np.ndarray) -> np.ndarray:
    """Per-user norm of the presumed channel component orthogonal to the
    span of the other users' presumed channels."""
    presumed = np.asarray(presumed)
    k = presumed.shape[1]
    out = np.empty(k)
    for i in range(k):
        others = np.delete(presumed, i, axis=1)
        proj = orth_complement_projector(others)
        out[i] = np.linalg.norm(proj @ presumed[:, i])
    return out


def _gain_ratio(scenario: ChannelScenario, beta: np.ndarray | None = None) -> np.ndarray:
    """Squared projector gain over the squared radius of the ball around
    each user's error set (_ball_radius)."""
    if beta is None:
        beta = projector_gains(scenario.presumed)
    return beta**2 / _ball_radius(scenario) ** 2


def _remark1(ratio: np.ndarray, k_users: int, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    margin = ratio - (1.0 + np.sqrt((k_users - 1.0) * gamma)) ** 2
    return margin, ratio >= (k_users + 1.0) ** 2


def _direction(scenario: ChannelScenario, norms: np.ndarray, smin: float) -> np.ndarray:
    ratio = norms**2 / scenario.uncertainty.radius ** 2
    return ratio * smin**2 - _threshold(scenario.n_users, scenario.gamma)


def theorem1_margin(scenario: ChannelScenario) -> np.ndarray:
    """A-priori rank-one margin for the ball error model.

    margin_k = ||proj_k presumed_k||^2 / radius_k^2 - (1 + K + (K - 1/K) gamma_k)
    where proj_k removes the span of the other presumed channels. Positive
    margins for all users certify that every optimal covariance is rank one.
    """
    _require_model(scenario, "sphere")
    return _gain_ratio(scenario) - _threshold(scenario.n_users, scenario.gamma)


def remark1_margin(scenario: ChannelScenario) -> tuple[np.ndarray, np.ndarray]:
    """Sharper a-priori margin, valid only above a projector-gain gate.

    Returns (margin, applicable): margin_k is the gain ratio minus
    (1 + sqrt((K-1) gamma_k))^2, and applicable_k is True when the gate
    ratio >= (K+1)^2 holds so the sharper threshold may be used at all.
    """
    _require_model(scenario, "sphere")
    return _remark1(_gain_ratio(scenario), scenario.n_users, scenario.gamma)


def song_margin(scenario: ChannelScenario, v_star: float) -> np.ndarray:
    """Posterior rank-one margin from the solved optimal value.

    margin_i = gamma_i sigma_i^2 / v_star - radius_i^2. Needs the optimal
    total power, so unlike the a-priori margins it cannot be checked before
    solving.
    """
    _require_model(scenario, "sphere")
    v_star = float(v_star)
    if not np.isfinite(v_star) or v_star <= 0.0:
        raise ValueError("v_star must be a positive solved objective value")
    gain = scenario.gamma * scenario.noise_power / v_star
    return gain - scenario.uncertainty.radius ** 2


def direction_margin(scenario: ChannelScenario) -> np.ndarray:
    """A-priori margin from the spectrum of the normalized direction matrix.

    Lower-bounds every projector gain by ||presumed_k|| times the smallest
    singular value of the column-normalized channel matrix, so a positive
    value implies a positive theorem1_margin without computing projectors.
    Requires at least as many antennas as users.
    """
    _require_model(scenario, "sphere")
    n, k = scenario.presumed.shape
    if n < k:
        raise ValueError("direction margin needs n_antennas >= n_users")
    norms = np.linalg.norm(scenario.presumed, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("direction margin needs nonzero presumed channels")
    fhat = scenario.presumed / norms
    return _direction(scenario, norms, np.linalg.svd(fhat, compute_uv=False)[-1])


def cur_probability_bound(
    n_antennas: int,
    k_users: int,
    rho,
    radius,
    gamma,
) -> tuple[np.ndarray, float]:
    """Analytic lower bound on the a-priori certificate probability.

    Under i.i.d. complex Gaussian channels with per-antenna gain rho_i, the
    channel-to-uncertainty ratio CUR_i = rho_i N / radius_i^2 controls the
    chance that theorem1_margin is positive for user i. Returns
    (eta, bound): eta_i = N/(N-K+1) * (1 + K + (K - 1/K) gamma_i) and
    bound = 1 - sum_i (eta_i e / CUR_i)^(N-K+1). The bound can be <= 0,
    in which case it is vacuous but still valid.
    """
    if n_antennas < k_users:
        raise ValueError("bound needs n_antennas >= n_users")
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (k_users,))
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (k_users,))
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (k_users,))
    if np.any(rho <= 0.0) or np.any(radius <= 0.0) or np.any(gamma <= 0.0):
        raise ValueError("rho, radius, and gamma must be positive")
    tail = n_antennas - k_users + 1
    eta = n_antennas / tail * _threshold(k_users, gamma)
    cur = rho * n_antennas / radius**2
    bound = 1.0 - float(np.sum((eta * np.e / cur) ** tail))
    return eta, bound


def model_margins(scenario: ChannelScenario) -> np.ndarray:
    """A-priori rank-one margins for the non-ball error models.

    Same threshold as theorem1_margin with the gain ratio taken against the
    circumscribed ball of each user's error set: the squared projector gain
    over the squared ball radius (the largest shape eigenvalue for the
    ellipsoid, delta^2 ||hbar_i||^2 for the quantized-direction model, N
    times the squared halfwidth for the box).
    """
    if scenario.uncertainty.kind == "sphere":
        raise ValueError("ball scenarios use theorem1_margin")
    return _gain_ratio(scenario) - _threshold(scenario.n_users, scenario.gamma)


def fact3_check(lifted, mu, gamma) -> np.ndarray:
    """Posterior rank-one margins for fixed lifted channels.

    Given one lifted channel per user and the solved rate-constraint duals,
    margin_i = 1 - (mu_i / gamma_i) tr(residual_i). All margins positive
    forces every optimal fixed-channel covariance to rank one; residual-free
    channels (pure outer products) always certify with margin 1.
    """
    mu = np.asarray(mu, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    k = len(lifted)
    if mu.shape != (k,) or gamma.shape != (k,):
        raise ValueError("need one lifted channel, mu, and gamma per user")
    if np.any(mu < -LIFT_PSD_TOL) or np.any(gamma <= 0.0):
        raise ValueError("mu must be nonnegative and gamma positive")
    margins = np.full(k, np.nan)
    for part in lifted:
        if not isinstance(part, LiftedChannel):
            raise TypeError("lifted entries must be LiftedChannel values")
        if not 0 <= part.user < k or np.isfinite(margins[part.user]):
            raise ValueError("lifted channels must cover each user once")
        if np.linalg.norm(part.h) == 0.0:
            raise ValueError("lifted channels need nonzero h")
        if not is_hermitian(part.xi):
            raise ValueError("lifting residual must be Hermitian")
        lam, _ = eig_hermitian(part.xi)
        if lam[-1] < -LIFT_PSD_TOL:
            raise ValueError("lifting residual must be positive semidefinite")
        trace = np.trace(part.xi).real
        i = part.user
        margins[i] = 1.0 - mu[i] / gamma[i] * trace
    return margins


def prop4_mu_bound(
    scenario: ChannelScenario, zeta, user: int
) -> tuple[float, bool]:
    """Upper bound on one dual multiplier over separated lifted channels.

    zeta_i in [0, radius_i] caps how far user i's lifted channel may sit
    from its presumed center. When every projector gain clears
    radius_i sqrt(gamma_i (K-1)) after subtracting zeta_i (strictly for the
    bounded user), returns (K / ((beta_u - zeta_u)^2 / gamma_u
    - (K-1) radius_u^2), True); otherwise (nan, False).
    """
    _require_model(scenario, "sphere")
    k = scenario.n_users
    if not 0 <= user < k:
        raise ValueError("user index out of range")
    radius = scenario.uncertainty.radius
    zeta = np.broadcast_to(np.asarray(zeta, dtype=float), (k,))
    if np.any(zeta < 0.0) or np.any(zeta > radius + 1e-12):
        raise ValueError("zeta must lie in [0, radius] per user")
    beta = projector_gains(scenario.presumed)
    gap = beta - zeta
    need = radius * np.sqrt(scenario.gamma * (k - 1.0))
    ok = np.all(np.delete(gap - need, user) >= 0.0) and gap[user] > need[user]
    if not ok:
        return float("nan"), False
    denom = gap[user] ** 2 / scenario.gamma[user] - (k - 1.0) * radius[user] ** 2
    return float(k / denom), True


@dataclass(frozen=True)
class CertificateReport:
    """Every certificate margin evaluated on one scenario.

    Margins are signed per-user arrays (None when the certificate does not
    apply to the scenario's error model or preconditions). holds flags the
    scenario's own a-priori certificate per user, with holds_all the
    conjunction; song is posterior and needs the solved value, so it never
    enters holds. cur, eta, and probability_bound use the realized
    per-antenna channel gain and require n_antennas >= n_users.
    """

    beta: np.ndarray
    sigma_min: float | None
    theorem1: np.ndarray | None
    remark1: np.ndarray | None
    remark1_applicable: np.ndarray | None
    song: np.ndarray | None
    direction: np.ndarray | None
    ellipsoid: np.ndarray | None
    fdd: np.ndarray | None
    box: np.ndarray | None
    holds: np.ndarray
    holds_all: bool
    cur: np.ndarray | None
    eta: np.ndarray | None
    probability_bound: float | None


def certificate_report(
    scenario: ChannelScenario, v_star: float | None = None
) -> CertificateReport:
    """Evaluate every certificate applicable to one scenario.

    For ball scenarios the a-priori margin is theorem1_margin and the
    posterior song margin appears when the solved value is supplied; the
    other models report their model_margins. Direction-based quantities
    need nonzero presumed channels and, for the spectrum bound and the
    probability bound, at least as many antennas as users.
    """
    n, k = scenario.presumed.shape
    beta = projector_gains(scenario.presumed)
    norms = np.linalg.norm(scenario.presumed, axis=0)
    sigma_min = None
    if np.all(norms > 0.0):
        fhat = scenario.presumed / norms
        sigma_min = float(np.linalg.svd(fhat, compute_uv=False)[-1])

    kind = scenario.uncertainty.kind
    thm1 = rem1 = rem1_ok = song = direction = None
    ellipsoid = fdd = box = None
    cur = eta = None
    probability_bound = None
    ratio = _gain_ratio(scenario, beta)
    primary = ratio - _threshold(k, scenario.gamma)
    if kind == "sphere":
        thm1 = primary
        rem1, rem1_ok = _remark1(ratio, k, scenario.gamma)
        if v_star is not None:
            song = song_margin(scenario, v_star)
        if n >= k and sigma_min is not None:
            direction = _direction(scenario, norms, sigma_min)
            rho = norms**2 / n
            radius = scenario.uncertainty.radius
            eta, probability_bound = cur_probability_bound(
                n, k, rho, radius, scenario.gamma
            )
            cur = rho * n / radius**2
    elif kind == "ellipsoid":
        ellipsoid = primary
    elif kind == "fdd":
        fdd = primary
    else:
        box = primary

    holds = primary > 0.0
    return CertificateReport(
        beta=beta,
        sigma_min=sigma_min,
        theorem1=thm1,
        remark1=rem1,
        remark1_applicable=rem1_ok,
        song=song,
        direction=direction,
        ellipsoid=ellipsoid,
        fdd=fdd,
        box=box,
        holds=holds,
        holds_all=bool(np.all(holds)),
        cur=cur,
        eta=eta,
        probability_bound=probability_bound,
    )
