"""The tau-divergence family and the scalar machinery built on it.

Everything here reduces to eigenvalue computations: the divergence
between two Gaussians, the radius function gamma(P, theta), its inverse
solve_theta, the reweighted covariance v_update, and the bounds on the
inverse gap Phi = P⁻¹ − V⁻¹.

tau interpolates between a Kullback-Leibler-type divergence at tau=0
(twice the textbook KL, no 1/2 factor) and a log-weighted divergence at
tau=1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from robkf import _linalg
from robkf.errors import (
    DimensionMismatch,
    DomainViolation,
    NonConvergence,
    NotOrdered,
    NotSPD,
    ToleranceUnreachable,
)

__all__ = [
    "GaussianDensity",
    "tau_divergence",
    "gamma",
    "solve_theta",
    "v_update",
    "phi_gap",
    "phi_upper_bound",
]

# Means are considered equal when they differ by at most this, per entry.
MEAN_TOL = 1e-12

# solve_theta returns theta with |gamma - c| <= THETA_RTOL * c.
THETA_RTOL = 1e-10
# Relative gap kept below the tau < 1 domain boundary theta (1-tau) sigma1(P) = 1.
_EDGE_EPS = 1e-12
_MAX_ITER = 200
# For |u| < _SERIES_U the divergence is summed from its power series in u
# up to u^_SERIES_ORDER; the first omitted term is below 1e-19 of the sum.
_SERIES_U = 0.5
_SERIES_BOUNDS = np.array([-_SERIES_U, _SERIES_U])
_SERIES_ORDER = 18
_SERIES_POWERS = np.arange(2, _SERIES_ORDER + 1)
_SERIES_FACTORIALS = np.cumprod(np.arange(1.0, _SERIES_ORDER + 1))[1:]


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian with the given mean vector and SPD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"mean shape {mean.shape} and cov shape {cov.shape} are inconsistent"
            )
        _linalg.cholesky_spd(cov, "cov")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise DomainViolation(f"tau must lie in [0, 1], got {tau}")
    return tau


def _spd_eigvals(P: np.ndarray, what: str = "P") -> np.ndarray:
    """Ascending eigenvalues, rejecting clearly indefinite input."""
    w = _linalg.eigvalsh_sym(np.asarray(P, dtype=float))
    if w.size == 0:
        raise DimensionMismatch(f"{what} is empty")
    if w[0] < -1e-10 * max(1.0, abs(w[-1])):
        raise NotSPD(f"{what} has a negative eigenvalue ({w[0]:.3e})")
    return np.clip(w, 0.0, None)


def _expm1_over(a: float, u: np.ndarray) -> np.ndarray:
    """expm1(a u) / a, continued by its limit u at a = 0."""
    return u if a == 0.0 else np.expm1(a * u) / a


@functools.lru_cache(maxsize=64)
def _series_coefficients(tau: float) -> np.ndarray:
    """(1 + tau + ... + tau^{m-2}) / m! for m = 2 .. _SERIES_ORDER."""
    coef = np.cumsum(tau ** np.arange(_SERIES_ORDER - 1)) / _SERIES_FACTORIALS
    coef.flags.writeable = False
    return coef


def _divergence_sum(u: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Sum of g(u_i) over ascending u, and the derivatives g'(u_i).

    g(u) is the per-eigenvalue divergence at the eigenvalue e^u of the
    covariance ratio: g(u) = e^{tau u} E(1-tau, u) - E(tau, u) with
    E(a, u) = expm1(a u)/a, and g'(u) = e^{tau u} E(1-tau, u). The
    closed form of g subtracts O(u) terms to get an O(u²) result, so for
    |u| < _SERIES_U g is summed from its series instead,

        g(u) = sum_{m>=2} (1 + tau + ... + tau^{m-2}) u^m / m!.

    The sum is +inf once exp overflows (u past ~709).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        slope_u = np.exp(tau * u) * _expm1_over(1.0 - tau, u)
        g = slope_u - _expm1_over(tau, u)
    i, j = np.searchsorted(u, _SERIES_BOUNDS)
    if j > i:
        g[i:j] = (u[i:j, None] ** _SERIES_POWERS) @ _series_coefficients(tau)
    total = float(g.sum())
    return (total if math.isfinite(total) else math.inf), slope_u


def _gamma_and_slope(d: np.ndarray, theta: float, tau: float) -> tuple[float, float]:
    """gamma(P, theta, tau) and its derivative in theta.

    d holds the eigenvalues of P in ascending order, and u = log of the
    matching eigenvalues of P⁻¹ v_update(P, theta, tau) ascends with it.
    """
    if tau < 1.0:
        x = theta * (1.0 - tau) * d
        if x[-1] >= 1.0:
            raise DomainViolation(
                f"theta={theta:.6e} outside the domain: theta*(1-tau)*sigma1(P) must be < 1"
            )
        u = -np.log1p(-x) / (1.0 - tau)
        du = d / (1.0 - x)
    else:
        u = theta * d
        du = d
    total, slope_u = _divergence_sum(u, tau)
    if total == math.inf:
        return math.inf, math.inf
    with np.errstate(over="ignore"):
        return total, float(slope_u @ du)


def gamma(P: np.ndarray, theta: float, tau: float) -> float:
    """Divergence radius reached by the exponential reweighting of P.

    Equals tau_divergence(N(0, v_update(P, theta, tau)), N(0, P), tau);
    evaluated on the eigenvalues of P, by a closed form or, for small
    theta where that cancels, by its power series. Zero iff theta is
    zero, strictly increasing in theta.

    Raises
    ------
    DomainViolation
        If theta < 0, or tau < 1 with theta*(1-tau)*sigma1(P) >= 1.
    """
    tau = check_tau(tau)
    theta = float(theta)
    if theta < 0.0:
        raise DomainViolation(f"theta must be nonnegative, got {theta}")
    return _gamma_and_slope(_spd_eigvals(P), theta, tau)[0]


def solve_theta(P: np.ndarray, c: float, tau: float) -> float:
    """Invert gamma: the unique theta > 0 with gamma(P, theta, tau) = c.

    Newton's method on log gamma against log theta, kept inside a
    bisection bracket. gamma is a power series in theta with nonnegative
    coefficients, so log gamma is convex in log theta and Newton steps
    taken from above the root descend onto it without overshooting. The
    start is above the root: gamma >= theta² |d|²/2 for the eigenvalues
    d of P, which gives theta0 = sqrt(2c)/|d|; at tau = 1 theta0 is
    capped by max(2, log c)/sigma1(P), at tau < 1 by the domain
    boundary. The eigendecomposition of P is done once and reused
    across iterations. Deterministic: identical inputs give
    bit-identical output.

    Parameters
    ----------
    P : SPD matrix
    c : positive divergence radius
    tau : in [0, 1]

    Returns
    -------
    theta with |gamma(P, theta, tau) - c| <= THETA_RTOL * c, where
    THETA_RTOL = 1e-10, at every scale of c.

    Raises
    ------
    ToleranceUnreachable
        If c exceeds every attainable radius (c infinite, or
        floating-point breakdown near the domain boundary for tau < 1).
    NonConvergence
        If the bracket shrinks to adjacent floats, or the iteration
        budget runs out, before the residual meets the tolerance.
    """
    tau = check_tau(tau)
    c = float(c)
    if not c > 0.0:
        raise DomainViolation(f"radius c must be positive, got {c}")
    d = _spd_eigvals(P)
    d_max = float(d[-1])
    if d_max <= 0.0:
        raise NotSPD("P is numerically zero")
    if c == np.inf:
        raise ToleranceUnreachable("radius c is infinite")

    theta = np.sqrt(2.0) * np.sqrt(c) / np.linalg.norm(d)
    if tau < 1.0:
        hi = (1.0 - _EDGE_EPS) / ((1.0 - tau) * d_max)
        if theta >= hi:
            if _gamma_and_slope(d, hi, tau)[0] < c:
                raise ToleranceUnreachable(
                    f"radius c={c:.6e} is beyond the attainable range for tau={tau}"
                )
            theta = hi
    else:
        # at the top eigenvalue u e^u - e^u + 1 >= e^u once u >= 2
        hi = np.inf
        theta = min(theta, max(2.0, np.log(c)) / d_max)

    lo = 0.0
    for _ in range(_MAX_ITER):
        val, slope = _gamma_and_slope(d, theta, tau)
        if abs(val - c) <= THETA_RTOL * c:
            return float(theta)
        if val > c:
            hi = theta
        else:
            lo = theta
        nxt = np.nan
        if 0.0 < val < np.inf:
            # d log theta / d log gamma = val / (theta slope), at most 1/2
            with np.errstate(over="ignore"):
                nxt = theta * np.exp((np.log(c) - np.log(val)) * (val / slope / theta))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < np.inf else 2.0 * theta
            if not lo < nxt < hi:
                break
        theta = nxt
    raise NonConvergence(
        f"theta solve did not converge for c={c:.6e}, tau={tau}"
    )


def v_update(P: np.ndarray, theta: float, tau: float) -> np.ndarray:
    """Least-favorable reweighting of the covariance P.

    Computes P f(P), where

        f(P) = (I - theta (1-tau) P)^{1/(tau-1)}   for tau < 1,
        f(P) = exp(theta P)                        for tau = 1.

    f(P) commutes with P, so with P = U diag(w) Uᵀ the result is
    U diag(w f(w)) Uᵀ, from one symmetric eigendecomposition of P; it
    equals L f(Lᵀ L) Lᵀ for every factor L with P = L Lᵀ. For theta > 0
    the result dominates P strictly (V > P in the Loewner order); at
    theta = 0 it equals P.

    Raises
    ------
    NotSPD
        If P is not positive definite.
    DomainViolation
        If tau < 1 and theta (1-tau) sigma1(P) >= 1, or the tau = 1
        exponential overflows.
    """
    tau = check_tau(tau)
    theta = float(theta)
    if theta < 0.0:
        raise DomainViolation(f"theta must be nonnegative, got {theta}")
    P = np.asarray(P, dtype=float)
    if theta == 0.0:
        return _linalg.sym(P)
    w, U = _linalg.eigh_sym(P)
    if w[0] <= 0.0:
        raise NotSPD("P is not symmetric positive definite")
    if tau < 1.0:
        y = 1.0 - theta * (1.0 - tau) * w
        if np.min(y) <= 0.0:
            raise DomainViolation(
                f"theta={theta:.6e} outside the domain: theta*(1-tau)*sigma1(P) must be < 1"
            )
        f = np.power(y, 1.0 / (tau - 1.0))
    else:
        with np.errstate(over="raise"):
            try:
                f = np.exp(theta * w)
            except FloatingPointError as exc:
                raise DomainViolation(
                    f"theta={theta:.6e} overflows exp(theta P)"
                ) from exc
    return _linalg.sym((U * (w * f)) @ U.T)


def phi_gap(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Inverse gap P⁻¹ − V⁻¹ for Loewner-ordered V ≥ P, symmetrized.

    Raises NotOrdered if V − P has an eigenvalue below −1e-10. The
    result is PSD, and PD whenever the ordering is strict.
    """
    P = np.asarray(P, dtype=float)
    V = np.asarray(V, dtype=float)
    if P.shape != V.shape:
        raise DimensionMismatch(f"P shape {P.shape} != V shape {V.shape}")
    gap_min = _linalg.eigvalsh_sym(V - P)[0]
    if gap_min < -1e-10:
        raise NotOrdered(f"V does not dominate P (min eig of V-P is {gap_min:.3e})")
    return _linalg.sym(_linalg.inv_spd(P, "P") - _linalg.inv_spd(V, "V"))


def phi_upper_bound(theta: float, tau: float, d_bar: float) -> float:
    """Scalar bound f_theta(d_bar) dominating every eigenvalue of phi_gap.

    Whenever P >= d_bar I, the gap P⁻¹ − v_update(P, theta, tau)⁻¹ is
    bounded above by f_theta(d_bar) I. At tau = 0 the bound is theta
    itself, independent of d_bar.
    """
    tau = check_tau(tau)
    theta = float(theta)
    d_bar = float(d_bar)
    if d_bar <= 0.0:
        raise DomainViolation(f"d_bar must be positive, got {d_bar}")
    if theta < 0.0:
        raise DomainViolation(f"theta must be nonnegative, got {theta}")
    if theta == 0.0:
        return 0.0
    if tau == 0.0:
        # (1 - (1 - theta d)^1)/d = theta for every d
        return theta
    if tau < 1.0:
        x = theta * (1.0 - tau) * d_bar
        if x >= 1.0:
            raise DomainViolation(
                f"theta={theta:.6e} outside the domain: theta*(1-tau)*d_bar must be < 1"
            )
        return -np.expm1(np.log1p(-x) / (1.0 - tau)) / d_bar
    return -np.expm1(-theta * d_bar) / d_bar


def tau_divergence(f_tilde: GaussianDensity, f: GaussianDensity, tau: float) -> float:
    """Divergence D_tau(f_tilde || f) between two Gaussians.

    The covariance part is a sum over the generalized eigenvalues lam of
    (f_tilde.cov, f.cov):

        tau = 0:      lam - 1 - log lam
        0 < tau < 1:  (1 - lam^tau)/tau + (lam - lam^tau)/(1 - tau)
        tau = 1:      lam log lam - lam + 1

    The mean difference contributes (1-tau)⁻¹ ||Δm||² weighted by
    f.cov⁻¹ for tau < 1; at tau = 1 any nonzero mean difference makes
    the divergence +inf. Invariant under the choice of symmetric factor
    of f.cov. At tau = 0 this is twice the textbook Gaussian KL. The
    covariance part is evaluated in u = log lam, from its power series
    where the closed forms above cancel (lam near 1).
    """
    tau = check_tau(tau)
    if f_tilde.dim != f.dim:
        raise DimensionMismatch(
            f"densities have different dimensions {f_tilde.dim} and {f.dim}"
        )
    dm = f.mean - f_tilde.mean
    means_equal = np.max(np.abs(dm), initial=0.0) <= MEAN_TOL
    if tau == 1.0 and not means_equal:
        return float("inf")
    lam = np.clip(la.eigh(f_tilde.cov, f.cov, eigvals_only=True), 1e-300, None)
    cov_part = _divergence_sum(np.log(lam), tau)[0]
    mean_part = 0.0
    if not means_equal:
        mean_part = float(dm @ _linalg.solve_spd(f.cov, dm, "cov")) / (1.0 - tau)
    return max(cov_part + mean_part, 0.0)
