"""The tau-divergence family and the scalar machinery built on it.

Everything here reduces to eigenvalue computations: the divergence
between two Gaussians, the radius function gamma(P, theta), its inverse
solve_theta, the reweighted covariance v_update, and the bounds on the
inverse gap Phi = P⁻¹ − V⁻¹. ``_least_favorable`` is the one reweighting
P -> V = P f(P) of the package: ``v_update`` and every covariance
recursion of ``riccati`` call it, with the theta solve folded in for the
robust filter, so both share one eigendecomposition of P.

gamma and its theta-derivative are one pass over the n eigenvalues of P
in Python floats with ``math``: per evaluation 2-4 µs at n = 2 and
10-20 µs at n = 12, against 13-35 µs for numpy arrays, which win again
from n ≈ 20 (one CPU of a shared 2-CPU x86-64 box, Python 3.11, numpy 2.4).

tau interpolates between a Kullback-Leibler-type divergence at tau=0
(twice the textbook KL, no 1/2 factor) and a log-weighted divergence at
tau=1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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

# solve_theta returns theta with |gamma - c| <= THETA_RTOL * c.
THETA_RTOL = 1e-10
# Relative gap kept below the tau < 1 domain boundary theta (1-tau) sigma1(P) = 1.
_EDGE_EPS = 1e-12
_MAX_ITER = 200
# For |u| < _SERIES_U the divergence is summed from its power series in u
# up to u^_SERIES_ORDER; the first omitted term is below 1e-19 of the sum.
_SERIES_U = 0.5
_SERIES_ORDER = 18


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian with the given nonempty mean vector and SPD covariance.

    DimensionMismatch unless the mean is a numeric vector (a scalar reads
    as one entry) and cov a numeric matrix of its size; DomainViolation
    for a non-finite mean; NotSPD for a cov that is not SPD.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(_linalg.numeric(self.mean, "mean"))
        if mean.ndim != 1:
            raise DimensionMismatch(f"mean must be a vector, got shape {mean.shape}")
        cov = _linalg.square(self.cov, "cov", mean.size)
        if not np.isfinite(mean).all():
            raise DomainViolation("mean has non-finite entries")
        _linalg.cholesky_spd(cov, "cov")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _as_float(value) -> float:
    """float(value), or nan when value is missing or not a number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _scalar(value, what: str) -> float:
    """float(value), or DomainViolation when value is not a number or is NaN."""
    number = _as_float(value)
    if math.isnan(number):
        raise DomainViolation(f"{what} must be a number, got {value!r}")
    return number


def check_tau(tau: float) -> float:
    tau = _scalar(tau, "tau")
    if not 0.0 <= tau <= 1.0:
        raise DomainViolation(f"tau must lie in [0, 1], got {tau}")
    return tau


def _check_theta(theta: float) -> float:
    theta = _scalar(theta, "theta")
    if theta < 0.0:
        raise DomainViolation(f"theta must be nonnegative, got {theta}")
    return theta


def _psd_spectrum(P: np.ndarray, eig=_linalg.eigvalsh_sym) -> np.ndarray:
    """Ascending eigenvalues of the square P (by ``eig``) clipped at zero; NotSPD
    unless P is finite and not clearly indefinite."""
    return np.clip(_linalg.psd_spectrum(_linalg.square(P, "P"), "P", eig), 0.0, None)


def _outside_domain(theta: float, bound: str) -> DomainViolation:
    """The error for a theta past the tau < 1 domain, theta (1-tau) bound >= 1."""
    return DomainViolation(
        f"theta={theta:.6e} outside the domain: theta*(1-tau)*{bound} must be < 1"
    )


@functools.lru_cache(maxsize=64)
def _series_coefficients(tau: float) -> tuple[float, ...]:
    """(1 + tau + ... + tau^{m-2}) / m! for m = _SERIES_ORDER down to 2."""
    return tuple(sum(tau**k for k in range(m - 1)) / math.factorial(m)
                 for m in range(_SERIES_ORDER, 1, -1))


def _g(u: float, tau: float, coef: tuple[float, ...]) -> tuple[float, float]:
    """g(u) and g'(u) at the float u, for coef = _series_coefficients(tau).

    g(u) is the per-eigenvalue divergence at the eigenvalue e^u of the
    covariance ratio: g(u) = e^{tau u} E(1-tau, u) - E(tau, u) with
    E(a, u) = expm1(a u)/a (u at a = 0), and g'(u) = e^{tau u} E(1-tau, u).
    The closed form of g subtracts O(u) terms to get an O(u²) result, so
    for |u| < _SERIES_U g is summed from its series by Horner's rule,

        g(u) = sum_{m>=2} (1 + tau + ... + tau^{m-2}) u^m / m!.

    Both are +inf where exp overflows (u past ~709), or g is nan there.
    """
    a = 1.0 - tau
    try:
        slope = math.exp(tau * u) * (math.expm1(a * u) / a if a else u)
        if -_SERIES_U <= u < _SERIES_U:
            g = 0.0
            for c in coef:
                g = g * u + c
            return g * u * u, slope
        return slope - (math.expm1(tau * u) / tau if tau else u), slope
    except OverflowError:
        return math.inf, math.inf


def _gamma_and_slope(d: list[float], theta: float, tau: float,
                     coef: tuple[float, ...]) -> tuple[float, float]:
    """gamma(P, theta, tau) and its derivative in theta, in one pass over
    the ascending eigenvalues d of P, a list of floats: the sums of g(u)
    and g'(u) du/dtheta at u = log of the matching eigenvalues of
    P⁻¹ v_update(P, theta, tau), for coef = _series_coefficients(tau)."""
    total = slope = 0.0
    if tau < 1.0:
        a = 1.0 - tau
        t = theta * a
        if t * d[-1] >= 1.0:
            raise _outside_domain(theta, "sigma1(P)")
        for w in d:
            x = t * w
            g, s = _g(-math.log1p(-x) / a, tau, coef)
            total += g
            slope += s * (w / (1.0 - x))
    else:
        for w in d:
            g, s = _g(theta * w, tau, coef)
            total += g
            slope += s * w
    if not math.isfinite(total):
        return math.inf, math.inf
    return total, slope


def gamma(P: np.ndarray, theta: float, tau: float) -> float:
    """Divergence radius reached by the exponential reweighting of P.

    Equals tau_divergence(N(0, v_update(P, theta, tau)), N(0, P), tau);
    evaluated on the eigenvalues of P, by a closed form or, for small
    theta where that cancels, by its power series. Zero iff theta is
    zero, strictly increasing in theta.

    Raises
    ------
    DomainViolation
        If tau or theta is not a number, theta < 0, or tau < 1 with
        theta*(1-tau)*sigma1(P) >= 1.
    NotSPD
        If P is not finite or has a clearly negative eigenvalue.
    DimensionMismatch
        If P is not a nonempty square matrix.
    """
    tau = check_tau(tau)
    theta = _check_theta(theta)
    return _gamma_and_slope(_psd_spectrum(P).tolist(), theta, tau, _series_coefficients(tau))[0]


def solve_theta(P: np.ndarray, c: float, tau: float) -> float:
    """Invert gamma: the unique theta > 0 with gamma(P, theta, tau) = c.

    Newton's method on log gamma against log theta, kept inside a
    bisection bracket. gamma is a power series in theta with nonnegative
    coefficients, so log gamma is convex in log theta and Newton steps
    taken from above the root descend onto it without overshooting. The
    start is above the root: gamma >= theta² |d|²/2 for the eigenvalues
    d of P, which gives theta0 = sqrt(2c)/|d|; at tau = 1 theta0 is
    capped by max(2, log c)/sigma1(P), at tau < 1 by the domain
    boundary. The eigendecomposition of P is done once, the one
    ``v_update`` does, so ``v_update(P, solve_theta(P, c, tau), tau)`` is
    bit for bit the cold reweighting step of a robust filter. Each
    iteration evaluates gamma and its slope in one pass over the n
    eigenvalues as Python floats, about 1 µs per eigenvalue: faster than
    numpy arrays up to n ≈ 20 (module docstring). Deterministic:
    identical inputs give bit-identical output.

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
    DomainViolation
        If tau or c is not a number, tau is outside [0, 1], or c <= 0.
    NotSPD
        If P is not finite, has a clearly negative eigenvalue, or is
        numerically zero.
    DimensionMismatch
        If P is not a nonempty square matrix.
    ToleranceUnreachable
        If c exceeds every attainable radius (c infinite, or
        floating-point breakdown near the domain boundary for tau < 1).
    NonConvergence
        If the bracket shrinks to adjacent floats, or the iteration
        budget runs out, before the residual meets the tolerance.
    """
    tau = check_tau(tau)
    c = _scalar(c, "radius c")
    if not c > 0.0:
        raise DomainViolation(f"radius c must be positive, got {c}")
    d = _psd_spectrum(P, lambda M: _linalg.eigh(_linalg.sym(M))[0])
    if d[-1] <= 0.0:
        raise NotSPD("P is numerically zero")
    if c == math.inf:
        raise ToleranceUnreachable("radius c is infinite")
    return _theta_on(d, c, tau)


def _theta_on(d: np.ndarray, c: float, tau: float, theta: float = 0.0) -> float:
    """solve_theta on the ascending eigenvalues d of P, with d[-1] > 0 and a finite c > 0.

    Starts from theta when it lies inside the bracket (0, domain bound),
    as the previous step's theta does in a filter run; otherwise from the
    cold start solve_theta documents. From below the root the first
    Newton step lands above it, and the descent continues from there.
    """
    d = d.tolist()
    d_max = d[-1]
    coef = _series_coefficients(tau)
    edge = (1.0 - _EDGE_EPS) / ((1.0 - tau) * d_max) if tau < 1.0 else math.inf
    log_c = math.log(c)
    if not 0.0 < theta < edge:
        theta = math.sqrt(2.0) * math.sqrt(c) / math.hypot(*d)
        if tau < 1.0:
            theta = min(theta, edge)
        else:
            # at the top eigenvalue u e^u - e^u + 1 >= e^u once u >= 2
            theta = min(theta, max(2.0, log_c) / d_max)
    lo, hi = 0.0, edge
    for _ in range(_MAX_ITER):
        val, slope = _gamma_and_slope(d, theta, tau, coef)
        if abs(val - c) <= THETA_RTOL * c:
            return theta
        if val > c:
            hi = theta
        else:
            lo = theta
        nxt = math.nan
        if 0.0 < val < math.inf:
            # d log theta / d log gamma = val / (theta slope), at most 1/2
            try:
                nxt = theta * math.exp((log_c - math.log(val)) * (val / slope / theta))
            except OverflowError:
                nxt = math.inf
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * theta
            if not lo < nxt < hi:
                break
        theta = nxt
    if tau < 1.0 and _gamma_and_slope(d, edge, tau, coef)[0] < c:
        raise ToleranceUnreachable(
            f"radius c={c:.6e} is beyond the attainable range for tau={tau}"
        )
    raise NonConvergence(
        f"theta solve did not converge for c={c:.6e}, tau={tau}"
    )


def _least_favorable(P: np.ndarray, tau: float, theta: float,
                     c: float | None = None) -> tuple[np.ndarray, float]:
    """(v_update(P, theta, tau), theta) for the exactly symmetric P, theta
    first solved against the radius c from theta as a warm start when c is
    given; the one reweighting of the package.

    One eigendecomposition P = U diag(w) Uᵀ serves the positive definiteness
    test (NotSPD naming the lowest and highest eigenvalue), the theta solve,
    the weights w f(w) with their tau < 1 domain test, and U diag(w f(w)) Uᵀ.
    Its callers run it under ``_linalg.overflow_as``, which reports a
    tau = 1 exponential that overflows.
    """
    w, U = _linalg.eigh(_linalg.finite(P, "P"))
    if not w[0] > 0.0:
        raise NotSPD(f"P is not symmetric positive definite (eigenvalues {w[0]:.3e} to {w[-1]:.3e})")
    if c is not None:
        theta = _theta_on(w, c, tau, theta)
    if tau < 1.0:
        y = 1.0 - theta * (1.0 - tau) * w
        if y[-1] <= 0.0:
            raise _outside_domain(theta, "sigma1(P)")
        f = np.power(y, 1.0 / (tau - 1.0))
    else:
        f = np.exp(theta * w)
    return _linalg.sym((U * (w * f)) @ U.T), theta


def v_update(P: np.ndarray, theta: float, tau: float) -> np.ndarray:
    """Least-favorable reweighting of the covariance P.

    Computes P f(P), where

        f(P) = (I - theta (1-tau) P)^{1/(tau-1)}   for tau < 1,
        f(P) = exp(theta P)                        for tau = 1.

    f(P) commutes with P, so with P = U diag(w) Uᵀ the result is
    U diag(w f(w)) Uᵀ, from one symmetric eigendecomposition of P; it
    equals L f(Lᵀ L) Lᵀ for every factor L with P = L Lᵀ. For theta > 0
    the result dominates P strictly (V > P in the Loewner order); at
    theta = 0 it equals P. The reweighting is ``_least_favorable``, the
    one the covariance recursions of ``riccati`` run, so a filter step
    with this theta gives the same V bit for bit.

    Raises
    ------
    NotSPD
        If P is not finite or not positive definite.
    DimensionMismatch
        If P is not a nonempty square matrix.
    DomainViolation
        If tau or theta is not a number, theta < 0, tau < 1 and
        theta (1-tau) sigma1(P) >= 1, the tau = 1 exponential
        overflows, or P f(P) leaves the double range.
    """
    tau = check_tau(tau)
    theta = _check_theta(theta)
    P = _linalg.sym(_linalg.finite(_linalg.square(P, "P"), "P"))
    if theta == 0.0:
        return P
    with _linalg.overflow_as(DomainViolation, "P f(P) leaves the double range"):
        return _least_favorable(P, tau, theta)[0]


def phi_gap(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Inverse gap P⁻¹ − V⁻¹ for Loewner-ordered V ≥ P, symmetrized.

    Raises NotOrdered if V − P has an eigenvalue below −1e-10, and
    DimensionMismatch unless P is square and V has its shape. The
    result is PSD, and PD whenever the ordering is strict.
    """
    P = _linalg.square(P, "P")
    V = _linalg.square(V, "V", P.shape[0])
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
    theta = _check_theta(theta)
    d_bar = _scalar(d_bar, "d_bar")
    if d_bar <= 0.0:
        raise DomainViolation(f"d_bar must be positive, got {d_bar}")
    if theta == 0.0:
        return 0.0
    if tau == 0.0:
        # (1 - (1 - theta d)^1)/d = theta for every d
        return theta
    if tau < 1.0:
        x = theta * (1.0 - tau) * d_bar
        if x >= 1.0:
            raise _outside_domain(theta, "d_bar")
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
    f.cov⁻¹ for tau < 1, +inf where it passes the largest double (its
    norm comes from the halved difference by math.hypot, within 1e-15
    relative of the direct sum of squares); at tau = 1 any nonzero mean
    difference makes the divergence +inf. Means count as equal only when
    they are exactly equal: no tolerance, so a mean difference counts at
    any scale of the covariances. Invariant under the choice of
    symmetric factor of f.cov. At tau = 0 this is twice the textbook Gaussian KL. The
    covariance part is evaluated in u = log lam, from its power series where
    the closed forms above cancel (lam near 1). The lam are the squared
    singular values of the whitened Cholesky factor of f_tilde.cov, rescaled by
    powers of two (the kernel of ``thompson_metric`` too), so a lam beyond the
    double range still counts, and the lam may span twice the double range
    (about 1e-616 to 1e616 about their centre). The value is +inf wherever a
    term overflows a double, as it does for a lam above 1e305 to 1e308 (by
    tau); DomainViolation only where the lam span more than that range.
    """
    tau = check_tau(tau)
    if f_tilde.dim != f.dim:
        raise DimensionMismatch(
            f"densities have different dimensions {f_tilde.dim} and {f.dim}"
        )
    means_equal = np.array_equal(f.mean, f_tilde.mean)
    if tau == 1.0 and not means_equal:
        return float("inf")
    coef = _series_coefficients(tau)
    u = _linalg.log_eigenvalues(f.cov, f_tilde.cov)
    cov_part = sum(_g(x, tau, coef)[0] for x in u)
    if not math.isfinite(cov_part):
        cov_part = math.inf
    mean_part = 0.0
    if not means_equal:
        dm = 0.5 * f.mean - 0.5 * f_tilde.mean  # half the difference: finite for finite means
        # twice the norm of the whitened half difference, which math.hypot keeps finite
        norm = 2.0 * math.hypot(*_linalg.solve(_linalg.cholesky_spd(f.cov, "cov"), dm, "cov"))
        mean_part = norm * norm / (1.0 - tau)
    return max(cov_part + mean_part, 0.0)
