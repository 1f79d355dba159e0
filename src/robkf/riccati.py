"""Riccati maps, the covariance recursions built on them, and their fixed points.

Three covariance recursions share one skeleton: propagate a conditional
covariance V through the dynamics, then reweight the prediction P into
the next V. ``FilterConfig`` names the recursion and its parameters, and
``_reweight`` is the one reweighting step every caller shares: the
standard filter keeps V = P, the robust filter solves for the theta
meeting its divergence budget c at every step, and the risk-sensitive
filter applies a fixed theta. ``filters.run_filter``,
``iterate_to_fixed_point`` and the single-step recursions all go
through it.

Convergence is measured in the Thompson metric, where the theory
guarantees contraction; see the contraction module for certificates.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from robkf import _linalg
from robkf.divergence import solve_theta, v_update, phi_gap
from robkf.errors import (
    ConfigError,
    DomainViolation,
    MaxIterExceeded,
    ModelError,
    NonConvergence,
    NotSPD,
)
from robkf.model import StateSpaceModel

__all__ = [
    "FilterConfig",
    "RiccatiStep",
    "FixedPointReport",
    "standard_riccati",
    "predict_covariance",
    "gain",
    "risk_sensitive_map",
    "robust_step",
    "risk_sensitive_step",
    "iterate_to_fixed_point",
]

log = logging.getLogger(__name__)

_KINDS = ("standard", "robust", "risk_sensitive")
# Relative disagreement between the two algebraic forms of the same map
# beyond which the matrix is considered too ill-conditioned to trust.
_FORM_GATE = 1e-6


def _as_float(value) -> float:
    """float(value), or nan when value is missing or not a number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


@dataclass(frozen=True)
class FilterConfig:
    """Which covariance recursion to run and with what parameters.

    standard takes no parameters, robust takes (tau, c > 0), and
    risk_sensitive takes (tau, theta > 0), with tau in [0, 1] and c,
    theta finite. Anything else, missing or non-numeric values
    included, raises ConfigError at construction.
    """

    kind: str
    tau: float | None = None
    c: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown filter kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "standard":
            if any(v is not None for v in (self.tau, self.c, self.theta)):
                raise ConfigError("standard filter takes no tau, c, or theta")
            return
        param, other = ("c", "theta") if self.kind == "robust" else ("theta", "c")
        if getattr(self, other) is not None:
            raise ConfigError(f"{self.kind} filter takes {param}, not {other}")
        tau = _as_float(self.tau)
        if not 0.0 <= tau <= 1.0:
            raise ConfigError(f"{self.kind} filter needs tau in [0, 1], got {self.tau!r}")
        value = _as_float(getattr(self, param))
        if not 0.0 < value < math.inf:
            raise ConfigError(
                f"{self.kind} filter needs a finite {param} > 0, got {getattr(self, param)!r}"
            )
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, param, value)

    @classmethod
    def standard(cls) -> "FilterConfig":
        return cls(kind="standard")

    @classmethod
    def robust(cls, tau: float, c: float) -> "FilterConfig":
        return cls(kind="robust", tau=tau, c=c)

    @classmethod
    def risk_sensitive(cls, tau: float, theta: float) -> "FilterConfig":
        return cls(kind="risk_sensitive", tau=tau, theta=theta)

    def label(self) -> str:
        if self.kind == "standard":
            return "kf"
        if self.kind == "robust":
            return "rkf_tau" + f"{self.tau:g}".replace(".", "")
        return "rskf_tau" + f"{self.tau:g}".replace(".", "")


def _reweight(config: FilterConfig, P: np.ndarray) -> tuple[np.ndarray, float]:
    """Reweight the prediction covariance P into the conditional covariance V.

    Returns (V, theta): V = P and theta = 0 for the standard kind, theta
    solved against the budget c for the robust kind, the fixed theta for
    the risk-sensitive kind.
    """
    if config.kind == "standard":
        return P, 0.0
    theta = solve_theta(P, config.c, config.tau) if config.kind == "robust" else config.theta
    return v_update(P, theta, config.tau), theta


@dataclass(frozen=True)
class RiccatiStep:
    """One advance of the covariance recursion.

    Holds the next prediction covariance P_next, its reweighted
    counterpart V (so P_next < V strictly for positive theta), the theta
    solved or fixed at P_next, the gain G that produced P_next, and the
    inverse gap Phi = P_next⁻¹ − V⁻¹.
    """

    P_next: np.ndarray
    V: np.ndarray
    theta: float
    G: np.ndarray
    Phi: np.ndarray


@dataclass(frozen=True)
class FixedPointReport:
    """Converged state of a covariance iteration.

    ``identity_residual`` is the relative residual of
    P = (A−GC) V (A−GC)ᵀ + BBᵀ + G (DDᵀ) Gᵀ at the fixed point,
    reported as a diagnostic only. ``theta_star`` is None for the
    standard stepper.
    """

    P_star: np.ndarray
    V_star: np.ndarray
    theta_star: float | None
    G_star: np.ndarray
    iterations: int
    final_step_distance: float
    spectral_radius_closed_loop: float
    identity_residual: float


def _require_uncorrelated(model: StateSpaceModel) -> None:
    cross = np.max(np.abs(model.B @ model.D.T), initial=0.0)
    if cross > 1e-12:
        raise ModelError(
            f"model has correlated noise (max |B Dᵀ| = {cross:.3e}); normalize() first"
        )


def _observation_information(model: StateSpaceModel) -> np.ndarray:
    DDt = model.D @ model.D.T
    return _linalg.sym(model.C.T @ _linalg.solve_spd(DDt, model.C, "D Dᵀ"))


def _gain_and_innovation(model: StateSpaceModel, V: np.ndarray):
    BBt, BDt, DDt = model.noise_covariances()
    S = _linalg.sym(model.C @ V @ model.C.T + DDt)
    K = model.A @ V @ model.C.T + BDt
    G = _linalg.solve_spd(S, K.T, "innovation covariance").T
    return G, S, BBt


def gain(model: StateSpaceModel, V: np.ndarray) -> np.ndarray:
    """Filter gain G = (A V Cᵀ + B Dᵀ)(C V Cᵀ + D Dᵀ)⁻¹."""
    G, _, _ = _gain_and_innovation(model, np.asarray(V, dtype=float))
    return G


def _gain_and_prediction(model: StateSpaceModel, V: np.ndarray):
    """Gain G at V and the prediction A V Aᵀ − G S Gᵀ + B Bᵀ, from one solve of S."""
    V = _linalg.sym(np.asarray(V, dtype=float))
    G, S, BBt = _gain_and_innovation(model, V)
    return G, _linalg.sym(model.A @ V @ model.A.T - G @ S @ G.T + BBt)


def predict_covariance(model: StateSpaceModel, V: np.ndarray) -> np.ndarray:
    """Gain-form covariance propagation A V Aᵀ − G S Gᵀ + B Bᵀ.

    Algebraically identical to ``standard_riccati`` on uncorrelated
    models but valid for singular V and for B Dᵀ ≠ 0.
    """
    return _gain_and_prediction(model, V)[1]


def standard_riccati(model: StateSpaceModel, P: np.ndarray) -> np.ndarray:
    """Information-form Riccati map A (P⁻¹ + Cᵀ(DDᵀ)⁻¹C)⁻¹ Aᵀ + B Bᵀ.

    Requires an uncorrelated model (B Dᵀ = 0). Singular PSD inputs are
    handed to the gain form ``predict_covariance``, the same map on
    uncorrelated models, so the map can be started at B Bᵀ.
    """
    _require_uncorrelated(model)
    P = np.asarray(P, dtype=float)
    try:
        Pi = _linalg.inv_spd(P, "P")
    except NotSPD:
        w = _linalg.eigvalsh_sym(P)
        if w[0] < -1e-10 * max(1.0, abs(w[-1])):
            raise
        return predict_covariance(model, P)
    X = _linalg.inv_spd(Pi + _observation_information(model), "P⁻¹ + Cᵀ(DDᵀ)⁻¹C")
    return _linalg.sym(model.A @ X @ model.A.T + model.B @ model.B.T)


def risk_sensitive_map(model: StateSpaceModel, P: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """Fixed-reweighting Riccati map A (P⁻¹ − Phi + Cᵀ(DDᵀ)⁻¹C)⁻¹ Aᵀ + B Bᵀ.

    Raises DomainViolation when P⁻¹ − Phi + Cᵀ(DDᵀ)⁻¹C is not positive
    definite (the map is undefined there).
    """
    _require_uncorrelated(model)
    P = np.asarray(P, dtype=float)
    Phi = _linalg.sym(np.asarray(Phi, dtype=float))
    Pi = _linalg.inv_spd(P, "P")
    core = Pi - Phi + _observation_information(model)
    try:
        X = _linalg.inv_spd(core, "P⁻¹ − Phi + Cᵀ(DDᵀ)⁻¹C")
    except NotSPD as exc:
        raise DomainViolation(
            "risk-sensitive map undefined: P⁻¹ − Phi + Cᵀ(DDᵀ)⁻¹C is not positive definite"
        ) from exc
    return _linalg.sym(model.A @ X @ model.A.T + model.B @ model.B.T)


def _propagate_checked(model: StateSpaceModel, V: np.ndarray) -> np.ndarray:
    """Information-form propagation cross-checked against the gain form."""
    P_info = standard_riccati(model, V)
    P_gain = predict_covariance(model, V)
    scale = max(1.0, float(np.linalg.norm(P_info)))
    gap = float(np.linalg.norm(P_info - P_gain)) / scale
    if gap > _FORM_GATE:
        raise NonConvergence(
            f"Riccati map forms disagree by {gap:.3e}; matrix too ill-conditioned"
        )
    return P_info


def _step(model: StateSpaceModel, config: FilterConfig, P: np.ndarray) -> RiccatiStep:
    """Reweight P, take the gain there, propagate to P_next, reweight P_next."""
    _require_uncorrelated(model)
    V_in, _ = _reweight(config, np.asarray(P, dtype=float))
    G = gain(model, V_in)
    P_next = _propagate_checked(model, V_in)
    V, theta = _reweight(config, P_next)
    return RiccatiStep(P_next=P_next, V=V, theta=theta, G=G, Phi=phi_gap(P_next, V))


def _step_config(**params) -> FilterConfig:
    try:
        return FilterConfig(**params)
    except ConfigError as exc:
        raise DomainViolation(str(exc)) from exc


def robust_step(model: StateSpaceModel, P: np.ndarray, c: float, tau: float) -> RiccatiStep:
    """Advance the robust recursion by one step.

    From the current prediction covariance P: solve theta at P, reweight
    to the conditional covariance V, take the gain there, and propagate
    to P_next; then solve theta at P_next and reweight again so the
    returned (P_next, V, theta, Phi) refer to one common step index.
    The returned gain G is the one applied during this step, i.e. the
    gain at the incoming V. A tau outside [0, 1] or a c that is not
    finite and positive raises DomainViolation.
    """
    return _step(model, _step_config(kind="robust", tau=tau, c=c), P)


def risk_sensitive_step(
    model: StateSpaceModel, P: np.ndarray, theta: float, tau: float
) -> RiccatiStep:
    """Advance the fixed-theta recursion by one step.

    For 0 < tau < 1 the reweighting domain sigma1(P) < 1/(theta (1-tau))
    is checked on both the incoming and outgoing covariance; leaving it
    raises DomainViolation (detected, not prevented), as does a tau
    outside [0, 1] or a theta that is not finite and positive.
    """
    return _step(model, _step_config(kind="risk_sensitive", tau=tau, theta=theta), P)


def _identity_residual(model: StateSpaceModel, P: np.ndarray, V: np.ndarray, G: np.ndarray) -> float:
    DDt = model.D @ model.D.T
    AGC = model.A - G @ model.C
    recon = AGC @ V @ AGC.T + model.B @ model.B.T + G @ DDt @ G.T
    return float(np.linalg.norm(P - recon) / max(1.0, np.linalg.norm(P)))


def iterate_to_fixed_point(
    model: StateSpaceModel,
    start: np.ndarray,
    stepper: str = "standard",
    *,
    tau: float | None = None,
    c: float | None = None,
    theta: float | None = None,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> FixedPointReport:
    """Iterate a covariance recursion until the Thompson step size drops below tol.

    ``start`` is the initial conditional covariance V₀: the first
    prediction is propagated from it, then each cycle reweights it as
    ``FilterConfig(kind=stepper, tau=tau, c=c, theta=theta)`` does in a
    filter run. Stops when d_T(P_k, P_{k+1}) <= tol.

    Returns
    -------
    FixedPointReport
        With the settled (P, V, theta, G), the iteration count, the last
        step distance, the closed-loop spectral radius of A − G C, and
        the diagnostic identity residual.

    Raises
    ------
    MaxIterExceeded
        With the partial report attached as ``report``.
    ConfigError
        If the stepper and its parameters do not make a FilterConfig, or
        tol is not positive.
    """
    config = FilterConfig(kind=stepper, tau=tau, c=c, theta=theta)
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    _require_uncorrelated(model)

    V = _linalg.sym(np.asarray(start, dtype=float))
    P_prev: np.ndarray | None = None
    P_star = V
    th: float | None = None
    dist = float("inf")
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        P_star = _propagate_checked(model, V)
        if P_prev is not None:
            try:
                dist = _linalg.thompson_distance(P_prev, P_star)
            except NotSPD:
                dist = float("inf")
        V, th = _reweight(config, P_star)
        P_prev = P_star
        if dist <= tol:
            converged = True
            break

    G_star = gain(model, V)
    report = FixedPointReport(
        P_star=P_star,
        V_star=V,
        theta_star=None if config.kind == "standard" else th,
        G_star=G_star,
        iterations=iterations,
        final_step_distance=dist,
        spectral_radius_closed_loop=_linalg.spectral_radius(model.A - G_star @ model.C),
        identity_residual=_identity_residual(model, P_star, V, G_star),
    )
    if not converged:
        raise MaxIterExceeded(
            f"no fixed point within {max_iter} iterations "
            f"(last step distance {dist:.3e} vs tol {tol:.3e})",
            report=report,
        )
    log.info(
        "%s fixed point in %d iterations: step %.3e, closed-loop radius %.6f, "
        "identity residual %.3e",
        stepper, iterations, dist, report.spectral_radius_closed_loop,
        report.identity_residual,
    )
    return report
