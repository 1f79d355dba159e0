"""Riccati maps, the covariance recursions built on them, and their fixed points.

Three covariance recursions share one skeleton: propagate a conditional
covariance V through the dynamics, then reweight the prediction P into
the next V. ``FilterConfig`` names the recursion and its parameters, and
``_reweight`` maps a config onto the one reweighting of the package,
``divergence._least_favorable``: the standard filter keeps V = P, the
robust filter solves for the theta meeting its divergence budget c at
every step, starting from the previous step's theta, and the
risk-sensitive filter applies a fixed theta. One eigendecomposition of P
serves the theta solve and the reweighting both. ``_covariance_step`` is
the one step of the recursions: one gain-form step
(``predict_covariance``) of a config's n×n V, then ``_reweight``.
``_walk`` is the one loop over it: it starts a run at V symmetrized with
its theta_0, steps it, and marks its cycle, the first byte-exact repeat
of its (V, theta). A filter run (``filters.run_filter``) follows it
until the run has repeated or settled, and stores and replays the steps
itself;
``iterate_to_fixed_point`` follows it until a step meets tol or closes
the cycle; the single-step recursions call ``_covariance_step`` once.
So a fixed point, a single step and a filter run are the same
arithmetic, and take a correlated model (B Dᵀ ≠ 0) as given;
``filters.compare_filters`` is a ``run_filter`` per config.
The information-form maps ``standard_riccati`` and ``risk_sensitive_map``
are the paper's formulas, kept for analysis and as references; no
recursion steps through them, and only they need B Dᵀ = 0.

Convergence is measured in the Thompson metric, where the theory
guarantees contraction; see the contraction module for certificates.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from robkf import _linalg
from robkf.divergence import _as_float, _least_favorable, phi_gap
from robkf.errors import (
    ConfigError,
    DomainViolation,
    MaxIterExceeded,
    NotSPD,
)
from robkf.model import StateSpaceModel, _integer, _require_uncorrelated

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


def _reweight(config: FilterConfig, P: np.ndarray,
              theta: float = 0.0) -> tuple[np.ndarray, float]:
    """Reweight the exactly symmetric prediction covariance P into the
    conditional covariance V.

    Returns (V, theta): V = P and theta = 0 for the standard kind, and
    otherwise ``divergence._least_favorable`` at config's tau, with theta
    solved against the budget c for the robust kind, from theta, the
    previous step's (0 gives a cold start), and the fixed theta for the
    risk-sensitive kind.
    """
    if config.kind == "standard":
        return P, 0.0
    if config.kind == "robust":
        return _least_favorable(P, config.tau, theta, config.c)
    return _least_favorable(P, config.tau, config.theta)


def _covariance_step(model: StateSpaceModel, config: FilterConfig, noise,
                     V: np.ndarray, theta: float):
    """One step of config's covariance recursion.

    Maps the exactly symmetric n×n conditional covariance V_k and its
    theta_k to (G_k, P_{k+1}, V_{k+1}, theta_{k+1}), given the model's
    ``noise_covariances()``: one gain-form step, then ``_reweight``,
    whose robust solve starts from theta_k (0 for a cold start).
    """
    G, P = _gain_and_prediction(model, V, noise)
    V, theta = _reweight(config, P, theta)
    return G, P, V, theta


def _walk(model: StateSpaceModel, config: FilterConfig, V: np.ndarray):
    """config's covariance recursion started at the conditional covariance V,
    without end.

    Step k maps the state (V_k, theta_k) to (G_k, P_{k+1}, V_{k+1},
    theta_{k+1}) through ``_covariance_step`` and reads nothing else. V_0
    is V symmetrized, and theta_0 is the risk-sensitive kind's fixed theta
    and 0 otherwise, so the robust kind's cold first step never counts as
    a repeat. Yields, after each step, ``_covariance_step``'s (G, P, V,
    theta) and the cycle: None until the state after step j + p repeats
    the one after step j byte for byte, then (j, p) for good; from step j
    on the run repeats with period p. The cycle is logged at debug level
    when found. Nothing is stepped before the first value is asked for.
    Its consumers enter ``_linalg.overflow_as`` once around their whole loop
    over it, not here, where the guard would span a yield; a step that
    leaves the double range then raises the DomainViolation they name.
    """
    theta = 0.0 if config.theta is None else config.theta
    V = _linalg.sym(V)
    seen = {(V.tobytes(), theta): 0}
    cycle = None
    noise = model.noise_covariances()
    for k in itertools.count(1):
        G, P, V, theta = _covariance_step(model, config, noise, V, theta)
        j = seen.setdefault((V.tobytes(), theta), k)
        if cycle is None and j < k:
            cycle = (j, k - j)
            log.debug("%s covariance recursion: (V, theta)_%d repeats (V, theta)_%d "
                      "(period %d)", config.kind, k, j, k - j)
        yield G, P, V, theta, cycle


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
    P = (A−GC) V (A−GC)ᵀ + (B−GD)(B−GD)ᵀ between P_star and the gain G
    and conditional covariance V of the step that produced it, an
    identity of every model because G S = A V Cᵀ + B Dᵀ, reported as a
    diagnostic only. V_star is P_star reweighted and G_star its gain.
    ``theta_star`` is None for the standard stepper. ``cycle`` is (j, p)
    when the state (V, theta) after iteration j + p repeated the one after
    iteration j byte for byte, as in ``filters.FilterTrajectory``, else None.
    ``cycle_max_step`` is the largest d_T(P_k, P_{k+1}) over the p steps of
    that cycle, the accuracy the arithmetic allows for the model and the
    stepper; it is None when no state repeated, or when max_iter came
    before the step closing the cycle.
    """

    P_star: np.ndarray
    V_star: np.ndarray
    theta_star: float | None
    G_star: np.ndarray
    iterations: int
    final_step_distance: float
    spectral_radius_closed_loop: float
    identity_residual: float
    cycle: tuple[int, int] | None
    cycle_max_step: float | None


def _observation_information(model: StateSpaceModel) -> np.ndarray:
    DDt = model.D @ model.D.T
    return _linalg.sym(model.C.T @ _linalg.solve_symmetric_spd(DDt, model.C, "D Dᵀ"))


def _gain_and_prediction(model: StateSpaceModel, V: np.ndarray, noise):
    """Gain G = (A V Cᵀ + B Dᵀ) S⁻¹ at V, S = C V Cᵀ + D Dᵀ, and, for an exactly
    symmetric V, the prediction A V Aᵀ − G S Gᵀ + B Bᵀ, from one solve of S,
    given the model's ``noise_covariances()``."""
    BBt, BDt, DDt = noise
    AV = model.A @ V
    S = _linalg.sym(model.C @ V @ model.C.T + DDt)
    G = _linalg.solve_symmetric_spd(S, (AV @ model.C.T + BDt).T, "innovation covariance").T
    return G, _linalg.sym(AV @ model.A.T - G @ S @ G.T + BBt)


def gain(model: StateSpaceModel, V: np.ndarray) -> np.ndarray:
    """Filter gain G = (A V Cᵀ + B Dᵀ)(C V Cᵀ + D Dᵀ)⁻¹; DimensionMismatch
    unless V is n×n. G comes from the gain-form step ``predict_covariance``
    takes, and DomainViolation if that step leaves the double range, the
    prediction it discards included."""
    V = _linalg.square(V, "V", model.n)
    with _linalg.overflow_as(DomainViolation, "gain-form step at V leaves the double range"):
        return _gain_and_prediction(model, V, model.noise_covariances())[0]


def predict_covariance(model: StateSpaceModel, V: np.ndarray) -> np.ndarray:
    """Gain-form covariance propagation A V Aᵀ − G S Gᵀ + B Bᵀ.

    Algebraically identical to ``standard_riccati`` on uncorrelated
    models but valid for singular V and for B Dᵀ ≠ 0. DimensionMismatch
    unless V is n×n, and DomainViolation if the step leaves the double range.
    """
    V = _linalg.sym(_linalg.square(V, "V", model.n))
    with _linalg.overflow_as(DomainViolation, "gain-form step at V leaves the double range"):
        return _gain_and_prediction(model, V, model.noise_covariances())[1]


def standard_riccati(model: StateSpaceModel, P: np.ndarray) -> np.ndarray:
    """Information-form Riccati map A (P⁻¹ + Cᵀ(DDᵀ)⁻¹C)⁻¹ Aᵀ + B Bᵀ.

    Requires an uncorrelated model (B Dᵀ = 0): ModelError otherwise.
    Singular PSD inputs are handed to the gain form ``predict_covariance``,
    the same map on uncorrelated models, so the map can be started at B Bᵀ.
    A P that is not n×n raises DimensionMismatch, and a map that leaves the
    double range DomainViolation.
    """
    _require_uncorrelated(model)
    P = _linalg.square(P, "P", model.n)
    with _linalg.overflow_as(DomainViolation, "Riccati map of P leaves the double range"):
        try:
            Pi = _linalg.inv_spd(P, "P")
        except NotSPD:
            _linalg.psd_spectrum(P, "P")
            return predict_covariance(model, P)
        X = _linalg.inv_spd(Pi + _observation_information(model), "P⁻¹ + Cᵀ(DDᵀ)⁻¹C")
        return _linalg.sym(model.A @ X @ model.A.T + model.B @ model.B.T)


def risk_sensitive_map(model: StateSpaceModel, P: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """Fixed-reweighting Riccati map A (P⁻¹ − Phi + Cᵀ(DDᵀ)⁻¹C)⁻¹ Aᵀ + B Bᵀ.

    Requires an uncorrelated model (B Dᵀ = 0): ModelError otherwise.
    Raises DomainViolation when P⁻¹ − Phi + Cᵀ(DDᵀ)⁻¹C is not positive
    definite (the map is undefined there) or the map leaves the double
    range, and DimensionMismatch unless P and Phi are n×n.
    """
    _require_uncorrelated(model)
    P = _linalg.square(P, "P", model.n)
    Phi = _linalg.sym(_linalg.square(Phi, "Phi", model.n))
    with _linalg.overflow_as(DomainViolation, "risk-sensitive map of P leaves the double range"):
        Pi = _linalg.inv_spd(P, "P")
        core = Pi - Phi + _observation_information(model)
        try:
            X = _linalg.inv_spd(core, "P⁻¹ − Phi + Cᵀ(DDᵀ)⁻¹C")
        except NotSPD as exc:
            raise DomainViolation(
                "risk-sensitive map undefined: P⁻¹ − Phi + Cᵀ(DDᵀ)⁻¹C is not positive definite"
            ) from exc
        return _linalg.sym(model.A @ X @ model.A.T + model.B @ model.B.T)


def _step(model: StateSpaceModel, config: FilterConfig, P: np.ndarray) -> RiccatiStep:
    """Reweight P into V_in, then take one step of the recursion from V_in;
    DomainViolation if the step leaves the double range."""
    with _linalg.overflow_as(DomainViolation, "the step from P leaves the double range"):
        V_in, theta_in = _reweight(config, _linalg.sym(_linalg.square(P, "P", model.n)))
        G, P_next, V, theta = _covariance_step(model, config, model.noise_covariances(),
                                               V_in, theta_in)
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
    to P_next; then solve theta at P_next, starting from the theta at P
    as a filter step does, and reweight again so the returned (P_next,
    V, theta, Phi) refer to one common step index.
    The returned gain G is the one applied during this step, i.e. the
    gain at the incoming V. The step after the first reweighting is one
    step of the gain-form kernel a filter run uses, so G and P_next equal
    ``gain`` and ``predict_covariance`` at the incoming V bit for bit.
    A tau outside [0, 1] or a c that is not finite and positive raises
    DomainViolation, and so does a step that leaves the double range; a P
    that is not n×n raises DimensionMismatch.
    """
    return _step(model, _step_config(kind="robust", tau=tau, c=c), P)


def risk_sensitive_step(
    model: StateSpaceModel, P: np.ndarray, theta: float, tau: float
) -> RiccatiStep:
    """Advance the fixed-theta recursion by one step.

    For 0 < tau < 1 the reweighting domain sigma1(P) < 1/(theta (1-tau))
    is checked on both the incoming and outgoing covariance; leaving it
    raises DomainViolation (detected, not prevented), as does a tau
    outside [0, 1] or a theta that is not finite and positive, or a step
    that leaves the double range. Steps through the same gain-form kernel
    as ``robust_step``; a P that is not n×n raises DimensionMismatch.
    """
    return _step(model, _step_config(kind="risk_sensitive", tau=tau, theta=theta), P)


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
    filter run. The steps come from the same gain-form kernel as
    ``filters.run_filter``, and the same loop, ``_walk``: started at
    model.V0 the k-th iterate is row k of a filter run bit for bit up to
    the run's stop, and the cycle is the run's where it closes before the
    run settles. Stops when d_T(P_k, P_{k+1}) <= tol, or at a
    cycle: once the state (V, theta) after iteration j + p repeats the one
    after iteration j byte for byte, every later step distance repeats one
    already measured but for the step closing the cycle, so one more step
    decides. A period-1 cycle is an exact fixed point; its closing step is 0.

    Returns
    -------
    FixedPointReport
        With the settled (P, V, theta, G), the iteration count, the last
        step distance, the closed-loop spectral radius of A − G C, the
        diagnostic identity residual, and the cycle with its largest step.

    Raises
    ------
    MaxIterExceeded
        With the partial report attached as ``report``: after max_iter
        iterations, or after j + p + 1 at a cycle (j, p) whose steps stay
        above tol.
    ConfigError
        If the stepper and its parameters do not make a FilterConfig,
        tol is not positive, or max_iter is not a positive integer.
    DimensionMismatch
        If start is not n×n.
    NotSPD
        If start is not finite or has an eigenvalue below
        −1e-10·max(1, |λ_max|); a singular PSD start is accepted.
    DomainViolation
        Naming the first iterate P_k that leaves the double range, or whose
        reweighting does, as an unobservable unstable mode makes it do
        (``_linalg.overflow_as`` around the whole iteration). Past that,
        the report's fields are finite or inf: its norms are scaled by a
        power of two, exactly, so their squares do not overflow.
    """
    config = FilterConfig(kind=stepper, tau=tau, c=c, theta=theta)
    if not _as_float(tol) > 0.0:
        raise ConfigError(f"tol must be a positive number, got {tol!r}")
    max_iter = _integer(max_iter, 1, "max_iter must be a positive integer, got {value!r}")
    V = _linalg.sym(_linalg.square(start, "start", model.n))
    _linalg.psd_spectrum(V, "start")

    steps, P_prev, cycle = [], None, None
    walk = enumerate(_walk(model, config, V), 1)
    with _linalg.overflow_as(DomainViolation,
                             lambda: f"covariance P_{len(steps) + 1} leaves the double range"):
        for iterations, (G_k, P_star, V_next, th, found) in walk:
            V_k, V = V, V_next
            try:
                dist = math.inf if P_prev is None else _linalg.thompson_distance(P_prev, P_star)
            except (NotSPD, DomainViolation):
                dist = math.inf
            steps.append(dist)
            P_prev = P_star
            # a cycle found after the previous step makes this one its closing step
            if dist <= tol or cycle is not None:
                break
            cycle = found
            if iterations == max_iter:
                break

    G_star = gain(model, V)
    AGC, BGD = model.A - G_k @ model.C, model.B - G_k @ model.D
    # both norms scaled by one power of two, exactly, so that no square overflows
    s = 2.0 ** -max(0, int(np.frexp(np.abs(P_star).max())[1]))
    residual = np.linalg.norm(s * (P_star - (AGC @ V_k @ AGC.T + BGD @ BGD.T)))
    report = FixedPointReport(
        P_star=P_star,
        V_star=V,
        theta_star=None if config.kind == "standard" else th,
        G_star=G_star,
        iterations=iterations,
        final_step_distance=dist,
        spectral_radius_closed_loop=_linalg.spectral_radius(model.A - G_star @ model.C),
        identity_residual=float(residual / max(s, np.linalg.norm(s * P_star))),
        cycle=cycle,
        cycle_max_step=(max(steps[-cycle[1]:])
                        if cycle is not None and iterations > sum(cycle) else None),
    )
    if not dist <= tol:
        where = (f"within {max_iter} iterations" if cycle is None else
                 f"before (V, theta) after iteration {sum(cycle)} repeated iteration "
                 f"{cycle[0]}, a cycle of period {cycle[1]}")
        raise MaxIterExceeded(
            f"no fixed point {where} (last step distance {dist:.3e} vs tol {tol:.3e})",
            report=report,
        )
    log.info(
        "%s fixed point in %d iterations: step %.3e, closed-loop radius %.6f, "
        "identity residual %.3e",
        stepper, iterations, dist, report.spectral_radius_closed_loop,
        report.identity_residual,
    )
    return report
