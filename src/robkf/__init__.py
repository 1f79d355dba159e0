"""Robust and risk-sensitive Kalman filtering with convergence certificates.

A state-space model, a one-parameter family of Gaussian relative
entropies (tau in [0, 1]), the reweighted Riccati recursions they
induce, Thompson-metric contraction analysis certifying when those
recursions converge, batch filters, and a CLI.
"""
from robkf.contraction import (
    ConvergenceCertificate,
    DownsampledSystem,
    build_downsampled,
    certify,
    contraction_bound,
    downsampled_map,
    find_phi_N,
    thompson_metric,
)
from robkf.divergence import (
    GaussianDensity,
    gamma,
    phi_gap,
    phi_upper_bound,
    solve_theta,
    tau_divergence,
    v_update,
)
from robkf.errors import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    MaxIterExceeded,
    ModelError,
    ModelIOError,
    NonConvergence,
    NotObservable,
    NotReachable,
    NotOrdered,
    NotSPD,
    NumericError,
    RiskSensitiveModeUnsupported,
    RobkfError,
    SearchFailed,
    SingularDD,
    ToleranceUnreachable,
    V0NotSPD,
)
from robkf.filters import (
    ComparisonTable,
    FilterConfig,
    FilterTrajectory,
    compare_filters,
    load_observations,
    run_filter,
)
from robkf.model import (
    NormalizedModel,
    StateSpaceModel,
    Trajectory,
    load_model,
    normalize,
    observability_matrix,
    powers_matrix,
    reachability_matrix,
    simulate,
)
from robkf.riccati import (
    FixedPointReport,
    RiccatiStep,
    gain,
    iterate_to_fixed_point,
    predict_covariance,
    risk_sensitive_map,
    risk_sensitive_step,
    robust_step,
    standard_riccati,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "StateSpaceModel", "NormalizedModel", "Trajectory", "normalize",
    "simulate", "load_model", "reachability_matrix", "observability_matrix",
    "powers_matrix",
    # divergence
    "GaussianDensity", "tau_divergence", "gamma", "solve_theta", "v_update",
    "phi_gap", "phi_upper_bound",
    # riccati
    "RiccatiStep", "FixedPointReport", "gain", "predict_covariance",
    "standard_riccati", "risk_sensitive_map", "robust_step",
    "risk_sensitive_step", "iterate_to_fixed_point",
    # contraction
    "DownsampledSystem", "ConvergenceCertificate", "thompson_metric",
    "contraction_bound", "build_downsampled", "downsampled_map", "find_phi_N",
    "certify",
    # filters
    "FilterConfig", "FilterTrajectory", "ComparisonTable", "run_filter",
    "compare_filters", "load_observations",
    # errors
    "RobkfError", "ModelError", "DimensionMismatch", "SingularDD", "V0NotSPD",
    "NotReachable", "NotObservable", "ModelIOError", "ConfigError",
    "NumericError", "NotSPD", "NotOrdered", "DomainViolation",
    "ToleranceUnreachable", "NonConvergence", "MaxIterExceeded", "SearchFailed",
    "RiskSensitiveModeUnsupported",
]
