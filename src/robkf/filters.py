"""One-step-ahead state estimators built on the covariance recursions.

Three filter kinds share one predictor-form loop

    xhat_{k+1} = A xhat_k + G_k (y_k - C xhat_k)

and differ only in how the gain covariance V_k is produced from the
prediction covariance P_k: the standard filter uses V_k = P_k, the
robust filter re-solves theta_k from a fixed divergence budget c at
every step, and the risk-sensitive filter applies one fixed theta
throughout. ``FilterConfig`` and that reweighting step live in the
riccati module, which the fixed-point iteration shares; this module
re-exports ``FilterConfig``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from robkf.errors import ConfigError, DimensionMismatch, ModelError, ModelIOError
from robkf.model import StateSpaceModel, Trajectory, simulate
from robkf.riccati import FilterConfig, _gain_and_prediction, _reweight

__all__ = [
    "FilterConfig",
    "FilterTrajectory",
    "ComparisonTable",
    "run_filter",
    "compare_filters",
    "load_observations",
]


@dataclass(frozen=True)
class FilterTrajectory:
    """Everything one filter run produced, indexed so row k of the
    estimate uses observations y_0 .. y_{k-1}.

    estimates : (T+1, n)  xhat_0 .. xhat_T
    gains     : (T, n, p) G_0 .. G_{T-1}
    P_seq     : (T, n, n) prediction covariances P_1 .. P_T
    V_seq     : (T+1, n, n) gain covariances V_0 .. V_T, V_0 = model.V0
    theta_seq : (T,) theta_1 .. theta_T paired with V_1 .. V_T; all
                zero for the standard filter
    """

    config: FilterConfig
    estimates: np.ndarray
    gains: np.ndarray
    P_seq: np.ndarray
    V_seq: np.ndarray
    theta_seq: np.ndarray

    @property
    def steps(self) -> int:
        return self.gains.shape[0]


def run_filter(
    model: StateSpaceModel,
    config: FilterConfig,
    observations: np.ndarray,
) -> FilterTrajectory:
    """Run one filter over a batch of observations.

    The initial gain covariance is V_0 = model.V0 for every kind, so a
    robust run and a standard run agree exactly at k = 0 and separate
    as their covariance recursions do. Accepts T = 0 observations and
    returns the prior alone.

    Raises DimensionMismatch if observations are not (T, p), and lets
    DomainViolation from a risk-sensitive theta outside the admissible
    range propagate.
    """
    y = np.asarray(observations, dtype=float)
    if y.ndim == 1 and model.p == 1:
        y = y.reshape(-1, 1)
    if y.ndim != 2 or y.shape[1] != model.p:
        raise DimensionMismatch(
            f"observations must have shape (T, {model.p}), got {np.shape(observations)}"
        )
    if y.size and not np.all(np.isfinite(y)):
        raise ModelError("observations contain non-finite values")

    T = y.shape[0]
    n, p = model.n, model.p
    estimates = np.zeros((T + 1, n))
    gains = np.zeros((T, n, p))
    P_seq = np.zeros((T, n, n))
    V_seq = np.zeros((T + 1, n, n))
    theta_seq = np.zeros(T)

    xhat = model.x0_mean.copy()
    V = model.V0.copy()
    estimates[0] = xhat
    V_seq[0] = V
    for k in range(T):
        G, P = _gain_and_prediction(model, V)
        xhat = model.A @ xhat + G @ (y[k] - model.C @ xhat)
        V, theta = _reweight(config, P)
        estimates[k + 1] = xhat
        gains[k] = G
        P_seq[k] = P
        V_seq[k + 1] = V
        theta_seq[k] = theta

    return FilterTrajectory(
        config=config, estimates=estimates, gains=gains,
        P_seq=P_seq, V_seq=V_seq, theta_seq=theta_seq,
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Several filters run against one simulated trajectory."""

    trajectory: Trajectory
    labels: tuple
    runs: tuple

    def rmse(self, label: str) -> float:
        """Root mean squared state error over all steps and components.

        estimates[k] predicts states[k] for k = 0 .. T-1; the final
        estimate extrapolates past the simulated horizon and is not
        scored.
        """
        run = self.runs[self.labels.index(label)]
        T = self.trajectory.states.shape[0]
        err = run.estimates[:T] - self.trajectory.states
        return float(np.sqrt(np.mean(err**2)))


def compare_filters(
    model: StateSpaceModel,
    configs: Sequence[FilterConfig],
    steps: int,
    seed: int,
) -> ComparisonTable:
    """Simulate one trajectory and run every config against it.

    Labels come from FilterConfig.label(); duplicates get a numeric
    suffix so columns stay addressable.
    """
    if not configs:
        raise ConfigError("compare_filters needs at least one filter config")
    trajectory = simulate(model, steps, seed)
    labels = []
    for config in configs:
        base = config.label()
        label, k = base, 2
        while label in labels:
            label = f"{base}_{k}"
            k += 1
        labels.append(label)
    runs = tuple(run_filter(model, c, trajectory.observations) for c in configs)
    return ComparisonTable(trajectory=trajectory, labels=tuple(labels), runs=runs)


def load_observations(path) -> np.ndarray:
    """Read observations from a CSV with header y1, ..., yp.

    The header fixes p; every row must then hold exactly p finite
    floats. Returns a (T, p) array, possibly with T = 0.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelIOError(f"observations: {path} not readable") from exc
    rows = list(csv.reader(text.splitlines()))
    rows = [r for r in rows if r]
    if not rows:
        raise ModelIOError(f"observations: {path} is empty")
    header = [h.strip() for h in rows[0]]
    expected = [f"y{i}" for i in range(1, len(header) + 1)]
    if header != expected:
        raise ModelIOError(
            f"observations: header must be y1..y{len(header)}, got {header}"
        )
    p = len(header)
    data = np.zeros((len(rows) - 1, p))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != p:
            raise ModelIOError(f"observations: line {i} has {len(row)} fields, expected {p}")
        try:
            data[i - 2] = [float(v) for v in row]
        except ValueError as exc:
            raise ModelIOError(f"observations: line {i} is not numeric") from exc
    if data.size and not np.all(np.isfinite(data)):
        raise ModelIOError(f"observations: {path} contains non-finite values")
    return data
