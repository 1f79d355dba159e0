"""State-space models, structural checks, noise normalization, simulation.

The model convention is a single white noise vector driving both the
state and the measurement::

    x_{k+1} = A x_k + B v_k
    y_k     = C x_k + D v_k,     v_k ~ N(0, I_m)

Most of the filtering theory additionally wants B Dᵀ = 0 (process and
measurement noise uncorrelated); ``normalize`` rewrites any model into
that form without changing its input-output statistics.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from robkf import _linalg
from robkf.errors import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    ModelError,
    ModelIOError,
    NotObservable,
    NotReachable,
    SingularDD,
    V0NotSPD,
)

__all__ = [
    "StateSpaceModel",
    "NormalizedModel",
    "Trajectory",
    "normalize",
    "reachability_matrix",
    "observability_matrix",
    "powers_matrix",
    "simulate",
    "load_model",
]

log = logging.getLogger(__name__)

_FIELDS = ("A", "B", "C", "D", "x0_mean", "V0")


def _integer(value, low: int, error: str) -> int:
    """int(value) if value is an integer >= low, bool excluded; otherwise
    ConfigError with ``error.format(value=value)``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ConfigError(error.format(value=value))
    return int(value)


def _ingest(name: str, value, ndim: int) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name} is not a rectangular numeric array") from exc
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateSpaceModel:
    """Validated time-invariant model.

    Parameters
    ----------
    A, B, C, D : array_like
        System matrices with shapes (n, n), (n, m), (p, n), (p, m).
    x0_mean : array_like
        Mean of the initial state, shape (n,).
    V0 : array_like
        SPD covariance of the initial state, shape (n, n).

    Raises
    ------
    DimensionMismatch
        If any shape is inconsistent with the others.
    SingularDD
        If D Dᵀ is not positive definite.
    ModelError
        If D Dᵀ leaves the double range (``_linalg.overflow_as``).
    V0NotSPD
        If V0 is not symmetric positive definite.

    Notes
    -----
    Instances are immutable (frozen dataclass, read-only arrays) and
    safe to share across threads.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    x0_mean: np.ndarray
    V0: np.ndarray

    def __post_init__(self):
        for name, ndim in zip(_FIELDS, (2, 2, 2, 2, 1, 2)):
            object.__setattr__(self, name, _ingest(name, getattr(self, name), ndim))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got shape {self.A.shape}")
        if self.B.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got shape {self.B.shape}")
        m = self.B.shape[1]
        if self.C.shape[1] != n:
            raise DimensionMismatch(f"C must have {n} columns, got shape {self.C.shape}")
        p = self.C.shape[0]
        if self.D.shape != (p, m):
            raise DimensionMismatch(f"D must have shape ({p}, {m}), got {self.D.shape}")
        if self.x0_mean.shape != (n,):
            raise DimensionMismatch(f"x0_mean must have shape ({n},), got {self.x0_mean.shape}")
        if self.V0.shape != (n, n):
            raise DimensionMismatch(f"V0 must have shape ({n}, {n}), got {self.V0.shape}")
        with _linalg.overflow_as(ModelError, "D Dᵀ leaves the double range"):
            DDt = self.D @ self.D.T
        if not _linalg.is_spd(DDt):
            raise SingularDD("D Dᵀ is singular; every measurement needs a noise floor")
        # half the asymmetry, from halves as _linalg.sym takes them, stays finite
        h = 0.5 * self.V0
        asym = np.max(np.abs(h - h.T), initial=0.0)
        if asym > 0.5e-10 * (1.0 + np.max(np.abs(self.V0), initial=0.0)):
            raise V0NotSPD("V0 is not symmetric")
        if not _linalg.is_spd(self.V0):
            raise V0NotSPD("V0 is not positive definite")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def noise_covariances(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (B Bᵀ, B Dᵀ, D Dᵀ)."""
        return self.B @ self.B.T, self.B @ self.D.T, self.D @ self.D.T


def _cross_covariance(model: StateSpaceModel) -> float:
    """max |B Dᵀ|, nonzero exactly when the noises are correlated;
    DomainViolation if B Dᵀ leaves the double range."""
    with _linalg.overflow_as(DomainViolation, "B Dᵀ leaves the double range"):
        return float(np.max(np.abs(model.B @ model.D.T), initial=0.0))


def _require_uncorrelated(model: StateSpaceModel) -> None:
    """ModelError unless the model's noises count as uncorrelated."""
    cross = _cross_covariance(model)
    if cross:
        raise ModelError(f"correlated noise (max |B Dᵀ| = {cross:.3e}); normalize() first")


@dataclass(frozen=True)
class NormalizedModel(StateSpaceModel):
    """Model with uncorrelated noises (every entry of B Dᵀ exactly zero),
    reachable (A, B) and observable (A, C): the contraction theorem's
    hypothesis, however the instance was built. Raises ModelError for
    correlated noises (DomainViolation if B Dᵀ leaves the double range),
    NotReachable (NotObservable) when the Krylov matrix of (A, B) (of
    (Aᵀ, Cᵀ)) has rank below n with each block scaled to largest entry 1
    (``_linalg.krylov_rank``), so that neither test depends on the units
    of A, B or C.
    """

    def __post_init__(self):
        super().__post_init__()
        _require_uncorrelated(self)
        n = self.n
        if _linalg.krylov_rank(self.A, self.B, n) < n:
            raise NotReachable("(A, B) is not reachable after normalization")
        if _linalg.krylov_rank(self.A.T, self.C.T, n) < n:
            raise NotObservable("(A, C) is not observable")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states and observations, plus the seed that produced them."""

    states: np.ndarray
    observations: np.ndarray
    seed: int

    def __post_init__(self):
        if len(self.states) != len(self.observations):
            raise DimensionMismatch("states and observations must have equal length")


def _block_sequence(X: np.ndarray, step, N: int) -> list:
    """[X, step(X), ..., step^{N-1}(X)]."""
    N = _integer(N, 1, "block count N must be a positive integer, got {value!r}")
    blocks = [X]
    for _ in range(N - 1):
        blocks.append(step(blocks[-1]))
    return blocks


def reachability_matrix(model: StateSpaceModel, N: int) -> np.ndarray:
    """Block row [B, AB, ..., A^{N-1}B], shape (n, N*m)."""
    return np.hstack(_block_sequence(model.B, lambda X: model.A @ X, N))


def observability_matrix(model: StateSpaceModel, N: int) -> np.ndarray:
    """Block column stacking C A^{N-1} at the top down to C at the bottom."""
    return np.vstack(_block_sequence(model.C, lambda X: X @ model.A, N)[::-1])


def powers_matrix(model: StateSpaceModel, N: int) -> np.ndarray:
    """Block column stacking A^{N-1} at the top down to I at the bottom."""
    return np.vstack(_block_sequence(np.eye(model.n), lambda X: model.A @ X, N)[::-1])


def normalize(model: StateSpaceModel) -> NormalizedModel:
    """Decouple process and measurement noise.

    A NormalizedModel is returned as it is. Otherwise, if every entry of
    B Dᵀ is exactly zero, the matrices pass through unchanged.
    Otherwise the state equation is rewritten with

        Ã = A − B Dᵀ (D Dᵀ)⁻¹ C,
        B̃ B̃ᵀ = B (I − Dᵀ (D Dᵀ)⁻¹ D) Bᵀ,

    where B̃ is the rank-truncated symmetric square-root factor, padded
    with zero columns so B̃ and a correspondingly padded D̃ share one
    noise vector with B̃ D̃ᵀ = 0 structurally. Filtering depends on B
    and D only through B Bᵀ, B Dᵀ, and D Dᵀ, so the factor and padding
    choices are immaterial.

    Raises
    ------
    NotReachable, NotObservable
        If the transformed pair fails its rank test, taken on Krylov
        blocks scaled to largest entry 1 (see NormalizedModel).
    DomainViolation
        If B Bᵀ, B Dᵀ, Ã or B̃ B̃ᵀ leaves the double range
        (``_linalg.overflow_as``).
    """
    if isinstance(model, NormalizedModel):
        return model
    if not _cross_covariance(model):
        return NormalizedModel(
            A=model.A, B=model.B, C=model.C, D=model.D,
            x0_mean=model.x0_mean, V0=model.V0,
        )
    n, m, p = model.n, model.m, model.p
    with _linalg.overflow_as(DomainViolation,
                             "normalized process noise B̃ B̃ᵀ or Ã leaves the double range"):
        BBt, BDt, DDt = model.noise_covariances()
        W = _linalg.solve_symmetric_spd(DDt, np.hstack([model.C, BDt.T]), "D Dᵀ")
        A_t = model.A - BDt @ W[:, :n]
        Sigma = _linalg.sym(BBt - BDt @ W[:, n:])
    B_hat = _linalg.truncated_sqrt(Sigma)
    r = B_hat.shape[1]
    log.debug("normalize: reduced process noise rank %d of %d", r, n)
    return NormalizedModel(
        A=A_t,
        B=np.hstack([B_hat, np.zeros((n, m))]),
        C=model.C,
        D=np.hstack([np.zeros((p, r)), model.D]),
        x0_mean=model.x0_mean,
        V0=model.V0,
    )


def simulate(model: StateSpaceModel, steps: int, seed: int) -> Trajectory:
    """Sample a nominal trajectory of the given length.

    x₀ is drawn as x0_mean + L z with L the lower Cholesky factor of V0
    and z standard normal; each step then draws v_k ~ N(0, I_m). The
    result is a deterministic function of (model, steps, seed). A steps
    or seed that is not a nonnegative integer raises ConfigError. A state
    or observation that leaves the double range, as an unstable model's
    does over enough steps, raises DomainViolation (one
    ``_linalg.overflow_as`` around the states, one around the
    observations); for a state, the message names it.
    """
    steps = _integer(steps, 0, "steps must be a nonnegative integer, got {value!r}")
    seed = _integer(seed, 0, "seed must be a nonnegative integer, got {value!r}")
    rng = np.random.default_rng(seed)
    L0 = _linalg.cholesky_spd(model.V0, "V0")
    states = np.empty((steps, model.n))
    states[:1] = model.x0_mean + L0 @ rng.standard_normal(model.n)  # no row when steps is 0
    v = rng.standard_normal((steps, model.m, 1))
    Bv = (model.B @ v)[:, :, 0]
    with _linalg.overflow_as(DomainViolation, lambda: f"simulated state x_{k} leaves the double range"):
        for k in range(1, steps):
            states[k] = model.A @ states[k - 1] + Bv[k - 1]
    with _linalg.overflow_as(DomainViolation, "simulated observations leave the double range"):
        observations = (model.C @ states[:, :, None] + model.D @ v)[:, :, 0]
    return Trajectory(states=states, observations=observations, seed=seed)


def _read_json(path, what: str):
    """The JSON value in the file at path. An unreadable file, invalid JSON
    and the literals NaN, Infinity and -Infinity raise ModelIOError naming
    ``what`` and the path."""
    def reject(token: str):
        raise ModelIOError(f"{what}: {path} holds the non-finite literal {token!r}")

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelIOError(f"{what}: {path} not readable") from exc
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ModelIOError(f"{what}: {path} is not valid JSON ({exc})") from exc


def load_model(path) -> StateSpaceModel:
    """Read a model from JSON.

    The file must be an object with exactly the keys A, B, C, D (row-major
    nested arrays), x0_mean (flat array), and V0 (nested array). NaN and
    infinity are rejected.
    """
    data = _read_json(path, "model")
    if not isinstance(data, dict):
        raise ModelIOError(f"model: {path} must contain a JSON object")
    missing = sorted(set(_FIELDS) - set(data))
    extra = sorted(set(data) - set(_FIELDS))
    if missing:
        raise ModelIOError(f"model: {path} missing keys {missing}")
    if extra:
        raise ModelIOError(f"model: {path} has unexpected keys {extra}")
    return StateSpaceModel(
        A=data["A"], B=data["B"], C=data["C"], D=data["D"],
        x0_mean=data["x0_mean"], V0=data["V0"],
    )
