"""One-step-ahead state estimators built on the covariance recursions.

Three filter kinds share one predictor-form loop

    xhat_{k+1} = A xhat_k + G_k (y_k - C xhat_k)

and differ only in how the gain covariance V_k is produced from the
prediction covariance P_k: the standard filter uses V_k = P_k, the
robust filter re-solves theta_k from a fixed divergence budget c at
every step, and the risk-sensitive filter applies one fixed theta
throughout. ``FilterConfig`` and that reweighting step live in the
riccati module, which the fixed-point iteration shares; ``FilterConfig``
is exported by ``robkf.riccati`` and ``robkf``, not by this module.
``run_filter`` runs one config. Its covariance side reads no
observation, so it comes first: ``riccati._walk`` steps the run until
its (V, theta) repeats byte for byte or settles at the rounding floor
(see ``FilterTrajectory``), and the run then copies its cycle, or its
settled row, over the remaining steps. The state updates follow, in the
closed-loop form xhat_{k+1} = (A - G_k C) xhat_k + G_k y_k with every
A - G_k C and G_k y_k formed in one batch. For n <= 9 states the
estimates come from a log-depth affine prefix scan over those pairs
(Hillis–Steele doubling; Blelloch, "Prefix sums and their
applications", 1990): about log2 T batched products instead of T
Python steps. Its rounding differs from the step-by-step update by
about 1e-14 relative; larger n, and any scan that leaves the double
range, take the step-by-step loop.
``compare_filters`` is one ``run_filter`` per config against one
simulated trajectory.
"""
from __future__ import annotations

import csv
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from robkf import _linalg
from robkf.errors import ConfigError, DimensionMismatch, DomainViolation, ModelError, ModelIOError
from robkf.model import StateSpaceModel, Trajectory, simulate
from robkf.riccati import FilterConfig, _walk

__all__ = [
    "FilterTrajectory",
    "ComparisonTable",
    "run_filter",
    "compare_filters",
    "load_observations",
]

# Runs of n <= _SCAN_MAX_N states take their estimates from ``_scan``: its
# T log T n³ work ties the per-step loop at n = 10 at T = 1000 (1.39 against
# 1.51 ms at n = 9, 1.56 against 1.51 ms at n = 10, 1.86 against 1.53 ms at
# n = 11; medians of 41 alternating calls, one BLAS thread, x86-64).
_SCAN_MAX_N = 9

log = logging.getLogger(__name__)

# A run whose last measured step size (see ``_Settle``) is above
# _SETTLE_NEAR is far from settling: one of its steps in _SETTLE_STRIDE is
# measured.
_SETTLE_NEAR = 1e-6
_SETTLE_STRIDE = 8


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
    cycle     : (j, period) when (V_{j+period}, theta_{j+period}) is the
                first pair equal, bit for bit, to an earlier one,
                (V_j, theta_j), with theta_0 = 0 (the fixed theta for the
                risk-sensitive kind); None when no pair repeats within
                the run or the run settled first. Every row from step j
                on repeats with that period.
    settled   : the step k, when no pair had repeated by then, at which
                the run first settled; None otherwise. It has settled when
                the step to (V_k, theta_k) moved no entry by more than
                m·eps, m = 4(n + p), in each state's own scale (|ΔV_ij|
                over sqrt(V_ii V_jj), theta relative to itself), and the
                drift that a contraction at the slower rate of its last two
                steps would still add stays within the same bound (see
                ``_Settle``); far from the floor only one step in
                ``_SETTLE_STRIDE`` is measured, which can delay the
                settle but never advance it. The run stops there, and
                every later row repeats row k, so after row k it is no
                longer the step-by-step recursion bit for bit. The drift
                still to come is estimated, not bounded: on the seeded runs
                of the tests the rows after k lay within 1.0e-13 of the
                recursion in that scale, and a run whose contraction is too
                slow to show within a few steps keeps stepping.
    """

    config: FilterConfig
    estimates: np.ndarray
    gains: np.ndarray
    P_seq: np.ndarray
    V_seq: np.ndarray
    theta_seq: np.ndarray
    cycle: tuple[int, int] | None
    settled: int | None = None

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
    returns the prior alone. The covariance side steps through
    ``riccati._walk`` until the run has repeated, has settled or T steps
    are done, whichever comes first. Its cycle is then copied over the
    remaining steps, bit for bit the step-by-step recursion, or its
    settled row is, close to it (see ``FilterTrajectory``).
    The state updates follow in the closed-loop form
    xhat_{k+1} = (A - G_k C) xhat_k + G_k y_k, every A - G_k C and G_k y_k
    formed in one batch. For n <= 9 states an affine prefix scan
    (``_scan``) forms every estimate in about log2 T batched products;
    they agree with the step-by-step update to about 1e-14 relative to
    1 + max|xhat| and are reproducible bit for bit on one platform and
    BLAS thread count. Larger n take the step-by-step loop, each estimate
    written in place into its row, and so does a scan whose result is not
    finite, so that the error below names the first bad step.

    Raises ConfigError if config is not a FilterConfig,
    DimensionMismatch if observations are not a numeric (T, p) array, and
    ModelError if they hold a non-finite value, and lets DomainViolation
    from a risk-sensitive theta outside the admissible range propagate. A
    prediction covariance that leaves the double range, or whose
    reweighting does (a tau = 1 theta past exp's range), raises
    DomainViolation naming the first such P_k, as an unobservable
    unstable mode makes it do. An A - G_k C or G_k y_k past the double
    range raises DomainViolation, and so does an estimate that leaves it,
    as one tracking an unstable model's states does over enough steps,
    naming the first such xhat_k. Each of the three is one
    ``_linalg.overflow_as`` around the covariance walk, the batch and the
    estimates, entered once per run.
    """
    if not isinstance(config, FilterConfig):
        raise ConfigError(f"expected a FilterConfig, got {config!r}")
    y = _linalg.numeric(observations, "observations")
    if y.ndim == 1 and model.p == 1:
        y = y.reshape(-1, 1)
    if y.ndim != 2 or y.shape[1] != model.p:
        raise DimensionMismatch(
            f"observations must have shape (T, {model.p}), got {np.shape(observations)}"
        )
    if y.size and not np.all(np.isfinite(y)):
        raise ModelError("observations contain non-finite values")
    T, n = y.shape[0], model.n
    gains = np.zeros((T, n, model.p))
    P_seq = np.zeros((T, n, n))
    V_seq = np.zeros((T + 1, n, n))
    theta_seq = np.zeros(T)
    V_seq[0] = model.V0
    walk = _walk(model, config, model.V0)
    settle = _Settle(model, config)
    k, cycle, settled = 0, None, None
    with _linalg.overflow_as(DomainViolation, lambda: f"covariance P_{k + 1} leaves the double range"):
        while k < T and cycle is None and settled is None:
            gains[k], P_seq[k], V_seq[k + 1], theta_seq[k], cycle = next(walk)
            k += 1
            if cycle is None and settle(k, V_seq[k], V_seq[k - 1], theta_seq[k - 1]):
                settled = k
                log.debug("%s covariance recursion: (V, theta)_%d settled within %d eps of "
                          "(V, theta)_%d", config.kind, k, settle.m, k - 1)
    replay = _replay(cycle, settled)
    if replay is not None:
        j, period = replay
        rows = j + (np.arange(k, T) - j) % period
        for seq in (gains, P_seq, V_seq[1:], theta_seq):
            seq[k:] = seq[rows]
    with _linalg.overflow_as(DomainViolation, "A - G_k C or G_k y_k leaves the double range"):
        F = model.A - gains @ model.C
        b = (gains @ y[:, :, None])[:, :, 0]
    estimates = np.empty((T + 1, n))
    estimates[0] = xhat = model.x0_mean
    with _linalg.overflow_as(DomainViolation, lambda: f"filter estimate xhat_{k} leaves the double range"):
        if not (n <= _SCAN_MAX_N and _scan(F, b, estimates)):
            for k, (F_k, b_k, out) in enumerate(zip(F, b, estimates[1:]), 1):
                xhat = np.add(np.matmul(F_k, xhat, out=out), b_k, out=out)
    return FilterTrajectory(config=config, estimates=estimates, gains=gains, P_seq=P_seq,
                            V_seq=V_seq, theta_seq=theta_seq, cycle=cycle, settled=settled)


class _Settle:
    """The settle test of one run (see ``FilterTrajectory.settled``),
    called after each step that closes no cycle.

    m = 4(n + p) is a rounding model of one step: each entry of V_k comes
    out of at most four rounded products in a row (A V Aᵀ, the gain's
    C V Cᵀ and G S Gᵀ, the reweighting's U diag(w f(w)) Uᵀ), each a sum of
    at most n + p terms, and a sum of d terms rounds by up to d·eps/2 of
    its terms' magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, §3.1); two steps so rounded can differ by twice that.
    A step's size is the largest |V_ij - V_prev,ij| / sqrt(V_prev,ii V_prev,jj)
    and |theta - theta_prev| / |theta_prev|, so rescaling a state leaves it
    alone; a state without variance makes it NaN, and a difference past the
    double range inf, and neither settles a run. Far from the floor, while
    the last measured size is above _SETTLE_NEAR, one step in
    _SETTLE_STRIDE is measured (about 6 µs each); a step left unmeasured
    counts as inf, so no run settles with one among its last three. Near
    it, every step is measured (about 2.5 µs) against the diagonal of the
    step that came near, without a floating-point guard of its own: there
    V has just moved by under 1e-6 of that scale, so neither the next
    difference nor its scaled size comes near the double range.
    """

    def __init__(self, model: StateSpaceModel, config: FilterConfig):
        self.m = 4 * (model.n + model.p)
        self.bound = self.m * np.finfo(float).eps
        self.theta = 0.0 if config.theta is None else config.theta
        self.sizes = (math.inf,) * 3
        self.measure_at, self.inverse_scale = 1, None

    def __call__(self, k: int, V: np.ndarray, V_prev: np.ndarray, theta: float) -> bool:
        """Whether step k, to (V, theta) from V_prev and the theta of the
        call before, settles the run."""
        theta_prev, self.theta = self.theta, theta
        size = math.inf
        if k >= self.measure_at:
            inverse_scale = self.inverse_scale
            if inverse_scale is None:
                with np.errstate(all="ignore"):
                    scale = np.sqrt(np.diagonal(V_prev))
                    inverse_scale = 1 / np.multiply.outer(scale, scale)
                    size = float((np.abs(V - V_prev) * inverse_scale).max())
            else:
                size = float((np.abs(V - V_prev) * inverse_scale).max())
            if theta != theta_prev:
                size = max(size, abs(theta - theta_prev) / abs(theta_prev) if theta_prev else math.inf)
            near = size <= _SETTLE_NEAR
            self.inverse_scale = inverse_scale if near else None
            self.measure_at = k + (1 if near else _SETTLE_STRIDE)
        self.sizes = (*self.sizes[1:], size)
        return _has_settled(*self.sizes, self.bound)


def _has_settled(older: float, prev: float, step: float, bound: float) -> bool:
    """Whether a run whose last three step sizes (see ``_Settle``) were
    older, prev and step has settled within bound: its step is at most
    bound, and so is the drift step·r/(1 - r) still to come were it to
    contract at the slower rate r of its last two steps, prev/older and
    step/prev. Three finite sizes are needed, so neither the first step
    nor the robust kind's cold first step (theta_0 = 0) settles a run."""
    rate = bound / (step + bound)  # the largest r with step·r/(1 - r) <= bound
    return math.isfinite(older) and step <= bound and step <= rate * prev and prev <= rate * older


def _replay(cycle: tuple[int, int] | None, settled: int | None) -> tuple[int, int] | None:
    """(j, p) such that a run's rows from step j on repeat with period p: its
    cycle, else (settled - 1, 1), the settled step's row copied over every
    later one, else None."""
    if cycle is not None:
        return cycle
    return None if settled is None else (settled - 1, 1)


def _scan(F: np.ndarray, b: np.ndarray, estimates: np.ndarray) -> bool:
    """Write xhat_{k+1} = F_k xhat_k + b_k, k = 0 .. T-1, into estimates[1:]
    from estimates[0] by Hillis–Steele doubling; True when all are finite.

    Step k is the affine map x -> F_k x + b_k, and step 0 a constant once
    F_0 xhat_0 is folded into b_0. After the round of stride s, row k holds
    the composition of steps k-2s+1 .. k as x -> M_k x + v_k, so v_k is
    xhat_{k+1} wherever that window reaches step 0. einsum ignores the
    floating-point flags, so the closing finite test, not a raised flag,
    is what catches an overflowing run. Its matrix products rely on the
    flags ``run_filter``'s estimate guard raises: a composition that
    overflows returns False, and the step-by-step loop then decides.
    """
    T = b.shape[0]
    v = estimates[1:]
    v[:] = b
    M, s = F[1:], 1  # M[i] is M_{i+s}: the rows a round of stride s reads
    try:
        v[:1] += F[:1] @ estimates[0]  # no row when T = 0
        while s < T:
            v[s:] += np.einsum("kij,kj->ki", M, v[:-s])
            if 2 * s < T:
                M = M[s:] @ M[:-s]
            s *= 2
    except FloatingPointError:
        return False
    return bool(np.isfinite(v).all())


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
        scored. A table of T = 0 steps scores nothing and returns nan.
        A label not in the table raises ConfigError.
        """
        if label not in self.labels:
            raise ConfigError(f"no run labelled {label!r}; the table has {self.labels}")
        run = self.runs[self.labels.index(label)]
        T = self.trajectory.states.shape[0]
        if T == 0:
            return math.nan
        err = run.estimates[:T] - self.trajectory.states
        return float(np.sqrt(np.mean(err**2)))


def compare_filters(
    model: StateSpaceModel,
    configs: Sequence[FilterConfig],
    steps: int,
    seed: int,
) -> ComparisonTable:
    """Simulate one trajectory and run every config against it.

    Each run is ``run_filter`` of its config on the simulated
    observations, in the order of configs. Labels come from
    FilterConfig.label(); duplicates get a numeric suffix so columns stay
    addressable. Raises ConfigError, before simulating, unless configs is
    a nonempty sequence of FilterConfigs, and ConfigError unless steps and
    seed are nonnegative integers. When runs fail (DomainViolation from a
    risk-sensitive theta outside the admissible range, say), the error is
    the first failing config's, in the order of configs.
    """
    if not isinstance(configs, Sequence) or not configs:
        raise ConfigError(f"compare_filters needs a nonempty sequence of filter configs, "
                          f"got {configs!r}")
    for config in configs:
        if not isinstance(config, FilterConfig):
            raise ConfigError(f"expected a FilterConfig, got {config!r}")
    trajectory = simulate(model, steps, seed)
    runs = tuple(run_filter(model, config, trajectory.observations) for config in configs)
    labels = []
    for config in configs:
        base = config.label()
        label, k = base, 2
        while label in labels:
            label = f"{base}_{k}"
            k += 1
        labels.append(label)
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
    # (line number in the file, fields) of every non-blank line
    rows = [(i, r) for i, r in enumerate(csv.reader(text.splitlines()), start=1) if r]
    if not rows:
        raise ModelIOError(f"observations: {path} is empty")
    header = [h.strip() for h in rows[0][1]]
    expected = [f"y{i}" for i in range(1, len(header) + 1)]
    if header != expected:
        raise ModelIOError(
            f"observations: header must be y1..y{len(header)}, got {header}"
        )
    p = len(header)
    data = np.zeros((len(rows) - 1, p))
    for t, (i, row) in enumerate(rows[1:]):
        if len(row) != p:
            raise ModelIOError(f"observations: line {i} has {len(row)} fields, expected {p}")
        try:
            data[t] = [float(v) for v in row]
        except ValueError as exc:
            raise ModelIOError(f"observations: line {i} is not numeric") from exc
    if data.size and not np.all(np.isfinite(data)):
        raise ModelIOError(f"observations: {path} contains non-finite values")
    return data
