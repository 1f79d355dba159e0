"""Thompson-metric geometry and convergence certification.

The covariance recursions of this package are strict contractions on
the SPD cone under the Thompson part metric once the per-step
reweighting Phi_k stays below a model-dependent threshold phi_N. This
module computes that threshold from an N-block lifted ("downsampled")
system, bounds the contraction coefficient, and assembles the whole
argument into a certificate: a maximum divergence budget c_max (or
maximum risk parameter theta_max at tau = 1) under which the filter
provably converges to a unique fixed point.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from robkf import _linalg
from robkf.divergence import check_tau, gamma
from robkf.errors import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    NotSPD,
    RiskSensitiveModeUnsupported,
    SearchFailed,
)
from robkf.model import NormalizedModel, StateSpaceModel, _integer, normalize
from robkf.model import observability_matrix, powers_matrix, reachability_matrix
from robkf.riccati import _gain_and_prediction

__all__ = [
    "DownsampledSystem",
    "ConvergenceCertificate",
    "thompson_metric",
    "contraction_bound",
    "build_downsampled",
    "downsampled_map",
    "find_phi_N",
    "certify",
]

log = logging.getLogger(__name__)

_PHI_EDGE = 1e-9
_SQRT_MAX = float(np.sqrt(np.finfo(float).max))


def thompson_metric(P: np.ndarray, Q: np.ndarray) -> float:
    """Thompson part metric d_T(P, Q) = max |log lam_i|.

    The lam_i are the generalized eigenvalues of (Q, P), so the value is
    symmetric in its arguments and invariant under inversion and joint
    congruence. They come from ``tau_divergence``'s kernel, which squares
    no factor, so they may span twice the double range. Raises
    DimensionMismatch unless P and Q are nonempty square matrices of one
    shape, NotSPD naming P or Q unless both are SPD, and DomainViolation
    where they span more.
    """
    P = _linalg.square(P, "P")
    Q = _linalg.square(Q, "Q")
    if P.shape != Q.shape:
        raise DimensionMismatch(f"shape mismatch {P.shape} vs {Q.shape}")
    return _linalg.thompson_distance(P, Q)


def contraction_bound(M: np.ndarray, W1: np.ndarray, W2: np.ndarray) -> float:
    """Lipschitz bound in d_T for the map P ↦ M (P⁻¹ + W1)⁻¹ Mᵀ + W2.

    Returns (sigma / (1 + sqrt(1 + sigma²)))² with sigma = sigma_max(L2⁻¹ M L1⁻ᵀ),
    L1 and L2 the Cholesky factors of W1 and W2. The map is a strict
    contraction, so the value lies in [0, 1); it rounds to 1.0 once sigma
    passes about 1e16, and is 1.0 where sigma overflows. Non-numeric
    input and shapes that do not fit the map raise DimensionMismatch.
    """
    M, W1, W2 = (_linalg.numeric(X, name) for X, name in ((M, "M"), (W1, "W1"), (W2, "W2")))
    if M.ndim != 2 or W1.shape != (M.shape[1],) * 2 or W2.shape != (M.shape[0],) * 2:
        raise DimensionMismatch(f"shapes M {M.shape}, W1 {W1.shape}, W2 {W2.shape} do not fit")
    L1 = _linalg.cholesky_spd(W1, "W1")
    L2 = _linalg.cholesky_spd(W2, "W2")
    if not M.size:
        return 0.0
    X = _linalg.solve(L1, _linalg.solve(L2, M, "W2").T, "W1")  # (L2⁻¹ M L1⁻ᵀ)ᵀ
    if not np.isfinite(X).all():
        return 1.0
    sigma = float(np.linalg.svd(X, compute_uv=False)[0])
    return (sigma / (1.0 + math.hypot(1.0, sigma))) ** 2 if sigma < math.inf else 1.0


@dataclass(frozen=True)
class DownsampledSystem:
    """N-block lifted system whose one-step map equals N filter steps.

    Holds what the map and the threshold read (``build_downsampled``
    forms them): the normalized model, N, J_N, Omega_N, T and
    tilde_phi_N = 1/lam_max(T), where the lifted map's domain ends. Under
    a reweighting bar_phi, with Y = (I − T bar_phi)⁻¹ [J_N, T[:, :n]],
    the map has alpha = A Y[:n, :n], Omega = Omega_N − J_Nᵀ bar_phi Y[:, :n]
    and W = B Bᵀ + A Y[:n, n:] Aᵀ, so W = B Bᵀ + A T[:n, :n] Aᵀ at bar_phi = 0.
    """

    model: NormalizedModel
    N: int
    J_N: np.ndarray
    Omega_N: np.ndarray
    T: np.ndarray
    tilde_phi_N: float


def build_downsampled(model: NormalizedModel, N: int) -> DownsampledSystem:
    """Assemble the N-block lifted system.

    The build lays out R_N = [B, AB, ..., A^{N-1}B]; H_N and L_N, strictly
    upper block Toeplitz with C A^{k-1} B and A^{k-1} B on the k-th
    superdiagonal; O_N and O_N_R, stacking C A^{N-1} (resp. A^{N-1}) down
    to C (resp. I); D_N = I_N ⊗ D and G_N = D_N D_Nᵀ + H_N H_Nᵀ. It keeps
    Omega_N = O_Nᵀ G_N⁻¹ O_N, J_N = O_N_R − L_N H_Nᵀ G_N⁻¹ O_N and
    T = L_N Z⁻¹ L_Nᵀ, Z = I + H_Nᵀ(D_N D_Nᵀ)⁻¹H_N. Since H_N and L_N have
    zero first block columns, R_N = [B, A L₁] (L₁ the top block row of L_N)
    and W(0) = R_N Z⁻¹ R_Nᵀ = B Bᵀ + A T[:n, :n] Aᵀ is PD exactly when R_N
    has full row rank.

    These quantities read B only through B Bᵀ, so R_N, H_N and L_N are
    laid out from the r columns of B that are not identically zero (the
    noise channels of D in an uncorrelated model, the padding of
    ``normalize`` in a correlated one): A^k times a zero column is
    exactly zero, and Z is N r × N r rather than N m × N m. T is formed as
    Yᵀ Y with Y = L_Z⁻¹ L_Nᵀ from Z's Cholesky factor L_Z, so it is
    exactly symmetric and PSD. Dense throughout, for N <= ~50 and small
    n, r, p. Omega_N is tested right after G_N's factor, before L_N, Z
    and T exist, so its failure is cheap and comes before Z's.

    A NormalizedModel is reachable and observable, so Omega_N and W(0) are
    PD in exact arithmetic at N >= n; ``find_phi_N`` rejects them below n.

    Raises
    ------
    NotReachable, NotObservable
        If a model that is not a NormalizedModel fails ``normalize``.
    NotSPD
        If the impulse responses overflow when squared, checked before
        the N² blocks are laid out, or a block covariance fails to factor,
        or Omega_N or W fail to factor at N >= n: they are then PD in
        exact arithmetic but not numerically. A build that leaves the
        double range anywhere else raises NotSPD("lifted system overflows
        at N=…"), from the ``_linalg.overflow_as`` around it.
    """
    model = normalize(model)
    N = _integer(N, 1, "N must be a positive integer, got {value!r}")
    if N < model.n:
        log.warning("N=%d below the state dimension %d; Omega_N may be singular", N, model.n)
    with _linalg.overflow_as(NotSPD, f"lifted system overflows at N={N}"):
        return _lifted_system(model, N)


def _lifted_system(model: NormalizedModel, N: int) -> DownsampledSystem:
    n, p = model.n, model.p
    # impulse responses A^k B and C A^k B for k < N on B's r nonzero columns, side
    # by side; H_N H_Nᵀ and L_N L_Nᵀ sum their squares, so check those before the N² blocks
    keep = np.any(model.B != 0.0, axis=0)
    r = int(np.count_nonzero(keep))
    R_N = reachability_matrix(model, N)[:, np.tile(keep, N)]
    CR_N = model.C @ R_N
    if not np.max(np.abs(CR_N), initial=0.0) < _SQRT_MAX:
        raise NotSPD("block innovation covariance has non-finite entries")
    if not np.max(np.abs(R_N), initial=0.0) < _SQRT_MAX:
        raise NotSPD(f"A^k B overflows when squared at N={N}")
    O_N = observability_matrix(model, N)
    H_N = np.zeros((N * p, N * r))
    for i in range(N - 1):
        H_N[i * p:(i + 1) * p, (i + 1) * r:] = CR_N[:, :(N - 1 - i) * r]
    DD_N = np.kron(np.eye(N), model.D @ model.D.T)
    G_N = _linalg.sym(DD_N + H_N @ H_N.T)
    G_inv_O = _linalg.solve_symmetric_spd(G_N, O_N, "block innovation covariance")
    Omega_N = _linalg.sym(O_N.T @ G_inv_O)
    if N >= n and not _linalg.is_spd(Omega_N):
        raise NotSPD(f"Omega_N is not numerically positive definite at N={N}, "
                     f"although O_N has rank n={n}")
    L_N = np.zeros((N * n, N * r))
    for i in range(N - 1):
        L_N[i * n:(i + 1) * n, (i + 1) * r:] = R_N[:, :(N - 1 - i) * r]
    J_N = powers_matrix(model, N) - L_N @ H_N.T @ G_inv_O
    L_Z = _linalg.cholesky_spd(
        np.eye(N * r) + H_N.T @ _linalg.solve_symmetric_spd(DD_N, H_N, "D_N D_Nᵀ"), "Z")
    Y = _linalg.solve(L_Z, L_N.T, "Z")
    T = Y.T @ Y  # one symmetric product: exactly symmetric and PSD
    t_max = _linalg.eigvalsh_sym(T)[-1]
    tilde_phi_N = 1.0 / t_max if t_max > 0.0 else float("inf")
    if N >= n and not _linalg.is_spd(model.B @ model.B.T + model.A @ T[:n, :n] @ model.A.T):
        raise NotSPD(f"zero-reweighting W is not numerically positive definite at N={N}, "
                     f"although R_N has rank n={n}")
    return DownsampledSystem(model=model, N=N, J_N=J_N, Omega_N=Omega_N, T=T,
                             tilde_phi_N=tilde_phi_N)


def _map_blocks(ds: DownsampledSystem, bar_phi: np.ndarray):
    """alpha, Omega, W of the lifted map under the block reweighting bar_phi,
    from one solve against I − T bar_phi (see DownsampledSystem)."""
    n, A = ds.model.n, ds.model.A
    K = np.eye(ds.T.shape[0]) - ds.T @ bar_phi
    Y = _linalg.solve(K, np.hstack([ds.J_N, ds.T[:, :n]]), "I − T bar_phi")
    alpha = A @ Y[:n, :n]
    Omega = _linalg.sym(ds.Omega_N - ds.J_N.T @ bar_phi @ Y[:, :n])
    W = _linalg.sym(ds.model.B @ ds.model.B.T + A @ Y[:n, n:] @ A.T)
    return alpha, Omega, W


def downsampled_map(ds: DownsampledSystem, bar_phi: np.ndarray, P: np.ndarray) -> np.ndarray:
    """One application of the lifted map: alpha (P⁻¹ + Omega)⁻¹ alphaᵀ + W.

    ``bar_phi`` collects N per-step reweightings as an (Nn, Nn)
    block-diagonal PSD matrix with every eigenvalue below tilde_phi_N
    (DomainViolation otherwise, for a wrong shape or a non-finite entry
    too), and P is n×n (DimensionMismatch otherwise). With bar_phi = 0
    the result is exactly N compositions of the standard Riccati map;
    with N identical blocks Phi it is N compositions of the fixed-Phi map.

    alpha, Omega and W come from one solve with I − T bar_phi (see
    DownsampledSystem), which exists below tilde_phi_N and keeps
    singular bar_phi (zero included) exact.
    """
    try:
        bar_phi = _linalg.square(bar_phi, "bar_phi", ds.T.shape[0])
        bar_phi = _linalg.sym(_linalg.finite(bar_phi, "bar_phi"))
    except (DimensionMismatch, NotSPD) as exc:
        raise DomainViolation(str(exc)) from exc
    P = _linalg.square(P, "P", ds.model.n)
    w = _linalg.eigvalsh_sym(bar_phi)
    if w[0] < -1e-10:
        raise DomainViolation(f"bar_phi must be PSD (min eigenvalue {w[0]:.3e})")
    if np.isfinite(ds.tilde_phi_N) and w[-1] >= ds.tilde_phi_N:
        raise DomainViolation(
            f"bar_phi eigenvalue {w[-1]:.6e} reaches tilde_phi_N = {ds.tilde_phi_N:.6e}"
        )
    try:
        alpha, Omega, W = _map_blocks(ds, bar_phi)
    except NotSPD as exc:
        raise DomainViolation(f"lifted map undefined for this bar_phi: {exc}") from exc
    try:
        X = _linalg.inv_spd(_linalg.inv_spd(P, "P") + Omega, "P⁻¹ + Omega")
    except NotSPD as exc:
        raise DomainViolation(f"P⁻¹ + Omega not positive definite: {exc}") from exc
    return _linalg.sym(alpha @ X @ alpha.T + W)


def find_phi_N(ds: DownsampledSystem) -> float:
    """Largest scalar phi keeping the lifted map's Omega and W both PD.

    Closed form from one symmetric eigenproblem. By the Schur
    complement, Omega(phi) = Omega_N − J_Nᵀ(phi⁻¹I − T)⁻¹J_N is PD
    exactly when phi < 1/lam_max(T + J_N Omega_N⁻¹ J_Nᵀ), and W(phi) is
    PD for every phi < tilde_phi_N when W(0) is, that is, when R_N has
    full row rank (see ``build_downsampled``). The threshold is returned
    a relative 1e-9 inside that strict edge. Since T + J_N Omega_N⁻¹ J_Nᵀ
    ⪰ T, it also lies at least that far below tilde_phi_N = 1/lam_max(T),
    where the map's domain ends.

    At N >= n the build has required both to be PD (it raises NotSPD
    otherwise). Below n the rank of R_N is taken on its blocks A^k B,
    each scaled to largest entry 1 (``_linalg.krylov_rank``, the test
    ``NormalizedModel`` runs at N = n), so it does not depend on the
    scale of A; a Cholesky of the formed W(0) could pass on a
    rank-deficient R_N through rounding.

    Raises
    ------
    SearchFailed
        If Omega_N is not PD or R_N lacks full row rank, so that no
        positive phi is feasible (possible only for N < n; at N >= n
        ``build_downsampled`` raises instead).
    DomainViolation
        If J_N Omega_N⁻¹ J_Nᵀ leaves the double range, as a nearly
        unobservable model (C scaled by 1e-160, say) makes it do.
    """
    n = ds.model.n
    if ds.N < n and _linalg.krylov_rank(ds.model.A, ds.model.B, ds.N) < n:
        raise SearchFailed(f"R_N has rank below n={n} at N={ds.N}; W is singular for every phi")
    try:
        L = _linalg.cholesky_spd(ds.Omega_N, "Omega_N")
    except NotSPD as exc:
        raise SearchFailed(f"Omega_N is singular at N={ds.N}; no phi > 0 is feasible") from exc
    with _linalg.overflow_as(DomainViolation, "J_N Omega_N⁻¹ J_Nᵀ leaves the double range"):
        X = _linalg.solve(L, ds.J_N.T, "Omega_N")
        t_max = _linalg.eigvalsh_sym(ds.T + X.T @ X)[-1]
    phi = (1.0 - _PHI_EDGE) / t_max
    log.debug("phi_N = %.9e (tilde_phi_N = %.9e)", phi, ds.tilde_phi_N)
    return float(phi)


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Proof data for filter convergence on one model.

    In robust mode, every divergence budget c in (0, c_max] yields an
    iteration that contracts to a unique fixed point; in risk-sensitive
    mode (tau = 1 only) the same holds for every fixed theta in
    (0, theta_max].
    """

    tau: float
    q: int
    N: int
    mode: str
    P_bar_q: np.ndarray
    sigma_n: float
    tilde_phi_N: float
    phi_N: float
    theta_bar: float
    c_max: Optional[float] = None
    theta_max: Optional[float] = None

    def as_dict(self) -> dict:
        """The fields in declaration order, P_bar_q as nested lists, unset bounds left out."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["P_bar_q"] = self.P_bar_q.tolist()
        return {k: v for k, v in out.items() if v is not None}


def certify(
    model: StateSpaceModel,
    tau: float,
    q: int = 40,
    N: int | None = None,
    mode: str = "robust",
) -> ConvergenceCertificate:
    """Certify convergence of the robust (or tau=1 risk-sensitive) filter.

    Runs q steps of the standard gain-form recursion (the filters'
    kernel) from B Bᵀ to get the floor P_bar_q that every robust
    trajectory dominates, computes the reweighting threshold phi_N of
    the N-block lifted system in closed form (``find_phi_N``), converts
    it through sigma_n = lambda_min(P_bar_q) into the risk bound
    theta_bar, and evaluates the budget c_max = gamma(P_bar_q, theta_bar, tau).
    Where theta_bar (1 − tau) sigma_1(P_bar_q) >= 1, c_max is inf: a
    robust filter's P_k dominates P_bar_q, so every theta it can solve
    lies below 1/((1 − tau) sigma_1(P_bar_q)) <= theta_bar, and every
    budget c > 0 is certified.

    Parameters
    ----------
    model : StateSpaceModel
        Normalized internally; must be reachable and observable.
    tau : float in [0, 1]
    q : int, default 40
        Riccati burn-in length; c_max is nondecreasing in q.
    N : int, optional
        Block length of the lifted system, default max(n, 50).
    mode : "robust" or "risk_sensitive"
        Risk-sensitive certification exists only at tau = 1.

    Raises
    ------
    RiskSensitiveModeUnsupported
        For mode="risk_sensitive" with tau < 1.
    DomainViolation
        If sigma_n * phi_N >= 1, where no admissible theta_bar exists, or
        B Bᵀ or the burn-in from it leaves the double range, or
        ``find_phi_N``'s J_N Omega_N⁻¹ J_Nᵀ does.
    NotSPD
        If P_bar_q is singular, or from ``build_downsampled``.
    """
    return _certify_each(model, (tau,), q, N, mode)[0]


def _certify_each(
    model: StateSpaceModel,
    taus,
    q: int = 40,
    N: int | None = None,
    mode: str = "robust",
) -> list:
    """``certify`` at each tau in taus, the tau-independent part computed once.

    That part is the model's basis: the normalization, the burn-in floor
    P_bar_q and sigma_n, the lifted system's tilde_phi_N and phi_N, and
    the check sigma_n * phi_N < 1; only theta_bar and c_max (or
    theta_max) depend on tau. Each certificate equals ``certify``'s at
    its tau bit for bit, and the same inputs raise the same errors.
    """
    taus = [check_tau(tau) for tau in taus]
    if mode not in ("robust", "risk_sensitive"):
        raise ConfigError(f"mode must be 'robust' or 'risk_sensitive', got {mode!r}")
    for tau in taus:
        if mode == "risk_sensitive" and tau != 1.0:
            raise RiskSensitiveModeUnsupported(
                f"risk-sensitive certification covers tau = 1 only, got tau = {tau}"
            )
    q = _integer(q, 1, "q must be a positive integer, got {value!r}")
    nm = normalize(model)
    if N is None:
        N = max(nm.n, 50)
    N = _integer(N, nm.n, f"N must be an integer >= n = {nm.n}, got {{value!r}}")

    with _linalg.overflow_as(DomainViolation, "burn-in from B Bᵀ leaves the double range"):
        noise = nm.noise_covariances()
        P_bar = _linalg.sym(nm.B @ nm.B.T)
        for _ in range(q):
            P_bar = _gain_and_prediction(nm, P_bar, noise)[1]
    spectrum = _linalg.eigvalsh_sym(P_bar)
    sigma_n = float(spectrum[0])
    if sigma_n <= 0.0:
        raise NotSPD(f"P_bar_q is singular after q={q} steps; increase q")

    ds = build_downsampled(nm, N)
    phi_N = find_phi_N(ds)
    x = sigma_n * phi_N
    if x >= 1.0:
        raise DomainViolation(
            f"sigma_n * phi_N = {x:.6e} >= 1; no admissible risk parameter exists"
        )
    certs = []
    for tau in taus:
        if tau < 1.0:
            theta_bar = -np.expm1((1.0 - tau) * np.log1p(-x)) / ((1.0 - tau) * sigma_n)
        else:
            theta_bar = -np.log1p(-x) / sigma_n
        if mode == "risk_sensitive":
            c_max = None
        elif theta_bar * (1.0 - tau) * spectrum[-1] >= 1.0:
            c_max = math.inf  # theta_bar is past gamma's domain (see certify)
        else:
            c_max = float(gamma(P_bar, theta_bar, tau))
        cert = ConvergenceCertificate(
            tau=tau,
            q=q,
            N=N,
            mode=mode,
            P_bar_q=P_bar,
            sigma_n=sigma_n,
            tilde_phi_N=float(ds.tilde_phi_N),
            phi_N=float(phi_N),
            theta_bar=float(theta_bar),
            c_max=c_max,
            theta_max=float(theta_bar) if mode == "risk_sensitive" else None,
        )
        log.info(
            "certified tau=%.3g mode=%s: phi_N=%.6e, theta_bar=%.6e, %s=%.6e",
            tau, mode, cert.phi_N, cert.theta_bar,
            "c_max" if mode == "robust" else "theta_max",
            cert.c_max if mode == "robust" else cert.theta_max,
        )
        certs.append(cert)
    return certs
