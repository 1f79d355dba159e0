"""Correctness checks for the benchmark, computed apart from robkf.

Everything here is plain numpy written from the method's definitions:
its own noise normalization, gain-form Kalman predictor, reweighting by
eigendecomposition, tau-divergence, and lifted-system closed form for
phi_N. Nothing imports robkf. Each check raises ``CheckFailed`` with a
message naming what disagreed and by how much.

Models are any object with attributes A, B, C, D, x0_mean and V0.
"""
from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps

# Relative tolerances. Each sits well above the rounding of the two
# computations it compares (about 1e-14 on these models) and well below
# the smallest perturbation the benchmark's tests apply (1e-6).
RTOL_MATRIX = 1e-9
RTOL_RADIUS = 1e-8
# find_phi_N documents a relative bisection tolerance of 1e-6.
PHI_SEARCH_RTOL = 1e-6
# Thompson distance a fixed point may keep from one more predictor step
# (the iteration stops at a step of 1e-9), and from step 1000 of a run.
FIXED_POINT_STEP = 1e-8
FIXED_POINT_RUN = 1e-6
# Acceptance goldens of the README example (criterion 1), within 2%.
EXAMPLE_C_MAX = {0.0: 0.122, 0.5: 0.101, 1.0: 0.0862}
GOLDEN_RTOL = 0.02


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel(a, b, scale=None) -> float:
    scale = np.linalg.norm(b) if scale is None else scale
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(scale, 1e-300))


def _sym(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


# ----- the model ------------------------------------------------------------

def noise_covariances(m):
    return m.B @ m.B.T, m.B @ m.D.T, m.D @ m.D.T


def normalized(m):
    """(A, Sigma, C, R) of the model with its noises decoupled.

    A_t = A - B Dᵀ R⁻¹ C and Sigma = B Bᵀ - B Dᵀ R⁻¹ D Bᵀ with R = D Dᵀ;
    the pass-through when B Dᵀ = 0 needs no special case.
    """
    BBt, BDt, R = noise_covariances(m)
    K = BDt @ np.linalg.inv(R)
    return m.A - K @ m.C, _sym(BBt - K @ BDt.T), m.C, R


def predictor(m, V):
    """Gain-form one-step predictor, batched over leading axes of V.

    G = (A V Cᵀ + B Dᵀ)(C V Cᵀ + D Dᵀ)⁻¹ and P = A V Aᵀ - G S Gᵀ + B Bᵀ.
    Returns (P, G, scale) where scale bounds the size of the terms that
    cancel, for relative comparisons.
    """
    BBt, BDt, R = noise_covariances(m)
    AV = m.A @ V
    S = m.C @ V @ m.C.T + R
    K = AV @ m.C.T + BDt
    G = np.swapaxes(np.linalg.solve(S, np.swapaxes(K, -1, -2)), -1, -2)
    AVA = AV @ m.A.T
    P = _sym(AVA - G @ S @ np.swapaxes(G, -1, -2) + BBt)
    scale = np.linalg.norm(AVA, axis=(-2, -1)) + np.linalg.norm(BBt)
    return P, G, scale


def thompson(P, Q) -> float:
    """max |log lam| over the eigenvalues of P^{-1/2} Q P^{-1/2}."""
    L = np.linalg.cholesky(P)
    X = np.linalg.solve(L, np.linalg.solve(L, Q).T)
    lam = np.linalg.eigvalsh(_sym(X))
    return float(np.max(np.abs(np.log(lam))))


# ----- the tau-divergence and the reweighting -------------------------------

def log_ratio(w, theta, tau):
    """u = log f(w): log of the eigenvalues of P⁻¹ V for P's eigenvalues w.

    f(w) = (1 - theta (1-tau) w)^{1/(tau-1)} for tau < 1, exp(theta w)
    at tau = 1.
    """
    w = np.asarray(w, dtype=float)
    if tau < 1.0:
        x = theta * (1.0 - tau) * w
        if np.any(x >= 1.0):
            raise CheckFailed(f"theta={theta!r} leaves the reweighting domain")
        return -np.log1p(-x) / (1.0 - tau)
    return theta * w


def divergence_terms(u, tau):
    """g_tau(e^u) per entry: the covariance part of the divergence.

    lam - 1 - log lam (tau = 0), (1 - lam^tau)/tau + (lam - lam^tau)/(1 - tau)
    (0 < tau < 1), lam log lam - lam + 1 (tau = 1), with lam = e^u. Near
    lam = 1 these cancel, so for |u| < 0.1 the power series
    sum_{m>=2} (1 + tau + ... + tau^{m-2}) u^m / m! is summed instead
    (30 terms, exact to rounding).
    """
    u = np.asarray(u, dtype=float)
    if tau == 0.0:
        g = np.expm1(u) - u
    elif tau == 1.0:
        g = u * np.exp(u) - np.expm1(u)
    else:
        g = -np.expm1(tau * u) / tau + np.exp(tau * u) * np.expm1((1 - tau) * u) / (1 - tau)
    small = np.abs(u) < 0.1
    if np.any(small):
        us = u[small]
        series = np.zeros_like(us)
        coef, power, fact = 1.0, us * us, 2.0
        for m in range(2, 32):
            series += coef * power / fact
            coef = coef * tau + 1.0
            power = power * us
            fact *= m + 1
        g = np.where(small, 0.0, g)
        g[small] = series
    return g


def radius(w, theta, tau):
    """Divergence between N(0, V) and N(0, P) for V reweighted from P with
    eigenvalues w on the last axis, batched over theta's shape."""
    theta = np.expand_dims(np.asarray(theta, dtype=float), -1)
    return np.sum(divergence_terms(log_ratio(w, theta, tau), tau), axis=-1)


def reweight(P, theta, tau):
    """V = U diag(w f(w)) Uᵀ from eigh(P), batched."""
    w, U = np.linalg.eigh(P)
    theta = np.expand_dims(np.asarray(theta, dtype=float), -1)
    wf = w * np.exp(log_ratio(w, theta, tau))
    return _sym((U * wf[..., None, :]) @ np.swapaxes(U, -1, -2))


# ----- certificates ----------------------------------------------------------

def lifted_closed_form(A, Sigma, C, R, N):
    """(tilde_phi_N, phi_N, cond(Omega_N)) from the N-block lifted system.

    Built from the normalized (A, B̃B̃ᵀ = Sigma, C, D Dᵀ = R): with La and
    Ha the strictly upper block Toeplitz matrices of A^{k-1} and C A^{k-1},
    S = I_N ⊗ Sigma and G = I_N ⊗ R + Ha S Haᵀ,

        Omega_N = O_Nᵀ G⁻¹ O_N,  J_N = O_N^R - La S Haᵀ G⁻¹ O_N,
        T = La (S - S Haᵀ G⁻¹ Ha S) Laᵀ.

    Then tilde_phi_N = 1/lam_max(T) and, by the Schur complement of the
    lifted Omega(phi), phi_N = 1/lam_max(T + J_N Omega_N⁻¹ J_Nᵀ).
    """
    n, p = A.shape[0], C.shape[0]
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(A @ powers[-1])
    O = np.vstack([C @ powers[N - 1 - i] for i in range(N)])
    OR = np.vstack([powers[N - 1 - i] for i in range(N)])
    La = np.zeros((N * n, N * n))
    Ha = np.zeros((N * p, N * n))
    for i in range(N):
        for j in range(i + 1, N):
            La[i * n:(i + 1) * n, j * n:(j + 1) * n] = powers[j - i - 1]
            Ha[i * p:(i + 1) * p, j * n:(j + 1) * n] = C @ powers[j - i - 1]
    S = np.kron(np.eye(N), Sigma)
    HS = Ha @ S
    G = np.kron(np.eye(N), R) + HS @ Ha.T
    GiO = np.linalg.solve(G, O)
    Omega = _sym(O.T @ GiO)
    J = OR - La @ HS.T @ GiO
    T = _sym(La @ (S - HS.T @ np.linalg.solve(G, HS)) @ La.T)
    tilde = 1.0 / np.linalg.eigvalsh(T)[-1]
    phi = 1.0 / np.linalg.eigvalsh(_sym(T + J @ np.linalg.solve(Omega, J.T)))[-1]
    return float(tilde), float(phi), float(np.linalg.cond(Omega))


def phi_bounds(phi_closed: float, cond_omega: float):
    """Interval phi_N must lie in: below the closed form, within the search
    tolerance, widened by a rounding allowance eps * cond(Omega_N)."""
    slack = EPS * cond_omega
    return phi_closed * (1.0 - PHI_SEARCH_RTOL - slack), phi_closed * (1.0 + slack)


def theta_bar_formula(sigma_n: float, phi_N: float, tau: float) -> float:
    """(1 - (1 - x)^{1-tau}) / ((1-tau) sigma_n) with x = sigma_n phi_N,
    -log(1 - x) / sigma_n at tau = 1; written without cancellation."""
    x = sigma_n * phi_N
    if tau < 1.0:
        return -math.expm1((1.0 - tau) * math.log1p(-x)) / ((1.0 - tau) * sigma_n)
    return -math.log1p(-x) / sigma_n


def check_certificate(m, cert: dict, tau: float, mode: str, label: str, q=40, N=None):
    """Check one certificate (as ``ConvergenceCertificate.as_dict()``)."""
    A, Sigma, C, R = normalized(m)
    n = A.shape[0]
    N = max(n, 50) if N is None else N
    expect(cert["q"] == q and cert["N"] == N and cert["tau"] == tau and cert["mode"] == mode,
           f"{label}: certificate echoes q={cert['q']}, N={cert['N']}, "
           f"tau={cert['tau']}, mode={cert['mode']}")

    P = Sigma.copy()
    for _ in range(q):
        S = C @ P @ C.T + R
        APC = A @ P @ C.T
        P = _sym(A @ P @ A.T - APC @ np.linalg.solve(S, APC.T) + Sigma)
    P_bar = np.asarray(cert["P_bar_q"], dtype=float)
    gap = _rel(P_bar, P)
    expect(gap <= RTOL_MATRIX, f"{label}: P_bar_q is {gap:.3e} from {q} Riccati steps")

    w = np.linalg.eigvalsh(_sym(P_bar))
    expect(abs(cert["sigma_n"] - w[0]) <= 64 * EPS * w[-1],
           f"{label}: sigma_n {cert['sigma_n']!r} != lam_min(P_bar_q) {w[0]!r}")

    tilde, phi, cond = lifted_closed_form(A, Sigma, C, R, N)
    slack = EPS * cond
    expect(abs(cert["tilde_phi_N"] - tilde) <= (1e-9 + slack) * tilde,
           f"{label}: tilde_phi_N {cert['tilde_phi_N']!r} != 1/lam_max(T) {tilde!r}")
    lo, hi = phi_bounds(phi, cond)
    expect(lo <= cert["phi_N"] <= hi,
           f"{label}: phi_N {cert['phi_N']!r} outside [{lo!r}, {hi!r}] around the "
           f"closed form {phi!r} (cond(Omega_N) = {cond:.2e})")

    theta_bar = theta_bar_formula(cert["sigma_n"], cert["phi_N"], tau)
    expect(abs(cert["theta_bar"] - theta_bar) <= 1e-12 * theta_bar,
           f"{label}: theta_bar {cert['theta_bar']!r} != formula {theta_bar!r}")
    if mode == "robust":
        c = float(radius(w, cert["theta_bar"], tau))
        expect(abs(cert["c_max"] - c) <= RTOL_RADIUS * c,
               f"{label}: c_max {cert['c_max']!r} != sum g(f(w)) {c!r}")
    else:
        expect(cert["theta_max"] == cert["theta_bar"],
               f"{label}: theta_max {cert['theta_max']!r} != theta_bar")


def check_example_golden(cert: dict, tau: float, label: str):
    want = EXAMPLE_C_MAX[tau]
    expect(abs(cert["c_max"] - want) <= GOLDEN_RTOL * want,
           f"{label}: c_max {cert['c_max']!r} is not within 2% of the golden {want}")


# ----- filter runs -----------------------------------------------------------

def kalman_predictor(m, y):
    """Plain one-step Kalman predictor from V0: (estimates, P_seq)."""
    T = y.shape[0]
    x = np.array(m.x0_mean, dtype=float)
    V = np.array(m.V0, dtype=float)
    estimates = [x]
    P_seq = []
    for k in range(T):
        P, G, _ = predictor(m, V)
        x = m.A @ x + G @ (y[k] - m.C @ x)
        estimates.append(x)
        P_seq.append(P)
        V = P
    return np.array(estimates), np.array(P_seq)


def _close_rows(a, b, scale, what, label):
    err = np.linalg.norm((np.asarray(a) - np.asarray(b)).reshape(len(a), -1), axis=1) / scale
    k = int(np.argmax(err))
    expect(err[k] <= RTOL_MATRIX, f"{label}: {what} off by {err[k]:.3e} (relative) at row {k}")


def check_trajectory(m, kind, y, estimates, P_seq, V_seq, theta_seq, label,
                     tau=None, c=None, theta=None):
    """Check one filter run: estimates (T+1, n), P_seq (T, n, n),
    V_seq (T+1, n, n), theta_seq (T,), for observations y (T, p)."""
    T = y.shape[0]
    expect(estimates.shape[0] == T + 1 and len(P_seq) == T and len(V_seq) == T + 1
           and len(theta_seq) == T, f"{label}: trajectory lengths do not match T = {T}")
    expect(np.array_equal(V_seq[0], m.V0) and np.array_equal(estimates[0], m.x0_mean),
           f"{label}: the run does not start from (x0_mean, V0)")
    x_scale = 1.0 + float(np.max(np.abs(estimates)))
    if kind == "standard":
        x_ref, P_ref = kalman_predictor(m, y)
        _close_rows(P_seq, P_ref, np.linalg.norm(P_ref, axis=(1, 2)), "P_k", label)
        _close_rows(estimates, x_ref, x_scale, "xhat_k", label)
        expect(np.array_equal(V_seq[1:], P_seq) and not np.any(theta_seq),
               f"{label}: standard filter reweights (V_k != P_k or theta_k != 0)")
        return

    P_next, G, scale = predictor(m, V_seq[:-1])
    _close_rows(P_seq, P_next, scale, "P_{k+1} against the predictor of V_k", label)
    x = np.array(m.x0_mean, dtype=float)
    x_ref = [x]
    for k in range(T):
        x = m.A @ x + G[k] @ (y[k] - m.C @ x)
        x_ref.append(x)
    _close_rows(estimates, np.array(x_ref), x_scale, "xhat_k", label)

    if kind == "robust":
        expect(np.all(theta_seq > 0.0), f"{label}: a robust theta_k is not positive")
        w = np.linalg.eigvalsh(P_seq)
        err = np.abs(radius(w, theta_seq, tau) - c) / c
        k = int(np.argmax(err))
        expect(err[k] <= RTOL_RADIUS,
               f"{label}: theta_k misses the radius c = {c!r} by {err[k]:.3e} (relative) at k = {k}")
        V_ref = reweight(P_seq, theta_seq, tau)
    else:
        expect(np.all(theta_seq == theta), f"{label}: risk-sensitive theta_k != {theta!r}")
        V_ref = reweight(P_seq, theta, tau)
    _close_rows(V_seq[1:], V_ref, np.linalg.norm(V_ref, axis=(1, 2)),
                "V_k against U diag(w f(w)) Uᵀ", label)


def check_fixed_point(m, kind, P_star, V_star, theta_star, P_last, label, tau=None, c=None):
    """P* = predictor(reweight(P*)), and P* agrees with the last P of a run."""
    if kind == "standard":
        expect(np.array_equal(V_star, P_star) and theta_star is None,
               f"{label}: standard fixed point reweights")
    else:
        w = np.linalg.eigvalsh(P_star)
        err = float(abs(radius(w, theta_star, tau) - c)) / c
        expect(err <= RTOL_RADIUS, f"{label}: theta* misses the radius by {err:.3e}")
        gap = _rel(V_star, reweight(P_star, theta_star, tau))
        expect(gap <= RTOL_MATRIX, f"{label}: V* is {gap:.3e} from reweight(P*)")
    step = thompson(P_star, predictor(m, V_star)[0])
    expect(step <= FIXED_POINT_STEP, f"{label}: d_T(P*, predictor(V*)) = {step:.3e}")
    far = thompson(P_star, P_last)
    expect(far <= FIXED_POINT_RUN, f"{label}: d_T(P*, P_1000 of the run) = {far:.3e}")


# ----- command-line output ---------------------------------------------------

def check_exact(text_values, values, label):
    """Each printed number is the library's double in shortest round-trip
    form (integers as integers), so it parses back to exactly that double."""
    values = [float(v) for v in values]
    expect(len(text_values) == len(values),
           f"{label}: {len(text_values)} printed numbers, {len(values)} expected")
    for i, (s, v) in enumerate(zip(text_values, values)):
        exact = float(s) == v and (s == repr(v) or (v.is_integer() and s == str(int(v))))
        expect(exact, f"{label}: field {i} reads {s!r}, the library gives {v!r}")


def parse_csv(text: str):
    """(header, rows of strings) of a CSV with no quoting."""
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def trajectory_columns(header, rows, prefix, n):
    """estimates[1:], P_seq, V_seq[1:], theta_seq from a run or compare CSV."""
    col = {name: i for i, name in enumerate(header)}
    data = np.array([[float(v) for v in r] for r in rows])
    iu = np.triu_indices(n)

    def matrices(name):
        names = [f"{prefix}{name}_{i + 1}{j + 1}" for i, j in zip(*iu)]
        M = np.zeros((len(rows), n, n))
        M[:, iu[0], iu[1]] = data[:, [col[c] for c in names]]
        M[:, iu[1], iu[0]] = M[:, iu[0], iu[1]]
        return M

    x = data[:, [col[f"{prefix}xhat_{i}"] for i in range(1, n + 1)]]
    return x, matrices("P"), matrices("V"), data[:, col[f"{prefix}theta"]]


def simulate(m, steps: int, rng):
    """Observations by the CLI's documented draw: x0 = x0_mean + chol(V0) z,
    then v_k by standard_normal each step, all from ``rng``."""
    x = m.x0_mean + np.linalg.cholesky(m.V0) @ rng.standard_normal(m.A.shape[0])
    y = np.empty((steps, m.C.shape[0]))
    for k in range(steps):
        v = rng.standard_normal(m.B.shape[1])
        y[k] = m.C @ x + m.D @ v
        x = m.A @ x + m.B @ v
    return y
