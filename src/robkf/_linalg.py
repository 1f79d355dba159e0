"""Small dense linear-algebra helpers shared across modules.

Everything assumes modest dimensions (a few hundred at most); dense
factorizations throughout, no structured solvers.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as la

from robkf.errors import NotSPD

__all__ = [
    "sym",
    "cholesky_spd",
    "solve_spd",
    "inv_spd",
    "is_spd",
    "eigvalsh_sym",
    "eigh_sym",
    "spectral_radius",
    "thompson_distance",
    "truncated_sqrt",
    "rank_from_singular_values",
]


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetrize, suppressing floating-point asymmetry drift."""
    return 0.5 * (M + M.T)


def cholesky_spd(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of the symmetrized input, or NotSPD."""
    try:
        return la.cholesky(sym(M), lower=True)
    except la.LinAlgError as exc:
        raise NotSPD(f"{what} is not symmetric positive definite") from exc
    except ValueError as exc:  # scipy's finiteness check
        raise NotSPD(f"{what} has non-finite entries") from exc


def solve_spd(M: np.ndarray, B: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Solve M X = B for SPD M via Cholesky."""
    L = cholesky_spd(M, what)
    return la.cho_solve((L, True), B)


def inv_spd(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    return sym(solve_spd(M, np.eye(M.shape[0]), what))


def is_spd(M: np.ndarray) -> bool:
    try:
        la.cholesky(sym(M), lower=True)
    except (la.LinAlgError, ValueError):
        return False
    return bool(np.all(np.isfinite(M)))


def eigvalsh_sym(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized input."""
    return la.eigvalsh(sym(M))


def eigh_sym(M: np.ndarray):
    """Eigendecomposition (w ascending, U orthogonal) of the symmetrized input."""
    return la.eigh(sym(M))


def spectral_radius(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(la.eigvals(M))))


def truncated_sqrt(M: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Tall factor S with S Sᵀ ≈ M for PSD M, rank-truncated.

    Eigenvalues below ``rel_tol`` times the largest are dropped, so S has
    exactly the numerical rank of M as its column count (possibly zero).
    """
    w, U = eigh_sym(M)
    w = np.clip(w, 0.0, None)
    top = w[-1] if w.size else 0.0
    keep = w > rel_tol * top if top > 0.0 else np.zeros_like(w, dtype=bool)
    return U[:, keep] * np.sqrt(w[keep])


def thompson_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """Thompson part metric max |log lam| over generalized eigenvalues of (Q, P)."""
    cholesky_spd(P, "P")
    cholesky_spd(Q, "Q")
    lam = la.eigh(sym(Q), sym(P), eigvals_only=True)
    if lam[0] <= 0.0 or not np.all(np.isfinite(lam)):
        raise NotSPD("generalized eigenvalues left the positive cone")
    return float(np.max(np.abs(np.log(lam))))


def rank_from_singular_values(M: np.ndarray, rel_tol: float = 1e-10) -> int:
    """Numerical rank via SVD with a relative threshold."""
    if M.size == 0:
        return 0
    s = la.svdvals(M)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))
