"""Small dense linear-algebra helpers shared across modules, and the one
module of the package that calls LAPACK.

Everything assumes modest dimensions (a few hundred at most); dense
factorizations throughout, no structured solvers.

The Cholesky factorizations, solves and symmetric eigendecompositions go
straight to numpy's own LAPACK gufuncs (``cholesky_lo``, ``solve``/``solve1``,
``eigh_lo``, ``eigvalsh_lo``), the kernels ``numpy.linalg`` calls, so every
result is numpy.linalg's bit for bit. What is skipped is the wrapper around
them: on the 2-6 wide matrices of a filter step it costs 3-5 µs per call
(array conversion, the square check, dtype resolution, result wrapping)
against about 1 µs for the kernel (one CPU of a shared 2-CPU x86-64 box,
Python 3.11, numpy 2.4). Each call runs under the floating-point
flags numpy.linalg sets, except that a failed factorization, which the
kernel signals by the invalid flag, raises FloatingPointError, not
numpy.linalg's LinAlgError; the seam maps it to NotSPD (a Cholesky that
fails, a solve that LU finds singular) or NumericError (an
eigendecomposition that does not converge). SVD, general eigenvalues and
norms stay on ``numpy.linalg``: numpy renamed its SVD gufuncs between 1.x
and 2.x.

``overflow_as`` is the package's one rule for a number past the double
range: inside its block numpy's overflow and invalid flags raise, and the
FloatingPointError becomes the caller's typed error, whose message names
what left the range and ends with numpy's in parentheses. Every public
call that can leave the range enters it once, around its whole
computation, never per step of a loop. The LAPACK helpers nest inside it
safely: their own flags last only for the gufunc call, which clears every
flag when it succeeds and sets invalid when it fails, so an LU solve that
overflows to inf raises nothing and a failed factorization still maps as
above.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from robkf.errors import DimensionMismatch, DomainViolation, NotSPD, NumericError

__all__ = [
    "overflow_as",
    "numeric",
    "square",
    "sym",
    "finite",
    "psd_spectrum",
    "cholesky_spd",
    "solve_symmetric_spd",
    "solve",
    "inv_spd",
    "is_spd",
    "eigvalsh_sym",
    "eigh",
    "spectral_radius",
    "log_eigenvalues",
    "thompson_distance",
    "truncated_sqrt",
    "krylov_rank",
]


# An eigenvalue below −PSD_RTOL·max(1, |λ_max|) makes a matrix indefinite.
PSD_RTOL = 1e-10
# Singular values at or below RANK_REL_TOL·σ_max do not count towards a rank
# (``krylov_rank``).
RANK_REL_TOL = 1e-10
# The smallest normal double; below it a singular value has lost precision.
_TINY = float(np.finfo(float).tiny)


class overflow_as(np.errstate):
    """``with overflow_as(error, message):`` raises numpy's overflow and
    invalid flags inside its block and turns the FloatingPointError into
    ``error(f"{message} ({numpy's message})")`` from it. message is a string,
    or a zero-argument callable called only then, so a loop can name the
    step it reached. A subclass of np.errstate, the cheapest guard to
    enter."""

    def __init__(self, error: type, message):
        super().__init__(over="raise", invalid="raise")
        self.error, self.message = error, message

    def __exit__(self, kind, exc, tb):
        super().__exit__(kind, exc, tb)
        if isinstance(exc, FloatingPointError):
            text = self.message if isinstance(self.message, str) else self.message()
            raise self.error(f"{text} ({exc})") from exc


def numeric(x, what: str) -> np.ndarray:
    """x as a float array; DimensionMismatch naming ``what`` unless x
    converts (a string or a ragged list does not)."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"{what} must be a numeric array ({exc})") from exc


def square(M, what: str, n: int | None = None) -> np.ndarray:
    """M as a float array; DimensionMismatch naming ``what`` unless M is a
    numeric, nonempty, square 2-D array, and n×n when n is given."""
    M = numeric(M, what)
    if n is not None and M.shape != (n, n):
        raise DimensionMismatch(f"{what} must have shape ({n}, {n}), got {M.shape}")
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise DimensionMismatch(f"{what} must be a nonempty square matrix, got shape {M.shape}")
    return M


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetrize a matrix, or each matrix of a stack, suppressing
    floating-point asymmetry drift. Halving before the sum keeps entries
    near the largest double finite; the halves are a second temporary,
    which numpy cannot fold into the sum as it folded the halving."""
    h = 0.5 * M
    return h + h.swapaxes(-1, -2)


def finite(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    """M, or NotSPD if it has a non-finite entry."""
    if not np.isfinite(M).all():
        raise NotSPD(f"{what} has non-finite entries")
    return M


def _lapack_flags() -> np.errstate:
    """numpy.linalg's floating-point flags around a LAPACK gufunc, with the
    invalid flag, by which the gufunc reports a failed factorization, raised
    as FloatingPointError."""
    return np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")


def _cholesky(M: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of the exactly symmetric, finite M (or of each
    matrix of a stack), or NotSPD; called under ``_lapack_flags``."""
    try:
        return _lapack.cholesky_lo(M, signature="d->d")
    except FloatingPointError as exc:
        raise NotSPD(f"{what} is not symmetric positive definite") from exc


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A⁻¹ B by LU, the gufunc numpy.linalg.solve picks for a vector or a
    matrix B; called under ``_lapack_flags``."""
    if B.ndim == 1:
        return _lapack.solve1(A, B, signature="dd->d")
    return _lapack.solve(A, B, signature="dd->d")


def cholesky_spd(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of the symmetrized input, or NotSPD."""
    M = finite(sym(M), what)
    with _lapack_flags():
        return _cholesky(M, what)


def solve_symmetric_spd(M: np.ndarray, B: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Solve M X = B for the exactly symmetric SPD M, or NotSPD; M and B may
    be stacks of matrices.

    Cholesky checks M, then one LU solve (numpy has no triangular solve,
    and one general solve beats two on the factor), both under one entry
    of the floating-point flags (see the module docstring): this is the
    innovation solve of every filter step. An M that is not finite or
    fails the Cholesky check raises NotSPD, and so does one that passes
    it but that LU still finds singular.
    """
    finite(M, what)
    with _lapack_flags():
        _cholesky(M, what)
        try:
            return _solve(M, B)
        except FloatingPointError as exc:
            raise NotSPD(f"{what} is numerically singular") from exc


def solve(A: np.ndarray, B: np.ndarray, what: str = "matrix") -> np.ndarray:
    """A⁻¹ B by LU for a square A and a vector or matrix B, as
    numpy.linalg.solve, or NotSPD if LU finds A singular. Its callers' A
    are Cholesky factors, which are singular where the factored matrix
    is, or map the error to their own."""
    with _lapack_flags():
        try:
            return _solve(A, B)
        except FloatingPointError as exc:
            raise NotSPD(f"{what} is numerically singular") from exc


def inv_spd(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    return sym(solve_symmetric_spd(sym(M), np.eye(M.shape[0]), what))


def is_spd(M: np.ndarray) -> bool:
    try:
        cholesky_spd(M)
    except NotSPD:
        return False
    return True


def eigvalsh_sym(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized input; NumericError if LAPACK
    does not converge."""
    with _lapack_flags():
        try:
            return _lapack.eigvalsh_lo(sym(M), signature="d->d")
        except FloatingPointError as exc:
            raise NumericError("symmetric eigenvalues did not converge") from exc


def eigh(M: np.ndarray):
    """Eigendecomposition (w ascending, U orthogonal) of the exactly symmetric
    M, from its lower triangle; NumericError if LAPACK does not converge."""
    with _lapack_flags():
        try:
            return _lapack.eigh_lo(M, signature="d->dd")
        except FloatingPointError as exc:
            raise NumericError("symmetric eigendecomposition did not converge") from exc


def psd_spectrum(M: np.ndarray, what: str, eig=eigvalsh_sym) -> np.ndarray:
    """Ascending eigenvalues eig(M) of the finite M; NotSPD if the lowest lies
    below −PSD_RTOL·max(1, |λ_max|)."""
    w = eig(finite(M, what))
    if w[0] < -PSD_RTOL * max(1.0, abs(w[-1])):
        raise NotSPD(f"{what} is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    return w


def spectral_radius(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def truncated_sqrt(M: np.ndarray) -> np.ndarray:
    """Tall factor S with S Sᵀ ≈ M for PSD M, rank-truncated.

    Eigenvalues at or below 1e-12 times the largest are dropped, so S has
    exactly the numerical rank of M as its column count (possibly zero).
    """
    w, U = eigh(sym(M))
    w = np.clip(w, 0.0, None)
    keep = w > 1e-12 * (w[-1] if w.size else 0.0)
    return U[:, keep] * np.sqrt(w[keep])


def log_eigenvalues(P: np.ndarray, Q: np.ndarray) -> list[float]:
    """log of the generalized eigenvalues lam of the SPD pencil (Q, P), as
    floats, from the singular values s of L_P⁻¹ L_Q (L_P, L_Q the Cholesky
    factors): lam = s², so no factor is squared and the lam may span twice the
    double range. The factors are first scaled apart exactly by powers of two,
    which divides every lam by 2^(2h), 2h centring the ratios Q_ii/P_ii (which
    lie between the extreme lam); log 2^(2h) is added back. NotSPD naming P or
    Q unless both are SPD; DomainViolation where an s is not a normal double."""
    eq, ep = np.frexp(np.diag(Q))[1], np.frexp(np.diag(P))[1]
    h = int((eq - ep).max() + (eq - ep).min()) // 4
    L_P = np.ldexp(cholesky_spd(P, "P"), h - h // 2)
    L_Q = np.ldexp(cholesky_spd(Q, "Q"), -(h // 2))
    s = np.linalg.svd(solve(L_P, L_Q, "P"), compute_uv=False).tolist()
    if not _TINY <= s[-1] <= s[0] < math.inf:
        raise DomainViolation("the covariance ratio spans more than twice the double range")
    return [2.0 * (h * math.log(2.0) + math.log(x)) for x in s]


def thompson_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """Thompson part metric max |log lam| over the generalized eigenvalues of
    (Q, P), from ``log_eigenvalues``."""
    return max(map(abs, log_eigenvalues(P, Q)))


def krylov_rank(A: np.ndarray, X: np.ndarray, N: int) -> int:
    """Numerical rank of [X̂_0, ..., X̂_{N-1}], X̂_0 = X/max|X| and X̂_{k+1} =
    A X̂_k/max|A X̂_k| (a zero block stays zero): the count of its singular
    values above RANK_REL_TOL·σ_max. Every block has largest entry 1, so
    scaling A or X leaves the rank unchanged. A is first scaled by a power
    of two, which changes no block short of underflow and keeps A X̂_k finite."""
    A = A * math.ldexp(1.0, -math.frexp(abs(A).max())[1])
    blocks = []
    for _ in range(N):
        top = abs(X).max(initial=0.0)
        blocks.append(X / top if top > 0.0 else X)
        X = A @ blocks[-1]
    s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.count_nonzero(s > RANK_REL_TOL * s.max(initial=0.0)))
