import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from robkf import (
    DimensionMismatch,
    FilterConfig,
    GaussianDensity,
    NotSPD,
    iterate_to_fixed_point,
    run_filter,
    simulate,
    tau_divergence,
    thompson_metric,
)
from robkf._linalg import (
    cholesky_spd,
    eigh,
    eigvalsh_sym,
    is_spd,
    solve,
    solve_symmetric_spd,
    square,
)

from conftest import random_model


def test_non_finite_matrix_is_not_spd():
    M = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(NotSPD, match="M has non-finite entries"):
        cholesky_spd(M, "M")
    assert not is_spd(M)
    assert not is_spd(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_square_takes_nonempty_numeric_square_matrices():
    M = square([[1, 2], [3, 4]], "M", 2)
    assert M.dtype == float and M.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    for bad, n, message in [
        ("ab", None, "M must be a numeric array"),
        ([[1.0], [1.0, 2.0]], None, "M must be a numeric array"),
        (np.ones(2), None, "M must be a nonempty square matrix, got shape (2,)"),
        (np.ones((2, 3)), None, "M must be a nonempty square matrix, got shape (2, 3)"),
        (np.ones((3, 2, 2)), None, "M must be a nonempty square matrix, got shape (3, 2, 2)"),
        (np.zeros((0, 0)), None, "M must be a nonempty square matrix, got shape (0, 0)"),
        (np.zeros((0, 0)), 0, "M must be a nonempty square matrix, got shape (0, 0)"),
        (np.eye(3), 2, "M must have shape (2, 2), got (3, 3)"),
    ]:
        with pytest.raises(DimensionMismatch) as info:
            square(bad, "M", n)
        assert str(info.value).startswith(message)


def _pencil(rng, n, cond):
    """P with condition number cond, and Q = P^{1/2} W P^{1/2} for a random
    SPD W with eigenvalues in [0.3, 3], the generalized eigenvalues of (Q, P)."""
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.logspace(0.0, np.log10(cond), n)
    P, half = (U * w) @ U.T, (U * np.sqrt(w)) @ U.T
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Q = half @ ((V * rng.uniform(0.3, 3.0, n)) @ V.T) @ half
    return 0.5 * (P + P.T), 0.5 * (Q + Q.T)


@pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e10])
def test_whitening_matches_scipy_generalized_eigh(cond):
    # both sides whiten by a Cholesky factor of P, so each carries an error
    # of order eps * cond(P) in every eigenvalue ratio
    rtol = 1e-12 + 50 * np.finfo(float).eps * cond
    rng = np.random.default_rng(17)
    for n in (2, 3, 5, 8):
        for _ in range(5):
            P, Q = _pencil(rng, n, cond)
            lam = sla.eigh(Q, P, eigvals_only=True)
            d = np.max(np.abs(np.log(lam)))
            assert thompson_metric(P, Q) == pytest.approx(d, rel=rtol)
            f_tilde, f = GaussianDensity(np.zeros(n), Q), GaussianDensity(np.zeros(n), P)
            for tau, div in ((0.0, lam - 1 - np.log(lam)),
                             (0.5, 2 * (1 - np.sqrt(lam)) + 2 * (lam - np.sqrt(lam))),
                             (1.0, lam * np.log(lam) - lam + 1)):
                assert tau_divergence(f_tilde, f, tau) == pytest.approx(div.sum(), rel=rtol)


def test_density_near_the_largest_double():
    # sym halves before it adds, so entries above half the largest double
    # stay finite and construction raises and warns nothing
    density = GaussianDensity(np.zeros(2), 1e308 * np.eye(2))
    assert np.isfinite(density.cov).all() and np.array_equal(density.cov, 1e308 * np.eye(2))


def _spd_stack(rng, shape):
    """Seeded, exactly symmetric SPD matrices of the given (..., n, n) shape."""
    X = rng.normal(size=shape)
    M = X @ X.swapaxes(-1, -2) + 0.1 * np.eye(shape[-1])
    return 0.5 * (M + M.swapaxes(-1, -2))


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (6, 6), (5, 4, 4)], ids=str)
def test_lapack_seam_equals_numpy_linalg_bit_for_bit(shape):
    # the seam calls the LAPACK gufuncs behind numpy.linalg on the same arrays,
    # so it returns their results to the last bit, single and stacked
    rng = np.random.default_rng([23, *shape])
    M = _spd_stack(rng, shape)
    n = shape[-1]
    assert _same_bits(cholesky_spd(M), np.linalg.cholesky(M))
    for B in (rng.normal(size=shape[:-2] + (n, 3)), rng.normal(size=shape[:-2] + (n, n))):
        assert _same_bits(solve_symmetric_spd(M, B), np.linalg.solve(M, B))
    if len(shape) == 2:
        b = rng.normal(size=n)
        assert _same_bits(solve_symmetric_spd(M, b), np.linalg.solve(M, b))
        A = rng.normal(size=shape)
        assert _same_bits(solve(A, b), np.linalg.solve(A, b))
        assert _same_bits(solve(A, M), np.linalg.solve(A, M))
    (w, U), (want_w, want_U) = eigh(M), np.linalg.eigh(M)
    assert _same_bits(w, want_w) and _same_bits(U, want_U)
    assert _same_bits(eigvalsh_sym(M), np.linalg.eigvalsh(M))


def test_lapack_seam_failures_are_not_spd_without_warnings():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    # P⁻¹ + Cᵀ(DDᵀ)⁻¹C of test_information_form_singular_to_lu_is_not_spd (the
    # 1e-14 of P⁻¹ is lost in the sum): rounding lets it pass the Cholesky
    # check, but LU finds it singular
    lu_singular = 9999999999.999998 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSPD, match="^M is not symmetric positive definite$"):
            cholesky_spd(indefinite, "M")
        with pytest.raises(NotSPD, match="^M is not symmetric positive definite$"):
            solve_symmetric_spd(indefinite, np.eye(2), "M")
        assert not is_spd(indefinite)
        cholesky_spd(lu_singular)
        with pytest.raises(NotSPD, match="^M is numerically singular$"):
            solve_symmetric_spd(lu_singular, np.eye(2), "M")
        with pytest.raises(NotSPD, match="^L is numerically singular$"):
            solve(np.zeros((2, 2)), np.ones(2), "L")


def test_filter_stream_pass_makes_no_numpy_linalg_calls(example_model, monkeypatch):
    # the benchmark's filter_stream pass: five filter kinds over 1000 steps of
    # the example, a robust n = 4 filter at a tiny radius and two fixed points
    calls = []
    for name in ("cholesky", "solve", "eigh", "eigvalsh"):
        kernel = getattr(np.linalg, name)

        def spy(*args, _name=name, _kernel=kernel, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    rng = np.random.default_rng(2)
    y = simulate(example_model, 1000, 1).observations
    for config in (FilterConfig.standard(), FilterConfig.robust(0.0, 0.12),
                   FilterConfig.robust(0.5, 0.10), FilterConfig.robust(1.0, 0.086),
                   FilterConfig.risk_sensitive(1.0, 1.3e-3)):
        run_filter(example_model, config, y)
    small = random_model(rng, 4)
    run_filter(small, FilterConfig.robust(0.5, 1e-9), simulate(small, 1000, 1).observations)
    iterate_to_fixed_point(example_model, np.eye(2))
    iterate_to_fixed_point(example_model, np.eye(2), "robust", tau=0.5, c=0.10)
    assert calls == []
