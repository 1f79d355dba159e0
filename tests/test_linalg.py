import numpy as np
import pytest
import scipy.linalg as sla

from robkf import DimensionMismatch, GaussianDensity, NotSPD, tau_divergence, thompson_metric
from robkf._linalg import cholesky_spd, is_spd, square


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
