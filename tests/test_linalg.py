import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from robkf import (
    DimensionMismatch,
    DomainViolation,
    FilterConfig,
    GaussianDensity,
    MaxIterExceeded,
    ModelError,
    NotSPD,
    StateSpaceModel,
    certify,
    gain,
    iterate_to_fixed_point,
    normalize,
    predict_covariance,
    risk_sensitive_map,
    risk_sensitive_step,
    robust_step,
    run_filter,
    simulate,
    standard_riccati,
    tau_divergence,
    thompson_metric,
    v_update,
)
from robkf._linalg import (
    cholesky_spd,
    eigh,
    eigvalsh_sym,
    is_spd,
    overflow_as,
    solve,
    solve_symmetric_spd,
    square,
)

from conftest import example_matrices, random_model


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


def test_overflow_as_raises_the_callers_error_with_numpys_message():
    built = []

    def message():
        built.append(1)
        return "x leaves the double range"

    with overflow_as(DomainViolation, message):
        np.array([1e300]) * 10.0
    assert built == []  # built only when the guard fires
    with pytest.raises(DomainViolation) as info:
        with overflow_as(DomainViolation, message):
            np.array([1e300]) * 1e300
    assert str(info.value) == "x leaves the double range (overflow encountered in multiply)"
    assert isinstance(info.value.__cause__, FloatingPointError) and built == [1]
    with pytest.raises(NotSPD, match=r"^lifted \(invalid value encountered in subtract\)$"):
        with overflow_as(NotSPD, "lifted"):
            np.array([np.inf]) - np.inf
    with pytest.raises(ZeroDivisionError):  # other errors pass through as they are
        with overflow_as(DomainViolation, message):
            1 / 0
    # the LAPACK helpers nest inside: a failed Cholesky still maps to NotSPD,
    # and an LU solve that overflows to inf raises nothing
    with overflow_as(DomainViolation, message):
        with pytest.raises(NotSPD, match="is not symmetric positive definite"):
            cholesky_spd(np.diag([1.0, -1.0]))
        x = solve(np.diag([1e-300, 1.0]), np.array([1e300, 1.0]))
    assert x.tolist() == [np.inf, 1.0] and len(built) == 1


def _example(a=1.0, b=1.0, c=1.0, d=1.0):
    """The README example with A, B, C and D scaled."""
    A, B, C, D = example_matrices()
    return StateSpaceModel(A=a * A, B=b * B, C=c * C, D=d * D, x0_mean=np.zeros(2),
                           V0=np.eye(2))


def _correlated(b, d=1.0):
    """The README A and C with the correlated noise B = b·[[1, 1], [0, 1]], D = d·[[1, 1]]."""
    A, _, C, _ = example_matrices()
    return StateSpaceModel(A=A, B=b * np.array([[1.0, 1.0], [0.0, 1.0]]), C=C,
                           D=[[d, d]], x0_mean=np.zeros(2), V0=np.eye(2))


# With A scaled by 1e160, A P Aᵀ passes the largest double at P = I; with B by
# 1e160, B Bᵀ; with C by 1e-160, phi_N's J_N Omega_N⁻¹ J_Nᵀ; with D by 1e160, D Dᵀ;
# with the correlated B by 1e200, normalize's B Bᵀ; with it by 1e307 and D by
# 100, B Dᵀ, which the information-form maps test too.
_PAST_THE_RANGE = {
    "gain": (lambda: gain(_example(a=1e160), np.eye(2)),
             DomainViolation, "gain-form step at V"),
    "predict_covariance": (lambda: predict_covariance(_example(a=1e160), np.eye(2)),
                           DomainViolation, "gain-form step at V"),
    "standard_riccati": (lambda: standard_riccati(_example(a=1e160), np.eye(2)),
                         DomainViolation, "Riccati map of P"),
    "risk_sensitive_map": (lambda: risk_sensitive_map(_example(a=1e160), np.eye(2),
                                                      1e-3 * np.eye(2)),
                           DomainViolation, "risk-sensitive map of P"),
    "robust_step": (lambda: robust_step(_example(a=1e160), np.eye(2), 0.1, 0.5),
                    DomainViolation, "the step from P"),
    "risk_sensitive_step": (lambda: risk_sensitive_step(_example(a=1e160), np.eye(2), 1e-3, 1.0),
                            DomainViolation, "the step from P"),
    "v_update_weights": (lambda: v_update(1e300 * np.eye(2), 1e-300, 0.0),
                         DomainViolation, r"P f\(P\)"),
    "v_update_domain": (lambda: v_update(1e20 * np.eye(2), 1e300, 0.5),
                        DomainViolation, r"P f\(P\)"),
    "v_update_exp": (lambda: v_update(np.eye(2), 1e3, 1.0), DomainViolation, r"P f\(P\)"),
    "certify_burn_in": (lambda: certify(_example(b=1e160), 0.5),
                        DomainViolation, "burn-in from B Bᵀ"),
    "certify_phi_N": (lambda: certify(_example(c=1e-160), 0.5),
                      DomainViolation, "J_N Omega_N⁻¹ J_Nᵀ"),
    "model_DDt": (lambda: _example(d=1e160), ModelError, "D Dᵀ"),
    "normalize": (lambda: normalize(_correlated(1e200)),
                  DomainViolation, "normalized process noise B̃ B̃ᵀ or Ã"),
    "normalize_BDt": (lambda: normalize(_correlated(1e307, 100.0)), DomainViolation, "B Dᵀ"),
    "standard_riccati_BDt": (lambda: standard_riccati(_correlated(1e307, 100.0), np.eye(2)),
                             DomainViolation, "B Dᵀ"),
}


@pytest.mark.parametrize("name", sorted(_PAST_THE_RANGE))
def test_past_the_double_range_raises_a_typed_error_without_a_warning(name):
    # the suite turns every warning into an error, so a numpy RuntimeWarning
    # before the error fails this test
    call, error, what = _PAST_THE_RANGE[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error  # D Dᵀ overflowed: it is not a SingularDD
    assert re.fullmatch(rf"{what} leaves the double range \(overflow encountered in \w+\)",
                        str(info.value))


def test_fixed_point_report_past_the_double_range_has_no_nan():
    # C scaled by 1e-300 leaves the growing mode unobserved: P_k grows past 1e160,
    # so the report's Frobenius norms square past the largest double
    with pytest.raises(MaxIterExceeded) as info:
        iterate_to_fixed_point(_example(c=1e-300), 1e160 * np.eye(2), max_iter=50)
    report = info.value.report
    assert np.abs(report.P_star).max() > 1e160
    for value in (report.final_step_distance, report.spectral_radius_closed_loop,
                  report.identity_residual):
        assert not np.isnan(value)
    assert 0.0 <= report.identity_residual <= 1e-12
