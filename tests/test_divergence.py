import math

import numpy as np
import pytest

from robkf import (
    DimensionMismatch,
    DomainViolation,
    GaussianDensity,
    NonConvergence,
    NotOrdered,
    NotSPD,
    ToleranceUnreachable,
    gamma,
    phi_gap,
    phi_upper_bound,
    solve_theta,
    tau_divergence,
    v_update,
)

from robkf import divergence
from robkf.divergence import THETA_RTOL

from conftest import random_spd

TAUS = [0.0, 0.3, 0.5, 0.7, 1.0]


def test_gaussian_density_validation():
    g = GaussianDensity(mean=np.zeros(2), cov=np.eye(2))
    assert g.dim == 2
    with pytest.raises(NotSPD):
        GaussianDensity(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        GaussianDensity(mean=np.zeros(3), cov=np.eye(2))
    with pytest.raises(DomainViolation, match="mean has non-finite entries"):
        GaussianDensity(mean=[np.nan, 0.0], cov=np.eye(2))
    with pytest.raises(DomainViolation):
        GaussianDensity(mean=[np.inf, 0.0], cov=np.eye(2))


@pytest.mark.parametrize("tau", TAUS)
def test_divergence_of_identical_densities_is_zero(tau):
    rng = np.random.default_rng(1)
    g = GaussianDensity(mean=rng.normal(size=3), cov=random_spd(rng, 3))
    assert tau_divergence(g, g, tau) == pytest.approx(0.0, abs=1e-12)


def test_divergence_hand_values():
    f_tilde = GaussianDensity(mean=[0.0], cov=[[1.0]])
    f = GaussianDensity(mean=[0.0], cov=[[2.0]])
    # lam = 1/2 in every branch
    assert tau_divergence(f_tilde, f, 0.0) == pytest.approx(np.log(2) - 0.5, rel=1e-12)
    assert tau_divergence(f_tilde, f, 0.5) == pytest.approx(3.0 - 2.0 * np.sqrt(2), rel=1e-12)
    assert tau_divergence(f_tilde, f, 1.0) == pytest.approx(0.5 - 0.5 * np.log(2), rel=1e-12)


def test_divergence_near_equal_covariances():
    # lam = e^u with u small: for every tau the divergence expands as
    # sum_m (1 + tau + ... + tau^{m-2}) u^m / m!; the closed forms in lam
    # lose this to cancellation, worst near tau = 1
    for tau in (0.0, 0.5, 1 - 1e-10, 1.0):
        for u in (1e-3, -1e-3, 1e-4):
            want = sum(
                sum(tau**j for j in range(m - 1)) * u**m / math.factorial(m)
                for m in range(2, 6)
            )
            got = tau_divergence(GaussianDensity(mean=[0.0], cov=[[np.exp(u)]]),
                                 GaussianDensity(mean=[0.0], cov=[[1.0]]), tau)
            assert got == pytest.approx(want, rel=1e-10)


def test_divergence_mean_terms():
    f_tilde = GaussianDensity(mean=[1.0], cov=[[1.0]])
    f = GaussianDensity(mean=[0.0], cov=[[2.0]])
    # tau < 1 adds (1-tau)^-1 dm' K^-1 dm on top of the covariance part
    assert tau_divergence(f_tilde, f, 0.0) == pytest.approx(np.log(2), rel=1e-12)
    assert tau_divergence(f_tilde, f, 1.0) == np.inf
    same_cov = GaussianDensity(mean=[1.0], cov=[[2.0]])
    assert tau_divergence(same_cov, f, 1.0) == np.inf


@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("m_tilde,m", [([1e308, 0.0], [-1e308, 0.0]),
                                       ([-1e308, 0.0], [1e308, 0.0]),
                                       ([1e300, 0.0], [0.0, 0.0])])
def test_divergence_of_means_past_the_double_range_is_inf(m_tilde, m, tau):
    # the mean difference, or its squared norm, passes the largest double
    got = tau_divergence(GaussianDensity(mean=m_tilde, cov=np.eye(2)),
                         GaussianDensity(mean=m, cov=np.eye(2)), tau)
    assert got == np.inf


@pytest.mark.parametrize("tau, want", [(0.0, 1e4), (0.5, 2e4), (1.0, np.inf)])
def test_divergence_counts_a_mean_difference_at_any_scale(tau, want):
    # Δm = 1e-13 is 100 standard deviations of the 1e-30 I covariance:
    # (1 - tau)⁻¹ Δmᵀ K⁻¹ Δm = 1e4 / (1 - tau), and +inf at tau = 1
    got = tau_divergence(GaussianDensity(mean=[1e-13, 0.0], cov=1e-30 * np.eye(2)),
                         GaussianDensity(mean=np.zeros(2), cov=1e-30 * np.eye(2)), tau)
    assert got == pytest.approx(want, rel=1e-12)


def test_divergence_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        tau_divergence(GaussianDensity(mean=np.zeros(2), cov=np.eye(2)),
                       GaussianDensity(mean=np.zeros(3), cov=np.eye(3)), 0.5)


def test_divergence_matches_independent_kl():
    # tau = 0 against tr/logdet/quadratic KL coded from scratch (without
    # the 1/2; this family counts both discrimination directions)
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 5)
        K_t, K = random_spd(rng, n), random_spd(rng, n)
        m_t, m = rng.normal(size=n), rng.normal(size=n)
        dm = m - m_t
        ratio = np.linalg.solve(K, K_t)
        kl = (np.trace(ratio) - n - np.linalg.slogdet(ratio)[1]
              + dm @ np.linalg.solve(K, dm))
        got = tau_divergence(GaussianDensity(mean=m_t, cov=K_t),
                             GaussianDensity(mean=m, cov=K), 0.0)
        assert got == pytest.approx(kl, rel=1e-9)


@pytest.mark.parametrize("tau", TAUS)
def test_gamma_zero_theta(tau):
    rng = np.random.default_rng(2)
    assert gamma(random_spd(rng, 3), 0.0, tau) == 0.0


def test_gamma_hand_values():
    assert gamma(np.eye(1), 0.5, 0.0) == pytest.approx(1.0 - np.log(2), rel=1e-12)
    assert gamma(np.eye(1), np.log(2), 1.0) == pytest.approx(2 * (np.log(2) - 1) + 1, rel=1e-12)


def test_gamma_matches_divergence_of_reweighted_pair():
    # gamma must agree with the full divergence evaluated on
    # (N(0, v_update(P)), N(0, P)); independent code paths
    rng = np.random.default_rng(3)
    for tau in TAUS:
        P = random_spd(rng, 3)
        theta = 0.5 / ((1 - tau) * np.linalg.eigvalsh(P)[-1]) if tau < 1 else 0.3
        V = v_update(P, theta, tau)
        direct = gamma(P, theta, tau)
        via_divergence = tau_divergence(
            GaussianDensity(mean=np.zeros(3), cov=V),
            GaussianDensity(mean=np.zeros(3), cov=P), tau)
        assert direct == pytest.approx(via_divergence, rel=1e-9, abs=1e-12)


def _g_and_slope_mp(u, tau):
    """g(u) and g'(u) of the divergence in mpmath, from their closed forms
    at the working precision, which the callers set to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    u, e = mpmath.mpf(u), mpmath.exp
    if tau == 0.0:
        return e(u) - 1 - u, e(u) - 1
    if tau == 1.0:
        return u * e(u) - e(u) + 1, u * e(u)
    slope = (e(u) - e(tau * u)) / (1 - mpmath.mpf(tau))
    return slope - (e(tau * u) - 1) / tau, slope


GAMMA_REFERENCE_TAUS = [0.0, 1e-7, 0.5, 1 - 1e-7, 1.0]


@pytest.mark.parametrize("u_top", [1e-4, 0.49, 0.5 - 1e-6, 0.5 + 1e-6, 0.51, 2.0, 50.0])
@pytest.mark.parametrize("tau", GAMMA_REFERENCE_TAUS)
def test_gamma_and_slope_match_mpmath(tau, u_top):
    # theta puts the top u at u_top, either side of the series switch at
    # 0.5 among others, or as close to u_top as the domain allows. Below
    # tau = 1 the reference starts from the float x = theta (1-tau) w the
    # float pass forms: near the domain edge gamma is ill-conditioned in x.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng([15, GAMMA_REFERENCE_TAUS.index(tau), int(1e6 * u_top)])
    for n in (1, 2, 3, 5, 8, 12):
        d = np.sort(10.0 ** rng.uniform(-3.0, 0.0, n))
        if n in (3, 12):
            d[0] = 0.0
        d = d.tolist()
        if tau < 1.0:
            theta = -math.expm1(-(1.0 - tau) * u_top) / ((1.0 - tau) * d[-1])
            while theta * (1.0 - tau) * d[-1] >= 1.0:
                theta = math.nextafter(theta, 0.0)
        else:
            theta = u_top / d[-1]
        with mpmath.workdps(50):
            want = want_slope = 0
            for w in d:
                if tau < 1.0:
                    x = mpmath.mpf(theta * (1.0 - tau) * w)
                    u, du = -mpmath.log1p(-x) / (1 - mpmath.mpf(tau)), w / (1 - x)
                else:
                    u, du = mpmath.mpf(theta) * w, w
                g, slope = _g_and_slope_mp(u, tau)
                want, want_slope = want + g, want_slope + slope * du
            want, want_slope = float(want), float(want_slope)
        got, got_slope = divergence._gamma_and_slope(
            d, theta, tau, divergence._series_coefficients(tau))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), (n, d, theta)
        assert got_slope == pytest.approx(want_slope, rel=1e-13, abs=0.0), (n, d, theta)


def test_gamma_and_solve_theta_edge_outcomes():
    # pytest turns warnings into errors, so these also show that no
    # RuntimeWarning and no bare OverflowError leaves the float pass
    P = np.diag([1e-3, 2.0])
    for theta in (400.0, 1e300, np.inf):
        assert gamma(P, theta, 1.0) == np.inf
    assert gamma(1e300 * np.eye(2), 1.0, 1.0) == np.inf
    assert math.isfinite(gamma(P, (1 - 1e-16) / 2, 0.0))
    theta = solve_theta(P, 1e-320, 0.5)
    assert theta == pytest.approx(7.071027567424444e-161, rel=1e-12, abs=0.0)
    assert solve_theta(P, 1e308, 1.0) == pytest.approx(351.3213921110157, rel=1e-12, abs=0.0)
    with pytest.raises(ToleranceUnreachable):
        solve_theta(P, 1e308, 0.0)
    try:
        theta = solve_theta(P, 1e8, 0.0)
    except NonConvergence:
        pass
    else:
        assert abs(gamma(P, theta, 0.0) - 1e8) <= THETA_RTOL * 1e8
    huge = GaussianDensity(np.zeros(2), 1e300 * np.eye(2))
    tiny = GaussianDensity(np.zeros(2), 1e-300 * np.eye(2))
    for tau in (0.5, 1.0):
        assert tau_divergence(huge, tiny, tau) == np.inf


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_solve_theta_on_eigenvalues_whose_squares_underflow(tau):
    # the cold start divides by |d|, which must not underflow to zero
    for P in (1e-200 * np.eye(2), np.diag([1e-170, 1e-165])):
        theta = solve_theta(P, 0.1, tau)
        assert abs(gamma(P, theta, tau) - 0.1) <= THETA_RTOL * 0.1


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-200])
def test_divergence_of_a_covariance_ratio_beyond_the_double_range(scale, tau):
    # the ratio scale² of the two covariances is subnormal or below every
    # double; u = log of it stays exact
    mpmath = pytest.importorskip("mpmath")
    f_tilde = GaussianDensity(np.zeros(2), scale * np.eye(2))
    f = GaussianDensity(np.zeros(2), np.eye(2) / scale)
    with mpmath.workdps(50):
        u = mpmath.log(mpmath.mpf(f_tilde.cov[0, 0]) / mpmath.mpf(f.cov[0, 0]))
        want = float(2 * _g_and_slope_mp(u, tau)[0])
    assert tau_divergence(f_tilde, f, tau) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_divergence_of_a_ratio_out_of_range_after_rescaling():
    wide = GaussianDensity(np.zeros(2), np.diag([1e-200, 1e200]))
    # lam = 1e-40 and 1e360: u = log 1e360 ≈ 829 puts the sum past exp's range
    assert tau_divergence(wide, GaussianDensity(np.zeros(2), 1e-160 * np.eye(2)), 0.0) == math.inf
    # in range without rescaling: lam = 1e-200 and 1e200
    got = tau_divergence(wide, GaussianDensity(np.zeros(2), np.eye(2)), 0.0)
    assert got == pytest.approx(1e200, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_divergence_centres_a_ratio_whose_ends_leave_the_double_range_apart(tau):
    # lam = 1e-400 and 1e10: matching the largest variances of the two
    # scales 1e-300 out of the double range; centring the ratios keeps both
    mpmath = pytest.importorskip("mpmath")
    f_tilde = GaussianDensity(np.zeros(2), np.diag([1e-300, 1e110]))
    f = GaussianDensity(np.zeros(2), 1e100 * np.eye(2))
    with mpmath.workdps(50):
        want = float(sum(_g_and_slope_mp(mpmath.log(mpmath.mpf(q) / mpmath.mpf(1e100)), tau)[0]
                         for q in (1e-300, 1e110)))
    assert tau_divergence(f_tilde, f, tau) == pytest.approx(want, rel=1e-13, abs=0.0)
    # lam = 1e-500 and 1e410: the singular values 1e-227.5 and 1e227.5 of the
    # whitened factor hold both, and the 1e410 term overflows g
    wide = GaussianDensity(np.zeros(2), np.diag([1e200, 1e-300]))
    assert tau_divergence(f_tilde, wide, tau) == math.inf


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_divergence_of_a_rotated_pencil_whose_diagonal_ratios_miss_its_extremes(tau):
    # R diag(1e-200, 1e200) Rᵀ for the rotation by 0.85 rad, as rounded: its
    # exact eigenvalues are 1.96e183 and 1e200, so against 1e-160 I lam ≈ 2e343
    # and 1e360 while both Q_ii/P_ii are near 1e359.6. Eigenvalues of the
    # whitened Q lose the small lam to 0; the singular values of L_P⁻¹ L_Q keep
    # it positive, and both terms overflow g
    q11, q12, q22 = (float.fromhex(x) for x in (
        "0x1.7988e7296786cp+663", "-0x1.4ba7ea06bd25dp+663", "0x1.235a33d184c48p+663"))
    f_tilde = GaussianDensity(np.zeros(2), np.array([[q11, q12], [q12, q22]]))
    f = GaussianDensity(np.zeros(2), 1e-160 * np.eye(2))
    assert tau_divergence(f_tilde, f, tau) == math.inf


def test_gamma_domain_violation():
    with pytest.raises(DomainViolation):
        gamma(np.eye(1), 1.0, 0.0)  # theta * sigma1 = 1 is outside
    with pytest.raises(DomainViolation):
        gamma(np.eye(2), -0.1, 0.5)
    with pytest.raises(DomainViolation):
        gamma(np.eye(2), 0.1, 1.5)


def test_gamma_tau_one_overflow_is_inf():
    assert gamma(np.eye(1), 1000.0, 1.0) == np.inf


def test_gamma_monotone_in_theta_and_p():
    rng = np.random.default_rng(4)
    for tau in TAUS:
        P = random_spd(rng, 3)
        cap = 1.0 / ((1 - tau) * np.linalg.eigvalsh(P)[-1]) if tau < 1 else 2.0
        thetas = np.sort(rng.uniform(0.05, 0.95, size=4)) * cap
        vals = [gamma(P, t, tau) for t in thetas]
        assert all(b > a + 1e-12 for a, b in zip(vals, vals[1:]))
        # Loewner-larger P gives a larger radius at fixed admissible theta
        F = rng.normal(size=(3, 3))
        Q = P + F @ F.T
        theta = (0.5 / ((1 - tau) * np.linalg.eigvalsh(Q)[-1])) if tau < 1 else 0.3
        assert gamma(Q, theta, tau) >= gamma(P, theta, tau) - 1e-12


def test_gamma_tau_continuity_at_endpoints():
    rng = np.random.default_rng(5)
    P = random_spd(rng, 3)
    theta = 0.3 / np.linalg.eigvalsh(P)[-1]
    assert gamma(P, theta, 1e-7) == pytest.approx(gamma(P, theta, 0.0), abs=1e-6)
    assert gamma(P, theta, 1 - 1e-7) == pytest.approx(gamma(P, theta, 1.0), abs=1e-6)


@pytest.mark.parametrize("tau", TAUS)
def test_solve_theta_round_trip(tau):
    rng = np.random.default_rng(6)
    for _ in range(5):
        P = random_spd(rng, 3)
        cap = 1.0 / ((1 - tau) * np.linalg.eigvalsh(P)[-1]) if tau < 1 else 1.0
        theta0 = rng.uniform(0.1, 0.9) * cap
        c = gamma(P, theta0, tau)
        theta = solve_theta(P, c, tau)
        assert theta == pytest.approx(theta0, rel=1e-8)
        assert gamma(P, theta, tau) == pytest.approx(c, abs=1e-10 * max(1.0, c))


def test_solve_theta_hand_value():
    assert solve_theta(np.eye(1), 1.0 - np.log(2), 0.0) == pytest.approx(0.5, rel=1e-9)


def test_solve_theta_small_c_limit():
    # The radius is met relative to c at every scale, also where an
    # absolute residual would accept theta = 0; and theta follows the
    # leading term gamma ~ theta² |d|²/2 of the small-theta expansion.
    P = np.diag([1.0, 3.0])
    norm_d = np.sqrt(10.0)
    for tau in (0.0, 0.5, 1 - 1e-7, 1.0):
        prev = np.inf
        for c in 10.0 ** -np.arange(2, 19):
            theta = solve_theta(P, c, tau)
            assert 0 < theta < prev
            assert abs(gamma(P, theta, tau) / c - 1.0) <= 1e-10
            prev = theta
        assert prev * norm_d / np.sqrt(2e-18) == pytest.approx(1.0, abs=1e-8)


def test_gamma_series_matches_divergence_of_reweighted_pair():
    # theta small enough that every u = log eig(P⁻¹V) is below 0.5, so
    # gamma is summed from its series; the other side reaches the same
    # u through v_update and the generalized eigenvalues of (V, P)
    rng = np.random.default_rng(14)
    for tau in TAUS:
        P = random_spd(rng, 3)
        for scale in (0.01, 0.1, 0.35):
            theta = scale / np.linalg.eigvalsh(P)[-1]
            via_divergence = tau_divergence(
                GaussianDensity(mean=np.zeros(3), cov=v_update(P, theta, tau)),
                GaussianDensity(mean=np.zeros(3), cov=P), tau)
            assert gamma(P, theta, tau) == pytest.approx(via_divergence, rel=1e-9)


def test_solve_theta_unreachable_radius():
    with pytest.raises(ToleranceUnreachable):
        solve_theta(np.eye(1), 1e300, 0.0)
    with pytest.raises(ToleranceUnreachable):
        solve_theta(np.eye(2), np.inf, 1.0)


def test_solve_theta_rejects_bad_c():
    with pytest.raises(DomainViolation):
        solve_theta(np.eye(2), 0.0, 0.5)
    with pytest.raises(DomainViolation):
        solve_theta(np.eye(2), -1.0, 0.5)


def test_solve_theta_rejects_a_zero_covariance():
    with pytest.raises(NotSPD, match="numerically zero"):
        solve_theta(np.zeros((2, 2)), 1.0, 0.5)


def test_solve_theta_tau_one_large_radius():
    theta = solve_theta(np.eye(2), 1e4, 1.0)
    assert gamma(np.eye(2), theta, 1.0) == pytest.approx(1e4, rel=1e-10)


@pytest.mark.parametrize("tau", TAUS)
def test_v_update_zero_theta_is_identity_map(tau):
    rng = np.random.default_rng(8)
    P = random_spd(rng, 3)
    np.testing.assert_allclose(v_update(P, 0.0, tau), P, atol=1e-14)


def test_v_update_hand_values():
    assert v_update(np.eye(1), 0.5, 0.0)[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert v_update(np.eye(1), np.log(2), 1.0)[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_v_update_tau0_closed_form():
    # tau = 0 reduces to V = (P^-1 - theta I)^-1
    rng = np.random.default_rng(9)
    P = random_spd(rng, 3)
    theta = 0.4 / np.linalg.eigvalsh(P)[-1]
    want = np.linalg.inv(np.linalg.inv(P) - theta * np.eye(3))
    np.testing.assert_allclose(v_update(P, theta, 0.0), want, rtol=1e-10)


@pytest.mark.parametrize("tau", TAUS)
def test_v_update_dominates_strictly(tau):
    rng = np.random.default_rng(10)
    P = random_spd(rng, 4)
    theta = 0.5 / ((1 - tau) * np.linalg.eigvalsh(P)[-1]) if tau < 1 else 0.2
    V = v_update(P, theta, tau)
    assert np.min(np.linalg.eigvalsh(V - P)) > 0


def test_v_update_factor_invariance():
    # same map evaluated through an eigendecomposition factor instead of
    # the Cholesky factor used in production
    rng = np.random.default_rng(11)
    for tau in TAUS:
        P = random_spd(rng, 3)
        theta = 0.5 / ((1 - tau) * np.linalg.eigvalsh(P)[-1]) if tau < 1 else 0.3
        w, U = np.linalg.eigh((P + P.T) / 2)
        L = U * np.sqrt(w)
        wm, Um = np.linalg.eigh(L.T @ L)
        if tau == 1.0:
            f = np.exp(theta * wm)
        else:
            f = (1.0 - theta * (1.0 - tau) * wm) ** (1.0 / (tau - 1.0))
        want = L @ (Um * f) @ Um.T @ L.T
        np.testing.assert_allclose(v_update(P, theta, tau), want, atol=1e-10)


def test_v_update_domain_violation():
    with pytest.raises(DomainViolation):
        v_update(np.eye(2), 2.5, 0.5)  # theta (1-tau) sigma1 = 1.25
    with pytest.raises(DomainViolation):
        v_update(np.eye(2), 1e4, 1.0)  # exp overflow


_NAN_ENTRY = np.array([[1.0, np.nan], [np.nan, 1.0]])


@pytest.mark.parametrize("function,args,error", [
    (solve_theta, (np.eye(2), 0.1, "half"), DomainViolation),
    (solve_theta, (np.eye(2), 0.1, np.nan), DomainViolation),
    (solve_theta, (np.eye(2), "small", 0.5), DomainViolation),
    (solve_theta, (np.eye(2), np.nan, 0.5), DomainViolation),
    (solve_theta, (np.ones((2, 3)), 0.1, 0.5), DimensionMismatch),
    (solve_theta, (_NAN_ENTRY, 0.1, 0.5), NotSPD),
    (gamma, (np.eye(2), np.nan, 0.5), DomainViolation),
    (gamma, (np.eye(2), "x", 0.5), DomainViolation),
    (gamma, (np.eye(2), 0.1, None), DomainViolation),
    (gamma, (np.ones((2, 3)), 0.1, 0.5), DimensionMismatch),
    (gamma, (np.array([[np.inf, 0.0], [0.0, 1.0]]), 0.1, 0.5), NotSPD),
    (v_update, (np.eye(2), np.nan, 0.5), DomainViolation),
    (v_update, (np.eye(2), "x", 1.0), DomainViolation),
    (v_update, (np.eye(2), 0.1, "half"), DomainViolation),
    (v_update, (_NAN_ENTRY, 0.1, 0.5), NotSPD),
    (v_update, (np.ones((2, 3)), 0.1, 0.5), DimensionMismatch),
    (phi_upper_bound, (np.nan, 0.5, 1.0), DomainViolation),
    (phi_upper_bound, (0.1, "half", 1.0), DomainViolation),
    (phi_upper_bound, (0.1, 0.5, np.nan), DomainViolation),
    (phi_gap, (np.ones(2), np.ones(2)), DimensionMismatch),
    (phi_gap, (np.ones((2, 3)), np.ones((2, 3))), DimensionMismatch),
    (phi_gap, (np.eye(2), np.eye(3)), DimensionMismatch),
    (phi_gap, ("ab", np.eye(2)), DimensionMismatch),
    (gamma, ("ab", 0.1, 0.5), DimensionMismatch),
    (v_update, ("ab", 0.1, 0.5), DimensionMismatch),
    (GaussianDensity, (np.zeros(2), "ab"), DimensionMismatch),
    (GaussianDensity, ("ab", np.eye(2)), DimensionMismatch),
    (GaussianDensity, (np.zeros(0), np.zeros((0, 0))), DimensionMismatch),
], ids=lambda v: getattr(v, "__name__", None))
def test_divergence_inputs_raise_typed_errors(function, args, error):
    with pytest.raises(error):
        function(*args)


def test_phi_gap_values():
    P = np.eye(2)
    np.testing.assert_allclose(phi_gap(P, P), np.zeros((2, 2)), atol=1e-14)
    assert phi_gap(np.eye(1), 2 * np.eye(1))[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_phi_gap_positive_definite_for_reweighted_pairs():
    rng = np.random.default_rng(12)
    for tau in TAUS:
        P = random_spd(rng, 3)
        theta = 0.6 / ((1 - tau) * np.linalg.eigvalsh(P)[-1]) if tau < 1 else 0.25
        Phi = phi_gap(P, v_update(P, theta, tau))
        assert np.min(np.linalg.eigvalsh(Phi)) > 0


def test_phi_gap_not_ordered():
    with pytest.raises(NotOrdered):
        phi_gap(np.eye(2), 0.5 * np.eye(2))


def test_phi_upper_bound_values():
    for d_bar in (0.2, 1.0, 7.0):
        assert phi_upper_bound(0.3, 0.0, d_bar) == pytest.approx(0.3, rel=1e-12)
    assert phi_upper_bound(1.0, 1.0, 1.0) == pytest.approx(1 - np.exp(-1), rel=1e-12)
    assert phi_upper_bound(1e-12, 0.5, 2.0) < 1e-10
    assert phi_upper_bound(0.0, 0.5, 2.0) == 0.0
    with pytest.raises(DomainViolation):
        phi_upper_bound(1.0, 0.5, 2.0)
    with pytest.raises(DomainViolation, match="d_bar must be positive"):
        phi_upper_bound(0.1, 0.5, 0.0)


@pytest.mark.parametrize("tau", TAUS)
def test_phi_gap_eigenvalues_below_upper_bound(tau):
    rng = np.random.default_rng(13)
    for _ in range(10):
        P = random_spd(rng, 3)
        d = np.linalg.eigvalsh(P)
        theta = rng.uniform(0.1, 0.9) / ((1 - tau) * d[-1]) if tau < 1 else rng.uniform(0.05, 0.5)
        Phi = phi_gap(P, v_update(P, theta, tau))
        bound = phi_upper_bound(theta, tau, d[0])  # P >= sigma_n(P) I
        assert np.max(np.linalg.eigvalsh(Phi)) <= bound + 1e-10
