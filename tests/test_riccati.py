import numpy as np
import pytest

from robkf import (
    ConfigError,
    DomainViolation,
    MaxIterExceeded,
    ModelError,
    StateSpaceModel,
    gain,
    gamma,
    iterate_to_fixed_point,
    normalize,
    phi_gap,
    predict_covariance,
    risk_sensitive_map,
    risk_sensitive_step,
    robust_step,
    solve_theta,
    standard_riccati,
    thompson_metric,
    v_update,
)

from conftest import random_spd


def scalar_model(a=1.0, b=1.0, c=1.0, d=1.0):
    return normalize(StateSpaceModel(
        A=[[a]], B=[[b, 0.0]], C=[[c]], D=[[0.0, d]],
        x0_mean=np.zeros(1), V0=np.eye(1)))


def test_standard_riccati_constant_map_when_a_zero(example_normalized):
    m = example_normalized
    model = StateSpaceModel(A=np.zeros((2, 2)), B=m.B, C=m.C, D=m.D,
                            x0_mean=np.zeros(2), V0=np.eye(2))
    rng = np.random.default_rng(0)
    for _ in range(3):
        P = random_spd(rng, 2)
        np.testing.assert_allclose(standard_riccati(model, P), m.B @ m.B.T, atol=1e-14)


def test_standard_riccati_scalar_hand_value():
    model = scalar_model()
    assert standard_riccati(model, np.eye(1))[0, 0] == pytest.approx(1.5, rel=1e-12)


def test_standard_riccati_example_burn_in(example_normalized):
    P = example_normalized.B @ example_normalized.B.T
    for _ in range(40):
        P = standard_riccati(example_normalized, P)
    target = 1e2 * np.array([[1.2568, 1.3641], [1.3641, 1.5025]])
    np.testing.assert_allclose(P, target, rtol=5e-4)


def test_standard_riccati_accepts_singular_psd():
    # rank-deficient noise: start from the singular B Bᵀ itself
    model = normalize(StateSpaceModel(
        A=[[0.5, 0.1], [0.4, 0.7]], B=[[1.0, 0.0], [0.0, 0.0]],
        C=[[1.0, 1.0]], D=[[0.0, 1.0]],
        x0_mean=np.zeros(2), V0=np.eye(2)))
    P0 = model.B @ model.B.T
    out = standard_riccati(model, P0)
    # measurement-space form as the cross-check
    S = model.C @ P0 @ model.C.T + model.D @ model.D.T
    upd = P0 - P0 @ model.C.T @ np.linalg.solve(S, model.C @ P0)
    want = model.A @ upd @ model.A.T + model.B @ model.B.T
    np.testing.assert_allclose(out, want, atol=1e-12)
    assert np.all(np.isfinite(out))


def test_gain_zero_observation_matrix():
    # C = 0 leaves only the noise cross term
    model = StateSpaceModel(A=np.eye(2) * 0.5, B=np.eye(2), C=np.zeros((1, 2)),
                            D=[[0.0, 1.0]], x0_mean=np.zeros(2), V0=np.eye(2))
    G = gain(model, np.eye(2))
    BDt = model.B @ model.D.T
    DDt = model.D @ model.D.T
    np.testing.assert_allclose(G, BDt @ np.linalg.inv(DDt), atol=1e-14)


def test_gain_scalar_hand_value():
    model = scalar_model()
    assert gain(model, np.eye(1))[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_predict_covariance_matches_information_form(make_model):
    rng = np.random.default_rng(21)
    for _ in range(5):
        model = normalize(make_model(rng, n=3, p=2))
        V = random_spd(rng, 3)
        np.testing.assert_allclose(
            predict_covariance(model, V), standard_riccati(model, V), atol=1e-9)


def test_predict_covariance_correlated_noise(make_model):
    rng = np.random.default_rng(22)
    model = make_model(rng, n=2, p=1, correlated=True)
    V = random_spd(rng, 2)
    G = gain(model, V)
    S = model.C @ V @ model.C.T + model.D @ model.D.T
    want = model.A @ V @ model.A.T - G @ S @ G.T + model.B @ model.B.T
    np.testing.assert_allclose(predict_covariance(model, V), want, atol=1e-12)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_robust_step_invariants(example_normalized, tau):
    rng = np.random.default_rng(23)
    P = random_spd(rng, 2, scale=2.0)
    c = 0.05
    step = robust_step(example_normalized, P, c, tau)

    assert np.min(np.linalg.eigvalsh(step.V - step.P_next)) > 0
    assert gamma(step.P_next, step.theta, tau) == pytest.approx(c, abs=1e-9)
    inv_diff = np.linalg.inv(step.P_next) - np.linalg.inv(step.V)
    np.testing.assert_allclose(step.Phi, (inv_diff + inv_diff.T) / 2, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(step.Phi)) > 0

    # dual route: the step must equal its definition assembled by hand
    theta_in = solve_theta(P, c, tau)
    V_in = v_update(P, theta_in, tau)
    np.testing.assert_allclose(step.G, gain(example_normalized, V_in), atol=1e-12)
    np.testing.assert_allclose(step.P_next, predict_covariance(example_normalized, V_in),
                               atol=1e-10)


def test_robust_step_degenerates_to_standard(example_normalized):
    P = 2.0 * np.eye(2)
    step = robust_step(example_normalized, P, 1e-12, 0.5)
    base = standard_riccati(example_normalized, P)
    assert thompson_metric(step.P_next, base) < 1e-5


def test_robust_step_requires_normalized_noise(make_model):
    rng = np.random.default_rng(24)
    model = make_model(rng, n=2, p=1, correlated=True)
    with pytest.raises(ModelError, match="normalize"):
        robust_step(model, np.eye(2), 0.1, 0.5)


def test_robust_step_equals_phi_form_at_tau_zero(example_normalized):
    P = np.array([[2.0, 0.3], [0.3, 1.5]])
    c = 0.08
    step = robust_step(example_normalized, P, c, 0.0)
    V_in = v_update(P, solve_theta(P, c, 0.0), 0.0)
    via_phi = risk_sensitive_map(example_normalized, P, phi_gap(P, V_in))
    np.testing.assert_allclose(step.P_next, via_phi, atol=1e-10)


def test_robust_trajectory_stabilizes(example_normalized):
    # tau = 0.5, c = 0.101: the top-left prediction variance settles fast
    V = np.eye(2)
    p11 = []
    for _ in range(100):
        P = predict_covariance(example_normalized, V)
        V = v_update(P, solve_theta(P, 0.101, 0.5), 0.5)
        p11.append(P[0, 0])
    final = p11[-1]
    assert all(abs(v - final) / final < 1e-3 for v in p11[25:])


def test_risk_sensitive_map_zero_phi(example_normalized):
    P = np.array([[1.5, 0.2], [0.2, 1.1]])
    np.testing.assert_allclose(
        risk_sensitive_map(example_normalized, P, np.zeros((2, 2))),
        standard_riccati(example_normalized, P), atol=1e-12)


def test_risk_sensitive_map_phi_too_large(example_normalized):
    with pytest.raises(DomainViolation):
        risk_sensitive_map(example_normalized, np.eye(2), 10.0 * np.eye(2))


def test_risk_sensitive_step_tau_one_unrestricted(example_normalized):
    rng = np.random.default_rng(25)
    P = random_spd(rng, 2, scale=3.0)
    step = risk_sensitive_step(example_normalized, P, 0.4, 1.0)
    assert np.min(np.linalg.eigvalsh(step.V - step.P_next)) > 0
    assert step.theta == 0.4


def test_risk_sensitive_step_domain_checks(example_normalized):
    theta = 0.8
    P = (2.0 / theta) * np.eye(2)  # sigma1(P)(1-tau)theta = 1 at tau = 0.5
    with pytest.raises(DomainViolation):
        risk_sensitive_step(example_normalized, P, theta, 0.5)
    with pytest.raises(DomainViolation):
        risk_sensitive_step(example_normalized, np.eye(2), 0.0, 1.0)
    with pytest.raises(DomainViolation):
        risk_sensitive_step(example_normalized, np.eye(2), -0.5, 1.0)


def test_standard_fixed_point_matches_burn_in(example_normalized):
    report = iterate_to_fixed_point(example_normalized, np.eye(2), "standard", tol=1e-12)
    P = example_normalized.B @ example_normalized.B.T
    for _ in range(500):
        P = standard_riccati(example_normalized, P)
    assert thompson_metric(report.P_star, P) < 1e-8
    assert report.final_step_distance <= 1e-12
    assert report.spectral_radius_closed_loop < 1
    assert report.theta_star is None
    np.testing.assert_allclose(report.V_star, report.P_star, atol=1e-12)


def test_robust_fixed_point_converges_quickly(example_normalized):
    report = iterate_to_fixed_point(
        example_normalized, np.eye(2), "robust", tau=0.0, c=0.122, tol=1e-9)
    assert report.iterations <= 60
    assert report.spectral_radius_closed_loop < 1
    assert report.theta_star > 0
    assert gamma(report.P_star, report.theta_star, 0.0) == pytest.approx(0.122, abs=1e-9)
    assert report.identity_residual >= 0 and np.isfinite(report.identity_residual)


def test_fixed_point_unique_across_starts(example_normalized):
    kw = dict(tau=0.5, c=0.1, tol=1e-10)
    r1 = iterate_to_fixed_point(example_normalized, np.eye(2), "robust", **kw)
    r2 = iterate_to_fixed_point(example_normalized, 10 * np.eye(2), "robust", **kw)
    assert thompson_metric(r1.P_star, r2.P_star) <= 1e-7


def test_risk_sensitive_matches_robust_at_its_theta(example_normalized):
    robust = iterate_to_fixed_point(
        example_normalized, np.eye(2), "robust", tau=1.0, c=0.05, tol=1e-12)
    rs = iterate_to_fixed_point(
        example_normalized, np.eye(2), "risk_sensitive",
        tau=1.0, theta=robust.theta_star, tol=1e-12)
    assert thompson_metric(rs.P_star, robust.P_star) <= 1e-8


def test_max_iter_exceeded_carries_report(example_normalized):
    with pytest.raises(MaxIterExceeded) as err:
        iterate_to_fixed_point(example_normalized, np.eye(2), "standard",
                               tol=1e-15, max_iter=3)
    report = err.value.report
    assert report.iterations == 3
    assert report.P_star.shape == (2, 2)


@pytest.mark.parametrize("kwargs", [
    dict(stepper="nonsense"),
    dict(stepper="robust", tau=0.5),
    dict(stepper="robust", c=0.1),
    dict(stepper="risk_sensitive", tau=1.0),
    dict(stepper="risk_sensitive", theta=0.1),
    dict(stepper="standard", tau=0.0),
    dict(stepper="standard", c=0.1),
    dict(stepper="robust", tau=0.5, c=0.1, tol=0.0),
    dict(stepper="risk_sensitive", tau=1.0, theta=0.0),
    dict(stepper="robust", tau=1.5, c=0.1),
    dict(stepper="robust", tau=0.5, c=np.inf),
])
def test_fixed_point_config_errors(example_normalized, kwargs):
    stepper = kwargs.pop("stepper")
    with pytest.raises(ConfigError):
        iterate_to_fixed_point(example_normalized, np.eye(2), stepper, **kwargs)


def test_monotone_standard_sequence(example_normalized):
    # from B Bᵀ the standard iterates are nondecreasing
    P = example_normalized.B @ example_normalized.B.T
    for _ in range(30):
        P_next = standard_riccati(example_normalized, P)
        assert np.min(np.linalg.eigvalsh(P_next - P)) >= -1e-10
        P = P_next
