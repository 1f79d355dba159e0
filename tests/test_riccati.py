import logging

import numpy as np
import pytest
import scipy.linalg as la

from robkf import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    FilterConfig,
    MaxIterExceeded,
    ModelError,
    NotSPD,
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
    run_filter,
    solve_theta,
    standard_riccati,
    thompson_metric,
    v_update,
)

from conftest import example_matrices, precise_sensor_jordan_model, random_spd


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


def test_single_steps_and_fixed_points_take_correlated_models(make_model):
    # the gain form holds for B Dᵀ ≠ 0, so a correlated model steps as given
    # and lands where its normalized model does
    worst = 0.0
    for seed in range(24):
        rng = np.random.default_rng(seed)
        model = make_model(rng, n=2 + seed % 4, p=1, correlated=True)
        nm = normalize(model)
        P = random_spd(rng, model.n)
        runs = []
        for tau in (0.0, 0.5, 1.0):
            runs.append((robust_step, (P, 0.05, tau)))
            runs.append((risk_sensitive_step, (P, 0.02 / np.linalg.eigvalsh(P)[-1], tau)))
        for step, args in runs:
            got, want = step(model, *args), step(nm, *args)
            worst = max(worst, thompson_metric(got.P_next, want.P_next),
                        thompson_metric(got.V, want.V))
            assert got.theta == pytest.approx(want.theta, rel=1e-9)
        for kw in ({}, {"stepper": "robust", "tau": 0.5, "c": 0.05}):
            got = iterate_to_fixed_point(model, model.V0, tol=1e-10, **kw)
            want = iterate_to_fixed_point(nm, nm.V0, tol=1e-10, **kw)
            worst = max(worst, thompson_metric(got.P_star, want.P_star),
                        thompson_metric(got.V_star, want.V_star))
            assert got.identity_residual <= 1e-8
    assert worst <= 1e-12


def test_information_form_maps_need_uncorrelated_noise(make_model):
    model = make_model(np.random.default_rng(24), n=2, p=1, correlated=True)
    with pytest.raises(ModelError, match="normalize"):
        standard_riccati(model, np.eye(2))
    with pytest.raises(ModelError, match="normalize"):
        risk_sensitive_map(model, np.eye(2), np.zeros((2, 2)))


def test_information_form_maps_reject_a_small_cross_term(make_model):
    # with (B, D) scaled by 1e-7, max |B Dᵀ| is 2.8e-14: still correlated noise,
    # whose information form would be a different map from the gain form's
    model = make_model(np.random.default_rng(3), n=3, p=1, correlated=True)
    small = StateSpaceModel(A=model.A, B=1e-7 * model.B, C=model.C, D=1e-7 * model.D,
                            x0_mean=model.x0_mean, V0=1e-14 * model.V0)
    with pytest.raises(ModelError, match=r"max \|B Dᵀ\| = 2\.797e-14"):
        standard_riccati(small, 1e-14 * np.eye(3))
    with pytest.raises(ModelError, match="normalize"):
        risk_sensitive_map(small, 1e-14 * np.eye(3), np.zeros((3, 3)))


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


def test_identity_residual_reads_the_step_that_produced_p_star(make_model):
    # P_star comes from the (G, V) before the last step, not from V_star
    model = make_model(np.random.default_rng(2), 4, 1, True)
    report = iterate_to_fixed_point(model, np.eye(4), tol=1e-10)
    assert report.identity_residual <= 1e-14
    np.testing.assert_array_equal(report.G_star, gain(model, report.V_star))


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


@pytest.mark.parametrize("tau, c", [(0.5, 1e7), (0.0, 1e6)])
def test_fixed_point_stops_once_a_cycle_above_tol_repeats(tau, c):
    # (V, theta) repeats exactly from about iteration 17, with step distances
    # of 1e-10 to 1e-8, so tol 1e-11 is never met; the iteration stops once the
    # cycle has closed instead of running to max_iter
    with pytest.raises(MaxIterExceeded, match="a cycle of period") as err:
        iterate_to_fixed_point(precise_sensor_jordan_model(), np.eye(3), "robust",
                               tau=tau, c=c, tol=1e-11, max_iter=20000)
    report = err.value.report
    assert report.cycle is not None
    assert report.iterations == sum(report.cycle) + 1 <= 100
    assert report.final_step_distance > 1e-11


def test_fixed_point_reports_the_largest_step_of_its_cycle():
    # started at V0, the fixed point steps the filter run's own loop: the run
    # repeats the same cycle, and its predictions give the cycle's p steps,
    # d_T(P_seq[k - 1], P_seq[k]) for k = j + 1 ... j + p
    model = precise_sensor_jordan_model()
    with pytest.raises(MaxIterExceeded) as err:
        iterate_to_fixed_point(model, model.V0, "robust", tau=0.5, c=1e7,
                               tol=1e-11, max_iter=20000)
    report = err.value.report
    assert (report.iterations, report.cycle) == (43, (16, 26))
    ft = run_filter(model, FilterConfig.robust(0.5, 1e7), np.zeros((50, 3)))
    assert ft.cycle == (16, 26)
    steps = [thompson_metric(ft.P_seq[k - 1], ft.P_seq[k]) for k in range(17, 43)]
    assert report.cycle_max_step == max(steps) == 4.693703198376357e-09
    assert report.final_step_distance in steps


def test_fixed_point_stopped_before_its_cycle_closes_has_no_cycle_step():
    # max_iter ends the iteration when the state repeats, one step before the
    # step closing the cycle
    model = precise_sensor_jordan_model()
    with pytest.raises(MaxIterExceeded, match="a cycle of period 26") as err:
        iterate_to_fixed_point(model, model.V0, "robust", tau=0.5, c=1e7,
                               tol=1e-11, max_iter=42)
    assert (err.value.report.cycle, err.value.report.cycle_max_step) == ((16, 26), None)


def test_fixed_point_converging_before_a_repeat_has_no_cycle(example_normalized):
    report = iterate_to_fixed_point(example_normalized, np.eye(2), "robust",
                                    tau=0.5, c=0.1, tol=1e-10)
    assert (report.cycle, report.cycle_max_step) == (None, None)


def test_fixed_point_at_an_exact_fixed_point_has_a_zero_cycle_step():
    model = scalar_model(a=0.0)
    report = iterate_to_fixed_point(model, model.B @ model.B.T, tol=1e-300)
    assert (report.cycle, report.cycle_max_step) == ((0, 1), 0.0)


def test_fixed_point_started_at_an_exact_fixed_point_converges():
    # with A = 0 the prediction is B Bᵀ from any V: the state after the first
    # step repeats the start, and the step closing that cycle measures 0
    model = scalar_model(a=0.0)
    report = iterate_to_fixed_point(model, model.B @ model.B.T, tol=1e-300)
    assert (report.iterations, report.cycle, report.final_step_distance) == (2, (0, 1), 0.0)


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
    dict(stepper="standard", max_iter=2.5),
    dict(stepper="standard", max_iter=0),
    dict(stepper="standard", max_iter=-1),
    dict(stepper="standard", tol="x"),
    dict(stepper="standard", max_iter=True),
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


def example_with_sensor_scale(scale):
    A, B, C, D = example_matrices()
    return normalize(StateSpaceModel(A=A, B=B, C=C, D=scale * D,
                                     x0_mean=np.zeros(2), V0=np.eye(2)))


def dare(model):
    return la.solve_discrete_are(model.A.T, model.C.T, model.B @ model.B.T,
                                 model.D @ model.D.T)


@pytest.mark.parametrize("scale", [1e-5, 1e-7])
def test_fixed_points_on_precise_sensor_models(scale):
    # D Dᵀ = scale² makes P⁻¹ + Cᵀ(DDᵀ)⁻¹C ill-conditioned; the gain form
    # the recursions step through stays accurate
    model = example_with_sensor_scale(scale)
    report = iterate_to_fixed_point(model, np.eye(2), "standard", tol=1e-12)
    assert thompson_metric(report.P_star, dare(model)) <= 1e-10
    robust = iterate_to_fixed_point(model, np.eye(2), "robust", tau=0.5, c=0.05, tol=1e-12)
    assert robust.final_step_distance <= 1e-12
    assert robust.spectral_radius_closed_loop < 1


def test_information_form_singular_to_lu_is_not_spd():
    # P⁻¹ + Cᵀ(DDᵀ)⁻¹C passes the Cholesky check, but its LU solve finds it
    # singular; that is NotSPD too, not a bare LinAlgError
    with pytest.raises(NotSPD, match="numerically singular"):
        standard_riccati(example_with_sensor_scale(1e-5), 1e14 * np.eye(2))


def test_robust_step_on_precise_sensor_model():
    model = example_with_sensor_scale(1e-7)
    step = robust_step(model, np.eye(2), 0.05, 0.5)
    assert np.all(np.isfinite(step.P_next))
    assert np.min(np.linalg.eigvalsh(step.V - step.P_next)) > 0


def test_standard_fixed_point_from_huge_start(example_normalized):
    report = iterate_to_fixed_point(example_normalized, 1e14 * np.eye(2), "standard", tol=1e-12)
    assert thompson_metric(report.P_star, dare(example_normalized)) <= 1e-10


@pytest.mark.parametrize("config", [
    FilterConfig.standard(),
    FilterConfig.robust(0.5, 0.1),
    FilterConfig.risk_sensitive(1.0, 1e-3),
], ids=lambda config: config.kind)
def test_fixed_point_is_a_filter_run(example_normalized, config, make_model):
    correlated = make_model(np.random.default_rng(3), 3, 1, True)
    for model in (example_normalized, correlated):
        report = iterate_to_fixed_point(model, model.V0, config.kind, tau=config.tau,
                                        c=config.c, theta=config.theta, tol=1e-10)
        ft = run_filter(model, config, np.zeros((report.iterations, model.p)))
        assert np.array_equal(report.P_star, ft.P_seq[-1])
        assert np.array_equal(report.V_star, ft.V_seq[-1])
        assert np.array_equal(report.G_star, gain(model, ft.V_seq[-1]))
        if config.kind == "standard":
            assert report.theta_star is None
        else:
            assert report.theta_star == ft.theta_seq[-1]


def test_single_steps_are_kernel_steps(example_normalized):
    model = example_normalized
    P = np.array([[2.0, 0.3], [0.3, 1.5]])
    for step, theta in [(robust_step(model, P, 0.08, 0.5), solve_theta(P, 0.08, 0.5)),
                        (risk_sensitive_step(model, P, 0.2, 0.5), 0.2)]:
        V_in = v_update(P, theta, 0.5)
        assert np.array_equal(step.P_next, predict_covariance(model, V_in))
        assert np.array_equal(step.G, gain(model, V_in))


def test_fixed_point_rejects_wrong_shape_start(example_normalized):
    with pytest.raises(DimensionMismatch):
        iterate_to_fixed_point(example_normalized, np.eye(3))


def test_fixed_point_start_must_be_psd(example_normalized):
    model = example_normalized
    with pytest.raises(NotSPD):
        iterate_to_fixed_point(model, -0.1 * np.eye(2))
    with pytest.raises(NotSPD):
        iterate_to_fixed_point(model, np.full((2, 2), np.nan))
    report = iterate_to_fixed_point(model, np.zeros((2, 2)), tol=1e-12)
    assert thompson_metric(report.P_star, dare(model)) <= 1e-10


@pytest.mark.parametrize("function,args", [
    (standard_riccati, (np.eye(3),)),
    (standard_riccati, (np.ones(2),)),
    (risk_sensitive_map, (np.eye(2), np.eye(3))),
    (gain, (np.eye(3),)),
    (gain, (np.ones((3, 2, 2)),)),
    (gain, ("ab",)),
    (predict_covariance, (np.eye(3),)),
    (predict_covariance, (np.ones((3, 2, 2)),)),
    (robust_step, ("ab", 0.05, 0.5)),
    (iterate_to_fixed_point, ("ab",)),
], ids=lambda v: getattr(v, "__name__", None))
def test_matrix_arguments_must_be_numeric_n_by_n(example_normalized, function, args):
    with pytest.raises(DimensionMismatch):
        function(example_normalized, *args)


def test_fixed_point_logs_the_repeat_closing_its_cycle(caplog):
    model = precise_sensor_jordan_model()
    with caplog.at_level(logging.DEBUG, logger="robkf.riccati"), \
            pytest.raises(MaxIterExceeded) as info:
        iterate_to_fixed_point(model, model.V0, "robust", tau=0.5, c=1e7, tol=1e-11)
    j, period = info.value.report.cycle
    assert f"(V, theta)_{j + period} repeats (V, theta)_{j} (period {period})" in caplog.text


def test_single_steps_reject_wrong_shape(example_normalized):
    with pytest.raises(DimensionMismatch):
        robust_step(example_normalized, np.eye(3), 0.05, 0.5)
    with pytest.raises(DimensionMismatch):
        risk_sensitive_step(example_normalized, np.eye(3), 0.2, 1.0)
