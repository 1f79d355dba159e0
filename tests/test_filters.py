import logging
import re

import numpy as np
import pytest

from robkf import _linalg, divergence, filters, riccati
from robkf import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    FilterConfig,
    ModelError,
    ModelIOError,
    NotSPD,
    StateSpaceModel,
    certify,
    compare_filters,
    gain,
    gamma,
    iterate_to_fixed_point,
    load_observations,
    normalize,
    run_filter,
    simulate,
    standard_riccati,
    v_update,
)
from robkf.riccati import _gain_and_prediction, _reweight

from conftest import example_matrices, random_model


@pytest.mark.parametrize("bad", [
    dict(kind="bogus"),
    dict(kind="standard", tau=0.5),
    dict(kind="standard", c=0.1),
    dict(kind="robust", tau=0.5),
    dict(kind="robust", tau=0.5, c=0.0),
    dict(kind="robust", tau=0.5, c=-1.0),
    dict(kind="robust", tau=0.5, c=np.inf),
    dict(kind="robust", tau=0.5, c=0.1, theta=0.1),
    dict(kind="robust", tau=1.5, c=0.1),
    dict(kind="risk_sensitive", tau=1.0),
    dict(kind="risk_sensitive", tau=1.0, theta=0.0),
    dict(kind="risk_sensitive", tau=1.0, theta=-0.5),
    dict(kind="risk_sensitive", tau=1.0, theta=0.1, c=0.1),
    dict(kind="robust", c=0.1),
    dict(kind="risk_sensitive", theta=0.1),
    dict(kind="robust", tau="half", c=0.1),
    dict(kind="robust", tau=0.5, c="small"),
    dict(kind="risk_sensitive", tau=1.0, theta=[0.1]),
])
def test_filter_config_rejects(bad):
    with pytest.raises(ConfigError):
        FilterConfig(**bad)


def test_filter_config_labels():
    assert FilterConfig.standard().label() == "kf"
    assert FilterConfig.robust(0.0, 0.1).label() == "rkf_tau0"
    assert FilterConfig.robust(0.5, 0.1).label() == "rkf_tau05"
    assert FilterConfig.robust(1.0, 0.1).label() == "rkf_tau1"
    assert FilterConfig.risk_sensitive(1.0, 0.01).label() == "rskf_tau1"


def test_zero_observations_zero_mean_give_zero_estimates(example_model):
    obs = np.zeros((40, 1))
    for config in (FilterConfig.standard(), FilterConfig.robust(0.5, 0.1)):
        ft = run_filter(example_model, config, obs)
        np.testing.assert_array_equal(ft.estimates, np.zeros((41, 2)))


def test_trajectory_shapes_and_first_step(example_model):
    obs = np.ones((5, 1))
    ft = run_filter(example_model, FilterConfig.robust(0.5, 0.1), obs)
    assert ft.estimates.shape == (6, 2)
    assert ft.gains.shape == (5, 2, 1)
    assert ft.P_seq.shape == (5, 2, 2)
    assert ft.V_seq.shape == (6, 2, 2)
    assert ft.theta_seq.shape == (5,)
    assert ft.steps == 5
    np.testing.assert_array_equal(ft.estimates[0], example_model.x0_mean)
    np.testing.assert_array_equal(ft.V_seq[0], example_model.V0)
    norm = normalize(example_model)
    np.testing.assert_allclose(ft.gains[0], gain(norm, example_model.V0), atol=1e-12)


def test_rows_self_consistent(example_model):
    tau, c = 0.5, 0.1
    ft = run_filter(example_model, FilterConfig.robust(tau, c), np.ones((8, 1)))
    for k in range(1, 9):
        V_rebuilt = v_update(ft.P_seq[k - 1], ft.theta_seq[k - 1], tau)
        np.testing.assert_allclose(ft.V_seq[k], V_rebuilt, atol=1e-12)


def test_standard_kind_collapses_v_to_p(example_model):
    ft = run_filter(example_model, FilterConfig.standard(), np.ones((10, 1)))
    np.testing.assert_array_equal(ft.P_seq, ft.V_seq[1:])
    np.testing.assert_array_equal(ft.theta_seq, np.zeros(10))


def test_tiny_budget_tracks_standard_estimates(example_model):
    rng = np.random.default_rng(7)
    obs = rng.standard_normal((100, 1))
    kf = run_filter(example_model, FilterConfig.standard(), obs)
    rkf = run_filter(example_model, FilterConfig.robust(0.5, 1e-12), obs)
    assert np.max(np.abs(kf.estimates - rkf.estimates)) <= 1e-3


def test_covariance_side_ignores_observations(example_model):
    rng = np.random.default_rng(8)
    config = FilterConfig.robust(0.0, 0.12)
    a = run_filter(example_model, config, rng.standard_normal((30, 1)))
    b = run_filter(example_model, config, rng.standard_normal((30, 1)))
    np.testing.assert_array_equal(a.P_seq, b.P_seq)
    np.testing.assert_array_equal(a.V_seq, b.V_seq)
    np.testing.assert_array_equal(a.theta_seq, b.theta_seq)
    np.testing.assert_array_equal(a.gains, b.gains)


def test_estimates_linear_in_mean_and_observations(example_model):
    rng = np.random.default_rng(9)
    config = FilterConfig.robust(1.0, 0.05)
    y1, y2 = rng.standard_normal((20, 1)), rng.standard_normal((20, 1))
    m1, m2 = rng.standard_normal(2), rng.standard_normal(2)

    def with_mean(mean):
        return StateSpaceModel(
            A=example_model.A, B=example_model.B, C=example_model.C,
            D=example_model.D, x0_mean=mean, V0=example_model.V0)

    e1 = run_filter(with_mean(m1), config, y1).estimates
    e2 = run_filter(with_mean(m2), config, y2).estimates
    e_sum = run_filter(with_mean(m1 + m2), config, y1 + y2).estimates
    np.testing.assert_allclose(e_sum, e1 + e2, atol=1e-10)
    e_scaled = run_filter(with_mean(3.0 * m1), config, 3.0 * y1).estimates
    np.testing.assert_allclose(e_scaled, 3.0 * e1, atol=1e-10)


def test_robust_prediction_dominates_standard_chain(example_model):
    ft = run_filter(example_model, FilterConfig.robust(0.5, 0.1), np.zeros((30, 1)))
    norm = normalize(example_model)
    P_bar = norm.B @ norm.B.T
    for k in range(30):
        assert np.min(np.linalg.eigvalsh(ft.P_seq[k] - P_bar)) >= -1e-10
        P_bar = standard_riccati(norm, P_bar)


def test_certified_runs_settle_and_stay_conservative(example_model):
    T = 60
    kf = run_filter(example_model, FilterConfig.standard(), np.zeros((T, 1)))
    kf_v11 = kf.V_seq[-1][0, 0]
    for tau in (0.0, 0.5, 1.0):
        c = certify(example_model, tau).c_max
        ft = run_filter(example_model, FilterConfig.robust(tau, c), np.zeros((T, 1)))
        p11 = ft.P_seq[:, 0, 0]
        v11 = ft.V_seq[1:, 0, 0]
        assert np.max(np.abs(p11[25:] - p11[-1])) <= 1e-3 * p11[-1]
        assert np.max(np.abs(v11[25:] - v11[-1])) <= 1e-3 * v11[-1]
        # least-favorable variance strictly above nominal, both above the KF
        assert np.all(v11 > p11)
        assert v11[-1] > kf_v11


def test_risk_sensitive_kind_runs_and_inflates(example_model):
    theta = certify(example_model, 1.0, mode="risk_sensitive").theta_max
    ft = run_filter(example_model, FilterConfig.risk_sensitive(1.0, theta), np.zeros((50, 1)))
    assert np.all(ft.theta_seq == theta)
    for k in range(50):
        gap = np.linalg.eigvalsh(ft.V_seq[k + 1] - ft.P_seq[k])
        assert gap.min() > 0


def test_risk_sensitive_domain_violation_propagates(example_model):
    # theta far beyond the certified range leaves the tau<1 domain once
    # the prediction covariance has grown
    config = FilterConfig.risk_sensitive(0.5, 0.5)
    with pytest.raises(DomainViolation):
        run_filter(example_model, config, np.zeros((50, 1)))


def _reference_run(model, config, y):
    """Every step of the recursion computed in full, one loop, no replay."""
    T, n = y.shape[0], model.n
    estimates, V_seq = np.zeros((T + 1, n)), np.zeros((T + 1, n, n))
    gains, P_seq, theta_seq = np.zeros((T, n, model.p)), np.zeros((T, n, n)), np.zeros(T)
    noise = model.noise_covariances()
    xhat, V = model.x0_mean.copy(), _linalg.sym(model.V0)
    theta = 0.0 if config.theta is None else config.theta
    estimates[0], V_seq[0] = xhat, model.V0
    for k in range(T):
        G, P = _gain_and_prediction(model, V, noise)
        xhat = (model.A - G @ model.C) @ xhat + G @ y[k]
        V, theta = riccati._reweight(config, P, theta)
        estimates[k + 1], gains[k], P_seq[k], V_seq[k + 1], theta_seq[k] = xhat, G, P, V, theta
    return estimates, gains, P_seq, V_seq, theta_seq


def _assert_matches_reference(model, config, y):
    """The covariance side equals the reference bit for bit; the estimates,
    from the scan for n <= filters._SCAN_MAX_N, agree within 1e-12 relative."""
    ft = run_filter(model, config, y)
    want = _reference_run(model, config, y)
    got = (ft.gains, ft.P_seq, ft.V_seq, ft.theta_seq)
    for name, a, b in zip(("gains", "P_seq", "V_seq", "theta_seq"), got, want[1:]):
        assert np.array_equal(a, b), name
    scale = 1.0 + np.max(np.abs(want[0]))
    assert ft.estimates.shape == want[0].shape
    assert np.max(np.abs(ft.estimates - want[0])) <= 1e-12 * scale
    return ft


EXAMPLE_CONFIGS = [
    FilterConfig.standard(),
    FilterConfig.robust(0.0, 0.12),
    FilterConfig.robust(0.5, 0.10),
    FilterConfig.robust(1.0, 0.086),
    FilterConfig.risk_sensitive(1.0, 1.3e-3),
]


@pytest.mark.parametrize("config", EXAMPLE_CONFIGS, ids=lambda c: c.label())
def test_replayed_run_is_bit_identical(example_model, config):
    y = simulate(example_model, 600, seed=4).observations
    ft = _assert_matches_reference(example_model, config, y)
    assert ft.cycle is not None


@pytest.mark.parametrize("seed", [5, 6])
def test_replayed_run_is_bit_identical_small_radius_n4(seed):
    model = random_model(np.random.default_rng(seed), n=4)
    y = simulate(model, 400, seed=6).observations
    _assert_matches_reference(model, FilterConfig.robust(0.5, 1e-9), y)


def test_replay_boundary_is_bit_identical(example_model):
    config = FilterConfig.robust(0.5, 0.10)
    y = simulate(example_model, 300, seed=2).observations
    start, period = run_filter(example_model, config, y).cycle
    repeat = start + period  # V at this step is the first that equals an earlier one
    for T in (0, 1, repeat // 2, repeat - 1, repeat, repeat + 1):
        ft = _assert_matches_reference(example_model, config, y[:T])
        assert ft.cycle == ((start, period) if T >= repeat else None), T


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 1023, 1024, 1025])
def test_scan_matches_the_reference_at_the_doubling_edges(example_model, T):
    # the scan's last stride is the largest power of two below T, and its
    # matrix products stop one round earlier
    y = simulate(example_model, T, seed=3).observations
    _assert_matches_reference(example_model, FilterConfig.robust(0.5, 0.10), y)


@pytest.mark.parametrize("n,scanned", [(6, True), (8, False)])
def test_estimates_scan_up_to_six_states_and_loop_above(n, scanned, monkeypatch):
    calls = []
    scan = filters._scan

    def counted(*args):
        calls.append(1)
        return scan(*args)

    monkeypatch.setattr(filters, "_scan", counted)
    model = random_model(np.random.default_rng(n), n=n, p=2, correlated=True)
    y = simulate(model, 300, seed=7).observations
    ft = _assert_matches_reference(model, FilterConfig.robust(0.5, 0.05), y)
    assert len(calls) == scanned
    if not scanned:
        # the step-by-step loop, bit for bit
        assert np.array_equal(ft.estimates, _reference_run(model, ft.config, y)[0])


def test_scan_returns_false_where_its_compositions_overflow():
    # F_2 F_1 = diag(1e400, 1) overflows, which the raised flags catch, while every
    # estimate of the step-by-step update stays (0, 1)
    T = 4
    F = np.tile(np.diag([1e200, 1.0]), (T, 1, 1))
    b = np.zeros((T, 2))
    estimates = np.empty((T + 1, 2))
    estimates[0] = xhat = [0.0, 1.0]
    with _linalg.overflow_as(DomainViolation, "estimates leave the double range"):
        assert filters._scan(F, b, estimates) is False
        for F_k, b_k in zip(F, b):
            xhat = F_k @ xhat + b_k
            assert xhat.tolist() == [0.0, 1.0]


def _scalar_model():
    return StateSpaceModel(A=[[0.5]], B=[[1.0, 0.0]], C=[[1.0]], D=[[0.0, 1.0]],
                           x0_mean=np.zeros(1), V0=np.eye(1))


@pytest.mark.parametrize("model,config", [
    ("example", FilterConfig.robust(1.0, 0.086)),
    ("scalar", FilterConfig.standard()),
    ("scalar", FilterConfig.robust(0.5, 0.01)),
])
def test_cycle_is_the_first_and_shortest_repeat(example_model, model, config):
    model = example_model if model == "example" else _scalar_model()
    ft = _assert_matches_reference(model, config, np.ones((300, 1)))
    start, period = ft.cycle
    repeat = start + period
    assert period >= 1
    np.testing.assert_array_equal(ft.V_seq[repeat:], ft.V_seq[start:-period])
    np.testing.assert_array_equal(ft.gains[repeat:], ft.gains[start:-period])
    # the state (V_i, theta_i), theta_0 = 0 for these kinds: no state before
    # the repeat equals it but the start's, and none repeats sooner
    thetas = np.concatenate([[0.0], ft.theta_seq])
    states = [(ft.V_seq[i].tobytes(), thetas[i]) for i in range(repeat + 1)]
    assert [i for i in range(repeat) if states[i] == states[repeat]] == [start]
    assert len(set(states[:repeat])) == repeat


def test_cycle_is_a_repeat_of_v_and_theta(example_model, monkeypatch):
    # V_3 equals V_1 but comes with another theta, from which the next robust
    # solve would start; the cycle begins only when (V_2, theta_2) comes back
    states = iter([(2.0, 0.1), (3.0, 0.2), (2.0, 0.3), (3.0, 0.2), (2.0, 0.3)])

    def scripted(model, config, noise, V, theta):
        scale, theta_k = next(states)
        V_k = scale * np.eye(2)
        return np.zeros((2, 1)), V_k, V_k, theta_k

    monkeypatch.setattr(riccati, "_covariance_step", scripted)
    ft = run_filter(example_model, FilterConfig.robust(0.5, 0.1), np.zeros((10, 1)))
    assert ft.cycle == (2, 2)
    np.testing.assert_array_equal(ft.theta_seq, [0.1, 0.2, 0.3] + [0.2, 0.3] * 3 + [0.2])


def _counting_reweight(monkeypatch):
    calls = []

    def counted(config, P, theta=0.0):
        calls.append(config)
        return _reweight(config, P, theta)

    monkeypatch.setattr(riccati, "_reweight", counted)
    return calls


@pytest.mark.parametrize("config", EXAMPLE_CONFIGS, ids=lambda c: c.label())
def test_recursion_stops_at_first_repeat(example_model, config, monkeypatch, caplog):
    calls = _counting_reweight(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="robkf.riccati"):
        ft = run_filter(example_model, config, np.ones((1000, 1)))
    start, period = ft.cycle
    # the repeat shows only once V_{start+period} is computed
    assert len(calls) == start + period
    assert start < 300
    assert f"repeats (V, theta)_{start} (period {period})" in caplog.text


def _model_of(example_model, model):
    return example_model if model == "example" else random_model(np.random.default_rng(model), n=4)


def _runs(configs):
    """The example runs of configs and the robust n = 4 runs at c = 1e-9 (seeds 5, 6)."""
    return [pytest.param("example", c, id=c.label()) for c in configs] + [
        pytest.param(seed, FilterConfig.robust(0.5, 1e-9), id=f"n4_seed{seed}") for seed in (5, 6)
    ]


@pytest.mark.parametrize("model,config", _runs(EXAMPLE_CONFIGS[1:4]))
def test_warm_started_thetas_meet_the_radius(example_model, model, config):
    model = _model_of(example_model, model)
    ft = run_filter(model, config, np.zeros((1000, model.p)))
    for k in range(ft.steps):
        radius = gamma(ft.P_seq[k], ft.theta_seq[k], config.tau)
        assert abs(radius - config.c) <= divergence.THETA_RTOL * config.c, k


@pytest.mark.parametrize("model,config", _runs(EXAMPLE_CONFIGS))
def test_closed_loop_estimates_match_the_innovation_form(example_model, model, config):
    model = _model_of(example_model, model)
    y = simulate(model, 1000, seed=12).observations
    ft = run_filter(model, config, y)
    want = [model.x0_mean]
    for G, y_k in zip(ft.gains, y):
        want.append(model.A @ want[-1] + G @ (y_k - model.C @ want[-1]))
    scale = 1.0 + np.max(np.abs(ft.estimates))
    assert np.max(np.abs(ft.estimates - np.array(want))) <= 1e-12 * scale


@pytest.mark.parametrize("config", EXAMPLE_CONFIGS[1:4], ids=lambda c: c.label())
def test_warm_start_takes_at_most_two_gamma_evaluations_per_step(example_model, config,
                                                                 monkeypatch):
    calls = []
    gamma_and_slope = divergence._gamma_and_slope

    def counted(*args):
        calls.append(1)
        return gamma_and_slope(*args)

    monkeypatch.setattr(divergence, "_gamma_and_slope", counted)
    ft = run_filter(example_model, config, np.zeros((1000, 1)))
    computed = sum(ft.cycle)
    assert computed <= len(calls) <= 2 * computed, (len(calls), computed)


def test_risk_sensitive_domain_violation_at_same_step(example_model, monkeypatch):
    config = FilterConfig.risk_sensitive(0.5, 0.5)
    y = np.zeros((50, 1))
    calls = _counting_reweight(monkeypatch)
    with pytest.raises(DomainViolation):
        _reference_run(example_model, config, y)
    reference_steps = len(calls)
    calls.clear()
    with pytest.raises(DomainViolation):
        run_filter(example_model, config, y)
    assert len(calls) == reference_steps < y.shape[0]


def test_reweighting_names_the_spectrum_it_rejects(example_model):
    # past theta_max, V = P exp(theta P) grows the prediction until its
    # eigendecomposition is indefinite, at about ±5e260 on this model
    config = FilterConfig.risk_sensitive(1.0, 0.5)
    runs = [lambda: run_filter(example_model, config, simulate(example_model, 20, 0).observations),
            lambda: iterate_to_fixed_point(example_model, np.eye(2), "risk_sensitive",
                                           tau=1.0, theta=0.5)]
    for run in runs:
        with pytest.raises(NotSPD) as info:
            run()
        low, high = map(float, re.fullmatch(r"P is not symmetric positive definite "
                                            r"\(eigenvalues (\S+) to (\S+)\)", str(info.value)).groups())
        assert low < -1e200 and high > 1e200


def test_run_filter_validates_observations(example_model):
    config = FilterConfig.standard()
    with pytest.raises(DimensionMismatch):
        run_filter(example_model, config, np.zeros((10, 2)))
    with pytest.raises(DimensionMismatch):
        run_filter(example_model, config, np.zeros((10, 1, 1)))
    with pytest.raises(ModelError):
        run_filter(example_model, config, np.array([[1.0], [np.nan]]))


def test_estimates_past_the_double_range_raise_domain_violation(example_model):
    # the example's seed-0 states near the largest double by step 3895 (where
    # simulate stops), and the estimates tracking them leave it a few steps
    # earlier; tier-1 turns numpy's RuntimeWarning into a failure
    y = simulate(example_model, 3895, 0).observations
    with pytest.raises(DomainViolation, match=r"^filter estimate xhat_3891 leaves the double range"):
        run_filter(example_model, FilterConfig.standard(), y)
    # in a compare, the first failing run's, in the order of configs
    with pytest.raises(DomainViolation, match=r"^filter estimate xhat_3891 leaves the double range"):
        compare_filters(example_model, [FilterConfig.standard(), FilterConfig.robust(0.5, 0.1)],
                        3895, 0)
    # C and D scaled by 1e-3 give gains of a few hundred, which take G_k y_k past it
    model = StateSpaceModel(A=example_model.A, B=example_model.B, C=1e-3 * example_model.C,
                            D=1e-3 * example_model.D, x0_mean=np.zeros(2), V0=np.eye(2))
    with pytest.raises(DomainViolation, match=r"^A - G_k C or G_k y_k leaves the double range"):
        run_filter(model, FilterConfig.standard(), np.full((3, 1), 1e307))


def test_covariance_past_the_double_range_raises_domain_violation():
    # the mode at 2 is unobservable, so the prediction covariance grows like
    # 4^k; tier-1 turns numpy's RuntimeWarning into a failure, so no step may
    # warn before the typed error
    model = StateSpaceModel(A=np.diag([0.5, 2.0]), B=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                            C=[[1.0, 0.0]], D=[[0.0, 0.0, 1.0]], x0_mean=np.zeros(2),
                            V0=np.eye(2))
    robust = FilterConfig.robust(0.5, 0.1)
    runs = [
        (lambda: run_filter(model, FilterConfig.standard(), np.zeros((600, 1))), 512),
        (lambda: run_filter(model, robust, np.zeros((600, 1))), 397),
        (lambda: compare_filters(model, [FilterConfig.standard(), robust], 600, 0), 512),
        (lambda: iterate_to_fixed_point(model, np.eye(2), max_iter=2000), 512),
        (lambda: iterate_to_fixed_point(model, np.eye(2), "robust", tau=0.5, c=0.1,
                                        max_iter=2000), 397),
    ]
    for run, k in runs:
        with pytest.raises(DomainViolation, match=rf"^covariance P_{k} leaves the double range"):
            run()


@pytest.mark.parametrize("observations", [[["a"]], [[1.0], [1.0, 2.0]]],
                         ids=["non-numeric", "ragged"])
def test_run_filter_rejects_observations_that_are_not_numeric_arrays(example_model,
                                                                     observations):
    with pytest.raises(DimensionMismatch, match="^observations must be a numeric array"):
        run_filter(example_model, FilterConfig.standard(), observations)


def test_run_filter_accepts_flat_observations(example_model):
    obs = np.arange(6, dtype=float)
    a = run_filter(example_model, FilterConfig.standard(), obs)
    b = run_filter(example_model, FilterConfig.standard(), obs.reshape(-1, 1))
    np.testing.assert_array_equal(a.estimates, b.estimates)


def test_run_filter_zero_steps(example_model):
    ft = run_filter(example_model, FilterConfig.robust(0.5, 0.1), np.zeros((0, 1)))
    assert ft.estimates.shape == (1, 2)
    assert ft.gains.shape == (0, 2, 1)
    assert ft.P_seq.shape == (0, 2, 2)
    assert ft.V_seq.shape == (1, 2, 2)
    assert ft.theta_seq.shape == (0,)
    assert ft.cycle is None


def test_zero_step_runs_take_no_step(example_model, monkeypatch):
    def no_step(*args):
        raise AssertionError("a zero-step run stepped")

    monkeypatch.setattr(riccati, "_covariance_step", no_step)
    run_filter(example_model, FilterConfig.robust(0.5, 0.1), np.zeros((0, 1)))
    compare_filters(example_model, [FilterConfig.standard(), FilterConfig.robust(0.5, 0.1)],
                    steps=0, seed=0)


def test_compare_rejects_configs_that_are_not_a_sequence(example_model, monkeypatch):
    def no_simulate(*args):
        raise AssertionError("simulated before checking configs")

    monkeypatch.setattr(filters, "simulate", no_simulate)
    configs = (config for config in [FilterConfig.standard()])
    with pytest.raises(ConfigError, match="^compare_filters needs a nonempty sequence"):
        compare_filters(example_model, configs, steps=5, seed=0)


def test_rmse_of_an_unknown_label_names_the_table_labels(example_model):
    table = compare_filters(example_model, [FilterConfig.standard(), FilterConfig.standard()],
                            steps=5, seed=0)
    with pytest.raises(ConfigError,
                       match=r"^no run labelled 'nope'; the table has \('kf', 'kf_2'\)$"):
        table.rmse("nope")


def test_compare_single_standard_degenerates(example_model):
    table = compare_filters(example_model, [FilterConfig.standard()], steps=20, seed=3)
    assert table.labels == ("kf",)
    run = table.runs[0]
    np.testing.assert_array_equal(run.V_seq[1:], run.P_seq)
    assert np.isfinite(table.rmse("kf"))


def test_compare_theta_settles(example_model):
    configs = [
        FilterConfig.standard(),
        FilterConfig.robust(0.0, 0.122),
        FilterConfig.robust(0.5, 0.101),
        FilterConfig.robust(1.0, 0.0862),
    ]
    table = compare_filters(example_model, configs, steps=60, seed=1)
    assert table.labels == ("kf", "rkf_tau0", "rkf_tau05", "rkf_tau1")
    for run in table.runs[1:]:
        theta = run.theta_seq
        assert np.max(np.abs(theta[20:] - theta[-1])) <= 1e-3 * theta[-1]


def test_compare_deterministic(example_model):
    configs = [FilterConfig.standard(), FilterConfig.robust(0.5, 0.1)]
    t1 = compare_filters(example_model, configs, steps=25, seed=11)
    t2 = compare_filters(example_model, configs, steps=25, seed=11)
    np.testing.assert_array_equal(t1.trajectory.observations, t2.trajectory.observations)
    for r1, r2 in zip(t1.runs, t2.runs):
        assert r1.estimates.tobytes() == r2.estimates.tobytes()
        assert r1.V_seq.tobytes() == r2.V_seq.tobytes()


def test_compare_zero_steps_scores_nan(example_model):
    table = compare_filters(example_model, [FilterConfig.standard()], steps=0, seed=0)
    assert np.isnan(table.rmse("kf"))


def test_compare_label_dedup(example_model):
    table = compare_filters(
        example_model, [FilterConfig.standard(), FilterConfig.standard()],
        steps=5, seed=0)
    assert table.labels == ("kf", "kf_2")


@pytest.mark.parametrize("steps,seed,name", [(True, 0, "steps"), (5, True, "seed")])
def test_compare_rejects_bool_steps_and_seed(example_model, steps, seed, name):
    with pytest.raises(ConfigError, match=f"{name} must be a nonnegative integer, got True"):
        compare_filters(example_model, [FilterConfig.standard()], steps, seed)


def test_compare_rejects_empty(example_model):
    with pytest.raises(ConfigError):
        compare_filters(example_model, [], steps=5, seed=0)


def test_non_config_filters_raise_config_error(example_model):
    with pytest.raises(ConfigError, match="expected a FilterConfig"):
        run_filter(example_model, "robust", np.zeros((5, 1)))
    with pytest.raises(ConfigError, match="expected a FilterConfig"):
        compare_filters(example_model, ["standard"], 5, 0)
    with pytest.raises(ConfigError, match="expected a FilterConfig"):
        compare_filters(example_model, [FilterConfig.standard(), None], 5, 0)


def _write(path, text):
    path.write_text(text)
    return path


def test_load_observations_roundtrip(tmp_path):
    rows = np.array([[1.0, -2.5], [0.25, 1e-3], [3.0, 4.0]])
    lines = "y1,y2\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    got = load_observations(_write(tmp_path / "obs.csv", lines + "\n"))
    np.testing.assert_array_equal(got, rows)


def test_load_observations_header_only(tmp_path):
    got = load_observations(_write(tmp_path / "obs.csv", "y1,y2,y3\n"))
    assert got.shape == (0, 3)


@pytest.mark.parametrize("text,hint", [
    ("a,b\n1,2\n", "header"),
    ("y1,y3\n1,2\n", "header"),
    ("y1,y2\n1,2\n3\n", "fields"),
    ("y1\n1\npotato\n", "numeric"),
    ("y1\n1\nnan\n", "non-finite"),
    ("", "empty"),
])
def test_load_observations_rejects(tmp_path, text, hint):
    with pytest.raises(ModelIOError, match=hint):
        load_observations(_write(tmp_path / "obs.csv", text))


@pytest.mark.parametrize("text,message", [
    ("y1\n1.0\n\n2.0\nabc\n", "line 5 is not numeric"),
    ("y1\n1.0\n\n\n2.0,3.0\n", "line 5 has 2 fields, expected 1"),
    ("\ny1,y2\n1,2\n3\n", "line 4 has 1 fields, expected 2"),
])
def test_load_observations_names_the_line_in_the_file(tmp_path, text, message):
    # blank lines are skipped but still counted
    with pytest.raises(ModelIOError, match=message):
        load_observations(_write(tmp_path / "obs.csv", text))


def test_load_observations_skips_blank_lines(tmp_path):
    got = load_observations(_write(tmp_path / "obs.csv", "\ny1\n1.0\n\n2.0\n\n"))
    np.testing.assert_array_equal(got, [[1.0], [2.0]])


def test_load_observations_missing_file(tmp_path):
    with pytest.raises(ModelIOError, match="not readable"):
        load_observations(tmp_path / "nope.csv")


def _panel(model):
    """Standard, robust at tau 0, 0.5 and 1 (each at its certified c_max),
    risk-sensitive at theta_max, and a duplicate of the tau 0.5 filter."""
    robust = [FilterConfig.robust(tau, certify(model, tau).c_max) for tau in (0.0, 0.5, 1.0)]
    theta = certify(model, 1.0, mode="risk_sensitive").theta_max
    return [FilterConfig.standard(), *robust, FilterConfig.risk_sensitive(1.0, theta), robust[1]]


def _assert_bank_matches_single_runs(model, configs, steps):
    table = compare_filters(model, configs, steps, seed=8)
    y = table.trajectory.observations
    assert len(table.runs) == len(configs)
    for config, run in zip(configs, table.runs):
        alone = run_filter(model, config, y)
        assert run.config == config
        for name in ("estimates", "gains", "P_seq", "V_seq", "theta_seq"):
            a, b = getattr(run, name), getattr(alone, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (config, steps, name)
        assert run.cycle == alone.cycle, (config, steps)
    return table


def _assert_bank_matches_at_every_length(model, configs):
    table = _assert_bank_matches_single_runs(model, configs, 1000)
    # every run settles into a cycle within 1000 steps; T one step before the
    # earliest repeat leaves every run in the bank to the end
    earliest = min(sum(run.cycle) for run in table.runs)
    for steps in (0, 1, earliest - 1):
        table = _assert_bank_matches_single_runs(model, configs, steps)
        assert all(run.cycle is None for run in table.runs)


def _bank_model(example_model, model):
    return example_model if model == "example" else random_model(np.random.default_rng(model), n=3)


@pytest.mark.parametrize("model", ["example", 1])
def test_bank_equals_single_runs_bit_for_bit(example_model, model):
    model = _bank_model(example_model, model)
    _assert_bank_matches_at_every_length(model, _panel(model))


@pytest.mark.parametrize("model", ["example", 1])
def test_all_reweighted_bank_equals_single_runs_bit_for_bit(example_model, model):
    # no standard row: every row of the stack is reweighted through its own
    # eigendecomposition
    model = _bank_model(example_model, model)
    _assert_bank_matches_at_every_length(model, _panel(model)[1:])


def test_bank_steps_runs_past_their_repeats_bit_for_bit():
    # the standard run cycles early; the tiny- and small-radius robust runs do
    # not repeat within 1000 steps, so the bank keeps stepping the standard run
    # long after its repeat
    model = random_model(np.random.default_rng(6), n=4)
    configs = [FilterConfig.standard(), FilterConfig.robust(0.5, 1e-9),
               *(FilterConfig.robust(tau, 1e-3) for tau in (0.0, 1.0, 0.5))]
    table = _assert_bank_matches_single_runs(model, configs, 1000)
    assert table.runs[0].cycle == (73, 2)
    assert all(run.cycle is None for run in table.runs[1:])


def test_compare_steps_each_run_until_it_has_repeated(example_model, monkeypatch):
    steps = []
    covariance_step = riccati._covariance_step

    def counted(model, config, *args):
        steps.append(config)
        return covariance_step(model, config, *args)

    monkeypatch.setattr(riccati, "_covariance_step", counted)
    # the CLI's default panel: standard, then robust at c_max for tau 0, 0.5, 1;
    # each run takes its own min(T, j + p) steps, not the panel's longest
    configs = _panel(example_model)[:4]
    table = compare_filters(example_model, configs, 1000, seed=8)
    counts = [min(1000, sum(run.cycle)) for run in table.runs]
    assert steps == [config for config, m in zip(configs, counts) for _ in range(m)]
    assert len(steps) < len(configs) * max(counts)


def test_compare_reweights_every_step_through_reweight(example_model, monkeypatch):
    calls = _counting_reweight(monkeypatch)
    # the CLI's default panel: each of a run's min(T, j + p) steps reweights
    # once, run by run in panel order
    configs = _panel(example_model)[:4]
    table = compare_filters(example_model, configs, 1000, seed=8)
    assert calls == [config for config, run in zip(configs, table.runs)
                     for _ in range(min(1000, sum(run.cycle)))]


def test_bank_raises_for_an_out_of_domain_row(example_model):
    configs = [FilterConfig.standard(), FilterConfig.robust(0.5, 0.1),
               FilterConfig.risk_sensitive(0.5, 0.5)]
    with pytest.raises(DomainViolation):
        compare_filters(example_model, configs, steps=50, seed=0)
