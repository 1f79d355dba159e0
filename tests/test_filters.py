import numpy as np
import pytest

from robkf import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    FilterConfig,
    ModelError,
    ModelIOError,
    StateSpaceModel,
    certify,
    compare_filters,
    gain,
    load_observations,
    normalize,
    run_filter,
    standard_riccati,
    v_update,
)

from conftest import example_matrices


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


def test_run_filter_validates_observations(example_model):
    config = FilterConfig.standard()
    with pytest.raises(DimensionMismatch):
        run_filter(example_model, config, np.zeros((10, 2)))
    with pytest.raises(DimensionMismatch):
        run_filter(example_model, config, np.zeros((10, 1, 1)))
    with pytest.raises(ModelError):
        run_filter(example_model, config, np.array([[1.0], [np.nan]]))


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


def test_compare_label_dedup(example_model):
    table = compare_filters(
        example_model, [FilterConfig.standard(), FilterConfig.standard()],
        steps=5, seed=0)
    assert table.labels == ("kf", "kf_2")


def test_compare_rejects_empty(example_model):
    with pytest.raises(ConfigError):
        compare_filters(example_model, [], steps=5, seed=0)


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


def test_load_observations_missing_file(tmp_path):
    with pytest.raises(ModelIOError, match="not readable"):
        load_observations(tmp_path / "nope.csv")
