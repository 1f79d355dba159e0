import json

import numpy as np
import pytest

from robkf import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    ModelError,
    ModelIOError,
    NormalizedModel,
    NotObservable,
    NotReachable,
    SingularDD,
    StateSpaceModel,
    Trajectory,
    V0NotSPD,
    load_model,
    normalize,
    observability_matrix,
    powers_matrix,
    reachability_matrix,
    simulate,
)

from conftest import example_matrices, random_model


def test_example_model_dimensions(example_model):
    assert (example_model.n, example_model.p, example_model.m) == (2, 1, 3)


def test_row_mismatch_rejected():
    A, B, C, D = example_matrices()
    good = dict(A=A, B=B, C=C, D=D, x0_mean=np.zeros(2), V0=np.eye(2))
    for name, bad in [("B", np.zeros((3, 2))), ("A", np.eye(2)[:, :1]),
                      ("C", np.ones((1, 3))), ("D", np.ones((1, 2))),
                      ("x0_mean", np.zeros(3)), ("V0", np.eye(3))]:
        with pytest.raises(DimensionMismatch, match=f"^{name} must"):
            StateSpaceModel(**{**good, name: bad})


@pytest.mark.parametrize("A, message", [
    ([[0.1, 1.0], [0.0]], "^A is not a rectangular numeric array"),
    ([0.1, 1.0], "^A must be 2-dimensional"),
])
def test_non_matrix_rejected(A, message):
    _, B, C, D = example_matrices()
    with pytest.raises(DimensionMismatch, match=message):
        StateSpaceModel(A=A, B=B, C=C, D=D, x0_mean=np.zeros(2), V0=np.eye(2))


def test_singular_dd_rejected():
    A, B, C, _ = example_matrices()
    with pytest.raises(SingularDD):
        StateSpaceModel(A=A, B=B, C=C, D=np.zeros((1, 3)),
                        x0_mean=np.zeros(2), V0=np.eye(2))


@pytest.mark.parametrize("V0", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),   # indefinite
    np.array([[1.0, 0.5], [0.0, 1.0]]),   # asymmetric
    np.zeros((2, 2)),
])
def test_bad_v0_rejected(V0):
    A, B, C, D = example_matrices()
    with pytest.raises(V0NotSPD):
        StateSpaceModel(A=A, B=B, C=C, D=D, x0_mean=np.zeros(2), V0=V0)


def test_v0_asymmetry_past_the_largest_double_rejected_without_a_warning():
    # V0 - V0ᵀ overflows; the suite turns a numpy RuntimeWarning into an error
    A, B, C, D = example_matrices()
    with pytest.raises(V0NotSPD, match="^V0 is not symmetric$"):
        StateSpaceModel(A=A, B=B, C=C, D=D, x0_mean=np.zeros(2),
                        V0=[[1e308, -1e308], [1e308, 1e308]])


def test_non_finite_rejected():
    A, B, C, D = example_matrices()
    A = A.copy()
    A[0, 0] = np.nan
    with pytest.raises(ModelError):
        StateSpaceModel(A=A, B=B, C=C, D=D, x0_mean=np.zeros(2), V0=np.eye(2))


def test_fields_are_read_only(example_model):
    with pytest.raises(ValueError):
        example_model.A[0, 0] = 7.0


def test_normalize_passthrough(example_model):
    nm = normalize(example_model)
    assert isinstance(nm, NormalizedModel)
    np.testing.assert_array_equal(nm.A, example_model.A)
    np.testing.assert_array_equal(nm.B, example_model.B)
    assert np.max(np.abs(nm.B @ nm.D.T)) == 0.0


def test_normalize_correlated_noise(make_model):
    rng = np.random.default_rng(101)
    model = make_model(rng, n=3, p=2, correlated=True)
    BDt = model.B @ model.D.T
    assert np.max(np.abs(BDt)) > 1e-6  # the case is non-trivial

    nm = normalize(model)
    assert np.max(np.abs(nm.B @ nm.D.T)) == 0.0
    DDt = model.D @ model.D.T
    proj = np.eye(model.m) - model.D.T @ np.linalg.solve(DDt, model.D)
    np.testing.assert_allclose(nm.B @ nm.B.T, model.B @ proj @ model.B.T, atol=1e-10)
    np.testing.assert_allclose(
        nm.A, model.A - BDt @ np.linalg.solve(DDt, model.C), atol=1e-12)
    np.testing.assert_allclose(nm.D @ nm.D.T, DDt, atol=1e-12)


def test_normalize_idempotent(make_model):
    rng = np.random.default_rng(77)
    model = make_model(rng, n=2, p=1, correlated=True)
    once = normalize(model)
    twice = normalize(once)
    assert twice is once
    np.testing.assert_allclose(twice.A, once.A, atol=1e-12)
    np.testing.assert_allclose(twice.B @ twice.B.T, once.B @ once.B.T, atol=1e-12)
    np.testing.assert_array_equal(twice.C, once.C)
    np.testing.assert_allclose(twice.D @ twice.D.T, once.D @ once.D.T, atol=1e-12)


def test_normalize_zero_b_not_reachable():
    A, _, C, D = example_matrices()
    model = StateSpaceModel(A=A, B=np.zeros((2, 3)), C=C, D=D,
                            x0_mean=np.zeros(2), V0=np.eye(2))
    with pytest.raises(NotReachable):
        normalize(model)


def test_normalize_unobservable():
    A, B, _, D = example_matrices()
    model = StateSpaceModel(A=A, B=B, C=np.zeros((1, 2)), D=D,
                            x0_mean=np.zeros(2), V0=np.eye(2))
    with pytest.raises(NotObservable):
        normalize(model)


def test_normalize_rank_tests_ignore_the_scale_of_A():
    # B alone has rank 2, so A = diag(1e100, 1.2) cannot make the pair unreachable
    _, B, C, D = example_matrices()
    model = StateSpaceModel(A=np.diag([1e100, 1.2]), B=B, C=C, D=D,
                            x0_mean=np.zeros(2), V0=np.eye(2))
    assert isinstance(normalize(model), NormalizedModel)
    model = random_model(np.random.default_rng(6), n=6, p=1)
    for a in (1e2, 1e-2):
        scaled = StateSpaceModel(A=a * model.A, B=model.B, C=model.C, D=model.D,
                                 x0_mean=model.x0_mean, V0=model.V0)
        assert isinstance(normalize(scaled), NormalizedModel)


@pytest.mark.parametrize("A, B, C, D", [
    # A² passes the largest double
    (1e200 * np.eye(3) + np.diag([0.0, 1e199, 2e199]), np.eye(3), [[1.0, 1.0, 1.0]],
     [[1.0, 1.0, 1.0]]),
    # so does A times the unit-scaled B
    (1e308 * np.array([[1.0, 1.0], [0.0, 1.0]]), example_matrices()[1], [[1.0, 1.0]],
     example_matrices()[3]),
])
def test_normalize_rank_tests_keep_the_blocks_of_a_huge_A_finite(A, B, C, D):
    # the suite turns a numpy RuntimeWarning into an error
    n = len(A)
    model = StateSpaceModel(A=A, B=B, C=C, D=D, x0_mean=np.zeros(n), V0=np.eye(n))
    assert isinstance(normalize(model), NormalizedModel)


def _pbh_reachable(A, B):
    """Popov-Belevitch-Hautus: [λI − A, B] has full row rank at every
    eigenvalue λ of A, with A and B each scaled to unit 2-norm."""
    n = A.shape[0]
    A = A / np.linalg.norm(A, 2) if A.any() else A
    B = B / np.linalg.norm(B, 2) if B.any() else B
    return all(np.linalg.svd(np.hstack([lam * np.eye(n) - A, B]), compute_uv=False)[-1] > 1e-8
               for lam in np.linalg.eigvals(A))


def test_rank_decisions_match_a_pbh_reference_at_any_scale_of_A():
    # a third of the pairs keep their last k states out of reach (block
    # triangular, permuted), a third have A scaled by 10^u, u in [-3, 3]; each
    # pair is tested as (A, B) for reachability and as (Aᵀ, Bᵀ) for observability
    rng = np.random.default_rng(2024)
    for i in range(1200):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        if i % 3 == 0:
            k = int(rng.integers(1, n + 1))
            A[n - k:, :n - k] = 0.0
            B[n - k:] = 0.0
            order = rng.permutation(n)
            A, B = A[np.ix_(order, order)], B[order]
        if i // 3 % 3 == 0:
            A = A * 10.0 ** rng.uniform(-3.0, 3.0)
        want = _pbh_reachable(A, B)
        decided = []
        for pair in (dict(A=A, B=np.hstack([B, np.zeros((n, n))]), C=np.eye(n),
                          D=np.hstack([np.zeros((n, m)), np.eye(n)])),
                     dict(A=A.T, B=np.hstack([np.eye(n), np.zeros((n, m))]), C=B.T,
                          D=np.hstack([np.zeros((m, n)), np.eye(m)]))):
            try:
                normalize(StateSpaceModel(**pair, x0_mean=np.zeros(n), V0=np.eye(n)))
                decided.append(True)
            except (NotReachable, NotObservable):
                decided.append(False)
        assert decided == [want, want], (i, n, m)


def test_normalize_without_outputs_is_not_observable():
    # C and D with no rows: the Krylov matrix of (Aᵀ, Cᵀ) is empty, of rank 0
    A, B, _, _ = example_matrices()
    model = StateSpaceModel(A=A, B=B, C=np.zeros((0, 2)), D=np.zeros((0, 3)),
                            x0_mean=np.zeros(2), V0=np.eye(2))
    with pytest.raises(NotObservable):
        normalize(model)


def test_reachability_matrix_blocks(example_normalized):
    m = example_normalized
    np.testing.assert_array_equal(reachability_matrix(m, 1), m.B)
    R2 = reachability_matrix(m, 2)
    want = np.array([[1, 0, 0, 0.1, 1, 0], [0, 1, 0, 0, 1.2, 0]], dtype=float)
    np.testing.assert_allclose(R2, want, atol=1e-15)


def test_reachability_identity_A(example_normalized):
    m = example_normalized
    model = StateSpaceModel(A=np.eye(2), B=m.B, C=m.C, D=m.D,
                            x0_mean=np.zeros(2), V0=np.eye(2))
    np.testing.assert_array_equal(
        reachability_matrix(model, 2), np.hstack([m.B, m.B]))


def test_reachability_nesting(make_model):
    rng = np.random.default_rng(5)
    model = make_model(rng, n=3)
    R3 = reachability_matrix(model, 3)
    R4 = reachability_matrix(model, 4)
    np.testing.assert_array_equal(R4[:, : R3.shape[1]], R3)


def test_observability_matrix_values(example_normalized):
    m = example_normalized
    np.testing.assert_array_equal(observability_matrix(m, 1), m.C)
    O2 = observability_matrix(m, 2)
    np.testing.assert_allclose(O2, np.array([[0.1, -0.2], [1.0, -1.0]]), atol=1e-15)
    np.testing.assert_allclose(O2[-1], m.C[0])  # bottom block row is C


def test_observability_identity_A(example_normalized):
    m = example_normalized
    model = StateSpaceModel(A=np.eye(2), B=m.B, C=m.C, D=m.D,
                            x0_mean=np.zeros(2), V0=np.eye(2))
    O3 = observability_matrix(model, 3)
    for i in range(3):
        np.testing.assert_array_equal(O3[i : i + 1], m.C)


def test_powers_matrix(example_normalized):
    m = example_normalized
    np.testing.assert_array_equal(powers_matrix(m, 1), np.eye(2))
    O2R = powers_matrix(m, 2)
    np.testing.assert_array_equal(O2R[:2], m.A)
    np.testing.assert_array_equal(O2R[2:], np.eye(2))


def test_rank_matches_gramian(make_model):
    # rank(R_n) = n iff the n-step reachability Gramian is PD
    rng = np.random.default_rng(31)
    model = make_model(rng, n=3)
    R = reachability_matrix(model, 3)
    G = np.zeros((3, 3))
    Apow = np.eye(3)
    for _ in range(3):
        G += Apow @ model.B @ model.B.T @ Apow.T
        Apow = model.A @ Apow
    assert np.linalg.matrix_rank(R) == 3
    assert np.min(np.linalg.eigvalsh(G)) > 0


def test_simulate_deterministic(example_model):
    t1 = simulate(example_model, 50, seed=9)
    t2 = simulate(example_model, 50, seed=9)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.observations, t2.observations)
    assert t1.seed == 9


def test_simulate_noiseless_state_propagation():
    # B = 0 kills process noise: x_k = A^k x_0 exactly for the drawn x_0
    A, _, C, D = example_matrices()
    model = StateSpaceModel(A=0.5 * A, B=np.zeros((2, 3)), C=C, D=D,
                            x0_mean=np.ones(2), V0=np.eye(2))
    traj = simulate(model, 10, seed=3)
    x = traj.states[0]
    for k in range(10):
        np.testing.assert_allclose(traj.states[k], x, atol=1e-12)
        x = model.A @ x


def test_simulate_noise_is_standard_normal():
    # C = 0, D = I, B = 0 makes y_k = v_k; check the sample covariance
    model = StateSpaceModel(A=np.zeros((1, 1)), B=np.zeros((1, 2)),
                            C=np.zeros((2, 1)), D=np.eye(2),
                            x0_mean=np.zeros(1), V0=np.eye(1))
    traj = simulate(model, 100_000, seed=12)
    cov = np.cov(traj.observations.T)
    np.testing.assert_allclose(cov, np.eye(2), atol=0.02)
    assert np.max(np.abs(np.mean(traj.observations, axis=0))) < 0.02


def _reference_simulation(model, steps, seed):
    """One noise draw per step, as the CLI's reproducibility note describes."""
    rng = np.random.default_rng(seed)
    x = model.x0_mean + np.linalg.cholesky(model.V0) @ rng.standard_normal(model.n)
    states, observations = np.empty((steps, model.n)), np.empty((steps, model.p))
    for k in range(steps):
        v = rng.standard_normal(model.m)
        states[k] = x
        observations[k] = model.C @ x + model.D @ v
        x = model.A @ x + model.B @ v
    return states, observations


@pytest.mark.parametrize("model", ["example"] + [
    (seed, n, p, correlated) for seed, (n, p, correlated) in enumerate(
        [(1, 1, False), (2, 1, True), (3, 2, False), (3, 2, True), (4, 1, False), (6, 3, True)])
])
@pytest.mark.parametrize("steps", [0, 1, 300])
def test_simulate_matches_per_step_draws_bit_for_bit(example_model, model, steps):
    if model == "example":
        model = example_model
    else:
        seed, n, p, correlated = model
        model = random_model(np.random.default_rng(seed), n=n, p=p, correlated=correlated)
    traj = simulate(model, steps, seed=21)
    states, observations = _reference_simulation(model, steps, seed=21)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.observations.tobytes() == observations.tobytes()


def test_simulate_past_the_double_range_raises_domain_violation(example_model):
    # the example's eigenvalue 1.2 carries its seed-0 state past the largest
    # double at x_3895; tier-1 turns numpy's RuntimeWarning into a failure
    with pytest.raises(DomainViolation, match=r"^simulated state x_3895 leaves the double range"):
        simulate(example_model, 4000, seed=0)


def test_simulated_observations_past_the_double_range_raise_domain_violation(example_model):
    # at 3800 steps the states stay finite (see below), but C scaled by 1e10 takes C x past
    # the largest double
    model = StateSpaceModel(A=example_model.A, B=example_model.B, C=1e10 * example_model.C,
                            D=example_model.D, x0_mean=example_model.x0_mean, V0=example_model.V0)
    with pytest.raises(DomainViolation, match=r"^simulated observations leave the double range"):
        simulate(model, 3800, seed=0)


def test_simulate_near_the_double_range_matches_per_step_draws(example_model):
    traj = simulate(example_model, 3800, seed=0)
    states, observations = _reference_simulation(example_model, 3800, seed=0)
    assert np.abs(traj.states).max() > 1e298
    assert traj.states.tobytes() == states.tobytes()
    assert traj.observations.tobytes() == observations.tobytes()


def test_simulate_zero_steps(example_model):
    traj = simulate(example_model, 0, seed=1)
    assert traj.states.shape == (0, 2)
    assert traj.observations.shape == (0, 1)


def test_bad_block_count_and_steps_raise_config_error(example_model):
    for build in (reachability_matrix, observability_matrix, powers_matrix):
        with pytest.raises(ConfigError):
            build(example_model, 0)
    with pytest.raises(ConfigError):
        simulate(example_model, -1, 0)


@pytest.mark.parametrize("steps", [2.5, "10", True])
def test_simulate_rejects_non_integer_steps(example_model, steps):
    with pytest.raises(ConfigError):
        simulate(example_model, steps, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, "0", None, True, False])
def test_simulate_rejects_bad_seed(example_model, seed):
    with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
        simulate(example_model, 5, seed)


def test_block_matrices_reject_a_bool_block_count(example_model):
    for build in (reachability_matrix, observability_matrix, powers_matrix):
        with pytest.raises(ConfigError, match="block count N must be a positive integer"):
            build(example_model, True)


def test_trajectory_length_mismatch():
    with pytest.raises(DimensionMismatch):
        Trajectory(states=np.zeros((3, 2)), observations=np.zeros((2, 1)), seed=0)


def _write_model(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return path


def _example_payload():
    A, B, C, D = example_matrices()
    return {"A": A.tolist(), "B": B.tolist(), "C": C.tolist(), "D": D.tolist(),
            "x0_mean": [0.0, 0.0], "V0": [[1.0, 0.0], [0.0, 1.0]]}


def test_load_model_roundtrip(tmp_path, example_model):
    path = _write_model(tmp_path, _example_payload())
    m = load_model(path)
    np.testing.assert_array_equal(m.A, example_model.A)
    np.testing.assert_array_equal(m.V0, example_model.V0)


def test_load_model_missing_file(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ModelIOError, match="not readable"):
        load_model(path)


def test_load_model_rejects_nan(tmp_path):
    payload = _example_payload()
    text = json.dumps(payload).replace("0.1", "NaN")
    with pytest.raises(ModelIOError):
        load_model(_write_model(tmp_path, text))


def test_load_model_missing_and_extra_keys(tmp_path):
    payload = _example_payload()
    del payload["V0"]
    with pytest.raises(ModelIOError, match="V0"):
        load_model(_write_model(tmp_path, payload))
    payload = _example_payload()
    payload["junk"] = 1
    with pytest.raises(ModelIOError, match="junk"):
        load_model(_write_model(tmp_path, payload))


def test_load_model_not_an_object(tmp_path):
    with pytest.raises(ModelIOError):
        load_model(_write_model(tmp_path, "[1, 2, 3]"))
    with pytest.raises(ModelIOError, match="is not valid JSON"):
        load_model(_write_model(tmp_path, '{"A": [[1.0'))
