import json
import logging

import numpy as np
import pytest
import scipy.linalg as la

from robkf import (
    ConfigError,
    DomainViolation,
    NormalizedModel,
    NotObservable,
    NotReachable,
    NotSPD,
    RiskSensitiveModeUnsupported,
    SearchFailed,
    StateSpaceModel,
    build_downsampled,
    certify,
    contraction_bound,
    downsampled_map,
    find_phi_N,
    gamma,
    normalize,
    phi_gap,
    risk_sensitive_map,
    solve_theta,
    standard_riccati,
    thompson_metric,
    v_update,
)
from robkf.contraction import _reweighted_blocks

from conftest import random_spd


def test_thompson_metric_basics():
    rng = np.random.default_rng(1)
    P = random_spd(rng, 3)
    assert thompson_metric(P, P) == pytest.approx(0.0, abs=1e-12)
    assert thompson_metric(np.eye(3), 2 * np.eye(3)) == pytest.approx(np.log(2), rel=1e-12)


def test_thompson_metric_axioms():
    rng = np.random.default_rng(2)
    for _ in range(30):
        P, Q, R = (random_spd(rng, 3) for _ in range(3))
        dpq = thompson_metric(P, Q)
        assert dpq >= 0
        assert dpq == pytest.approx(thompson_metric(Q, P), abs=1e-10)
        assert dpq <= thompson_metric(P, R) + thompson_metric(R, Q) + 1e-10


def test_thompson_metric_invariances():
    rng = np.random.default_rng(3)
    for _ in range(20):
        P, Q = random_spd(rng, 3), random_spd(rng, 3)
        M = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        d = thompson_metric(P, Q)
        assert thompson_metric(M @ P @ M.T, M @ Q @ M.T) == pytest.approx(d, abs=1e-9)
        assert thompson_metric(np.linalg.inv(P), np.linalg.inv(Q)) == pytest.approx(d, abs=1e-9)


def test_thompson_metric_rejects_bad_input():
    with pytest.raises(NotSPD):
        thompson_metric(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotSPD):
        thompson_metric(np.eye(2), np.eye(3))


def test_contraction_bound_values():
    assert contraction_bound(np.zeros((2, 2)), np.eye(2), np.eye(2)) == 0.0
    want = 3.0 - 2.0 * np.sqrt(2.0)  # s = 1
    assert contraction_bound(np.eye(2), np.eye(2), np.eye(2)) == pytest.approx(want, rel=1e-12)
    with pytest.raises(NotSPD):
        contraction_bound(np.eye(2), -np.eye(2), np.eye(2))


def test_contraction_bound_dominates_empirical_ratios():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(2, 2))
    W1, W2 = random_spd(rng, 2), random_spd(rng, 2)
    bound = contraction_bound(M, W1, W2)
    assert 0 <= bound < 1

    def h(P):
        return M @ np.linalg.inv(np.linalg.inv(P) + W1) @ M.T + W2

    for _ in range(20):
        P, Q = random_spd(rng, 2), random_spd(rng, 2)
        num = thompson_metric(h(P), h(Q))
        den = thompson_metric(P, Q)
        assert num <= (bound + 1e-9) * den


def test_build_downsampled_single_block(example_normalized, caplog):
    m = example_normalized
    with caplog.at_level(logging.WARNING, logger="robkf.contraction"):
        ds = build_downsampled(m, 1)
    assert "below the state dimension" in caplog.text
    assert ds.N == 1
    np.testing.assert_array_equal(ds.H_N, np.zeros((1, 3)))
    np.testing.assert_array_equal(ds.O_N, m.C)
    np.testing.assert_array_equal(ds.R_N, m.B)
    DDt_inv = np.linalg.inv(m.D @ m.D.T)
    np.testing.assert_allclose(ds.Omega_N, m.C.T @ DDt_inv @ m.C, atol=1e-12)


def test_build_downsampled_structure(example_normalized):
    m = example_normalized
    N = 4
    ds = build_downsampled(m, N)
    n, mm, p = m.n, m.m, m.p
    # strictly upper block Toeplitz: block (i, j) = C A^{j-i-1} B
    Apow = [np.eye(n)]
    for _ in range(N):
        Apow.append(m.A @ Apow[-1])
    for i in range(N):
        for j in range(N):
            H_blk = ds.H_N[i * p:(i + 1) * p, j * mm:(j + 1) * mm]
            L_blk = ds.L_N[i * n:(i + 1) * n, j * mm:(j + 1) * mm]
            if j > i:
                np.testing.assert_allclose(H_blk, m.C @ Apow[j - i - 1] @ m.B, atol=1e-14)
                np.testing.assert_allclose(L_blk, Apow[j - i - 1] @ m.B, atol=1e-14)
            else:
                assert not H_blk.any() and not L_blk.any()
    # noise decoupling is structural, not approximate
    assert not (ds.D_N @ ds.H_N.T).any()
    assert not (ds.D_N @ ds.L_N.T).any()
    # stacking order: highest power on top, plain C / I at the bottom
    np.testing.assert_array_equal(ds.O_N[-p:], m.C)
    np.testing.assert_array_equal(ds.O_N_R[-n:], np.eye(n))
    np.testing.assert_allclose(ds.O_N[:p], m.C @ Apow[N - 1], atol=1e-14)
    np.testing.assert_allclose(ds.A_N, Apow[N], atol=1e-14)


def test_build_downsampled_rejects_bad_n(example_normalized):
    with pytest.raises(ConfigError):
        build_downsampled(example_normalized, 0)
    with pytest.raises(ConfigError):
        build_downsampled(example_normalized, 2.5)


def test_build_downsampled_overflow_raises_before_the_blocks(example_normalized):
    # rho(A) = 1.2, so C A^k B squared overflows from about k = 1950 on;
    # tier-1 turns any leaked numpy RuntimeWarning into a failure
    with pytest.raises(NotSPD, match="block innovation covariance has non-finite entries"):
        build_downsampled(example_normalized, 2000)


def test_build_downsampled_overflow_past_the_squares_is_not_spd():
    # A^k overflows outright before any impulse response is checked
    model = NormalizedModel(
        A=np.diag([0.5, 1e10]), B=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        C=[[1.0, 1.0]], D=[[0.0, 0.0, 1.0]],
        x0_mean=np.zeros(2), V0=np.eye(2))
    with pytest.raises(NotSPD, match="lifted system overflows at N=40"):
        build_downsampled(model, 40)


def test_build_downsampled_unobservable_pair():
    model = NormalizedModel(
        A=np.diag([0.5, 0.6]), B=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        C=[[1.0, 0.0]], D=[[0.0, 0.0, 1.0]],
        x0_mean=np.zeros(2), V0=np.eye(2))
    with pytest.raises(NotObservable):
        build_downsampled(model, 2)


def test_build_downsampled_unreachable_pair():
    model = NormalizedModel(
        A=np.diag([0.5, 0.6]), B=[[1.0, 0.0], [0.0, 0.0]],
        C=[[1.0, 1.0]], D=[[0.0, 1.0]],
        x0_mean=np.zeros(2), V0=np.eye(2))
    with pytest.raises(NotReachable):
        build_downsampled(model, 2)


def test_tilde_phi_golden(example_normalized):
    ds = build_downsampled(example_normalized, 50)
    assert ds.tilde_phi_N == pytest.approx(1.3335e-3, rel=1e-3)


def test_reweighting_monotone(example_normalized):
    # Omega shrinks and W grows as the reweighting increases
    ds = build_downsampled(example_normalized, 5)
    phis = [0.0, 0.2 * ds.tilde_phi_N, 0.5 * ds.tilde_phi_N, 0.8 * ds.tilde_phi_N]
    Nn = ds.L_N.shape[0]
    blocks = [_reweighted_blocks(ds, phi * np.eye(Nn)) for phi in phis]
    for (O1, _, W1), (O2, _, W2) in zip(blocks, blocks[1:]):
        assert np.min(np.linalg.eigvalsh(O1 - O2)) >= -1e-10
        assert np.min(np.linalg.eigvalsh(W2 - W1)) >= -1e-10


def test_zero_reweighting_closed_form(example_normalized):
    ds = build_downsampled(example_normalized, 4)
    Nn = ds.L_N.shape[0]
    _, _, W0 = _reweighted_blocks(ds, np.zeros((Nn, Nn)))
    Z = np.eye(ds.H_N.shape[1]) + ds.H_N.T @ np.linalg.solve(ds.D_N @ ds.D_N.T, ds.H_N)
    np.testing.assert_allclose(W0, ds.R_N @ np.linalg.solve(Z, ds.R_N.T), atol=1e-10)


def test_downsampled_map_zero_phi_is_riccati_composition(make_model):
    rng = np.random.default_rng(5)
    for N in (2, 3):
        model = normalize(make_model(rng, n=2))
        ds = build_downsampled(model, N)
        P = random_spd(rng, 2)
        got = downsampled_map(ds, np.zeros((2 * N, 2 * N)), P)
        want = P.copy()
        for _ in range(N):
            want = standard_riccati(model, want)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-8


def test_downsampled_map_single_block_is_phi_map(example_normalized):
    ds = build_downsampled(example_normalized, 1)
    P = np.array([[2.0, 0.4], [0.4, 1.6]])
    theta = solve_theta(P, 0.05, 0.5)
    Phi = phi_gap(P, v_update(P, theta, 0.5))
    got = downsampled_map(ds, Phi, P)
    want = risk_sensitive_map(example_normalized, P, Phi)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_downsampled_map_constant_phi_is_rs_composition(make_model):
    rng = np.random.default_rng(6)
    for N in (2, 3):
        model = normalize(make_model(rng, n=2))
        ds = build_downsampled(model, N)
        # stay inside the certified feasible region so both routes are defined
        phi = 0.4 * find_phi_N(ds)
        Phi = phi * np.eye(2)
        P = random_spd(rng, 2)
        got = downsampled_map(ds, la.block_diag(*([Phi] * N)), P)
        want = P.copy()
        for _ in range(N):
            want = risk_sensitive_map(model, want, Phi)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-8


def test_downsampled_map_domain_checks(example_normalized):
    ds = build_downsampled(example_normalized, 3)
    P = np.eye(2)
    with pytest.raises(DomainViolation):
        downsampled_map(ds, 1.01 * ds.tilde_phi_N * np.eye(6), P)
    with pytest.raises(DomainViolation):
        downsampled_map(ds, -1e-6 * np.eye(6), P)
    with pytest.raises(DomainViolation):
        downsampled_map(ds, np.zeros((4, 4)), P)


def test_find_phi_golden(example_normalized):
    ds = build_downsampled(example_normalized, 50)
    phi = find_phi_N(ds)
    assert phi == pytest.approx(1.3328e-3, rel=5e-3)
    assert 0 < phi < ds.tilde_phi_N
    Omega, _, W = _reweighted_blocks(ds, phi * np.eye(100))
    assert np.min(np.linalg.eigvalsh(Omega)) > 0
    assert np.min(np.linalg.eigvalsh(W)) > 0


def test_find_phi_degenerate_feasible_edge():
    # J_N orthogonal to the top eigenvector of T: feasibility survives
    # all the way to tilde_phi_N and the search returns the edge
    model = normalize(StateSpaceModel(
        A=[[0.0]], B=[[1.0, 0.0]], C=[[1.0]], D=[[0.0, 1e-5]],
        x0_mean=np.zeros(1), V0=np.eye(1)))
    ds = build_downsampled(model, 2)
    phi = find_phi_N(ds)
    assert phi == pytest.approx(ds.tilde_phi_N, rel=1e-6)


def test_find_phi_search_failed(example_normalized, caplog):
    # N = 1 leaves Omega_1 rank deficient for this two-state model, so
    # no positive reweighting is feasible
    with caplog.at_level(logging.ERROR, logger="robkf.contraction"):
        ds = build_downsampled(example_normalized, 1)
    with pytest.raises(SearchFailed):
        find_phi_N(ds)


def _lambda_min_schur_omega(ds, phi):
    # Omega(phi) = Omega_N - J_Nᵀ (phi⁻¹ I - T)⁻¹ J_N, valid for phi < tilde_phi_N
    t, U = np.linalg.eigh(ds.T)
    UJ = U.T @ ds.J_N
    Omega = ds.Omega_N - UJ.T @ (UJ / (1.0 / phi - t)[:, None])
    return np.min(np.linalg.eigvalsh(0.5 * (Omega + Omega.T)))


def test_find_phi_closed_form_brackets_the_omega_edge(example_normalized, make_model):
    ds = build_downsampled(example_normalized, 50)
    phi = find_phi_N(ds)
    assert phi == pytest.approx(1.33345991e-3, rel=1e-6)
    systems = [ds]
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        model = normalize(make_model(rng, n=n))
        systems += [build_downsampled(model, N) for N in (n, 20)]
    cap_bound = 0
    for ds in systems:
        phi = find_phi_N(ds)
        assert 0 < phi < ds.tilde_phi_N
        assert _lambda_min_schur_omega(ds, 0.999 * phi) > 0
        if phi == ds.tilde_phi_N * (1.0 - 1e-9):
            cap_bound += 1
        else:
            # the Schur form holds only below tilde_phi_N, which on the
            # example lies 1.7e-5 relative above phi_N
            above = min(1.001 * phi, 0.5 * (phi + ds.tilde_phi_N))
            assert _lambda_min_schur_omega(ds, above) < 0
    assert cap_bound < len(systems)


def test_find_phi_without_finite_tilde_phi():
    # N = 1 leaves L_N = 0, so T = 0 and tilde_phi_N is infinite; the
    # closed form reduces to lam_min(Omega_1) = C²/R
    model = normalize(StateSpaceModel(
        A=[[0.5]], B=[[1.0, 0.0]], C=[[2.0]], D=[[0.0, 0.5]],
        x0_mean=np.zeros(1), V0=np.eye(1)))
    ds = build_downsampled(model, 1)
    assert ds.tilde_phi_N == float("inf")
    assert find_phi_N(ds) == pytest.approx(16.0, rel=1e-8)


def test_find_phi_rank_deficient_reachability_fails(caplog):
    # one noise column in B: at N = 1 Omega_1 = I is PD, but R_1 = B has
    # rank 1 < n, so W is singular for every phi
    model = normalize(StateSpaceModel(
        A=np.diag([0.5, 0.3]), B=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        C=np.eye(2), D=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        x0_mean=np.zeros(2), V0=np.eye(2)))
    with caplog.at_level(logging.ERROR, logger="robkf.contraction"):
        ds = build_downsampled(model, 1)
    assert np.min(np.linalg.eigvalsh(ds.Omega_N)) > 0
    with pytest.raises(SearchFailed):
        find_phi_N(ds)


def test_certify_goldens(example_model):
    for tau, want in [(0.0, 0.122), (0.5, 0.101), (1.0, 0.0862)]:
        cert = certify(example_model, tau)
        assert cert.c_max == pytest.approx(want, rel=0.02)
        assert cert.N == 50 and cert.q == 40
        assert 0 < cert.phi_N < cert.tilde_phi_N
        assert cert.sigma_n == pytest.approx(np.min(np.linalg.eigvalsh(cert.P_bar_q)), rel=1e-12)
        assert cert.c_max == pytest.approx(gamma(cert.P_bar_q, cert.theta_bar, tau), rel=1e-12)
        assert cert.theta_max is None


def test_certify_monotone_in_q(example_model):
    c40 = certify(example_model, 0.5, q=40).c_max
    c60 = certify(example_model, 0.5, q=60).c_max
    assert c60 >= c40 - 1e-12


def test_certify_risk_sensitive(example_model):
    cert = certify(example_model, 1.0, mode="risk_sensitive")
    assert cert.c_max is None
    x = cert.sigma_n * cert.phi_N
    assert cert.theta_max == pytest.approx(-np.log1p(-x) / cert.sigma_n, rel=1e-12)
    with pytest.raises(RiskSensitiveModeUnsupported):
        certify(example_model, 0.5, mode="risk_sensitive")


def test_certify_config_errors(example_model):
    with pytest.raises(ConfigError):
        certify(example_model, 0.5, mode="bogus")
    with pytest.raises(ConfigError):
        certify(example_model, 0.5, q=0)
    with pytest.raises(ConfigError):
        certify(example_model, 0.5, N=1)  # below the state dimension


def test_certificate_serializes(example_model):
    cert = certify(example_model, 0.0)
    payload = json.loads(json.dumps(cert.as_dict()))
    assert payload["mode"] == "robust"
    assert payload["c_max"] == pytest.approx(cert.c_max)
    assert np.asarray(payload["P_bar_q"]).shape == (2, 2)
    assert "theta_max" not in payload


def test_certified_run_keeps_phi_below_phi_n(example_model):
    # along a certified robust run the per-step gap stays within the
    # reweighting budget once past the burn-in
    tau = 0.5
    cert = certify(example_model, tau)
    model = normalize(example_model)
    V = np.eye(2)
    from robkf import predict_covariance
    for k in range(1, 121):
        P = predict_covariance(model, V)
        theta = solve_theta(P, cert.c_max, tau)
        V_next = v_update(P, theta, tau)
        if k >= cert.q + 1:
            Phi = phi_gap(P, V_next)
            assert np.max(np.linalg.eigvalsh(Phi)) <= cert.phi_N + 1e-10
        V = V_next
