import json
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as la

from robkf import (
    ConfigError,
    DimensionMismatch,
    DomainViolation,
    FilterConfig,
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
    iterate_to_fixed_point,
    normalize,
    phi_gap,
    predict_covariance,
    risk_sensitive_map,
    run_filter,
    solve_theta,
    standard_riccati,
    thompson_metric,
    v_update,
)
from robkf import _linalg
from robkf.contraction import _map_blocks

from conftest import precise_sensor_jordan_model, random_model, random_spd


def test_thompson_metric_basics():
    rng = np.random.default_rng(1)
    P = random_spd(rng, 3)
    assert thompson_metric(P, P) == pytest.approx(0.0, abs=1e-12)
    assert thompson_metric(np.eye(3), 2 * np.eye(3)) == pytest.approx(np.log(2), rel=1e-12)


def test_thompson_metric_spans_twice_the_double_range():
    # no Cholesky factor is squared, so ratios past the double range still resolve
    for e in (300, 200):
        d = thompson_metric(10.0**-e * np.eye(2), 10.0**e * np.eye(2))
        assert d == pytest.approx(2 * e * math.log(10), rel=1e-15)
    with pytest.raises(DomainViolation, match="more than twice the double range"):
        thompson_metric(np.diag([1e-300, 1e300]), np.diag([1e300, 1e-300]))


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
    with pytest.raises(DimensionMismatch):
        thompson_metric(np.eye(2), np.eye(3))
    for bad in (np.ones((2, 3)), np.ones(2), np.zeros((0, 0)), "ab"):
        with pytest.raises(DimensionMismatch, match="^P must be"):
            thompson_metric(bad, bad)


def test_contraction_bound_values():
    assert contraction_bound(np.zeros((2, 2)), np.eye(2), np.eye(2)) == 0.0
    want = 3.0 - 2.0 * np.sqrt(2.0)  # s = 1
    assert contraction_bound(np.eye(2), np.eye(2), np.eye(2)) == pytest.approx(want, rel=1e-12)
    with pytest.raises(NotSPD):
        contraction_bound(np.eye(2), -np.eye(2), np.eye(2))
    # sigma = 1e300 squares past the largest double, L2⁻¹ M L1⁻ᵀ = 1e600 I and
    # sigma_max(1e308 ones) overflow: the bound is 1.0, not NaN
    tiny = 1e-300 * np.eye(2)
    assert contraction_bound(tiny, tiny, tiny) == pytest.approx(want, rel=1e-12)
    assert contraction_bound(np.eye(2), tiny, tiny) == 1.0
    assert contraction_bound(1e300 * np.eye(2), tiny, tiny) == 1.0
    assert contraction_bound(1e308 * np.ones((2, 2)), np.eye(2), np.eye(2)) == 1.0


def test_contraction_bound_maps_between_cones_of_two_sizes():
    # M (2, 3) maps the 3×3 cone to the 2×2 one; sigma_max(ones(2, 3)) = sqrt(6)
    sigma = np.sqrt(6.0)
    want = (sigma / (1.0 + np.sqrt(7.0))) ** 2
    assert contraction_bound(np.ones((2, 3)), np.eye(3), np.eye(2)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("M,W1,W2", [
    (np.eye(2), np.eye(3), np.eye(2)),
    (np.eye(2), np.eye(2), np.eye(3)),
    (np.ones((2, 3)), np.eye(2), np.eye(2)),
    (np.ones(2), np.eye(2), np.eye(2)),
    ("ab", np.eye(2), np.eye(2)),
    (np.eye(2), np.eye(2), "ab"),
])
def test_contraction_bound_shape_mismatch(M, W1, W2):
    with pytest.raises(DimensionMismatch):
        contraction_bound(M, W1, W2)


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


def _lifted_reference(model, N):
    """The N-block lifted system of a normalized model, laid out from powers
    of A without robkf.contraction (as bench/checks.py does).

    R = [B, AB, ..., A^{N-1}B]; H and L strictly upper block Toeplitz with
    C A^{k-1} B and A^{k-1} B on the k-th superdiagonal; O and OR stacking
    C A^{N-1} (resp. A^{N-1}) at the top down to C (resp. I); DD = I_N ⊗ D Dᵀ,
    G = DD + H Hᵀ and Z = I + Hᵀ DD⁻¹ H. Then Omega = Oᵀ G⁻¹ O,
    J = OR − L Hᵀ G⁻¹ O and, by the matrix inversion lemma
    Z⁻¹ = I − Hᵀ G⁻¹ H, T = L (I − Hᵀ G⁻¹ H) Lᵀ; tilde_phi = 1/lam_max(T)
    and phi = (1 − 1e-9)/lam_max(T + J Omega⁻¹ Jᵀ), the library's margin.
    """
    A, B, C, D = model.A, model.B, model.C, model.D
    n, m, p = model.n, model.m, model.p
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(A @ powers[-1])
    H = np.zeros((N * p, N * m))
    L = np.zeros((N * n, N * m))
    for i in range(N):
        for j in range(i + 1, N):
            H[i * p:(i + 1) * p, j * m:(j + 1) * m] = C @ powers[j - i - 1] @ B
            L[i * n:(i + 1) * n, j * m:(j + 1) * m] = powers[j - i - 1] @ B
    ref = SimpleNamespace(
        R=np.hstack([powers[k] @ B for k in range(N)]),
        O=np.vstack([C @ powers[N - 1 - i] for i in range(N)]),
        OR=np.vstack([powers[N - 1 - i] for i in range(N)]),
        H=H, L=L, D_N=np.kron(np.eye(N), D), DD=np.kron(np.eye(N), D @ D.T))
    ref.G = ref.DD + H @ H.T
    ref.Z = np.eye(N * m) + H.T @ np.linalg.solve(ref.DD, H)
    GiO = np.linalg.solve(ref.G, ref.O)
    ref.Omega = _sym(ref.O.T @ GiO)
    ref.J = ref.OR - L @ H.T @ GiO
    ref.T = _sym(L @ (np.eye(N * m) - H.T @ np.linalg.solve(ref.G, H)) @ L.T)
    t_max = np.linalg.eigvalsh(ref.T)[-1]
    ref.tilde_phi = 1.0 / t_max if t_max > 0.0 else float("inf")
    if np.linalg.eigvalsh(ref.Omega)[0] > 0.0:
        S = _sym(ref.T + ref.J @ np.linalg.solve(ref.Omega, ref.J.T))
        ref.phi = (1.0 - 1e-9) / np.linalg.eigvalsh(S)[-1]
    return ref


def _sym(M):
    return 0.5 * (M + M.T)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_build_downsampled_single_block(example_normalized, caplog):
    # one block: H and L vanish, so T = 0, J_N = I and Omega_N = Cᵀ(D Dᵀ)⁻¹C
    m = example_normalized
    with caplog.at_level(logging.WARNING, logger="robkf.contraction"):
        ds = build_downsampled(m, 1)
    assert "below the state dimension" in caplog.text
    assert ds.N == 1
    ref = _lifted_reference(m, 1)
    assert not ref.H.any() and not ref.L.any()
    assert not ds.T.any() and ds.tilde_phi_N == float("inf")
    np.testing.assert_array_equal(ds.J_N, np.eye(2))
    DDt_inv = np.linalg.inv(m.D @ m.D.T)
    np.testing.assert_allclose(ds.Omega_N, m.C.T @ DDt_inv @ m.C, atol=1e-12)
    np.testing.assert_allclose(ds.Omega_N, ref.Omega, atol=1e-12)


def test_build_downsampled_structure(example_normalized):
    m = example_normalized
    N = 4
    ds = build_downsampled(m, N)
    ref = _lifted_reference(m, N)
    n, mm, p = m.n, m.m, m.p
    # the reference's layout: block (i, j) of H is C A^{j-i-1} B for j > i
    Apow = [np.eye(n)]
    for _ in range(N):
        Apow.append(m.A @ Apow[-1])
    for i in range(N):
        for j in range(N):
            H_blk = ref.H[i * p:(i + 1) * p, j * mm:(j + 1) * mm]
            L_blk = ref.L[i * n:(i + 1) * n, j * mm:(j + 1) * mm]
            if j > i:
                np.testing.assert_allclose(H_blk, m.C @ Apow[j - i - 1] @ m.B, atol=1e-14)
                np.testing.assert_allclose(L_blk, Apow[j - i - 1] @ m.B, atol=1e-14)
            else:
                assert not H_blk.any() and not L_blk.any()
    # noise decoupling is structural, not approximate
    assert not (ref.D_N @ ref.H.T).any()
    assert not (ref.D_N @ ref.L.T).any()
    np.testing.assert_array_equal(ref.O[-p:], m.C)
    np.testing.assert_array_equal(ref.OR[-n:], np.eye(n))
    # R_N = [B, A L₁] with L₁ the top block row of L_N, which the map's
    # one-solve form and the zero-reweighting W = B Bᵀ + A T[:n, :n] Aᵀ rest on
    np.testing.assert_allclose(ref.R[:, mm:], m.A @ ref.L[:n, mm:], rtol=1e-14, atol=0)
    # what the build keeps matches the reference
    for got, want in ((ds.T, ref.T), (ds.J_N, ref.J), (ds.Omega_N, ref.Omega)):
        assert _rel(got, want) <= 1e-12


def test_build_downsampled_matches_powers_reference():
    # >= 20 seeded models, n 1-4, N 1-12, correlated noise and not
    rng = np.random.default_rng(31)
    phis = 0
    for i in range(28):
        n = 1 + i % 4
        model = normalize(random_model(rng, n=n, p=1 + i % 2, correlated=bool(i // 4 % 2)))
        N = int(rng.integers(1, 13))
        ds = build_downsampled(model, N)
        ref = _lifted_reference(model, N)
        assert _rel(ds.T, ref.T) <= 1e-10 if ref.T.any() else not ds.T.any()
        # T = Yᵀ Y is symmetric bit for bit and PSD by construction
        assert np.array_equal(ds.T, ds.T.T)
        t = np.linalg.eigvalsh(ds.T)
        assert t[0] >= -1e-14 * t[-1]
        assert _rel(ds.J_N, ref.J) <= 1e-10
        assert _rel(ds.Omega_N, ref.Omega) <= 1e-10
        if np.isfinite(ref.tilde_phi):
            assert ds.tilde_phi_N == pytest.approx(ref.tilde_phi, rel=1e-10)
        else:
            assert ds.tilde_phi_N == float("inf")
        if N * model.p >= n:
            assert find_phi_N(ds) == pytest.approx(ref.phi, rel=1e-10)
            phis += 1
        else:
            # fewer outputs than states: Omega_N is singular
            with pytest.raises(SearchFailed):
                find_phi_N(ds)
    assert phis >= 20


def test_build_downsampled_drops_interleaved_zero_columns():
    # B = [b₁, 0, b₂, 0, 0] with D on B's zero channels only; the build
    # reads B through B Bᵀ, so it matches the model that holds b₁, b₂ in
    # two leading columns and D's channels after them, and the full-width
    # reference built from all five columns
    rng = np.random.default_rng(5)
    n, p, N = 3, 2, 8
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    b, d, C = rng.normal(size=(n, 2)), rng.normal(size=(p, 3)), rng.normal(size=(p, n))
    Z_n, Z_p = np.zeros((n, 1)), np.zeros((p, 1))
    interleaved = normalize(StateSpaceModel(
        A=A, B=np.hstack([b[:, :1], Z_n, b[:, 1:], Z_n, Z_n]),
        C=C, D=np.hstack([Z_p, d[:, :1], Z_p, d[:, 1:]]),
        x0_mean=np.zeros(n), V0=np.eye(n)))
    compact = normalize(StateSpaceModel(
        A=A, B=np.hstack([b, np.zeros((n, 3))]), C=C, D=np.hstack([np.zeros((p, 2)), d]),
        x0_mean=np.zeros(n), V0=np.eye(n)))
    got, want = build_downsampled(interleaved, N), build_downsampled(compact, N)
    ref = _lifted_reference(interleaved, N)
    for T, J, Omega in ((want.T, want.J_N, want.Omega_N), (ref.T, ref.J, ref.Omega)):
        assert _rel(got.T, T) <= 1e-13
        assert _rel(got.J_N, J) <= 1e-13
        assert _rel(got.Omega_N, Omega) <= 1e-13
    assert got.tilde_phi_N == pytest.approx(want.tilde_phi_N, rel=1e-13)
    assert got.tilde_phi_N == pytest.approx(ref.tilde_phi, rel=1e-13)
    assert find_phi_N(got) == pytest.approx(find_phi_N(want), rel=1e-13)
    assert find_phi_N(got) == pytest.approx(ref.phi, rel=1e-13)


def test_build_downsampled_factors_z_on_the_nonzero_columns(example_normalized, monkeypatch):
    # the example's B = [I, 0]: Z is N·2 square, not N·3
    sizes = []
    cholesky = _linalg._cholesky

    def spy(M, what):
        sizes.append(M.shape[-1])
        return cholesky(M, what)

    monkeypatch.setattr(_linalg, "_cholesky", spy)
    build_downsampled(example_normalized, 50)
    assert max(sizes) == 100


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
        C=[[1.0, 1e-10]], D=[[0.0, 0.0, 1.0]],
        x0_mean=np.zeros(2), V0=np.eye(2))
    with pytest.raises(NotSPD, match="lifted system overflows at N=40"):
        build_downsampled(model, 40)


def test_build_downsampled_unobservable_pair():
    # a NormalizedModel carries the rank test, so no lifted system is built
    with pytest.raises(NotObservable):
        NormalizedModel(
            A=np.diag([0.5, 0.6]), B=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            C=[[1.0, 0.0]], D=[[0.0, 0.0, 1.0]],
            x0_mean=np.zeros(2), V0=np.eye(2))


def test_observable_model_whose_omega_fails_to_factor_is_a_numeric_error(monkeypatch):
    # O_N has full rank 30 (singular value ratio ~4e-9), but Omega_N =
    # O_Nᵀ G_N⁻¹ O_N squares that condition past what a Cholesky resolves.
    # It is tested right after G_N's factor (N·p = 100 wide), before the
    # 1500-wide Z of B's 30 nonzero columns is formed
    sizes = []
    cholesky = _linalg._cholesky

    def spy(M, what):
        sizes.append(M.shape[-1])
        return cholesky(M, what)

    model = random_model(np.random.default_rng(30), 30, 2)
    monkeypatch.setattr(_linalg, "_cholesky", spy)
    with pytest.raises(NotSPD, match="not numerically positive definite"):
        certify(model, 0.5)
    assert max(sizes) == 50 * 2


def test_build_downsampled_unreachable_pair():
    with pytest.raises(NotReachable):
        NormalizedModel(
            A=np.diag([0.5, 0.6]), B=[[1.0, 0.0], [0.0, 0.0]],
            C=[[1.0, 1.0]], D=[[0.0, 1.0]],
            x0_mean=np.zeros(2), V0=np.eye(2))


def test_tilde_phi_golden(example_normalized):
    ds = build_downsampled(example_normalized, 50)
    assert ds.tilde_phi_N == pytest.approx(1.3335e-3, rel=1e-3)


def test_reweighting_monotone(example_normalized):
    # Omega shrinks and W grows as the reweighting increases
    ds = build_downsampled(example_normalized, 5)
    phis = [0.0, 0.2 * ds.tilde_phi_N, 0.5 * ds.tilde_phi_N, 0.8 * ds.tilde_phi_N]
    Nn = ds.T.shape[0]
    blocks = [_map_blocks(ds, phi * np.eye(Nn)) for phi in phis]
    for (_, O1, W1), (_, O2, W2) in zip(blocks, blocks[1:]):
        assert np.min(np.linalg.eigvalsh(O1 - O2)) >= -1e-10
        assert np.min(np.linalg.eigvalsh(W2 - W1)) >= -1e-10


def test_zero_reweighting_closed_form(example_normalized):
    # W at bar_phi = 0 is R_N Z⁻¹ R_Nᵀ
    ds = build_downsampled(example_normalized, 4)
    ref = _lifted_reference(example_normalized, 4)
    Nn = ds.T.shape[0]
    _, _, W0 = _map_blocks(ds, np.zeros((Nn, Nn)))
    np.testing.assert_allclose(W0, ref.R @ np.linalg.solve(ref.Z, ref.R.T), atol=1e-10)


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


def _bordered_blocks(model, ref, bar_phi):
    """alpha, Omega, W of the lifted map as downsampled_map once formed them,
    on the reference blocks: alpha from the (Np + Nn)-wide bordered system
    in G_N = D_N D_Nᵀ + H_N H_Nᵀ, Omega through (I − bar_phi T)⁻¹ bar_phi,
    W from Q = Z − L_Nᵀ bar_phi L_N."""
    n, Nn, Np = model.n, ref.L.shape[0], ref.G.shape[0]
    top = np.hstack([ref.G, -(ref.H @ ref.L.T) @ bar_phi])
    bot = np.hstack([ref.L @ ref.H.T, np.eye(Nn) - (ref.L @ ref.L.T) @ bar_phi])
    Y = np.linalg.solve(np.vstack([top, bot]), np.vstack([ref.O, ref.OR]))
    A_N = model.A @ ref.OR[:n]
    alpha = A_N - ref.R @ (ref.H.T @ Y[:Np] - ref.L.T @ (bar_phi @ Y[Np:]))
    M = np.linalg.solve(np.eye(Nn) - bar_phi @ ref.T, bar_phi)
    Omega = ref.Omega - ref.J.T @ M @ ref.J
    W = ref.R @ np.linalg.solve(ref.Z - ref.L.T @ bar_phi @ ref.L, ref.R.T)
    return alpha, Omega, W


def _bordered_map(model, ref, bar_phi, P):
    alpha, Omega, W = _bordered_blocks(model, ref, bar_phi)
    return alpha @ np.linalg.inv(np.linalg.inv(P) + Omega) @ alpha.T + W


def _random_block_phi(rng, n, N, top):
    """Random block-diagonal PSD (Nn, Nn) matrix with largest eigenvalue top."""
    blocks = [random_spd(rng, n) for _ in range(N)]
    bar_phi = la.block_diag(*blocks)
    return top * bar_phi / np.linalg.eigvalsh(bar_phi)[-1]


def test_downsampled_map_matches_bordered_reference():
    # alpha is compared more loosely: on the correlated n = 4 draw, whose
    # Omega_N has condition 2e5, both forms of it sit 1e-12 to 4e-12 from
    # a 50-digit evaluation on the same inputs
    rng = np.random.default_rng(20)
    worst = np.zeros(4)
    for i in range(32):
        n = 1 + i % 4
        model = normalize(random_model(rng, n=n, correlated=bool(i // 4 % 2)))
        N = int(rng.integers(n, 12))
        ds = build_downsampled(model, N)
        ref = _lifted_reference(model, N)
        phi_N = find_phi_N(ds)
        P = random_spd(rng, n)
        for scale in (0.0, 0.3, 0.9):
            bar_phi = _random_block_phi(rng, n, N, scale * phi_N)
            got = [*_map_blocks(ds, bar_phi), downsampled_map(ds, bar_phi, P)]
            want = [*_bordered_blocks(model, ref, bar_phi), _bordered_map(model, ref, bar_phi, P)]
            err = [np.linalg.norm(g - w) / np.linalg.norm(w) for g, w in zip(got, want)]
            worst = np.maximum(worst, err)
    alpha_err, omega_err, w_err, map_err = worst
    assert map_err <= 1e-12
    assert omega_err <= 1e-12 and w_err <= 1e-12
    assert alpha_err <= 1e-10


def test_downsampled_map_domain_checks(example_normalized):
    ds = build_downsampled(example_normalized, 3)
    P = np.eye(2)
    with pytest.raises(DomainViolation):
        downsampled_map(ds, 1.01 * ds.tilde_phi_N * np.eye(6), P)
    with pytest.raises(DomainViolation):
        downsampled_map(ds, -1e-6 * np.eye(6), P)
    with pytest.raises(DomainViolation):
        downsampled_map(ds, np.zeros((4, 4)), P)
    for bad_phi in (np.zeros(6), np.full((6, 6), np.nan), "ab"):
        with pytest.raises(DomainViolation, match="^bar_phi"):
            downsampled_map(ds, bad_phi, P)
    for bad_P in (np.eye(3), np.ones(2), "ab"):
        with pytest.raises(DimensionMismatch):
            downsampled_map(ds, np.zeros((6, 6)), bad_P)
    with pytest.raises(DomainViolation, match="P⁻¹ \\+ Omega"):
        downsampled_map(ds, np.zeros((6, 6)), -np.eye(2))


def test_find_phi_golden(example_normalized):
    ds = build_downsampled(example_normalized, 50)
    phi = find_phi_N(ds)
    assert phi == pytest.approx(1.3328e-3, rel=5e-3)
    assert 0 < phi < ds.tilde_phi_N
    _, Omega, W = _map_blocks(ds, phi * np.eye(100))
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


def _one_noise_column_model(A, b):
    n = len(b)
    return normalize(StateSpaceModel(
        A=A, B=np.hstack([np.reshape(b, (n, 1)), np.zeros((n, n))]), C=np.eye(n),
        D=np.hstack([np.zeros((n, 1)), 2.0 * np.eye(n)]), x0_mean=np.zeros(n), V0=np.eye(n)))


def test_one_noise_column_certifies_from_n_blocks(caplog):
    # one noise column at n = 3 and C = I: Omega_N is PD from N = 1 on, but
    # R_N = [b, Ab, ...] has rank N < 3, so W is singular for every phi
    # until N = 3. On the random draws the formed W(0) = B Bᵀ + A T[:n, :n] Aᵀ
    # passes a Cholesky test at N = 2 for 5 of the 12 (x86-64, OpenBLAS),
    # so find_phi_N must take the rank from R_N's singular values
    jordan = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    models = [_one_noise_column_model(jordan, [0.0, 0.0, 1.0])]
    rng = np.random.default_rng(3)
    for _ in range(12):
        A = rng.normal(size=(3, 3))
        A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
        models.append(_one_noise_column_model(A, rng.normal(size=3)))
    with caplog.at_level(logging.ERROR, logger="robkf.contraction"):
        for model in models:
            for N in (1, 2):
                ds = build_downsampled(model, N)
                assert np.min(np.linalg.eigvalsh(ds.Omega_N)) > 0
                with pytest.raises(SearchFailed, match="rank below"):
                    find_phi_N(ds)
            assert find_phi_N(build_downsampled(model, 3)) > 0
    for tau in (0.0, 0.5, 1.0):
        cert = certify(models[0], tau, N=3)
        assert cert.N == 3 and 0 < cert.phi_N < cert.tilde_phi_N and cert.c_max > 0


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


def test_certify_floor_is_q_gain_form_steps(example_model):
    # P_bar_q is q predict_covariance steps from B Bᵀ, bit for bit
    models = [example_model, random_model(np.random.default_rng(21), n=3, correlated=True)]
    for model in models:
        nm = normalize(model)
        P = nm.B @ nm.B.T
        for q in range(1, 6):
            P = predict_covariance(nm, P)
            assert np.array_equal(certify(model, 0.5, q=q, N=max(nm.n, 10)).P_bar_q, P)


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_certify_budget_is_unbounded_past_gammas_domain(tau):
    # theta_bar (1 - tau) sigma_1(P_bar_q) >= 1: gamma is undefined at theta_bar,
    # and every theta a robust filter solves stays below it
    model = precise_sensor_jordan_model()
    cert = certify(model, tau)
    assert cert.sigma_n * cert.phi_N < 1.0
    assert cert.theta_bar * (1.0 - tau) * np.linalg.eigvalsh(cert.P_bar_q)[-1] >= 1.0
    assert cert.c_max == math.inf
    with pytest.raises(DomainViolation):
        gamma(cert.P_bar_q, cert.theta_bar, tau)
    for c in (1e-3, 1.0, 1e3):
        ft = run_filter(model, FilterConfig.robust(tau, c), np.zeros((300, 3)))
        assert np.max(ft.theta_seq) < cert.theta_bar


def test_certify_budget_stays_finite_at_tau_one_on_the_jordan_model():
    cert = certify(precise_sensor_jordan_model(), 1.0)
    assert cert.c_max == gamma(cert.P_bar_q, cert.theta_bar, 1.0)
    assert cert.c_max == pytest.approx(1449.3466445869747, rel=1e-9)


def test_certify_with_a_singular_p_bar_q_is_a_numeric_error():
    # B Bᵀ = e₃e₃ᵀ has rank one, and one step from it gives rank two of three
    with pytest.raises(NotSPD, match="P_bar_q is singular"):
        certify(precise_sensor_jordan_model(), 0.5, q=1)


@pytest.mark.parametrize("n, correlated", [
    *((n, False) for n in (2, 3, 4, 6, 8)),
    (2, True), (3, True), (6, True), (8, True),
    # normalized rho(A) 3.03: G_N fails to factor for every N >= 20; the
    # lifted build from the smoothing factor F_N would certify it
    pytest.param(4, True, marks=pytest.mark.xfail(
        raises=NotSPD, strict=True, reason="G_N factorization fails; ROADMAP direction 1")),
])
def test_certified_budgets_give_one_stable_fixed_point(n, correlated):
    # beyond criterion 3: at c_max and c_max/10 (1 and 0.1 where c_max is
    # inf), robust fixed points from V0, 1e-3 I and 1e3 I agree, and the
    # closed loop is stable
    model = random_model(np.random.default_rng(100 + n), n, correlated=correlated)
    for tau in (0.0, 0.5, 1.0):
        c_max = certify(model, tau).c_max
        top = c_max if math.isfinite(c_max) else 1.0
        for c in (top, top / 10.0):
            fps = [iterate_to_fixed_point(model, start, "robust", tau=tau, c=c, tol=1e-11)
                   for start in (model.V0, 1e-3 * np.eye(n), 1e3 * np.eye(n))]
            for fp in fps[1:]:
                assert thompson_metric(fps[0].P_star, fp.P_star) <= 1e-9
            assert max(fp.spectral_radius_closed_loop for fp in fps) < 1.0


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_certify_is_unchanged_by_the_noise_units(tau):
    # (B, D, V0) -> (sB, sD, s²V0) scales every covariance by s² and theta by
    # 1/s²; at s = 1e-7 the cross term B Dᵀ is 2.8e-14, still correlated noise
    model = random_model(np.random.default_rng(3), 3, 1, True)
    ref = certify(model, tau)
    for s in (1e-150, 1e-7, 1.0, 1e150):
        cert = certify(StateSpaceModel(A=model.A, B=s * model.B, C=model.C, D=s * model.D,
                                       x0_mean=model.x0_mean, V0=s * s * model.V0), tau)
        assert cert.c_max == pytest.approx(ref.c_max, rel=1e-12)
        assert cert.theta_bar * s * s == pytest.approx(ref.theta_bar, rel=1e-12)


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


def test_certify_and_build_downsampled_reject_bool_counts(example_model):
    with pytest.raises(ConfigError, match="q must be a positive integer, got True"):
        certify(example_model, 0.5, q=True)
    with pytest.raises(ConfigError, match="N must be a positive integer, got True"):
        build_downsampled(normalize(example_model), True)


def test_certificate_serializes(example_model):
    cert = certify(example_model, 0.0)
    payload = json.loads(json.dumps(cert.as_dict()))
    assert list(payload) == ["tau", "q", "N", "mode", "P_bar_q", "sigma_n", "tilde_phi_N",
                             "phi_N", "theta_bar", "c_max"]
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
    for k in range(1, 121):
        P = predict_covariance(model, V)
        theta = solve_theta(P, cert.c_max, tau)
        V_next = v_update(P, theta, tau)
        if k >= cert.q + 1:
            Phi = phi_gap(P, V_next)
            assert np.max(np.linalg.eigvalsh(Phi)) <= cert.phi_N + 1e-10
        V = V_next
