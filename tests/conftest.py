import numpy as np
import pytest
import scipy.linalg as la

from robkf import StateSpaceModel, normalize


def example_matrices():
    A = np.array([[0.1, 1.0], [0.0, 1.2]])
    B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    C = np.array([[1.0, -1.0]])
    D = np.array([[0.0, 0.0, 1.0]])
    return A, B, C, D


@pytest.fixture
def example_model():
    """Two-state benchmark system with decoupled noise and V0 = I."""
    A, B, C, D = example_matrices()
    return StateSpaceModel(A=A, B=B, C=C, D=D, x0_mean=np.zeros(2), V0=np.eye(2))


@pytest.fixture
def example_normalized(example_model):
    return normalize(example_model)


def precise_sensor_jordan_model():
    """A the 3×3 Jordan block at 0.5, B = [e₃, 0], C = I, D = [0, 0.5 I]."""
    B = np.zeros((3, 4))
    B[2, 0] = 1.0
    return StateSpaceModel(A=0.5 * np.eye(3) + np.eye(3, k=1), B=B, C=np.eye(3),
                           D=np.hstack([np.zeros((3, 1)), 0.5 * np.eye(3)]),
                           x0_mean=np.zeros(3), V0=np.eye(3))


def random_spd(rng, n, scale=1.0):
    F = rng.normal(size=(n, n))
    return scale * (F @ F.T + 0.5 * np.eye(n))


@pytest.fixture
def make_spd():
    return random_spd


def random_model(rng, n=2, p=1, correlated=False):
    """Reachable/observable model with a stable-ish A (rho <= 0.95).

    With correlated=False the noise channels are disjoint so B Dᵀ = 0
    structurally; otherwise B and D share channels and normalize() has
    real work to do.
    """
    for _ in range(100):
        A = rng.normal(size=(n, n))
        r = np.max(np.abs(la.eigvals(A)))
        A *= rng.uniform(0.4, 0.95) / max(r, 1e-9)
        if correlated:
            m = n + p + 1
            B = rng.normal(size=(n, m))
            D = rng.normal(size=(p, m))
        else:
            B0 = rng.normal(size=(n, n))
            D0 = rng.normal(size=(p, p)) + 2.0 * np.eye(p)
            B = np.hstack([B0, np.zeros((n, p))])
            D = np.hstack([np.zeros((p, n)), D0])
        try:
            model = StateSpaceModel(
                A=A, B=B, C=rng.normal(size=(p, n)), D=D,
                x0_mean=np.zeros(n), V0=np.eye(n),
            )
            normalize(model)
        except Exception:
            continue
        return model
    raise RuntimeError("random model generation kept failing")


@pytest.fixture
def make_model():
    return random_model
