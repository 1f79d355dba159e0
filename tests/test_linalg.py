import numpy as np
import pytest

from robkf import NotSPD
from robkf._linalg import cholesky_spd, is_spd


def test_non_finite_matrix_is_not_spd():
    M = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(NotSPD, match="M has non-finite entries"):
        cholesky_spd(M, "M")
    assert not is_spd(M)
    assert not is_spd(np.array([[1.0, np.nan], [np.nan, 1.0]]))
