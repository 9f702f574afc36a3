import numpy as np
import pytest

from geodyn.tensors import (MinkowskiSignature, Point, SingularMetricError,
                            checked_det, checked_inverse)


def test_point_is_hashable_and_ordered():
    p = Point((1.0, 2.0, 3.0))
    assert p.dim == 3
    assert p.coords == (1.0, 2.0, 3.0)
    assert hash(p) == hash(Point((1.0, 2.0, 3.0)))


def test_signature_matrices():
    lor = MinkowskiSignature.lorentzian(4)
    assert lor.signs == (-1, 1, 1, 1)
    assert np.array_equal(lor.matrix, np.diag([-1.0, 1, 1, 1]))
    euc = MinkowskiSignature.euclidean(3)
    assert np.array_equal(euc.matrix, np.eye(3))


def test_checked_det_and_inverse_guard():
    with pytest.raises(SingularMetricError):
        checked_det(np.zeros((2, 2)))
    with pytest.raises(SingularMetricError):
        checked_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert abs(checked_det(2.0 * np.eye(2)) - 4.0) < 1e-15
