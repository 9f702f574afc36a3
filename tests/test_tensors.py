import numpy as np
import pytest

from geodyn.library import schwarzschild
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


# -- the single-matrix LU path against the det-then-inv path it replaced -----


def _oracle_checked_inverse(m, rel=1e-13):
    """The former checked_inverse: numpy det for the guard, then numpy inv."""
    m = np.asarray(m)
    n = m.shape[-1]
    det = np.linalg.det(m)
    scale = np.sqrt((np.abs(m) ** 2).sum(axis=-1)).max(axis=-1, initial=1e-300)
    if np.count_nonzero(abs(det) <= rel * scale ** n):
        raise SingularMetricError("determinant below threshold")
    return np.linalg.inv(m)


def _well_conditioned(rng, n, complex_=False):
    m = rng.standard_normal((n, n)) + n * np.eye(n)
    if complex_:
        m = m + 1j * rng.standard_normal((n, n))
    return m


def _schwarzschild_metrics(count):
    g = schwarzschild(mass=1.0).metric()
    rng = np.random.default_rng(5)
    for _ in range(count):
        t, phi = rng.uniform(-5.0, 5.0, 2)
        yield g.value(Point((t, rng.uniform(2.5, 30.0), rng.uniform(0.2, 2.9), phi)))


def test_single_inverse_is_bit_equal_to_numpy():
    rng = np.random.default_rng(11)
    mats = list(_schwarzschild_metrics(200))
    mats += [_well_conditioned(rng, n, c) for n in range(1, 6) for c in (False, True)
             for _ in range(40)]
    for m in mats:
        got = checked_inverse(m)
        ref = _oracle_checked_inverse(m)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def test_single_inverse_of_larger_charts_matches_numpy_closely():
    # two LAPACK builds may block an LU of order 6..8 differently, so the
    # last bits may move there; the values still agree to rounding
    rng = np.random.default_rng(12)
    for n in (6, 7, 8):
        for c in (False, True):
            m = _well_conditioned(rng, n, c)
            assert np.allclose(checked_inverse(m), np.linalg.inv(m), rtol=1e-13, atol=0.0)


def test_complex_input_keeps_its_imaginary_part():
    m = np.array([[2.0, 1.0j], [-1.0j, 3.0]])
    inv = checked_inverse(m)
    assert inv.dtype == complex
    assert np.allclose(inv @ m, np.eye(2), rtol=0.0, atol=1e-15)


def _verdict(fn, m):
    try:
        fn(m)
    except SingularMetricError as exc:
        return str(exc)
    return "ok"


def test_point_and_batch_paths_give_the_same_verdicts():
    rng = np.random.default_rng(13)
    rank_deficient = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 4))
    healthy = _well_conditioned(rng, 4)
    cases = {
        "zero": (np.zeros((4, 4)), "determinant"),
        "rank-deficient": (rank_deficient, "determinant"),
        "lorentzian-degenerate": (np.diag([-1.0, 1.0, 1.0, 1e-20])[[1, 0, 2, 3]], "determinant"),
        "tiny-rank-deficient": (1e-14 * rank_deficient, "determinant"),
        "tiny-healthy": (1e-14 * healthy, "ok"),
        "healthy": (healthy, "ok"),
        "tiny-complex": (1e-14 * _well_conditioned(rng, 4, True), "ok"),
    }
    for name, (m, expected) in cases.items():
        point = _verdict(checked_inverse, m)
        assert point.split(" ")[0] == expected, name
        assert _verdict(_oracle_checked_inverse, m).split(" ")[0] == expected, name
        # the LU determinant in the message, sign included, is numpy's to 4 digits
        assert _verdict(checked_det, m) == point, name
        assert _verdict(checked_inverse, m[None]) == (
            point if point == "ok" else point + " at batch index 0"), name


def test_exactly_singular_factorisation_is_reported_like_the_guard():
    for m in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])):
        with pytest.raises(SingularMetricError, match=r"^determinant .* below threshold"):
            checked_inverse(m)


def test_batch_error_names_the_first_failing_matrix():
    stack = np.stack([np.eye(3), np.zeros((3, 3)), np.zeros((3, 3))])
    with pytest.raises(SingularMetricError, match="at batch index 1"):
        checked_inverse(stack)
