"""The builtin frames, written as expressions, against the closures they replace."""

import numpy as np
import pytest

from geodyn.fields import ChartField
from geodyn.geometry import Vielbein
from geodyn.jets import sin, sqrt
from geodyn.library import BUILTIN_FRAMES, flat, polar, schwarzschild, sphere2, sphere2_cross_flat2
from geodyn.tensors import MinkowskiSignature, Point

# -- the closure frames of the library before its frames became expressions --


def _closure_frame(entries, signature):
    """The frame whose diagonal entries are the closures, in an object matrix."""
    n = signature.dim

    def func(c):
        out = np.zeros((n, n), dtype=object)
        for i, f in enumerate(entries):
            out[i, i] = f(c)
        return out

    return Vielbein(ChartField(dim=n, shape=(n, n), func=func), signature)


def _flat(dim=4, signature="lorentzian"):
    sig = (MinkowskiSignature.lorentzian(dim) if signature == "lorentzian"
           else MinkowskiSignature.euclidean(dim))
    return _closure_frame([lambda c: 1.0] * dim, sig)


def _polar():
    return _closure_frame([lambda c: 1.0, lambda c: c[0]], MinkowskiSignature.euclidean(2))


def _sphere2(radius=1.0):
    return _closure_frame([lambda c: radius, lambda c: radius * sin(c[0])],
                          MinkowskiSignature.euclidean(2))


def _schwarzschild(mass=1.0):
    def f(c):
        return sqrt(1.0 - 2.0 * mass / c[1])

    return _closure_frame([f, lambda c: 1.0 / f(c), lambda c: c[1], lambda c: c[1] * sin(c[2])],
                          MinkowskiSignature.lorentzian(4))


def _sphere2_cross_flat2(radius=1.0):
    return _closure_frame([lambda c: radius, lambda c: radius * sin(c[0]),
                           lambda c: 1.0, lambda c: 1.0], MinkowskiSignature.euclidean(4))


# (expression frame, closure oracle, parameters): the defaults, and others
# that put a parameter's repr into the source (an int radius included)
CASES = {
    "flat": (flat, _flat, {}),
    "flat-3-euclidean": (flat, _flat, {"dim": 3, "signature": "euclidean"}),
    "polar": (polar, _polar, {}),
    "sphere2": (sphere2, _sphere2, {}),
    "sphere2-radius-2": (sphere2, _sphere2, {"radius": 2}),
    "sphere2-radius-0.37": (sphere2, _sphere2, {"radius": 0.37}),
    "schwarzschild": (schwarzschild, _schwarzschild, {}),
    "schwarzschild-mass-1.3": (schwarzschild, _schwarzschild, {"mass": 1.3}),
    "sphere2-cross-flat2": (sphere2_cross_flat2, _sphere2_cross_flat2, {}),
    "sphere2-cross-flat2-radius-1.7": (sphere2_cross_flat2, _sphere2_cross_flat2,
                                       {"radius": 1.7}),
}


def _same_bits(got, want):
    if want is None:
        return got is None
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_every_builtin_frame_has_a_closure_oracle():
    assert {make for make, _ in BUILTIN_FRAMES.values()} == {make for make, _, _ in CASES.values()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_expression_frame_matches_its_closure_in_bits(name):
    make, oracle, params = CASES[name]
    frame, closure = make(**params), oracle(**params)
    assert frame.field.expressions is not None and closure.field.expressions is None
    assert frame.signature == closure.signature
    # r = 3.1 lies outside r = 2m for both masses
    p = Point((0.7, 3.1, 1.2, 0.4)[:frame.dim])
    block = p.array() + np.random.default_rng(5).uniform(-0.3, 0.3, size=(64, frame.dim))
    for where, order in ((p, 1), (p, 2), (block, 2)):
        got, want = frame.field.jets(where, order=order), closure.field.jets(where, order=order)
        assert all(_same_bits(a, b) for a, b in zip(got, want)), (name, order)
