"""Builtin vielbeins for common charts.

Each factory returns a :class:`~geodyn.geometry.Vielbein`; the registry at
the bottom maps builtin names (as used in configs and the CLI) to factories
and their keyword parameters.
"""

from __future__ import annotations

from .fields import ChartField
from .geometry import Vielbein
from .tensors import MAX_DIM, MinkowskiSignature

__all__ = [
    "diagonal_vielbein",
    "flat",
    "polar",
    "sphere2",
    "schwarzschild",
    "sphere2_cross_flat2",
    "BUILTIN_FRAMES",
]


def diagonal_vielbein(entries, signature: MinkowskiSignature) -> Vielbein:
    """Vielbein with E = diag(entries(x)); each entry is a callable of the coords.

    The frame is stored as its diagonal: a shape-(n,) field whose evaluator
    returns the n entries, which the geodesic stage reads directly and
    ``Vielbein.value``/``jets`` expand to the n x n matrix.
    """
    n = signature.dim
    if len(entries) != n:
        raise ValueError(f"need {n} diagonal entries, got {len(entries)}")
    entries = tuple(entries)

    def func(coords):
        return [f(coords) for f in entries]

    return Vielbein(field=ChartField(dim=n, shape=(n,), func=func), signature=signature)


def flat(dim: int = 4, signature: str = "lorentzian") -> Vielbein:
    """Identity frame on R^dim with the requested flat signature."""
    if not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be an integer in 1..{MAX_DIM}, got {dim!r}")
    if signature == "lorentzian":
        sig = MinkowskiSignature.lorentzian(dim)
    elif signature == "euclidean":
        sig = MinkowskiSignature.euclidean(dim)
    else:
        raise ValueError(f"unknown signature {signature!r}")
    return diagonal_vielbein([lambda c: 1.0] * dim, sig)


def polar() -> Vielbein:
    """Plane in polar coordinates (r, phi): E = diag(1, r)."""
    return diagonal_vielbein([lambda c: 1.0, lambda c: c[0]],
                             MinkowskiSignature.euclidean(2))


def sphere2(radius: float = 1.0) -> Vielbein:
    """Round 2-sphere of the given radius, coordinates (theta, phi)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    from .jets import sin
    return diagonal_vielbein(
        [lambda c: radius, lambda c: radius * sin(c[0])],
        MinkowskiSignature.euclidean(2))


def schwarzschild(mass: float = 1.0) -> Vielbein:
    """Static orthonormal frame outside r = 2m, coordinates (t, r, theta, phi)."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    from .jets import sin, sqrt

    def func(c):
        # sqrt(1 - 2m/r) once for the t and r entries
        f = sqrt(1.0 - 2.0 * mass / c[1])
        return [f, 1.0 / f, c[1], c[1] * sin(c[2])]

    return Vielbein(field=ChartField(dim=4, shape=(4,), func=func),
                    signature=MinkowskiSignature.lorentzian(4))


def sphere2_cross_flat2(radius: float = 1.0) -> Vielbein:
    """S^2(radius) x R^2, coordinates (theta, phi, x, y), Euclidean frame."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    from .jets import sin
    return diagonal_vielbein(
        [lambda c: radius, lambda c: radius * sin(c[0]),
         lambda c: 1.0, lambda c: 1.0],
        MinkowskiSignature.euclidean(4))


BUILTIN_FRAMES = {
    "flat": (flat, {"dim": 4, "signature": "lorentzian"}),
    "polar": (polar, {}),
    "sphere2": (sphere2, {"radius": 1.0}),
    "schwarzschild": (schwarzschild, {"mass": 1.0}),
    "sphere2-cross-flat2": (sphere2_cross_flat2, {"radius": 1.0}),
}
