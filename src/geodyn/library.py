"""Builtin vielbeins for common charts.

Each factory returns a diagonal :class:`~geodyn.geometry.Vielbein`: its
n x n entries are expressions over the coordinates x0, x1, ..., the
diagonal ones with the parameters written in as ``repr`` literals and the
constant 0.0 elsewhere, so a builtin frame is expression-built like a
configured one.  The registry at the bottom maps builtin names (as used in
configs and the CLI) to factories and their keyword parameters.
"""

from __future__ import annotations

from .exprs import CompiledExpression, compile_expression, default_coordinate_names
from .fields import entry_field
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
    """Vielbein with E = diag(entries(x)); each entry is a compiled
    expression or the source of one over x0, x1, ....  The field holds the
    n x n entries, with the constant 0.0, compiled over the same
    coordinates, off the diagonal."""
    n = signature.dim
    if len(entries) != n:
        raise ValueError(f"need {n} diagonal entries, got {len(entries)}")
    diag = [e if isinstance(e, CompiledExpression)
            else compile_expression(e, default_coordinate_names(n)) for e in entries]
    zero = compile_expression("0.0", diag[0].coordinates)
    return Vielbein(field=entry_field([[diag[a] if a == m else zero for m in range(n)]
                                       for a in range(n)]),
                    signature=signature)


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
    return diagonal_vielbein(["1.0"] * dim, sig)


def polar() -> Vielbein:
    """Plane in polar coordinates (r, phi): E = diag(1, r)."""
    return diagonal_vielbein(["1.0", "x0"], MinkowskiSignature.euclidean(2))


def sphere2(radius: float = 1.0) -> Vielbein:
    """Round 2-sphere of the given radius, coordinates (theta, phi)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    r = repr(float(radius))
    return diagonal_vielbein([r, f"{r} * sin(x0)"], MinkowskiSignature.euclidean(2))


def schwarzschild(mass: float = 1.0) -> Vielbein:
    """Static orthonormal frame outside r = 2m, coordinates (t, r, theta, phi)."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    f = f"sqrt(1.0 - 2.0 * {float(mass)!r} / x1)"
    return diagonal_vielbein([f, f"1.0 / {f}", "x1", "x1 * sin(x2)"],
                             MinkowskiSignature.lorentzian(4))


def sphere2_cross_flat2(radius: float = 1.0) -> Vielbein:
    """S^2(radius) x R^2, coordinates (theta, phi, x, y), Euclidean frame."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    r = repr(float(radius))
    return diagonal_vielbein([r, f"{r} * sin(x0)", "1.0", "1.0"],
                             MinkowskiSignature.euclidean(4))


BUILTIN_FRAMES = {
    "flat": (flat, {"dim": 4, "signature": "lorentzian"}),
    "polar": (polar, {}),
    "sphere2": (sphere2, {"radius": 1.0}),
    "schwarzschild": (schwarzschild, {"mass": 1.0}),
    "sphere2-cross-flat2": (sphere2_cross_flat2, {"radius": 1.0}),
}
