"""Chart points, frame signatures and guarded determinants and inverses.

Tensors in geodyn are plain numpy arrays; each producer documents its index
layout (see geometry.py).  This module holds what they share: the
:class:`Point` a field is evaluated at, the flat frame metric eta of a
:class:`MinkowskiSignature`, and the one singularity policy behind every
determinant and inverse of a metric or frame.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import lapack

MAX_DIM = 8

__all__ = [
    "Point",
    "MinkowskiSignature",
    "SingularMetricError",
    "checked_inverse",
    "checked_det",
]


class SingularMetricError(ArithmeticError):
    """Matrix determinant fell below the singularity threshold."""


@dataclass(frozen=True)
class Point:
    """A chart point: an ordered tuple of real coordinates."""

    coords: tuple

    def __post_init__(self):
        vals = tuple(map(float, self.coords))
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"non-finite coordinates: {vals}")
        if not 1 <= len(vals) <= MAX_DIM:
            raise ValueError(f"dimension {len(vals)} outside supported range 1..{MAX_DIM}")
        object.__setattr__(self, "coords", vals)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def array(self) -> np.ndarray:
        return np.array(self.coords)

    def shifted(self, i: int, h: float) -> "Point":
        c = list(self.coords)
        c[i] += h
        return Point(tuple(c))


@dataclass(frozen=True)
class MinkowskiSignature:
    """Diagonal frame metric eta with entries +-1."""

    signs: tuple

    def __post_init__(self):
        s = tuple(int(x) for x in self.signs)
        if any(x not in (-1, 1) for x in s):
            raise ValueError(f"signature entries must be +-1, got {s}")
        object.__setattr__(self, "signs", s)

    @classmethod
    def euclidean(cls, n: int) -> "MinkowskiSignature":
        return cls((1,) * n)

    @classmethod
    def lorentzian(cls, n: int) -> "MinkowskiSignature":
        return cls((-1,) + (1,) * (n - 1))

    @property
    def dim(self) -> int:
        return len(self.signs)

    @cached_property
    def matrix(self) -> np.ndarray:
        # built once, as every metric jet pass reads it; shared, so read-only
        eta = np.diag(np.array(self.signs, dtype=float))
        eta.setflags(write=False)
        return eta


def _raise_if_singular(det, scale, n: int, rel: float) -> None:
    """The singularity policy behind every checked determinant and inverse.

    Raises :class:`SingularMetricError` when ``|det| <= rel * scale**n``,
    where scale is the largest row norm of the n x n matrix, floored at
    1e-300.  With leading batch axes the rule holds per matrix and the error
    names the first failing one in index order.
    """
    # <= so an exactly zero matrix trips the guard even after the
    # threshold underflows to 0 with the 1e-300 scale floor
    bad = abs(det) <= rel * scale ** n
    if np.count_nonzero(bad):
        i = int(np.argmax(np.ravel(bad)))
        where = f" at batch index {i}" if np.ndim(bad) else ""
        raise SingularMetricError(
            f"determinant {np.ravel(det)[i]:.3e} below threshold {rel:.0e}*scale^{n}{where}")


def checked_det(m: np.ndarray, rel: float = 1e-13):
    """Determinant under the shared singularity policy; callers never see NaN.

    ``m`` may carry leading batch axes.
    """
    m = np.asarray(m)
    det = np.linalg.det(m)
    scale = np.sqrt((np.abs(m) ** 2).sum(axis=-1)).max(axis=-1, initial=1e-300)
    _raise_if_singular(det, scale, m.shape[-1], rel)
    return det


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    # shared by every caller, so read-only
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def checked_inverse(m: np.ndarray, rel: float = 1e-13) -> np.ndarray:
    """Inverse under the same singularity policy as :func:`checked_det`.

    A single matrix costs one LAPACK ``gesv`` factorisation: it returns the
    inverse, and the diagonal and pivots of its LU give the determinant the
    guard tests.  An exactly singular factorisation (``info > 0``) raises as
    well.  A batch of matrices goes through numpy's batched ``det`` and
    ``inv``, as numpy has no batched LU.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        checked_det(m, rel)
        return np.linalg.inv(m)
    n = m.shape[0]
    # the complex routine for complex input, so no imaginary part is cast away
    gesv = lapack.zgesv if m.dtype.kind == "c" else lapack.dgesv
    lu, piv, inv, info = gesv(m, _identity(n))
    if info > 0:  # an exactly zero pivot: the determinant is 0 whatever the scale
        raise SingularMetricError(f"determinant {0.0:.3e} below threshold {rel:.0e}*scale^{n}")
    # det = sign of the row permutation times the product of U's diagonal
    swaps = sum(map(operator.ne, piv.tolist(), range(n)))
    det = (-1) ** swaps * math.prod(lu.diagonal().tolist())
    # checked_det's largest row norm, in Python floats: on one small matrix
    # this is a third of the numpy expression's cost
    scale = max(1e-300, *(math.hypot(*row) for row in np.abs(m).tolist()))
    _raise_if_singular(det, scale, n, rel)
    return inv
