"""Chart points, frame signatures and guarded determinants and inverses.

Tensors in geodyn are plain numpy arrays; each producer documents its index
layout (see geometry.py).  This module holds what they share: the
:class:`Point` a field is evaluated at, the flat frame metric eta of a
:class:`MinkowskiSignature`, and the one singularity policy behind every
determinant and inverse of a metric or frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        vals = tuple(float(c) for c in self.coords)
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


def checked_det(m: np.ndarray, rel: float = 1e-13):
    """Determinant with the shared singularity policy.

    Raises :class:`SingularMetricError` when ``|det| < rel * scale**n``
    where scale is the largest row norm; callers never see NaN.  ``m`` may
    carry leading batch axes; the rule then holds per matrix and the error
    names the first failing one in index order.
    """
    m = np.asarray(m)
    n = m.shape[-1]
    det = np.linalg.det(m)
    scale = np.sqrt((np.abs(m) ** 2).sum(axis=-1)).max(axis=-1, initial=1e-300)
    # <= so an exactly zero matrix trips the guard even after the
    # threshold underflows to 0 with the 1e-300 scale floor
    bad = abs(det) <= rel * scale ** n
    if np.count_nonzero(bad):
        i = int(np.argmax(bad.ravel()))
        where = f" at batch index {i}" if bad.ndim else ""
        raise SingularMetricError(
            f"determinant {det.ravel()[i]:.3e} below threshold {rel:.0e}*scale^{n}{where}")
    return det


def checked_inverse(m: np.ndarray, rel: float = 1e-13) -> np.ndarray:
    checked_det(m, rel)
    return np.linalg.inv(m)
