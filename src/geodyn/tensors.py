"""Chart points, frame signatures and guarded determinants and inverses.

Tensors in geodyn are plain numpy arrays; each producer documents its index
layout (see geometry.py).  This module holds what they share: the
:class:`Point` a field is evaluated at, the flat frame metric eta of a
:class:`MinkowskiSignature`, and the one singularity policy behind every
determinant and inverse of a metric or frame.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .records import record

MAX_DIM = 8

__all__ = [
    "Point",
    "MinkowskiSignature",
    "SingularMetricError",
    "checked_inverse",
    "checked_inverse_and_det",
    "checked_det",
]


class SingularMetricError(ArithmeticError):
    """Matrix determinant fell below the singularity threshold."""


@record(frozen=True)
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


@record(frozen=True)
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


# the determinant of a matrix scaled to unit largest row norm must exceed this
SINGULAR_REL = 1e-13


def _singular(scaled, n: int, where: str = "") -> SingularMetricError:
    return SingularMetricError(f"determinant {scaled:.3e}*scale^{n} below threshold "
                               f"{SINGULAR_REL:.0e}*scale^{n}{where}")


def _non_finite(m: np.ndarray, where: str = "") -> ValueError:
    what = ("NaN or inf entry" if not np.isfinite(m).all()
            else "row norm above the float range")
    return ValueError(f"matrix has a {what}{where}")


def _guard(m: np.ndarray):
    """The singularity policy behind every checked determinant and inverse.

    With scale the largest row norm of an n x n matrix, floored at 1e-300,
    :class:`SingularMetricError` is raised when ``|det(m / scale)| <=
    SINGULAR_REL``.  Hadamard's inequality bounds that determinant by 1, and
    it is formed in logs, so the test neither overflows nor underflows
    whatever the size of the entries.  A NaN or inf entry, or a row norm
    beyond the float range, raises ValueError first.  With leading batch
    axes the rule holds per matrix and the error names the first failing
    one in index order.  Returns ``det(m)``, or None where a determinant
    leaves the float range.
    """
    a = np.abs(m)
    with np.errstate(over="ignore"):
        scale = np.sqrt(np.einsum("...ij,...ij->...i", a, a).max(axis=-1))
    if not np.isfinite(scale).all():  # squares overflowed, or an entry is NaN or inf
        scale = np.hypot.reduce(a, axis=-1).max(axis=-1)
        bad = ~np.isfinite(scale)
        if bad.any():
            i = int(np.argmax(np.ravel(bad)))
            where = f" at batch index {i}" if np.ndim(bad) else ""
            raise _non_finite(m.reshape((-1,) + m.shape[-2:])[i], where)
    n = m.shape[-1]
    with np.errstate(over="ignore", divide="ignore"):
        det = np.linalg.det(m)
        logdet = np.log(np.abs(det))
    in_range = np.isfinite(logdet).all()
    if not in_range:  # a det is 0 or left the float range
        logdet = np.linalg.slogdet(m)[1]
    log_scaled = logdet - n * np.log(np.maximum(scale, 1e-300))
    bad = log_scaled <= math.log(SINGULAR_REL)
    if bad.any():
        i = int(np.argmax(np.ravel(bad)))
        where = f" at batch index {i}" if np.ndim(bad) else ""
        sign = np.ravel(np.linalg.slogdet(m)[0])[i]
        raise _singular(sign * math.exp(np.ravel(log_scaled)[i]), n, where)
    return det if in_range else None


def checked_det(m: np.ndarray):
    """Determinant under the shared singularity policy; callers never see NaN.

    ``m`` may carry leading batch axes.  A determinant that passes the guard
    but overflows, or underflows to 0, raises ArithmeticError.
    """
    det = _guard(np.asarray(m))
    if det is None:
        raise ArithmeticError("determinant outside the float range")
    return det


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    # shared by every caller, so read-only
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def checked_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse under the same singularity policy as :func:`checked_det`.

    The guard, then numpy's ``inv``, for one matrix or a batch alike.  A
    diagonal frame's geodesic stage applies the same rule to its metric's
    diagonal without forming the matrix (geodesics.py).
    """
    return checked_inverse_and_det(m)[0]


def checked_inverse_and_det(m: np.ndarray):
    """(checked_inverse(m), det(m)) under one guard, so a caller that needs
    both guards once; the determinant is None where it leaves the float
    range, which checked_det raises on."""
    m = np.asarray(m)
    det = _guard(m)
    return np.linalg.inv(m), det
