"""Dense tensor values with explicit variance and index-kind tags.

Tensors are plain row-major numpy arrays wrapped with per-index metadata:
variance (+1 contravariant, -1 covariant) and kind (``coord`` for chart
indices, ``frame`` for orthonormal-frame indices).  Contractions refuse to
pair indices of unlike kind, and refuse same-variance pairs unless the
caller explicitly requests a metric-free frame trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

COORD = "coord"
FRAME = "frame"

UP = 1
DOWN = -1

MAX_DIM = 8

__all__ = [
    "COORD",
    "FRAME",
    "UP",
    "DOWN",
    "Point",
    "MinkowskiSignature",
    "TensorValue",
    "TensorIndexError",
    "SingularMetricError",
    "contract",
    "raise_lower",
    "checked_inverse",
    "checked_det",
]


class TensorIndexError(ValueError):
    """Contraction or raise/lower request violates index metadata."""


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

    @property
    def is_euclidean(self) -> bool:
        return all(s == 1 for s in self.signs)


@dataclass(frozen=True)
class TensorValue:
    """A dense tensor at a point, with variance and kind per index."""

    data: np.ndarray
    variance: tuple
    kinds: tuple = field(default=())

    def __post_init__(self):
        arr = np.asarray(self.data)
        var = tuple(int(v) for v in self.variance)
        kinds = tuple(self.kinds) if self.kinds else (COORD,) * arr.ndim
        if arr.ndim != len(var):
            raise TensorIndexError(f"rank {arr.ndim} but {len(var)} variance entries")
        if arr.ndim != len(kinds):
            raise TensorIndexError(f"rank {arr.ndim} but {len(kinds)} kind entries")
        if any(v not in (UP, DOWN) for v in var):
            raise TensorIndexError(f"variance entries must be +-1, got {var}")
        if any(k not in (COORD, FRAME) for k in kinds):
            raise TensorIndexError(f"unknown index kind in {kinds}")
        if any(d > MAX_DIM for d in arr.shape):
            raise TensorIndexError(f"index dimension above {MAX_DIM}: shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("non-finite tensor entries")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "variance", var)
        object.__setattr__(self, "kinds", kinds)

    @property
    def rank(self) -> int:
        return self.data.ndim

    @property
    def dims(self) -> tuple:
        return self.data.shape

    def item(self):
        return self.data.item()


def contract(t: TensorValue, i: int, j: int, frame_trace: bool = False) -> TensorValue:
    """Sum index pair (i, j); one index up and one down unless frame_trace.

    The metric-free escape hatch is restricted to frame indices, where the
    orthonormal frame makes a plain trace meaningful.
    """
    if i == j:
        raise TensorIndexError("cannot contract an index with itself")
    if not (0 <= i < t.rank and 0 <= j < t.rank):
        raise TensorIndexError(f"index pair ({i}, {j}) out of range for rank {t.rank}")
    if t.dims[i] != t.dims[j]:
        raise TensorIndexError(f"dimension mismatch on ({i}, {j}): {t.dims[i]} vs {t.dims[j]}")
    if t.kinds[i] != t.kinds[j]:
        raise TensorIndexError(f"kind mismatch on ({i}, {j}): {t.kinds[i]} vs {t.kinds[j]}")
    if t.variance[i] + t.variance[j] != 0:
        if not (frame_trace and t.kinds[i] == FRAME):
            raise TensorIndexError(
                "contraction needs one contravariant and one covariant index "
                "(pass frame_trace=True to trace a frame index pair)")
    data = np.trace(t.data, axis1=i, axis2=j)
    keep = [k for k in range(t.rank) if k not in (i, j)]
    return TensorValue(data, tuple(t.variance[k] for k in keep),
                       tuple(t.kinds[k] for k in keep))


def raise_lower(t: TensorValue, i: int, metric: TensorValue, direction: str) -> TensorValue:
    """Raise or lower index i with a symmetric rank-2 metric.

    ``metric`` is the all-covariant metric tensor (gamma_mn or eta_ab); its
    inverse is formed internally for raising, with the singularity guard.
    """
    if direction not in ("up", "down"):
        raise TensorIndexError(f"direction must be 'up' or 'down', got {direction!r}")
    if metric.rank != 2 or metric.dims[0] != metric.dims[1]:
        raise TensorIndexError("metric must be square rank 2")
    if not (0 <= i < t.rank):
        raise TensorIndexError(f"index {i} out of range for rank {t.rank}")
    if t.dims[i] != metric.dims[0]:
        raise TensorIndexError("metric dimension does not match target index")
    if metric.kinds[0] != t.kinds[i]:
        raise TensorIndexError(f"metric kind {metric.kinds[0]} vs index kind {t.kinds[i]}")
    g = np.asarray(metric.data)
    if not np.allclose(g, g.T, rtol=0, atol=1e-12 * max(1.0, np.abs(g).max())):
        raise TensorIndexError("metric must be symmetric")
    want = DOWN if direction == "up" else UP
    if t.variance[i] != want:
        raise TensorIndexError(
            f"index {i} has variance {t.variance[i]:+d}; cannot move {direction}")
    mat = checked_inverse(g) if direction == "up" else g
    data = np.tensordot(t.data, mat, axes=([i], [0]))
    data = np.moveaxis(data, -1, i)
    var = list(t.variance)
    var[i] = -want
    return TensorValue(data, tuple(var), t.kinds)


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
