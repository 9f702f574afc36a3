"""Smooth array-valued fields over a chart.

A :class:`ChartField` wraps a pure evaluator ``func(coords) -> array`` whose
scalar arithmetic must go through :mod:`geodyn.jets` functions so the same
code path serves plain floats (values, finite differences) and jets (exact
derivatives).  ``ChartField.jets`` returns the value and its coordinate
derivatives as plain arrays, derivative indices trailing.  At a Point the
evaluator runs on point jets (tuple gradients of Python floats) for order 1
and on numpy-gradient jets for order 2.  It also takes an (N, dim) block,
evaluated in one pass on block jets, and then puts the point axis first in
its results.  ``_point_jets`` reads an order-1 result at one point into
flat values and gradient rows; ``ChartField.jets`` stacks them into arrays
and the diagonal geodesic stage reads them as floats.  ``fd_jets(field, p,
order)`` gives the same arrays at a Point from central differences, the
independent oracle for the jet route, with relative steps FD_STEP for first
and FD_STEP2 for second derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .jets import Jet
from .tensors import Point

__all__ = ["ChartField", "scalar_field", "constant_field", "fd_jets"]

FD_STEP = 1e-5
FD_STEP2 = 1e-4


def _collapse_numeric(arr: np.ndarray) -> np.ndarray:
    """Collapse an object array of numbers to a float or complex array."""
    if arr.dtype != object:
        return arr
    flat = [complex(v) for v in arr.ravel()]
    if any(v.imag != 0.0 for v in flat):
        return np.array(flat, dtype=complex).reshape(arr.shape)
    return np.array([v.real for v in flat], dtype=float).reshape(arr.shape)


def _point_jets(obj, shape, n):
    """Flat values and gradient rows of an order-1 evaluator result at a point.

    A point jet gives its value and tuple gradient, a constant its value and
    a zero row.  A flat list of the field's size is read as it is; any other
    result is flattened by numpy, so a wrong entry count raises ValueError.
    """
    entries = obj
    if type(obj) is not list or len(obj) != math.prod(shape):
        entries = np.asarray(obj, dtype=object).reshape(shape).ravel().tolist()
    vals, rows, zero = [], [], (0.0,) * n
    for e in entries:
        if isinstance(e, Jet):
            vals.append(e.val)
            rows.append(e.grad)
        elif entries is obj and isinstance(e, (list, tuple, np.ndarray)):
            return _point_jets(np.asarray(obj, dtype=object), shape, n)  # nested
        else:
            vals.append(e)
            rows.append(zero)
    return vals, rows


def _collect(obj, shape, n, order, pts=()):
    """Split an evaluator result (jets and/or numbers) into value/grad/hess arrays.

    At order 1 at a point the values and gradient rows of ``_point_jets``
    are stacked.  Otherwise ``pts == (N,)`` marks block jets, whose
    constants broadcast over the points, and only the jet entries'
    derivatives are written, by index, into zero arrays.
    """
    if order == 1 and not pts:
        vals, rows = _point_jets(obj, shape, n)
        val, d1 = np.array(vals), np.array(rows)
        # numpy makes either stack complex if one entry is; then both are
        dtype = complex if "c" in (val.dtype.kind, d1.dtype.kind) else float
        return (val.astype(dtype, copy=False).reshape(shape),
                d1.astype(dtype, copy=False).reshape(shape + (n,)), None)
    entries = np.asarray(obj, dtype=object).reshape(shape).ravel().tolist()
    idx, found = [], []
    for i, e in enumerate(entries):
        if isinstance(e, Jet):
            idx.append(i)
            found.append(e)
            entries[i] = e.val
    if order == 2 and any(e.hess is None for e in found):
        raise ValueError("order-2 jets requested but evaluator dropped the Hessian")
    if pts:
        entries = [np.broadcast_to(v, pts) for v in entries]
    # numpy promotes the values to complex if any entry is complex; a complex
    # derivative of any jet makes every array complex too
    val = np.array(entries)
    derivs = [[e.grad for e in found]] + ([[e.hess for e in found]] if order == 2 else [])
    complex_derivs = any(a.dtype.kind == "c" for part in derivs for a in part)
    dtype = complex if complex_derivs or val.dtype.kind == "c" else float
    parts = [val.astype(dtype, copy=False)]
    for k, part in enumerate(derivs, start=1):
        full = np.zeros((len(entries),) + (n,) * k + pts, dtype)
        for i, d in zip(idx, part):
            full[i] = d
        parts.append(full)
    if pts:
        parts = [np.moveaxis(a, -1, 0) for a in parts]
    val, d1, *d2 = [a.reshape(pts + shape + (n,) * k) for k, a in enumerate(parts)]
    return val, d1, (d2[0] if d2 else None)


@dataclass
class ChartField:
    """Array-valued field on an n-dimensional chart.

    Parameters
    ----------
    dim : int
        Chart dimension.
    shape : tuple
        Shape of the value (``()`` for scalars).
    func : callable
        ``func(coords)`` with coords a tuple of scalars or jets; must return
        a nested structure of matching shape built from smooth operations.
    """

    dim: int
    shape: tuple
    func: Callable

    def __post_init__(self):
        self.shape = tuple(self.shape)

    # -- evaluation -------------------------------------------------------

    def raw(self, coords) -> np.ndarray:
        out = self.func(tuple(coords))
        arr = np.asarray(out)
        if arr.shape != self.shape:
            raise ValueError(f"evaluator returned shape {arr.shape}, expected {self.shape}")
        return arr

    def numeric(self, coords) -> np.ndarray:
        """Evaluate at plain numeric coordinates, collapsing object arrays."""
        return _collapse_numeric(self.raw(coords))

    def jets(self, p, order: int = 2):
        """Value, first and (optionally) second derivative arrays at p.

        Derivative indices trail the value indexes: ``d1[..., m] = d_m f``
        and ``d2[..., m, n] = d_m d_n f``.  For an (N, dim) block ``p`` the
        point axis comes first, and ValueError names the first point whose
        coordinates, value or derivatives are not finite.
        """
        if order not in (1, 2):
            raise ValueError("derivative order must be 1 or 2")
        if isinstance(p, Point):
            if p.dim != self.dim:
                raise ValueError(f"point dimension {p.dim} != field dimension {self.dim}")
            return _collect(self.func(jets.variables(p.coords, order=order)),
                            self.shape, self.dim, order)
        block = np.asarray(p, dtype=float)
        if block.shape[1:] != (self.dim,):
            raise ValueError(f"coordinate block of shape {block.shape}, expected (N, {self.dim})")
        # NaN and inf are reported by point below instead of as numpy warnings
        with np.errstate(all="ignore"):
            res = _collect(self.func(jets.variables(tuple(block.T), order=order)),
                           self.shape, self.dim, order, pts=block.shape[:1])
        ok = np.isfinite(block).all(axis=1)
        for a in res[:order + 1]:
            ok &= np.isfinite(a).reshape(len(block), -1).all(axis=1)
        if not ok.all():
            raise ValueError("non-finite coordinates or field value at "
                             f"{tuple(block[np.argmin(ok)].tolist())}")
        return res


def fd_jets(field: ChartField, p: Point, order: int):
    """ChartField.jets(p, order) at a Point by central differences.

    Steps are FD_STEP (first derivatives) and FD_STEP2 (second) times
    max(1, |x_i|) per axis.
    """
    n = field.dim
    # object arrays would defeat the iscomplexobj test below and drop
    # imaginary parts, so collapse to a numeric dtype up front
    f0 = field.numeric(p.coords)
    scale = np.maximum(1.0, np.abs(p.array()))
    h1 = FD_STEP * scale

    def ev(q: Point) -> np.ndarray:
        return field.numeric(q.coords)

    d1 = np.zeros(field.shape + (n,), dtype=complex)
    for i in range(n):
        fp = ev(p.shifted(i, +h1[i]))
        fm = ev(p.shifted(i, -h1[i]))
        d1[..., i] = (fp - fm) / (2.0 * h1[i])
    d2 = None
    if order == 2:
        h2 = FD_STEP2 * scale
        d2 = np.zeros(field.shape + (n, n), dtype=complex)
        for i in range(n):
            fp = ev(p.shifted(i, +h2[i]))
            fm = ev(p.shifted(i, -h2[i]))
            d2[..., i, i] = (fp - 2.0 * f0 + fm) / (h2[i] * h2[i])
            for j in range(i + 1, n):
                fpp = ev(p.shifted(i, +h2[i]).shifted(j, +h2[j]))
                fpm = ev(p.shifted(i, +h2[i]).shifted(j, -h2[j]))
                fmp = ev(p.shifted(i, -h2[i]).shifted(j, +h2[j]))
                fmm = ev(p.shifted(i, -h2[i]).shifted(j, -h2[j]))
                mixed = (fpp - fpm - fmp + fmm) / (4.0 * h2[i] * h2[j])
                d2[..., i, j] = mixed
                d2[..., j, i] = mixed
    if not np.iscomplexobj(f0):
        d1 = d1.real
        d2 = None if d2 is None else d2.real
    return np.asarray(f0), d1, d2


def scalar_field(dim: int, func: Callable) -> ChartField:
    return ChartField(dim=dim, shape=(), func=lambda c: func(*c))


def constant_field(dim: int, value) -> ChartField:
    arr = np.asarray(value)
    return ChartField(dim=dim, shape=arr.shape, func=lambda c: arr)
