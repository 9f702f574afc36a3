"""Smooth array-valued fields over a chart.

A :class:`ChartField` wraps a pure evaluator ``func(coords) -> array`` whose
scalar arithmetic must go through :mod:`geodyn.jets` functions so the same
code path serves plain floats (values, finite differences) and jets (exact
derivatives).  ``ChartField.jets`` returns the value and its coordinate
derivatives as plain arrays, derivative indices trailing.  It also takes an
(N, dim) block, and then puts the point axis first in its results.

``entry_field`` builds an expression-built field from an array of compiled
expressions.  Such a field runs straight-line code that
:func:`geodyn.jets.derivative_code` records from the expressions' jets on
the field's first call of each kind, and keeps: at a Point, order 1 runs
float code (``point_code``); on a block, orders 1 and 2 run numpy code on
the block's coordinate columns (``block_code``), which stacks the outputs
it computes once, next to one row per distinct constant (zero
derivatives, most of a Hessian), and gathers each part from the stack.
The code performs the jets' operations, so it gives their bits and raises
where they raise.
Order 2 at a Point, a block of a field whose code holds a complex constant,
and every evaluation of a field built from a closure run the evaluator on
numpy-gradient jets (``_collect``), which form no second derivative at
order 1, so every route raises alike.
``fd_jets(field, p, order)`` gives the same arrays at a Point from central
differences, the independent oracle for the jet routes, with relative steps
FD_STEP for first and FD_STEP2 for second derivatives.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from . import jets
from .exprs import derivative_code, differentiate
from .jets import Jet
from .records import record
from .tensors import Point

__all__ = ["ChartField", "entry_field", "fd_jets"]

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


def _collect(obj, shape, n, order, pts=()):
    """Split an evaluator result (jets and/or numbers) into value/grad/hess arrays.

    ``pts == (N,)`` marks block jets, whose constants broadcast over the
    points.  Only the jet entries' derivatives are written, by index, into
    zero arrays.
    """
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


def _block_code(exprs: tuple, shape: tuple, order: int) -> Callable | None:
    """``f(block) -> ((val, d1, d2), finite)`` of an expression-built field
    on an (N, dim) block: the expressions' recorded code of this order
    (exprs.derivative_code) run on the block's columns, which performs the
    operations of block jets, gives their bits and raises where they raise.
    ``finite`` marks the points at which every output is finite.

    The outputs that the code computes are stacked once, one row each, and
    each constant is one more row; each part gathers its slots' rows, point
    axis first.  An order-2 part is contiguous, since the curvature pass
    multiplies it by batched matmul; an order-1 part keeps the point axis
    innermost, as block jets do, since the gauge fields' parts go into sums
    of transposed views (measured on the action-quadrature and gauge-sm
    workloads, where the other layout of each was slower).

    None where the code holds a complex constant: Python and numpy round a
    product of two complex numbers differently, so the constants that the
    recording folds would not be block jets' bits.
    """
    code = derivative_code(exprs, order)
    if code.complex_constants:
        return None
    run, slots = code.block_function(), code.slots
    live = list(dict.fromkeys(s for s in slots if s not in code.names))
    consts = list(dict.fromkeys(s for s in slots if s in code.names))
    column = np.array([code.names[k] for k in consts], dtype=float)[:, None]
    constant_finite = np.isfinite(column).all()
    where = {s: i for i, s in enumerate(live + consts)}
    n, size = len(exprs[0].coordinates), len(exprs)
    bounds = np.cumsum([0] + [size * n ** k for k in range(order + 1)])
    parts = [(np.array([where[s] for s in slots[a:b]], dtype=np.intp), shape + (n,) * k)
             for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]

    def evaluate(block):
        table = np.empty((len(where), len(block)))
        outs = run(tuple(block.T))
        if outs:
            table[:len(live)] = outs
        table[len(live):] = column
        res = [table.T.take(index, axis=1).reshape(block.shape[:1] + tail) if order == 2 else
               np.moveaxis(table.take(index, axis=0).reshape(tail + block.shape[:1]), -1, 0)
               for index, tail in parts]
        return (*res, *[None] * (2 - order)), np.isfinite(table[:len(live)]).all(axis=0) & \
            constant_finite
    return evaluate


@record(frozen=True)
class ChartField:
    """Array-valued field on an n-dimensional chart; frozen, so its cached
    ``point_code`` and ``block_code`` stay its own.

    Parameters
    ----------
    dim : int
        Chart dimension.
    shape : tuple
        Shape of the value (``()`` for scalars).
    func : callable
        ``func(coords)`` with coords a tuple of scalars or jets; must return
        a nested structure of matching shape built from smooth operations.
    expressions : tuple, optional
        The compiled expressions of an expression-built field, one per
        entry in C order, which ``func`` evaluates.
    """

    dim: int
    shape: tuple
    func: Callable
    expressions: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))

    @cached_property
    def point_code(self):
        """The generated order-1 code of an expression-built field, from
        float coordinates to (values, flat gradient); None for closures."""
        return None if self.expressions is None else differentiate(self.expressions)

    @cached_property
    def block_code(self) -> dict:
        """order -> the block evaluator of an expression-built field
        (_block_code), recorded on its first block at that order."""
        return {}

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
            if order == 1 and self.expressions is not None:
                vals, grads = self.point_code(p.coords)
                val, d1 = np.array(vals), np.array(grads)
                # numpy makes either list complex if one entry is; then both are
                dtype = complex if "c" in (val.dtype.kind, d1.dtype.kind) else float
                return (val.astype(dtype, copy=False).reshape(self.shape),
                        d1.astype(dtype, copy=False).reshape(self.shape + (self.dim,)), None)
            return _collect(self.func(jets.variables(p.coords, order=order)),
                            self.shape, self.dim, order)
        block = np.asarray(p, dtype=float)
        if block.shape[1:] != (self.dim,):
            raise ValueError(f"coordinate block of shape {block.shape}, expected (N, {self.dim})")
        if self.expressions is not None and order not in self.block_code:
            self.block_code[order] = _block_code(self.expressions, self.shape, order)
        evaluate = None if self.expressions is None else self.block_code[order]
        # NaN and inf are reported by point below instead of as numpy warnings
        with np.errstate(all="ignore"):
            if evaluate is None:
                res = _collect(self.func(jets.variables(tuple(block.T), order=order)),
                               self.shape, self.dim, order, pts=block.shape[:1])
                ok = np.logical_and.reduce([np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
                                            for a in res[:order + 1]])
            else:
                res, ok = evaluate(block)
        ok &= np.isfinite(block).all(axis=1)
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


def entry_field(entries) -> ChartField:
    """The expression-built ChartField whose entries are the compiled
    expressions in an array (or list) of the field's shape, over their
    coordinates."""
    entries = np.asarray(entries, dtype=object)
    shape, flat = entries.shape, tuple(entries.ravel().tolist())

    def func(c):
        out = np.empty(len(flat), dtype=object)
        for i, f in enumerate(flat):
            out[i] = f(c)
        return out.reshape(shape)

    return ChartField(dim=len(flat[0].coordinates), shape=shape, func=func, expressions=flat)
