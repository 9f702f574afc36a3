"""Forward-mode Taylor scalars of order one and two.

A :class:`Jet` carries a value, a gradient with respect to the chart
coordinates, and optionally a (symmetric) Hessian.  Chart fields evaluated
on jet-valued coordinates yield exact first and second derivatives in a
single pass; the finite-difference path in :mod:`geodyn.fields` serves as
the independent cross-check.

A block jet carries a trailing axis over N points (``val (N,)``, ``grad
(n, N)``, ``hess (n, n, N)``); with that axis last the same arithmetic
serves it, using numpy ufuncs where scalar jets call ``math``/``cmath``.

A point jet (order 1 at one point) holds a tuple gradient of Python numbers
and applies Jet's rules to it entry by entry, in the same order, so a real
gradient has the numpy one's bits.  Its complex products and quotients
follow Python, which can differ from numpy in the last bit.

Only smooth operations are provided.  ``abs`` is deliberately absent.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .tensors import _identity

__all__ = [
    "Jet",
    "variables",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "sinh",
    "cosh",
    "tanh",
    "arctan",
    "conjugate",
    "PI",
]

PI = math.pi


class Jet:
    """Truncated Taylor expansion (value, gradient, optional Hessian).

    ``hess is None`` marks a first-order jet, whose second-order bookkeeping
    is skipped.  ``grad`` and ``hess`` are numpy arrays, stored as given; a
    point jet's ``grad`` is a tuple of Python numbers and its ``hess`` None.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __repr__(self) -> str:  # pragma: no cover
        return f"Jet({self.val!r}, grad={self.grad!r}, hess={self.hess!r})"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            h = None
            if self.hess is not None and other.hess is not None:
                h = self.hess + other.hess
            return Jet(self.val + other.val, self.grad + other.grad, h)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            h = None
            if self.hess is not None and other.hess is not None:
                h = self.hess - other.hess
            return Jet(self.val - other.val, self.grad - other.grad, h)
        return Jet(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Jet(other - self.val, -self.grad, None if self.hess is None else -self.hess)

    def __neg__(self):
        return Jet(-self.val, -self.grad, None if self.hess is None else -self.hess)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Jet):
            g = self.grad * other.val + self.val * other.grad
            h = None
            if self.hess is not None and other.hess is not None:
                cross = _outer(self.grad, other.grad)
                h = self.hess * other.val + cross + cross.swapaxes(0, 1) + self.val * other.hess
            return Jet(self.val * other.val, g, h)
        h = None if self.hess is None else self.hess * other
        return Jet(self.val * other, self.grad * other, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            v = self.val / other.val
            g = (self.grad - v * other.grad) / other.val
            h = None
            if self.hess is not None and other.hess is not None:
                cross = _outer(g, other.grad)
                h = (self.hess - cross - cross.swapaxes(0, 1) - v * other.hess) / other.val
            return Jet(v, g, h)
        inv = 1.0 / other
        h = None if self.hess is None else self.hess * inv
        return Jet(self.val * inv, self.grad * inv, h)

    def __rtruediv__(self, other):
        v = self.val
        return self._chain(other / v, -other / (v * v), 2.0 * other / (v * v * v))

    def __pow__(self, k):
        if isinstance(k, Jet):
            return exp(k * log(self))
        if k == 0:
            return Jet(self.val ** 0, np.zeros_like(self.grad),
                       None if self.hess is None else np.zeros_like(self.hess))
        if k == 1:
            return self
        v = self.val
        return self._chain(v ** k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2))

    def __rpow__(self, base):
        return exp(self * math.log(base))

    def __float__(self):
        raise TypeError("Jet cannot be silently demoted to float; use .val")

    def __abs__(self):
        raise TypeError("abs() is not smooth; jets do not support it")

    def conjugate(self):
        h = None if self.hess is None else np.conjugate(self.hess)
        return Jet(np.conjugate(self.val), np.conjugate(self.grad), h)

    def _chain(self, f0, f1, f2):
        """Compose an outer scalar function with derivatives f1, f2 at val."""
        g = f1 * self.grad
        h = None
        if self.hess is not None:
            h = f1 * self.hess + f2 * _outer(self.grad, self.grad)
        return Jet(f0, g, h)


class _PointJet(Jet):
    """Order-1 jet at one point: Jet's rules on a tuple gradient, entry by entry."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, Jet):
            return _point(self.val + other.val,
                          tuple([a + b for a, b in zip(self.grad, other.grad)]))
        return _point(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)  # x - y is x + (-y) to the bit

    def __rsub__(self, other):
        return _point(other - self.val, tuple([-a for a in self.grad]))

    def __neg__(self):
        return _point(-self.val, tuple([-a for a in self.grad]))

    def __mul__(self, other):
        if isinstance(other, Jet):
            sv, ov = self.val, other.val
            return _point(sv * ov, tuple([a * ov + sv * b
                                          for a, b in zip(self.grad, other.grad)]))
        return _point(self.val * other, tuple([a * other for a in self.grad]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            ov = other.val
            v = self.val / ov
            return _point(v, tuple([(a - v * b) / ov for a, b in zip(self.grad, other.grad)]))
        inv = 1.0 / other
        return _point(self.val * inv, tuple([a * inv for a in self.grad]))

    def __pow__(self, k):
        if k == 0:
            return _point(self.val ** 0, tuple([0j if isinstance(a, complex) else 0.0
                                                for a in self.grad]))
        return Jet.__pow__(self, k)

    def conjugate(self):
        return _point(self.val.conjugate(), tuple([a.conjugate() for a in self.grad]))

    def _chain(self, f0, f1, f2):
        return _point(f0, tuple([f1 * a for a in self.grad]))


def _point(val, grad):
    # _PointJet(val, grad) without the __init__ call, for the inner loops
    j = object.__new__(_PointJet)
    j.val, j.grad, j.hess = val, grad, None
    return j


def _outer(a, b):
    # np.outer for scalar jets; keeps a trailing point axis for block jets
    return a[:, None] * b[None, :]


@lru_cache(maxsize=None)
def _unit_rows(n: int) -> tuple:
    return tuple(map(tuple, _identity(n).tolist()))


def variables(coords, order: int = 2) -> tuple:
    """Seed one jet per coordinate: a number (a point jet at order 1) or an (N,) array."""
    n = len(coords)
    if order == 1 and not isinstance(coords[0], np.ndarray):
        return tuple([_point(xi, row) for xi, row in zip(coords, _unit_rows(n))])
    eye, pts = _identity(n), ()
    if isinstance(coords[0], np.ndarray):
        pts = coords[0].shape
        eye = np.repeat(eye[:, :, None], pts[0], axis=2)
    return tuple(Jet(xi, eye[i], np.zeros((n, n) + pts) if order == 2 else None)
                 for i, xi in enumerate(coords))


def _dispatch(x, fn, f0f1f2):
    if isinstance(x, Jet):
        f0, f1, f2 = f0f1f2(x.val)
        return x._chain(f0, f1, f2)
    return fn(x)


def _c(fn, ufunc):
    """Evaluate a math/cmath function on a scalar, or its ufunc on an array."""
    real, cplx = getattr(math, fn), getattr(cmath, fn)

    def apply(v):
        if isinstance(v, float):
            return real(v)
        if isinstance(v, np.ndarray):
            return ufunc(v)
        return cplx(v) if isinstance(v, complex) or np.iscomplexobj(v) else real(v)
    return apply


_sin, _cos, _tan = _c("sin", np.sin), _c("cos", np.cos), _c("tan", np.tan)
_exp, _log, _sqrt = _c("exp", np.exp), _c("log", np.log), _c("sqrt", np.sqrt)
_sinh, _cosh, _tanh = _c("sinh", np.sinh), _c("cosh", np.cosh), _c("tanh", np.tanh)
_atan = _c("atan", np.arctan)


def sin(x):
    return _dispatch(x, _sin, lambda v: (_sin(v), _cos(v), -_sin(v)))


def cos(x):
    return _dispatch(x, _cos, lambda v: (_cos(v), -_sin(v), -_cos(v)))


def tan(x):
    def derivs(v):
        t = _tan(v)
        s = 1.0 + t * t
        return (t, s, 2.0 * t * s)
    return _dispatch(x, _tan, derivs)


def exp(x):
    def derivs(v):
        e = _exp(v)
        return (e, e, e)
    return _dispatch(x, _exp, derivs)


def log(x):
    return _dispatch(x, _log, lambda v: (_log(v), 1.0 / v, -1.0 / (v * v)))


def sqrt(x):
    def derivs(v):
        s = _sqrt(v)
        return (s, 0.5 / s, -0.25 / (s * v))
    return _dispatch(x, _sqrt, derivs)


def sinh(x):
    return _dispatch(x, _sinh, lambda v: (_sinh(v), _cosh(v), _sinh(v)))


def cosh(x):
    return _dispatch(x, _cosh, lambda v: (_cosh(v), _sinh(v), _cosh(v)))


def tanh(x):
    def derivs(v):
        t = _tanh(v)
        s = 1.0 - t * t
        return (t, s, -2.0 * t * s)
    return _dispatch(x, _tanh, derivs)


def arctan(x):
    def derivs(v):
        d = 1.0 / (1.0 + v * v)
        return (_atan(v), d, -2.0 * v * d * d)
    return _dispatch(x, _atan, derivs)


def conjugate(x):
    if isinstance(x, Jet):
        return x.conjugate()
    return np.conjugate(x)
