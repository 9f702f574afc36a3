"""Forward-mode Taylor scalars of order one and two.

A :class:`Jet` carries a value, a gradient with respect to the chart
coordinates, and optionally a (symmetric) Hessian.  Chart fields evaluated
on jet-valued coordinates yield exact first and second derivatives in a
single pass; the finite-difference path in :mod:`geodyn.fields` serves as
the independent cross-check.

A block jet carries a trailing axis over N points (``val (N,)``, ``grad
(n, N)``, ``hess (n, n, N)``); with that axis last the same arithmetic
serves it, using numpy ufuncs where scalar jets call ``math``/``cmath``.

The functions sin ... arctan are written at import from ``RULES``, which
states each one's value and first and second derivatives once.  An
expression-built field runs straight-line code in place of jets at one
point at order 1 (:func:`geodyn.exprs.differentiate`) and on a block of
points at orders 1 and 2 (:mod:`geodyn.fields`).  :func:`derivative_code`
records it by running the expressions once on jets of that order whose
numbers are :class:`Recorded`: each operation on such a number writes one
statement (forward mode by operator overloading, recorded; Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 3 and 6), and
an operation on constants alone, such as the zero Hessian of the order-2
seeds, is done while recording.  So the code performs exactly the
operations of the jets, gives their bits and raises where they raise, in a
fraction of their time; on columns, where Python folds products of
complex constants that numpy rounds otherwise, only if no constant is
complex.  An order-1 jet forms no second derivative.  At float
coordinates, code with no ``**`` and no complex constant holds real numbers
only, and there each dispatcher is its math function, which the code then
calls directly; on (N,) columns the code calls the dispatchers, which apply
the ufuncs.

Only smooth operations are provided.  ``abs`` is deliberately absent.
"""

from __future__ import annotations

import cmath
import math
from numbers import Number
from typing import Callable

import numpy as np

from .records import record
from .tensors import _identity

# The elemental rules of the expression language's functions, each stated
# once: name -> (math/cmath name, ufunc, the two statements that set the
# value {v} and the first derivative {f} at {a}, in evaluation order, and the
# second derivative there).  The jet functions below are written from them;
# _name is the dispatcher of the function itself.
RULES = {
    "sin": ("sin", np.sin, "{v} = _sin({a})", "{f} = _cos({a})", "-{v}"),
    "cos": ("cos", np.cos, "{v} = _cos({a})", "{f} = -_sin({a})", "-{v}"),
    "tan": ("tan", np.tan, "{v} = _tan({a})", "{f} = 1.0 + {v} * {v}", "2.0 * {v} * {f}"),
    "exp": ("exp", np.exp, "{v} = _exp({a})", "{f} = {v}", "{v}"),
    "log": ("log", np.log, "{v} = _log({a})", "{f} = 1.0 / {a}", "-1.0 / ({a} * {a})"),
    "sqrt": ("sqrt", np.sqrt, "{v} = _sqrt({a})", "{f} = 0.5 / {v}", "-0.25 / ({v} * {a})"),
    "sinh": ("sinh", np.sinh, "{v} = _sinh({a})", "{f} = _cosh({a})", "{v}"),
    "cosh": ("cosh", np.cosh, "{v} = _cosh({a})", "{f} = _sinh({a})", "{v}"),
    "tanh": ("tanh", np.tanh, "{v} = _tanh({a})", "{f} = 1.0 - {v} * {v}", "-2.0 * {v} * {f}"),
    "arctan": ("atan", np.arctan, "{f} = 1.0 / (1.0 + {a} * {a})", "{v} = _arctan({a})",
               "-2.0 * {a} * {f} * {f}"),
}

__all__ = [
    "Jet",
    "variables",
    *RULES,
    "conjugate",
    "PI",
]

PI = math.pi


class Jet:
    """Truncated Taylor expansion (value, gradient, optional Hessian).

    ``hess is None`` marks a first-order jet, whose second-order bookkeeping
    is skipped.  ``grad`` and ``hess`` are numpy arrays, stored as given.
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
        return self._chain(other / v, -other / (v * v), lambda: 2.0 * other / (v * v * v))

    def __pow__(self, k):
        if isinstance(k, Jet):
            return exp(k * log(self))
        if k == 0:
            return Jet(self.val ** 0, np.full_like(self.grad, 0.0),
                       None if self.hess is None else np.full_like(self.hess, 0.0))
        if k == 1:
            return self
        v = self.val
        return self._chain(v ** k, k * v ** (k - 1), lambda: k * (k - 1) * v ** (k - 2))

    def __rpow__(self, base):
        return exp(self * _log(base))

    def __float__(self):
        raise TypeError("Jet cannot be silently demoted to float; use .val")

    def __abs__(self):
        raise TypeError("abs() is not smooth; jets do not support it")

    def conjugate(self):
        h = None if self.hess is None else np.conjugate(self.hess)
        return Jet(np.conjugate(self.val), np.conjugate(self.grad), h)

    def _chain(self, f0, f1, f2):
        """Compose an outer scalar function with value f0 and derivative f1
        at val; f2() gives its second derivative, called only for a jet that
        carries a Hessian."""
        if self.hess is None:
            return Jet(f0, f1 * self.grad)
        d2 = f2()
        return Jet(f0, f1 * self.grad, f1 * self.hess + d2 * _outer(self.grad, self.grad))


def _outer(a, b):
    # np.outer for scalar jets; keeps a trailing point axis for block jets
    return a[:, None] * b[None, :]


def variables(coords, order: int = 2) -> tuple:
    """Seed one jet per coordinate: a number or an (N,) array."""
    n = len(coords)
    eye, pts = _identity(n), ()
    if isinstance(coords[0], np.ndarray):
        pts = coords[0].shape
        eye = np.repeat(eye[:, :, None], pts[0], axis=2)
    return tuple(Jet(xi, eye[i], np.zeros((n, n) + pts) if order == 2 else None)
                 for i, xi in enumerate(coords))


def _c(name, fn, ufunc):
    """Evaluate a math/cmath function on a scalar, or its ufunc on an array;
    on a Recorded number, write a call of the dispatcher _name itself."""
    real, cplx = getattr(math, fn), getattr(cmath, fn)

    def apply(v):
        if isinstance(v, float):
            return real(v)
        if isinstance(v, np.ndarray):
            return ufunc(v)
        if isinstance(v, Recorded):
            return v.tape.let(f"_{name}({v.name})")
        return cplx(v) if isinstance(v, complex) or np.iscomplexobj(v) else real(v)
    return apply


globals().update({f"_{name}": _c(name, fn, ufunc) for name, (fn, ufunc, *_) in RULES.items()})

# each function applies its dispatcher to a number and the chain rule to a
# jet, whose locals v, f and a fill the rule's slots
exec(compile("".join(f"""
def {name}(x):
    if not isinstance(x, Jet):
        return _{name}(x)
    a = x.val
    {first}
    {second}
    return x._chain(v, f, lambda: {f2})
""".format(v="v", f="f", a="a") for name, (_, _, first, second, f2) in RULES.items()),
             "<jet functions>", "exec"), globals())


def conjugate(x):
    if isinstance(x, Jet):
        return x.conjugate()
    return np.conjugate(x)


# -- recorded order-1 code ------------------------------------------------


def _recorded(op):
    """The operator op on a Recorded number, and its reflected form."""
    def forward(self, other):
        if not isinstance(other, (Recorded, Number)):
            return NotImplemented  # an array applies op entry by entry
        return self.tape.let(f"{self.name} {op} {self.tape.ref(other)}")

    def reflected(self, other):
        if not isinstance(other, Number):
            return NotImplemented
        return self.tape.let(f"{self.tape.ref(other)} {op} {self.name}")
    return forward, reflected


class Recorded:
    """A number of the code that a Tape records: the name of its local.

    Each arithmetic operation on it writes one statement and returns the
    local of the result; the dispatchers _sin ... _arctan write a call of
    themselves.  Numbers that are not recorded, the constants and the
    unit-row entries, are computed as they are.
    """

    __slots__ = ("tape", "name")

    def __init__(self, tape, name: str):
        self.tape, self.name = tape, name

    __add__, __radd__ = _recorded("+")
    __sub__, __rsub__ = _recorded("-")
    __mul__, __rmul__ = _recorded("*")
    __truediv__, __rtruediv__ = _recorded("/")
    __pow__, __rpow__ = _recorded("**")

    def __neg__(self):
        return self.tape.let(f"-{self.name}")

    def __pos__(self):
        return self.tape.let(f"+{self.name}")


class Tape:
    """The statements of one recorded function, and the globals they read:
    the dispatchers and the constants.

    A statement or a constant that was written before is not written again:
    its name is reused, which gives the same bits, so a subexpression that
    several outputs share is computed once.
    """

    def __init__(self):
        self.lines, self.seen = [], {}
        self.names = {f"_{name}": globals()[f"_{name}"] for name in RULES}

    def let(self, expr: str) -> Recorded:
        if expr not in self.seen:
            self.seen[expr] = Recorded(self, f"_t{len(self.lines)}")
            self.lines.append(f"{self.seen[expr].name} = {expr}")
        return self.seen[expr]

    def ref(self, x) -> str:
        """The name of a number in the code: its local, or a constant's."""
        if isinstance(x, Recorded):
            return x.name
        if isinstance(x, np.generic):
            x = x.item()
        # repr tells -0.0 from 0.0 and 1 from 1.0
        key = (type(x), repr(x))
        if key not in self.seen:
            self.seen[key] = f"_k{len(self.names)}"
            self.names[self.seen[key]] = x
        return self.seen[key]


@record(frozen=True)
class DerivativeCode:
    """The code that derivative_code records: statements over the
    coordinates, the locals _x0 ... _x{n-1}, that read the globals in names
    (the dispatchers and the constants), and the name in that code of each
    output's value, of each entry of the flat gradient, output by output,
    and at order 2 of each entry of the flat Hessian (n x n per output,
    row-major), None at order 1.  Where the recorded function raised, the
    last statement raises it and values, grads and hessians are None."""

    n: int
    lines: tuple
    names: dict
    values: tuple | None
    grads: tuple | None
    hessians: tuple | None = None

    def scope(self, block: bool = False) -> dict:
        """The globals of the code: names, and ``__name__``, which files a
        warning that the code raises under this module.  On float
        coordinates, code with no ``**`` and no complex constant holds real
        numbers only, and there each dispatcher is its math function, which
        the code then calls directly; on a block of (N,) columns it calls
        the dispatchers, which apply the ufuncs as block jets do."""
        names = self.names
        if not block and not self.complex_constants and \
                not any(" ** " in line for line in self.lines):
            names = {**names, **{f"_{name}": getattr(math, real)
                                 for name, (real, *_) in RULES.items()}}
        return {"__name__": __name__, **names}

    def function(self) -> Callable:
        """``f(coords) -> (values, grads)``: the values at float coordinates
        as a list, and the gradients as one flat list."""
        return self._compile(self.scope(), f"[{', '.join(self.values or ())}], "
                                           f"[{', '.join(self.grads or ())}]")

    def block_function(self) -> Callable:
        """``f(columns) -> list``: at (N,) columns of coordinates, the arrays
        of the outputs that the code computes (the names in ``slots`` that
        are not constants), each once, in the order of their first slot."""
        live = dict.fromkeys(s for s in self.slots if s not in self.names)
        return self._compile(self.scope(block=True), f"[{', '.join(live)}]")

    @property
    def complex_constants(self) -> bool:
        """Whether a constant of the code is complex."""
        return any(isinstance(k, complex) for k in self.names.values())

    @property
    def slots(self) -> tuple:
        """Every output number's name: the values, the grads, then the
        Hessians; empty where the code raises."""
        return (self.values or ()) + (self.grads or ()) + (self.hessians or ())

    def _compile(self, scope: dict, returned: str) -> Callable:
        # where the last statement raises, the return is never reached
        body = "\n".join(f"    {line}" for line in [
            "".join(f"_x{i}, " for i in range(self.n)) + "= _c", *self.lines,
            f"return {returned}"])
        scope = {"__builtins__": {}, **scope}
        exec(compile(f"def _derivatives(_c):\n{body}\n", "<derivative code>", "exec"), scope)
        return scope["_derivatives"]


def derivative_code(fn: Callable, n: int, order: int = 1) -> DerivativeCode:
    """The recorded order-1 or order-2 code of fn, a function from n
    coordinates to a list of numbers and jets.

    The code computes fn's values and their derivatives, at float
    coordinates or on (N,) columns, by the operations that jets of that
    order perform there: at order 2 the seed jets carry a zero Hessian, so
    the Hessian's operations are recorded too.  An ArithmeticError or
    ValueError that fn raises while recording comes from operations on
    constants alone, so it is the same at every point: the code raises it
    where it happened, after the errors of the operations before it.
    """
    tape = Tape()
    xs = [Jet(Recorded(tape, f"_x{i}"), row.astype(object),
              np.zeros((n, n)).astype(object) if order == 2 else None)
          for i, row in enumerate(_identity(n))]
    try:
        # Python's float operations on the unit rows' entries set the flags
        # that numpy's object loops turn into warnings
        with np.errstate(all="ignore"):
            out = fn(xs)
    except (ArithmeticError, ValueError) as e:
        tape.lines.append(f"raise {tape.ref(type(e))}(*{tape.ref(e.args)})")
        return DerivativeCode(n, tuple(tape.lines), tape.names, None, None)
    out = [y if isinstance(y, Jet) else Jet(y, [0.0] * n, [[0.0] * n] * n) for y in out]
    values = tuple(tape.ref(y.val) for y in out)
    grads = tuple(tape.ref(g) for y in out for g in y.grad)
    hessians = None if order == 1 else tuple(tape.ref(h) for y in out for row in y.hess
                                             for h in row)
    return DerivativeCode(n, tuple(tape.lines), tape.names, values, grads, hessians)
