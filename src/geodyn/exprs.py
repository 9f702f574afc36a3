"""Tiny arithmetic expression language for configuration files.

Grammar (infix, standard precedence):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := ("+" | "-") factor | power
    power   := atom ("^" exponent)?
    atom    := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

Names are either chart coordinates or one of the function names below; "pi" is
the only constant.  Functions: sin cos tan exp log sqrt sinh cosh tanh
arctan.  "^" is exponentiation ("**" also works).  Compiled expressions
evaluate on plain numbers and on jet values alike, so configured fields get
exact derivatives for free.

Parsing reuses the Python grammar through ast with a strict whitelist; any
node outside the grammar above is rejected with a position, and so is any
coordinate-free subexpression that is not a finite number (``1e999``,
``1/0``, ``1e308*1e308``).  The validated tree is compiled once and
evaluated by Python with no builtins in reach: only the coordinates, the
functions and pi.

``differentiate`` turns the validated trees of a field's expressions into
one straight-line Python function from float coordinates to the values and
the flat gradient, forward mode by source transformation (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 3).  Each node
becomes the float operations that order-1 jets perform on it, in the same
order: a function call becomes the value and derivative statements of its
rule in ``jets.RULES``, the table the jet functions are written from, with
``jets``' math/cmath dispatchers.  So the code gives the bits of order-1
jets at a point, a complex intermediate included, and raises where they
raise, in about a tenth of their time.  It computes a subexpression that
the field's entries share once.
"""

from __future__ import annotations

import ast
import cmath
import math
from dataclasses import dataclass
from typing import Callable
from types import CodeType

from . import jets as _jets

__all__ = ["ExpressionError", "CompiledExpression", "compile_expression",
           "differentiate", "FUNCTION_NAMES", "default_coordinate_names"]


class ExpressionError(ValueError):
    """Malformed or out-of-grammar expression, with offset info when known."""


FUNCTIONS = {name: getattr(_jets, name) for name in _jets.RULES}
FUNCTION_NAMES = tuple(sorted(FUNCTIONS))

CONSTANTS = {"pi": _jets.PI}

# the names a compiled expression can see besides its coordinates
_GLOBALS = {"__builtins__": {}, **FUNCTIONS, **CONSTANTS}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}

_UNARYOPS = {ast.USub: lambda a: -a, ast.UAdd: lambda a: a}


def default_coordinate_names(dim: int) -> tuple:
    return tuple(f"x{i}" for i in range(dim))


@dataclass(frozen=True)
class CompiledExpression:
    """A validated expression bound to an ordered coordinate name tuple."""

    source: str
    coordinates: tuple
    _code: CodeType

    def __call__(self, coords):
        if len(coords) != len(self.coordinates):
            raise ExpressionError(
                f"expression over {self.coordinates} called with "
                f"{len(coords)} coordinates")
        return eval(self._code, _GLOBALS, dict(zip(self.coordinates, coords)))

    @property
    def variables(self) -> tuple:
        """The coordinates whose names occur in the expression, in chart
        order.  Along any other coordinate the derivative code's gradient
        entry is formed from zeros alone, so it is +-0 or NaN."""
        return tuple(c for c in self.coordinates if c in self._code.co_names)


def compile_expression(source: str, coordinates) -> CompiledExpression:
    """Parse and validate; raises ExpressionError with a character offset."""
    if not isinstance(source, str):
        raise ExpressionError(f"expression must be a string, got {type(source).__name__}")
    coords = tuple(coordinates)
    clash = set(coords) & (set(FUNCTIONS) | set(CONSTANTS))
    if clash:
        raise ExpressionError(f"coordinate names {sorted(clash)} shadow builtins")
    try:
        tree = _parse(source)
    except SyntaxError as e:
        # a 1-based offset in characters; none means the end of the input
        line, col = (e.lineno, e.offset - 1) if e.offset else (1, len(source.replace("^", "**")))
        raise ExpressionError(f"syntax error at offset {_source_offset(source, line, col)}: "
                              f"{source!r}") from None
    _validate(tree.body, coords, source)
    return CompiledExpression(source=source, coordinates=coords,
                              _code=compile(tree, "<expression>", "eval"))


def _parse(source: str) -> ast.Expression:
    # "^" means power; rewriting the token keeps power precedence above "*",
    # which the host grammar would not give the xor operator
    return ast.parse(source.replace("^", "**"), mode="eval")


def _source_offset(source: str, line: int, col: int) -> int:
    """The 0-based offset in source of character col of line `line` (from 1)
    of the parsed text, in which each "^" became "**"."""
    col += sum(len(text) + 1 for text in source.replace("^", "**").split("\n")[:line - 1])
    origin = [i for i, ch in enumerate(source) for _ in range(1 + (ch == "^"))]
    return origin[col] if col < len(origin) else len(source)


def _where(node: ast.AST, source: str) -> str:
    if not hasattr(node, "col_offset"):
        return f" in {source!r}"
    # col_offset counts the UTF-8 bytes of its line of the parsed text
    text = source.replace("^", "**").split("\n")[node.lineno - 1]
    col = len(text.encode()[:node.col_offset].decode())
    return f" at offset {_source_offset(source, node.lineno, col)} in {source!r}"


def _constant(node: ast.AST, source: str, fn, *args):
    """fn(*args), the value of a node whose arguments are free of coordinates
    (None if one is not); ExpressionError at its offset unless it is finite."""
    if None in args:
        return None
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as e:
        raise ExpressionError(f"constant cannot be evaluated ({e}){_where(node, source)}") from None
    if not cmath.isfinite(value):
        raise ExpressionError(f"constant evaluates to {value}{_where(node, source)}")
    return value


def _validate(node: ast.AST, coords: tuple, source: str):
    """Check node against the grammar; return its value if it is free of
    coordinates, else None.  Literals are taken as floats, so a huge integer
    power overflows at once instead of being computed."""
    if isinstance(node, ast.Constant):
        # a bool is an int, but True and False are not NUMBERs
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ExpressionError(f"non-numeric literal{_where(node, source)}")
        return _constant(node, source, float, node.value)
    if isinstance(node, ast.Name):
        if node.id in coords:
            return None
        if node.id in CONSTANTS:
            return CONSTANTS[node.id]
        if node.id in FUNCTIONS:
            raise ExpressionError(
                f"function '{node.id}' used without arguments{_where(node, source)}")
        raise ExpressionError(f"unknown name '{node.id}'{_where(node, source)}")
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ExpressionError(
                f"operator {type(node.op).__name__} not allowed{_where(node, source)}")
        return _constant(node, source, _BINOPS[type(node.op)],
                         _validate(node.left, coords, source),
                         _validate(node.right, coords, source))
    if isinstance(node, ast.UnaryOp):
        if type(node.op) not in _UNARYOPS:
            raise ExpressionError(
                f"operator {type(node.op).__name__} not allowed{_where(node, source)}")
        return _constant(node, source, _UNARYOPS[type(node.op)],
                         _validate(node.operand, coords, source))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in FUNCTIONS:
            raise ExpressionError(f"unknown function{_where(node, source)}")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(
                f"'{node.func.id}' takes exactly one argument{_where(node, source)}")
        return _constant(node, source, FUNCTIONS[node.func.id],
                         _validate(node.args[0], coords, source))
    raise ExpressionError(
        f"{type(node).__name__} not part of the expression grammar{_where(node, source)}")


# -- order-1 derivative code --------------------------------------------------
#
# A node's result is (value, None) for a coordinate-free node, whose value
# is computed once here as the eval path computes it, or (name, grads) for
# one that depends on the coordinates: the local holding its value and its
# n gradient entries (locals, or the literals of a coordinate's unit row).

class _Writer:
    """The statements and the globals of one generated function.

    A statement or a constant that was written before is not written again:
    its local is reused, which gives the same bits, so a subexpression that
    the entries share is computed once."""

    def __init__(self):
        self.lines, self.seen = [], {}
        self.names = {"__builtins__": {}, "_mlog": math.log,
                      **{f"_{fn}": getattr(_jets, f"_{fn}") for fn in _jets.RULES}}

    def let(self, expr: str) -> str:
        if expr not in self.seen:
            self.seen[expr] = f"_t{len(self.lines)}"
            self.lines.append(f"{self.seen[expr]} = {expr}")
        return self.seen[expr]

    def const(self, value) -> str:
        # repr tells -0.0 from 0.0 and 1 from 1.0
        key = (type(value), repr(value))
        if key not in self.seen:
            self.seen[key] = f"_k{len(self.names)}"
            self.names[self.seen[key]] = value
        return self.seen[key]

    def scaled(self, f: str, grads: list) -> list:
        # the jets' chain rule: f1 times each gradient entry
        return [self.let(f"{f} * {g}") for g in grads]

    def call(self, fn: str, a: str, grads: list) -> tuple:
        if (fn, a) not in self.seen:
            v, f = f"_t{len(self.lines)}v", f"_t{len(self.lines)}f"
            _, _, first, second, _ = _jets.RULES[fn]
            self.lines += [line.format(v=v, f=f, a=a) for line in (first, second)]
            self.seen[fn, a] = v, f
        v, f = self.seen[fn, a]
        return v, self.scaled(f, grads)

    def neg(self, a: str, grads: list) -> tuple:
        return self.let(f"-{a}"), [self.let(f"-{g}") for g in grads]

    def add(self, a, ga, b, gb) -> tuple:
        if ga is None:  # c + A is A + c
            a, ga, b, gb = b, gb, a, ga
        if gb is None:
            return self.let(f"{a} + {b}"), ga
        return self.let(f"{a} + {b}"), [self.let(f"{x} + {y}") for x, y in zip(ga, gb)]

    def sub(self, a, ga, b, gb) -> tuple:
        if ga is None:
            return self.let(f"{a} - {b}"), [self.let(f"-{y}") for y in gb]
        if gb is None:  # A - c is A + (-c)
            return self.let(f"{a} + (-{b})"), ga
        return self.add(a, ga, *self.neg(b, gb))

    def mul(self, a, ga, b, gb) -> tuple:
        if ga is None:  # c * A is A * c
            a, ga, b, gb = b, gb, a, ga
        if gb is None:
            return self.let(f"{a} * {b}"), [self.let(f"{x} * {b}") for x in ga]
        return self.let(f"{a} * {b}"), [self.let(f"{x} * {b} + {a} * {y}")
                                        for x, y in zip(ga, gb)]

    def div(self, a, ga, b, gb) -> tuple:
        if ga is None:  # c / A: value c/v, derivative -c/(v*v)
            v = self.let(f"{a} / {b}")
            return v, self.scaled(self.let(f"-{a} / ({b} * {b})"), gb)
        if gb is None:  # A / c is A * (1.0 / c)
            inv = self.let(f"1.0 / {b}")
            return self.let(f"{a} * {inv}"), [self.let(f"{x} * {inv}") for x in ga]
        v = self.let(f"{a} / {b}")
        return v, [self.let(f"({x} - {v} * {y}) / {b}") for x, y in zip(ga, gb)]

    def pow(self, a, ga, b, gb, k) -> tuple:
        """A ** B; k is the value of a constant exponent B."""
        if ga is None:  # c ** A is exp(A * log(c))
            lc = self.let(f"_mlog({a})")
            return self.call("exp", *self.mul(b, gb, lc, None))
        if gb is not None:  # A ** B is exp(B * log(A))
            return self.call("exp", *self.mul(b, gb, *self.call("log", a, ga)))
        if k == 0:
            # jets give 0j where a gradient entry is complex, but then so is
            # the value, which makes the stacked gradient complex anyway
            return self.let(f"{a} ** 0"), ["0.0"] * len(ga)
        if k == 1:
            return a, ga
        v = self.let(f"{a} ** {b}")
        return v, self.scaled(self.let(f"{b} * {a} ** ({b} - 1)"), ga)

    def node(self, node: ast.AST, index: dict) -> tuple:
        """(value, None) or (name, grads) of a validated node; index maps the
        coordinate names to their positions."""
        if isinstance(node, ast.Constant):
            return node.value, None
        if isinstance(node, ast.Name):
            if node.id not in index:
                return CONSTANTS[node.id], None
            i = index[node.id]
            return f"_x{i}", ["1.0" if j == i else "0.0" for j in range(len(index))]
        if isinstance(node, ast.UnaryOp):
            a, ga = self.node(node.operand, index)
            if ga is None:
                return _UNARYOPS[type(node.op)](a), None
            return (a, ga) if isinstance(node.op, ast.UAdd) else self.neg(a, ga)
        if isinstance(node, ast.Call):
            fn = node.func.id
            a, ga = self.node(node.args[0], index)
            return (FUNCTIONS[fn](a), None) if ga is None else self.call(fn, a, ga)
        op = type(node.op)
        (a, ga), (b, gb) = self.node(node.left, index), self.node(node.right, index)
        if ga is None and gb is None:
            return _BINOPS[op](a, b), None
        k = b
        a, b = (self.const(a) if ga is None else a), (self.const(b) if gb is None else b)
        if op is ast.Pow:
            return self.pow(a, ga, b, gb, k)
        return {ast.Add: self.add, ast.Sub: self.sub, ast.Mult: self.mul,
                ast.Div: self.div}[op](a, ga, b, gb)


def differentiate(exprs) -> Callable:
    """The order-1 derivative code of compiled expressions over n coordinates.

    Returns ``f(coords) -> (values, grads)``: the expressions' values as a
    list, and their gradients as one flat list, expression by expression.
    Both hold the numbers that order-1 jets at the point give, bit for bit,
    and an evaluation error is the one that the expressions raise.
    """
    n = len(exprs[0].coordinates)
    w, values, grads = _Writer(), [], []
    for e in exprs:
        if len(e.coordinates) != n:
            raise ExpressionError(f"expressions over {n} and {len(e.coordinates)} coordinates")
        v, g = w.node(_parse(e.source).body, {c: i for i, c in enumerate(e.coordinates)})
        values.append(w.const(v) if g is None else v)
        grads += ["0.0"] * n if g is None else g
    body = "\n".join(f"    {line}" for line in
                     ["".join(f"_x{i}, " for i in range(n)) + "= _c", *w.lines,
                      f"return [{', '.join(values)}], [{', '.join(grads)}]"])
    exec(compile(f"def _derivatives(_c):\n{body}\n", "<derivative code>", "exec"), w.names)
    return w.names["_derivatives"]
