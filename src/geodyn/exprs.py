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

``differentiate`` turns a field's expressions into one straight-line Python
function from float coordinates to the values and the flat gradient: the
code that ``derivative_code`` records while the expressions run once on
order-1 jets, and whose statements the geodesic loop inlines.  So it
performs exactly the float operations of order-1 jets at a point, a
complex intermediate included, gives their bits and raises where they
raise, in about a tenth of their time.  It computes a subexpression that
the field's entries share once.  ``derivative_code(exprs, 2)`` records the
order-2 code the same way, which blocks of points run on numpy columns
(geodyn.fields).
"""

from __future__ import annotations

import ast
import cmath
from typing import Callable
from types import CodeType

from . import jets as _jets
from .records import record

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


@record(frozen=True)
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
        _validate(tree.body, coords, source)
        code = compile(tree, "<expression>", "eval")
    except SyntaxError as e:
        # a 1-based offset in characters; none means the end of the input
        line, col = (e.lineno, e.offset - 1) if e.offset else (1, len(source.replace("^", "**")))
        raise ExpressionError(f"syntax error at offset {_source_offset(source, line, col)}: "
                              f"{source!r}") from None
    except (RecursionError, MemoryError):
        # the host parser, the validator and the compiler all recurse on the
        # nesting depth; past their limits the expression is rejected whole
        raise ExpressionError(f"expression nests too deeply ({len(source)} characters)") from None
    return CompiledExpression(source=source, coordinates=coords, _code=code)


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


def derivative_code(exprs, order: int = 1) -> _jets.DerivativeCode:
    """The recorded order-1 or order-2 code of compiled expressions over n
    coordinates (jets.DerivativeCode), output by output."""
    n = len(exprs[0].coordinates)
    for e in exprs:
        if len(e.coordinates) != n:
            raise ExpressionError(f"expressions over {n} and {len(e.coordinates)} coordinates")
    return _jets.derivative_code(lambda xs: [e(xs) for e in exprs], n, order)


def differentiate(exprs) -> Callable:
    """The order-1 derivative code of compiled expressions as a function.

    Returns ``f(coords) -> (values, grads)``: the expressions' values as a
    list, and their gradients as one flat list, expression by expression.
    Both hold the numbers that order-1 jets at the point give, bit for bit,
    and an evaluation error is the one that the expressions raise.
    """
    return derivative_code(exprs).function()
