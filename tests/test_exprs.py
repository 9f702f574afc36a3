"""Expression grammar: acceptance, rejection with offsets, jet evaluation."""

import ast

import numpy as np
import pytest

from geodyn.exprs import (
    _BINOPS,
    _UNARYOPS,
    CONSTANTS,
    FUNCTIONS,
    CompiledExpression,
    ExpressionError,
    FUNCTION_NAMES,
    compile_expression,
    default_coordinate_names,
)
from geodyn.fields import scalar_field
from geodyn.jets import Jet, variables
from geodyn.tensors import Point
from test_fields import EXPRESSIONS


def test_arithmetic_and_power_precedence():
    e = compile_expression("2*x^3", ("x",))
    assert abs(e((2.0,)) - 16.0) < 1e-15
    # unary minus binds below the power
    e2 = compile_expression("-x^2", ("x",))
    assert e2((3.0,)) == -9.0
    e3 = compile_expression("x**2 + y/4 - 1", ("x", "y"))
    assert abs(e3((3.0, 2.0)) - 8.5) < 1e-15


def test_functions_and_pi():
    e = compile_expression("sin(pi/2) + cos(0) + sqrt(4)", ("x",))
    assert abs(e((0.0,)) - 4.0) < 1e-14
    assert set(FUNCTION_NAMES) >= {"sin", "cos", "exp", "log", "arctan"}


def test_free_names_and_arity_check():
    # the arity is the coordinate tuple's, not that of the free names (x alone)
    e = compile_expression("sin(x) + pi", ("x", "y"))
    with pytest.raises(ExpressionError):
        e((1.0,))


def test_compiled_expressions_differentiate_through_jets():
    e = compile_expression("exp(2*x) * sin(y)", ("x", "y"))
    f = scalar_field(2, lambda x, y: e((x, y)))
    p = Point((0.3, 0.7))
    _, grad, _ = f.jets(p, order=1)
    ex = np.exp(0.6)
    assert abs(grad[0] - 2.0 * ex * np.sin(0.7)) < 1e-12
    assert abs(grad[1] - ex * np.cos(0.7)) < 1e-12


def test_rejections_carry_positions():
    cases = [
        "x +",                 # dangling operator
        "__import__('os')",    # not a whitelisted function
        "x[0]",                # subscripts are out of grammar
        "q",                   # unknown name
        "sin(x, y)",           # wrong arity
        "x < y",               # comparisons are out of grammar
        "lambda x: x",
        "x @ y",
        "x.real",              # attributes reach the objects behind the names
        "(1).__class__",
        "sin(x=1)",            # keyword and starred calls
        "sin(*x)",
        "'x'",                 # strings are not numbers
        "(y := 1)",
        "True + x",            # bools are ints to Python, not NUMBERs
        "False",
        "x * True",
    ]
    for src in cases:
        with pytest.raises(ExpressionError):
            compile_expression(src, ("x", "y"))
    with pytest.raises(ExpressionError, match="offset"):
        compile_expression("x + ", ("x",))
    with pytest.raises(ExpressionError, match="non-numeric literal at offset 4"):
        compile_expression("x + True", ("x",))
    with pytest.raises(ExpressionError, match="shadow"):
        compile_expression("sin", ("sin", "y"))
    with pytest.raises(ExpressionError):
        compile_expression(3.0, ("x",))


@pytest.mark.parametrize("source, offset", [
    ("x0^2 + q", 7),        # each "^" before the fault used to add one
    ("x0^2^2 + q", 9),
    ("x0^2 + 1e999", 7),
    ("(x0^2", 0),           # the unclosed "(", not Python's 1-based column
    ("x0^2 + * 3", 7),
    ("x0 ^ ^ 2", 5),        # inside the rewritten "**"
    ("x0^2 +", 6),          # at the end of the input
    ("θ^2 + q", 6),         # the parser counts bytes, the offset characters
    ("(x0^2 +\n q)", 9),    # the parser counts from the start of the line
    ("x0^2 +\n 1", 6),
])
def test_error_offsets_index_the_source_from_zero(source, offset):
    coords = ("θ",) if source.startswith("θ") else ("x0",)
    with pytest.raises(ExpressionError, match=f"offset {offset}[:, ]"):
        compile_expression(source, coords)


def test_default_coordinate_names():
    assert default_coordinate_names(3) == ("x0", "x1", "x2")
    e = compile_expression("x0 + 2*x2", default_coordinate_names(3))
    assert isinstance(e, CompiledExpression)
    assert e((1.0, 10.0, 4.0)) == 9.0


def _tree_walk(node, env):
    """A node-by-node evaluator of the parsed tree, independent of Python's
    compiler: the reference the compiled expressions are held to."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id] if node.id in env else CONSTANTS[node.id]
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_tree_walk(node.left, env), _tree_walk(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return _UNARYOPS[type(node.op)](_tree_walk(node.operand, env))
    if isinstance(node, ast.Call):
        return FUNCTIONS[node.func.id](_tree_walk(node.args[0], env))
    raise AssertionError(f"unexpected node {type(node).__name__}")


def _bits(value):
    """The type and the bytes of a number, an array, or each part of a jet."""
    if isinstance(value, Jet):
        return type(value).__name__, _bits(value.val), _bits(value.grad), _bits(value.hess)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if value is None:
        return None
    arr = np.asarray(value)
    return type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes()


_COORDS = ("x", "y", "z")
_POINT = (0.7, 3.1, 1.2)
_BLOCK = np.array([[0.7, 3.1, 1.2], [0.4, 0.9, 2.5], [1.6, 0.2, 0.3]])
# plain floats, order-1 point jets, order-2 jets and jets over a 3-point block
_ROUTES = {
    "float": _POINT,
    "point-jet": variables(_POINT, order=1),
    "order-2": variables(_POINT, order=2),
    "block": variables(tuple(_BLOCK.T), order=2),
}


@pytest.mark.parametrize("source", EXPRESSIONS + ["+x", "x^2^0.5"])
def test_compiled_expressions_match_the_tree_walker(source):
    compiled = compile_expression(source, _COORDS)
    tree = ast.parse(source.replace("^", "**"), mode="eval")
    for route, args in _ROUTES.items():
        want = _tree_walk(tree.body, dict(zip(_COORDS, args)))
        assert _bits(compiled(args)) == _bits(want), route
    # the code reads no name but the coordinates, the functions and pi
    assert set(compiled._code.co_names) <= set(_COORDS) | set(FUNCTION_NAMES) | {"pi"}
