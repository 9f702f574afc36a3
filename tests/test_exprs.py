"""Expression grammar: acceptance, rejection with offsets, jet evaluation."""

import ast
import math
import warnings

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
    derivative_code,
    differentiate,
)
from geodyn import jets
from geodyn.fields import ChartField
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


def test_every_list_of_the_functions_is_the_rules_table():
    # a rule added to jets.RULES reaches the language, the public jet
    # functions, their dispatchers and the derivative code's globals
    names = set(jets.RULES)
    assert set(FUNCTIONS) == set(FUNCTION_NAMES) == names
    assert set(jets.__all__) - {"Jet", "variables", "conjugate", "PI"} == names
    assert all(FUNCTIONS[n] is getattr(jets, n) and getattr(jets, n).__name__ == n
               for n in names)
    dispatchers = {n for n, f in vars(jets).items()
                   if getattr(f, "__qualname__", "") == "_c.<locals>.apply"}
    assert dispatchers == {f"_{n}" for n in names}
    code = differentiate([compile_expression("x^0.5", ("x",))])
    names = {n for n in code.__globals__ if not n.startswith("_k")}
    assert names - {"__builtins__", "__name__", "_derivatives"} == dispatchers
    assert code.__globals__["__name__"] == "geodyn.jets"
    assert all(code.__globals__[d] is getattr(jets, d) for d in dispatchers)


@pytest.mark.parametrize("source, real", [
    ("sin(x) * sqrt(y) + 2.5 / x", True),
    ("x^2", False),  # a power may turn a float complex
    ("sqrt(x + 0 * (-1)^0.5)", False),  # a complex constant
])
def test_real_derivative_code_calls_the_math_functions(source, real):
    # on a real number each dispatcher is its math function, so code whose
    # every number is real calls math directly, and other code the dispatchers
    code = differentiate([compile_expression(source, ("x", "y"))])
    for name, (fn, *_) in jets.RULES.items():
        want = getattr(math, fn) if real else getattr(jets, f"_{name}")
        assert code.__globals__[f"_{name}"] is want
    # and gives the bits of order-1 jets, complex ones included
    for point in ([0.7, 3.1], [-0.7, 3.1]):
        jet = compile_expression(source, ("x", "y"))(variables(point, order=1))
        vals, grads = code(point)
        assert _bits([vals[0], *grads]) == _bits([jet.val, *jet.grad]), point


def test_a_warning_of_generated_code_is_an_error_under_the_geodyn_filter():
    # the code's globals name its module, so the tier-1 filter
    # error::RuntimeWarning:geodyn (pyproject.toml) covers what numpy warns
    # there: the point code on an array coordinate, and the block code
    exprs = [compile_expression("x^0.5", ("x",))]
    for code in (differentiate(exprs), derivative_code(exprs, 2).block_function()):
        with warnings.catch_warnings():
            warnings.filterwarnings("error", category=RuntimeWarning, module="geodyn")
            with np.errstate(all="warn"), pytest.raises(RuntimeWarning, match="invalid value"):
                code(np.array([-1.0]))


def test_free_names_and_arity_check():
    # the arity is the coordinate tuple's, not that of the free names (x alone)
    e = compile_expression("sin(x) + pi", ("x", "y"))
    with pytest.raises(ExpressionError):
        e((1.0,))


def test_compiled_expressions_differentiate_through_jets():
    e = compile_expression("exp(2*x) * sin(y)", ("x", "y"))
    f = ChartField(dim=2, shape=(), func=e)
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
# plain floats, order-1 jets, order-2 jets and jets over a 3-point block
_ROUTES = {
    "float": _POINT,
    "order-1": variables(_POINT, order=1),
    "order-2": variables(_POINT, order=2),
    "block": variables(tuple(_BLOCK.T), order=2),
}


@pytest.mark.parametrize("source", EXPRESSIONS + ["1 + 0*y", "x*0 + pi", "sin(z)^0"])
def test_variables_are_the_coordinates_that_occur(source):
    # along any other coordinate the derivative code's gradient entry is zero
    e = compile_expression(source, _COORDS)
    tree = ast.parse(source.replace("^", "**"), mode="eval")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert e.variables == tuple(c for c in _COORDS if c in names)
    grads = differentiate([e])(list(_POINT))[1]
    assert [d for c, d in zip(_COORDS, grads) if c not in e.variables] == \
        [0.0] * (len(_COORDS) - len(e.variables))


@pytest.mark.parametrize("source", EXPRESSIONS + ["+x", "x^2^0.5"])
def test_compiled_expressions_match_the_tree_walker(source):
    compiled = compile_expression(source, _COORDS)
    tree = ast.parse(source.replace("^", "**"), mode="eval")
    for route, args in _ROUTES.items():
        want = _tree_walk(tree.body, dict(zip(_COORDS, args)))
        assert _bits(compiled(args)) == _bits(want), route
    # the code reads no name but the coordinates, the functions and pi
    assert set(compiled._code.co_names) <= set(_COORDS) | set(FUNCTION_NAMES) | {"pi"}
