"""Expression grammar: acceptance, rejection with offsets, jet evaluation."""

import numpy as np
import pytest

from geodyn.exprs import (
    CompiledExpression,
    ExpressionError,
    FUNCTION_NAMES,
    compile_expression,
    default_coordinate_names,
)
from geodyn.fields import scalar_field
from geodyn.tensors import Point


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
    ]
    for src in cases:
        with pytest.raises(ExpressionError):
            compile_expression(src, ("x", "y"))
    with pytest.raises(ExpressionError, match="offset"):
        compile_expression("x + ", ("x",))
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
