"""Field evaluation and derivative-route agreement."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodyn.action import GridSpec, Region, heat_kernel_coefficients
from geodyn.config import build_scenario
from geodyn.exprs import (FUNCTION_NAMES, ExpressionError, compile_expression, derivative_code,
                          differentiate)
from geodyn.fields import ChartField, _collect, entry_field, fd_jets
from geodyn.jets import Jet, cosh, exp, sin, variables
from geodyn.library import BUILTIN_FRAMES, schwarzschild
from geodyn.scenarios import builtin_config
from geodyn.tensors import Point


def _times_i(jet):
    """An order-1 jet with the gradient of jet times 1j."""
    return Jet(jet.val, 1j * jet.grad)


def test_scalar_closed_form_derivatives():
    # f = exp(x) sin(y): both derivative orders against hand formulas
    f = ChartField(dim=2, shape=(), func=lambda c: exp(c[0]) * sin(c[1]))
    p = Point((0.3, 1.1))
    val, d1, d2 = f.jets(p, order=2)
    ex, sy, cy = np.exp(0.3), np.sin(1.1), np.cos(1.1)
    assert abs(val - ex * sy) < 1e-15
    assert abs(d1[0] - ex * sy) < 1e-14
    assert abs(d1[1] - ex * cy) < 1e-14
    assert abs(d2[0, 0] - ex * sy) < 1e-13
    assert abs(d2[0, 1] - ex * cy) < 1e-13
    assert abs(d2[1, 1] + ex * sy) < 1e-13


def test_dual_and_fd_routes_agree():
    rng = np.random.default_rng(23)
    for _ in range(5):
        c = rng.standard_normal(6)

        def entry(coords):
            x, y, z = coords
            m = np.array([
                [c[0] * x * x + c[1] * y, sin(c[2] * z)],
                [exp(c[3] * y) * x, c[4] + c[5] * z * y],
            ], dtype=object)
            return m

        dual = ChartField(dim=3, shape=(2, 2), func=entry)
        p = Point(tuple(rng.uniform(-0.5, 0.5, size=3)))
        _, d1a, d2a = dual.jets(p, order=2)
        _, d1b, d2b = fd_jets(dual, p, 2)
        assert np.max(np.abs(d1a - d1b)) < 1e-8
        assert np.max(np.abs(d2a - d2b)) < 1e-5


def test_second_derivative_symmetry():
    f = ChartField(dim=3, shape=(),
                   func=lambda c: sin(c[0] * c[1]) * cosh(c[2]) + c[0] ** 3 * c[2])
    _, _, d2 = f.jets(Point((0.4, -0.2, 0.7)), order=2)
    assert np.max(np.abs(d2 - d2.transpose(1, 0))) < 1e-12


def test_constant_field_has_zero_derivative():
    f = ChartField(dim=3, shape=(3, 3), func=lambda c: np.diag([1.0, 2.0, 3.0]))
    _, d1, d2 = f.jets(Point((0.1, 0.2, 0.3)), order=2)
    assert np.allclose(d1, 0.0)
    assert np.allclose(d2, 0.0)


def test_complex_valued_field_derivatives():
    # mixed real/imag entries exercise the complex jet path
    f = ChartField(dim=1, shape=(), func=lambda c: exp(1j * c[0]))
    val, d1, _ = f.jets(Point((0.5,)), order=1)
    assert abs(complex(val) - np.exp(0.5j)) < 1e-15
    assert abs(complex(d1[0]) - 1j * np.exp(0.5j)) < 1e-14


def test_shape_mismatch_rejected():
    f = ChartField(dim=2, shape=(3,), func=lambda c: np.array([c[0], c[1]]))
    with pytest.raises(ValueError):
        f.raw(Point((1.0, 2.0)).coords)


def test_nonfinite_value_rejected():
    f = ChartField(dim=1, shape=(), func=lambda c: 1.0 / c[0])
    with pytest.raises(ValueError, match="non-finite"):
        f.jets(np.array([[0.0]]), order=1)


def test_point_dim_mismatch_rejected():
    f = ChartField(dim=2, shape=(), func=lambda c: c[0] + c[1])
    with pytest.raises(ValueError):
        f.jets(Point((1.0,)), order=1)


def test_numeric_collapses_object_arrays():
    # python-scalar entries force an object array out of the evaluator
    f = ChartField(dim=1, shape=(2,), func=lambda c: np.array([c[0], 2], dtype=object))
    out = f.numeric((1.5,))
    assert out.dtype == float
    assert np.allclose(out, [1.5, 2.0])


def test_collect_dtype_and_shape_rules():
    p = Point((0.3, 1.1, -0.4))
    # integer zeros next to real jets collapse to float64, with trailing derivative axes
    real = ChartField(dim=3, shape=(2, 2), func=lambda c: [[c[0] * c[1], 0], [0, sin(c[2])]])
    val, d1, d2 = real.jets(p, order=2)
    assert val.dtype == d1.dtype == d2.dtype == np.float64
    assert (val.shape, d1.shape, d2.shape) == ((2, 2), (2, 2, 3), (2, 2, 3, 3))
    assert val[0, 1] == 0.0 and not d1[1, 0].any() and not d2[0, 1].any()
    assert d1[0, 0].tolist() == [1.1, 0.3, 0.0]
    # a complex constant entry makes every array complex
    const = ChartField(dim=3, shape=(2,), func=lambda c: [c[0], 2.0 + 1.0j])
    val, d1, d2 = const.jets(p, order=1)
    assert val.dtype == d1.dtype == complex and d2 is None
    assert val[1] == 2.0 + 1.0j and d1.shape == (2, 3)
    # so does a jet whose value is real but whose gradient is complex
    grad = ChartField(dim=3, shape=(), func=lambda c: _times_i(c[1]))
    val, d1, _ = grad.jets(p, order=1)
    assert val.shape == () and val.dtype == complex and d1.tolist() == [0.0, 1.0j, 0.0]
    # an order-2 request over a first-order jet is an error, not a silent zero
    dropped = ChartField(dim=3, shape=(2,),
                         func=lambda c: [c[0], type(c[1])(c[1].val, c[1].grad)])
    with pytest.raises(ValueError, match="dropped the Hessian"):
        dropped.jets(p, order=2)
    # a block puts the point axis first and broadcasts constant entries over it
    block = np.array([p.coords, (1.0, 2.0, 3.0)])
    val, d1, d2 = real.jets(block, order=2)
    assert (val.shape, d1.shape, d2.shape) == ((2, 2, 2), (2, 2, 2, 3), (2, 2, 2, 3, 3))
    assert val[:, 0, 1].tolist() == [0.0, 0.0] and d1[1, 0, 0].tolist() == [2.0, 1.0, 0.0]
    val, d1, d2 = const.jets(block, order=1)
    assert val.dtype == d1.dtype == complex and val[:, 1].tolist() == [2.0 + 1.0j] * 2


def _oracle_collect(obj, shape, n, order, pts=()):
    """The former _collect: a zero gradient (and Hessian) stacked per constant."""
    vals, grads, hesses = [], [], []
    zero_grad, zero_hess = np.zeros((n,) + pts), np.zeros((n, n) + pts)
    for entry in np.asarray(obj, dtype=object).reshape(shape).ravel().tolist():
        if isinstance(entry, Jet):
            vals.append(entry.val)
            grads.append(entry.grad)
            if order == 2:
                hesses.append(entry.hess)
        else:
            vals.append(entry)
            grads.append(zero_grad)
            if order == 2:
                hesses.append(zero_hess)
    if pts:
        vals = [np.broadcast_to(v, pts) for v in vals]
    parts = [np.array(vals), np.array(grads)] + ([np.array(hesses)] if order == 2 else [])
    dtype = complex if any(a.dtype.kind == "c" for a in parts) else float
    if pts:
        parts = [np.moveaxis(a, -1, 0) for a in parts]
    val, d1, *d2 = [a.astype(dtype, copy=False).reshape(pts + shape + (n,) * k)
                    for k, a in enumerate(parts)]
    return val, d1, (d2[0] if d2 else None)


def _collect_cases():
    for name in sorted(BUILTIN_FRAMES):
        yield name, BUILTIN_FRAMES[name][0]().field
    yield "complex", ChartField(dim=2, shape=(2, 2), func=lambda c: [
        [c[0] * (1.0 + 2.0j), 0], [sin(c[1]), 3.0]])
    yield "complex-constant", ChartField(dim=2, shape=(2,), func=lambda c: [c[0], 0.5j])


@pytest.mark.parametrize("name, field", list(_collect_cases()))
@pytest.mark.parametrize("order", [1, 2])
def test_collect_matches_the_stacking_oracle(name, field, order):
    p = (0.7, 3.1, 1.2, 0.4)[:field.dim]
    block = np.array([p, tuple(x + 0.01 for x in p), tuple(x - 0.02 for x in p)])
    for coords, pts in ((p, ()), (tuple(block.T), (3,))):
        obj = field.func(variables(coords, order=order))
        got = _collect(obj, field.shape, field.dim, order, pts=pts)
        ref = _oracle_collect(obj, field.shape, field.dim, order, pts=pts)
        for a, b in zip(got, ref):
            if b is None:
                assert a is None
                continue
            assert a.dtype == b.dtype and a.shape == b.shape, (name, pts)
            assert np.array_equal(a, b), (name, pts)


def _rank1_cases():
    # the builtin frames' diagonal expressions, then rank-1 closures
    for name in sorted(BUILTIN_FRAMES):
        frame = BUILTIN_FRAMES[name][0]()
        yield name, entry_field(frame.field.expressions[::frame.dim + 1])
    yield from ((name, f) for name, f in _collect_cases() if len(f.shape) == 1)
    yield "ints-and-constants", ChartField(dim=2, shape=(3,), func=lambda c: [1, c[0], 0.5])
    yield "numpy-entries", ChartField(dim=2, shape=(2,),
                                      func=lambda c: np.array([c[1] * c[0], 2.0], dtype=object))
    yield "complex-value", ChartField(dim=2, shape=(2,), func=lambda c: [(c[0] - 1.0) ** 0.5, 1.0])
    yield "complex-gradient", ChartField(dim=2, shape=(2,),
                                         func=lambda c: [_times_i(c[0]), c[1]])
    # numpy complex scalars: complex128 is a Python complex, complex64 is not
    yield "numpy-complex128", ChartField(dim=2, shape=(2,),
                                         func=lambda c: [c[0] * np.complex128(1.0), c[1]])
    yield "numpy-complex64", ChartField(dim=2, shape=(2,),
                                        func=lambda c: [c[0], np.complex64(0.5)])
    # a (2, 1) nesting that numpy reshapes to the field's (2,)
    yield "nested-entries", ChartField(dim=2, shape=(2,), func=lambda c: [[c[0] * c[1]], (1.0,)])


@pytest.mark.parametrize("name, field", list(_rank1_cases()))
def test_rank1_point_jets_match_collect(name, field):
    # order 1 at a Point runs the generated code of an expression-built field
    # (the builtin frames) and numpy jets otherwise; the stacking oracle
    # builds the same arrays from numpy jets
    p = (0.7, 3.1, 1.2, 0.4)[:field.dim]
    got = field.jets(Point(p), order=1)
    ref = _oracle_collect(field.func(variables(p, order=1)), field.shape, field.dim, 1)
    assert got[2] is None and ref[2] is None
    for a, b in zip(got[:2], ref[:2]):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_rank1_point_jets_reject_a_wrong_entry_count():
    field = ChartField(dim=2, shape=(2,), func=lambda c: [c[0], c[1], 1.0])
    with pytest.raises(ValueError):
        field.jets(Point((0.1, 0.2)), order=1)


# every function of the expression language, the operators and their
# special cases (x^0, x^1, Jet**Jet, number**Jet), integer and constant-only
# entries, and quotients and products of jets whose gradients overlap
EXPRESSIONS = (
    [f"{fn}(0.3*x + 0.1*y*z)" for fn in FUNCTION_NAMES]
    + ["-x", "1 - x", "x/y", "2/(x*y)", "x^0", "x^1", "x^y", "2^x", "3*x^2 - 2*y + 1",
       "y - z/4", "2*pi", "7", "(x*y)^0.5 + sqrt(z)/(1 + y^2)",
       "(x + y)/(x*y + z)", "(x*y - z)^2/(1 + x*z) - exp(-y*z)", "-(sin(y)^0)"])


def _expression_field(sources):
    return entry_field([compile_expression(src, ("x", "y", "z")) for src in sources])


def _point_route_cases():
    for name in sorted(BUILTIN_FRAMES):
        yield name, BUILTIN_FRAMES[name][0]().field
    yield "expressions", _expression_field(EXPRESSIONS)
    yield "complex-value", _expression_field(["(x - 1)^0.5", "x*y"])
    # a complex constant base; and a complex minus a real jet, whose zero
    # imaginary gradient entry keeps its sign
    yield "complex-base", _expression_field(["((0 - 1)^0.5)^x", "x*y"])
    yield "complex-minus-real", _expression_field(["(x - 1)^2.5 - y", "x*y"])
    # at (0.7, 3.1, 1.2) both roots are imaginary, so these multiply and
    # divide complex intermediates by complex ones
    yield from COMPLEX_BY_COMPLEX.items()


COMPLEX_BY_COMPLEX = {
    "complex-times-complex": _expression_field(
        ["(x - 1)^0.5 * (y - 4)^0.5", "(x - 1)^0.5 * (x*z - 2)^0.5 + y"]),
    "complex-over-complex": _expression_field(
        ["(x - 1)^0.5 / (y - 4)^0.5", "(y - 4)^0.5 / ((x - 1)^0.5 * z)"]),
}

# CPython's complex product and quotient (in the generated code) and numpy's
# (on jets) may differ in the last bit, and a derivative of a product or quotient sums a few such roundings:
# each entry agrees within this many ulps of the larger of the two moduli
# (a part that cancels to ~1e-33 next to a real part ~1 may differ in all bits)
COMPLEX_ULPS = 4


@pytest.mark.parametrize("name, field", list(_point_route_cases()))
def test_point_jets_match_the_order2_route(name, field):
    # order 1 at a Point runs the generated float code; order 2 runs the
    # expressions on numpy jets, and its value and first derivative must be
    # the same bits except for complex products and quotients
    p = Point((0.7, 3.1, 1.2, 0.4)[:field.dim])
    assert field.expressions is not None, name
    got = field.jets(p, order=1)
    want = field.jets(p, order=2)
    assert got[2] is None
    if name.startswith("complex"):
        assert got[0].dtype == complex
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if name not in COMPLEX_BY_COMPLEX:
            assert a.tobytes() == b.tobytes(), name
            continue
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        assert (np.abs(a - b) <= COMPLEX_ULPS * ulp).all(), (name, a - b, ulp)


@pytest.mark.parametrize("source", ["sqrt(x - 5)", "1/(x - x)", "exp(1000*x)", "x/0",
                                    "sqrt(x - 5) + x/0"])
def test_generated_code_raises_as_the_eval_path(source):
    # a domain error, a division by zero and an overflow: the generated
    # code raises what evaluating the expression raises, on floats and jets;
    # an error on constants alone (x/0) comes after the ones before it
    field = _expression_field(["x*y", source])
    p = Point((3.1, 0.7, 1.2))
    for route in (lambda: field.func(p.coords), lambda: field.jets(p, order=2)):
        with pytest.raises((ArithmeticError, ValueError)) as want:
            route()
        with pytest.raises(type(want.value)) as got:
            field.jets(p, order=1)
        assert str(got.value) == str(want.value), source


@pytest.mark.parametrize("source", ["(x-x)^1.5", "log(x*1e-170)", "1/(x*1e-110)",
                                    "sqrt(x*1e-300)"])
def test_order1_jets_form_no_second_derivative(source):
    # each second-derivative factor at x = 0.7 divides by an underflowed
    # zero; order 1 forms none, so a closure-built field's jets give the
    # generated code's value and gradient at a Point and on a block, and
    # only order 2 raises at a Point
    expr = compile_expression(source, ("x",))
    field = ChartField(dim=1, shape=(), func=expr)
    vals, grads = differentiate([expr])([0.7])
    want = [np.array(vals[0]).tobytes(), np.array(grads).tobytes()]
    val, d1, d2 = field.jets(Point((0.7,)), order=1)
    assert [val.tobytes(), d1.tobytes()] == want and d2 is None
    val, d1, _ = field.jets(np.array([[0.7]]), order=1)
    assert [val.tobytes(), d1.tobytes()] == want
    with pytest.raises(ZeroDivisionError):
        field.jets(Point((0.7,)), order=2)


def test_generated_code_computes_a_shared_subexpression_once(monkeypatch):
    # the Schwarzschild entries f and 1/f share f = sqrt(1 - 2m/r)
    calls = []
    frame = BUILTIN_FRAMES["schwarzschild"][0]()
    monkeypatch.setitem(frame.field.point_code.__globals__, "_sqrt",
                        lambda v: calls.append(v) or math.sqrt(v))
    val, _, _ = frame.field.jets(Point((0.0, 6.0, 1.2, 0.3)), order=1)
    assert calls == [1.0 - 2.0 / 6.0]
    assert val[1, 1] == 1.0 / val[0, 0]


def _grammar_expressions(constants=()):
    """Random sources of the expression grammar over x, y and z, with these
    constants among the leaves."""
    leaves = st.sampled_from(["x", "y", "z", "2", "0.5", "3.0", "pi", *constants])

    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(FUNCTION_NAMES), sub).map(lambda t: f"{t[0]}({t[1]})"),
            sub.map(lambda a: f"(-{a})"),
            st.tuples(sub, st.sampled_from(["0", "1", "2", "0.5", "-1", "3"]))
            .map(lambda t: f"{t[0]}^{t[1]}"),
            st.tuples(sub, sub).map(lambda t: f"{t[0]}^{t[1]}"))

    return st.recursive(leaves, extend, max_leaves=8)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(_grammar_expressions(), min_size=1, max_size=3),
       st.sampled_from([(0.7, 3.1, 1.2), (1.3, 0.4, 2.2), (0.2, 1.9, 0.8)]))
def test_generated_code_matches_jets_and_finite_differences(sources, coords):
    # wherever the order-2 route gives a real result, the generated code gives
    # its value and gradient bits; where the generated code raises, so does
    # the order-2 route, which also forms second derivatives
    try:
        field, p = _expression_field(sources), Point(coords)
    except ExpressionError:  # a constant part that is not a finite number
        assume(False)
    try:
        got = field.jets(p, order=1)
    except (ArithmeticError, ValueError):
        with pytest.raises((ArithmeticError, ValueError)):
            field.jets(p, order=2)
        return
    try:
        with np.errstate(all="ignore"):
            want = field.jets(p, order=2)
    except (ArithmeticError, ValueError):
        assume(False)
    assume(want[0].dtype == float)
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and a.shape == b.shape, sources
        assert a.tobytes() == b.tobytes(), sources
    scale = max(np.abs(a).max() for a in want)
    assume(scale < 1e3)
    _, fd1, _ = fd_jets(field, p, 1)
    assert (np.abs(got[1] - fd1) <= 1e-5 * (1.0 + np.abs(fd1))).all(), (sources, got[1], fd1)


# -- the block route of expression-built fields -------------------------------


def _jet_route(field):
    """The field as a closure: its blocks run the evaluator on block jets,
    the oracle of the recorded block code."""
    return ChartField(dim=field.dim, shape=field.shape, func=field.func)


def _outcome(field, block, order):
    """Each part's dtype, shape and bytes, or the error's type and message."""
    try:
        res = field.jets(block, order=order)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)
    assert res[2] is None if order == 1 else res[2] is not None
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in res]


def _gauge_sm():
    """The builtin sm-trace-check scenario with the expression frame of the
    gauge-sm benchmark workload."""
    obj = builtin_config("sm-trace-check")
    obj["frame"] = {"diagonal": ["1 + 0.1*x", "1 + 0.1*t*y", "1 + 0.1*z^2", "1 + 0.1*x*y"]}
    return build_scenario(obj)


def _block_route_cases():
    for name in sorted(BUILTIN_FRAMES):
        yield name, BUILTIN_FRAMES[name][0]().field
    scenario = _gauge_sm()
    sm = scenario.connection.sm
    yield from {"gauge-sm-frame": scenario.frame.field, "B": sm.b, "W": sm.w, "G": sm.g}.items()
    yield "expressions", _expression_field(EXPRESSIONS)
    # complex constants: a base, factors of a product, a quotient and a sum
    yield "complex-base", _expression_field(["((0 - 1)^0.5)^x", "x*y"])
    yield "complex-constants", _expression_field(
        ["((0 - 2)^0.5 * x) * ((0 - 3)^0.3 * y)", "x / (0 - 5)^0.7 - z * (0 - 0.4)^1.5",
         "(0 - 2)^0.5 * x * (0 - 3)^0.3 * y * (0 - 7)^0.1 * z"])
    yield "complex-constants-only", _expression_field(["7", "(0 - 1)^0.5"])
    yield "int-zeros", _expression_field(["x*y", "0", "0*x", "z^2"])
    yield "constants-only", _expression_field(["7", "2*pi", "0", "-3.5"])


BLOCK = np.array([(0.7, 3.1, 1.2, 0.4), (0.71, 3.11, 1.21, 0.41), (0.68, 3.08, 1.18, 0.38),
                  (0.2, 2.5, 0.9, 0.8)])


@pytest.mark.parametrize("name, field", list(_block_route_cases()))
@pytest.mark.parametrize("order", [1, 2])
def test_block_code_matches_the_jet_route(name, field, order):
    # an expression-built field's blocks run its recorded code: every part
    # has the dtype, shape and bytes of block jets; order-2 parts are
    # contiguous and order-1 parts have block jets' strides; code with a
    # complex constant keeps block jets
    assert field.expressions is not None, name
    block = BLOCK[:, :field.dim]
    got = _outcome(field, block, order)
    assert got == _outcome(_jet_route(field), block, order), name
    assert isinstance(got, list), got
    assert (field.block_code[order] is None) == name.startswith("complex"), name
    if field.block_code[order] is not None:
        parts = field.jets(block, order=order)[:order + 1]
        if order == 2:
            assert all(a.flags.c_contiguous for a in parts), name
        else:
            jet_parts = _jet_route(field).jets(block, order=order)[:2]
            assert [a.strides for a in parts] == [a.strides for a in jet_parts], name


GOOD, NAN, INF = (0.7, 3.1, 1.2), (0.69, 3.1, 1.2), (0.7, 3.0, 1.2)


@pytest.mark.parametrize("sources, block, error", [
    # NaN at the second point, inf at the third: the first is named
    (["x*y", "sqrt(x - 0.695)"], [GOOD, NAN, INF], NAN),
    (["x*y", "1/(y - 3.0)"], [GOOD, INF, NAN], INF),
    # a complex value is NaN on a block
    (["(x - 1)^0.5", "x"], [GOOD, NAN], GOOD),
    # non-finite coordinates
    (["x*y", "z"], [GOOD, (0.69, 3.1, math.inf)], (0.69, 3.1, math.inf)),
    # a constant derivative that is not finite, next to finite values,
    # fails every point
    (["x*1e300*1e300", "y"], [(1e-300, 3.1, 1.2), (2e-300, 3.1, 1.2)], (1e-300, 3.1, 1.2)),
    # the recorded code raises what the operations on constants raise
    (["x*y", "x/0"], [GOOD], "float division by zero"),
    (["x*y", "sqrt(x - 5) + x/0"], [GOOD, NAN], "float division by zero"),
    (["x*y", "(0 - 2)^x"], [GOOD], "math domain error"),
])
@pytest.mark.parametrize("order", [1, 2])
def test_block_code_raises_as_the_jet_route(sources, block, error, order):
    field = _expression_field(sources)
    got = _outcome(field, np.array(block), order)
    assert got == _outcome(_jet_route(field), np.array(block), order)
    if isinstance(error, tuple):
        error = f"non-finite coordinates or field value at {error}"
    assert got[1] == error, got


@pytest.mark.parametrize("sources, dtype", [(["x*y", "sin(z)", "0"], float),
                                           (["x*y", "sin(z)", "(0 - 1)^0.5 * x"], complex)])
@pytest.mark.parametrize("order", [1, 2])
def test_empty_block_gives_empty_parts_on_both_routes(sources, dtype, order):
    field = _expression_field(sources)
    for route in (field, _jet_route(field)):
        res = route.jets(np.empty((0, 3)), order=order)
        assert [None if a is None else (a.shape, a.dtype) for a in res] == [
            ((0, 3), dtype), ((0, 3, 3), dtype), ((0, 3, 3, 3), dtype) if order == 2 else None]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(_grammar_expressions(constants=["(0 - 2)^0.5", "(0 - 0.3)^1.5"]),
                min_size=1, max_size=3),
       st.sampled_from([(0.7, 3.1, 1.2), (1.3, 0.4, 2.2), (0.2, 1.9, 0.8)]))
def test_block_code_matches_the_jet_route_on_random_expressions(sources, coords):
    # the recorded code of either order gives the bits, the error and the
    # failing point of block jets; with a complex constant blocks keep jets
    try:
        field = _expression_field(sources)
    except ExpressionError:  # a constant part that is not a finite number
        assume(False)
    block = np.array(coords) + np.array([[0.0], [0.25], [-0.125]])
    for order in (1, 2):
        assert _outcome(field, block, order) == _outcome(_jet_route(field), block, order), \
            (sources, order)


def test_order2_code_computes_the_schwarzschild_root_once():
    # the entries f and 1/f share f = sqrt(1 - 2m/r): one statement computes it
    code = derivative_code(schwarzschild(1.0).field.expressions, 2)
    assert sum("_sqrt(" in line for line in code.lines) == 1


def test_quadrature_records_each_field_and_order_once(monkeypatch):
    # 35 blocks of a connection's curvature: the frame's order-2 code and
    # the gauge fields' order-1 code are each recorded on the first block
    recorded = []

    def counting(exprs, order=1):
        recorded.append((exprs, order))
        return derivative_code(exprs, order)

    monkeypatch.setattr("geodyn.fields.derivative_code", counting)
    scenario = _gauge_sm()
    region = Region(lo=(0.0,) * 4, hi=(1.0,) * 4)
    report = heat_kernel_coefficients(scenario.connection, region, GridSpec((3, 9, 9, 9)))
    assert report.meta["blocks_passed"] == 35
    sm = scenario.connection.sm
    assert recorded == [(scenario.frame.field.expressions, 2)] + [
        (f.expressions, 1) for f in (sm.b, sm.w, sm.g)]
