"""Field evaluation and derivative-route agreement."""

import numpy as np
import pytest

from geodyn.exprs import FUNCTION_NAMES, compile_expression
from geodyn.fields import ChartField, _collect, constant_field, fd_jets, scalar_field
from geodyn.jets import Jet, cosh, exp, sin, variables
from geodyn.library import BUILTIN_FRAMES
from geodyn.tensors import Point


def _times_i(jet):
    """jet with its gradient times 1j, of the jet's own kind: a point jet's
    tuple gradient or a numpy one."""
    g = jet.grad
    return type(jet)(jet.val, tuple(1j * d for d in g) if isinstance(g, tuple) else 1j * g)


def test_scalar_closed_form_derivatives():
    # f = exp(x) sin(y): both derivative orders against hand formulas
    f = scalar_field(2, lambda x, y: exp(x) * sin(y))
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
    f = scalar_field(3, lambda x, y, z: sin(x * y) * cosh(z) + x ** 3 * z)
    _, _, d2 = f.jets(Point((0.4, -0.2, 0.7)), order=2)
    assert np.max(np.abs(d2 - d2.transpose(1, 0))) < 1e-12


def test_constant_field_has_zero_derivative():
    f = constant_field(3, np.diag([1.0, 2.0, 3.0]))
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
    f = scalar_field(1, lambda x: 1.0 / x)
    with pytest.raises(ValueError, match="non-finite"):
        f.jets(np.array([[0.0]]), order=1)


def test_point_dim_mismatch_rejected():
    f = scalar_field(2, lambda x, y: x + y)
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
    # order 1 at a Point runs on point jets, whose gradients are tuples;
    # the stacking oracle builds the same arrays from those tuples
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
       "(x + y)/(x*y + z)", "(x*y - z)^2/(1 + x*z) - exp(-y*z)"])


def _expression_field(sources):
    exprs = [compile_expression(src, ("x", "y", "z")) for src in sources]
    return ChartField(dim=3, shape=(len(exprs),), func=lambda c: [e(c) for e in exprs])


def _point_route_cases():
    for name in sorted(BUILTIN_FRAMES):
        yield name, BUILTIN_FRAMES[name][0]().field
    yield "expressions", _expression_field(EXPRESSIONS)
    yield "complex-value", _expression_field(["(x - 1)^0.5", "x*y"])
    # at (0.7, 3.1, 1.2) both roots are imaginary, so these multiply and
    # divide complex point jets by complex point jets
    yield from COMPLEX_BY_COMPLEX.items()


COMPLEX_BY_COMPLEX = {
    "complex-times-complex": _expression_field(
        ["(x - 1)^0.5 * (y - 4)^0.5", "(x - 1)^0.5 * (x*z - 2)^0.5 + y"]),
    "complex-over-complex": _expression_field(
        ["(x - 1)^0.5 / (y - 4)^0.5", "(y - 4)^0.5 / ((x - 1)^0.5 * z)"]),
}

# CPython's complex product and quotient and numpy's may differ in the last
# bit, and a derivative of a product or quotient sums a few such roundings:
# each entry agrees within this many ulps of the larger of the two moduli
# (a part that cancels to ~1e-33 next to a real part ~1 may differ in all bits)
COMPLEX_ULPS = 4


@pytest.mark.parametrize("name, field", list(_point_route_cases()))
def test_point_jets_match_the_order2_route(name, field):
    # order 1 at a Point runs on float point jets; order 2 keeps numpy
    # gradients, and its value and first derivative must be the same bits
    # except for complex products and quotients, which follow CPython
    p = Point((0.7, 3.1, 1.2, 0.4)[:field.dim])
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
