"""Field evaluation and derivative-route agreement."""

import numpy as np
import pytest

from geodyn.fields import ChartField, DUAL, FD, _collect, scalar_field, constant_field
from geodyn.jets import Jet, cosh, exp, sin, variables
from geodyn.library import BUILTIN_FRAMES, make_builtin_frame
from geodyn.tensors import Point


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
        fd = ChartField(dim=3, shape=(2, 2), func=entry, derivative_mode=FD)
        p = Point(tuple(rng.uniform(-0.5, 0.5, size=3)))
        _, d1a, d2a = dual.jets(p, order=2)
        _, d1b, d2b = fd.jets(p, order=2)
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


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        ChartField(dim=1, shape=(), func=lambda c: c[0], derivative_mode="spectral")


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
    grad = ChartField(dim=3, shape=(), func=lambda c: Jet(c[1].val, 1.0j * c[1].grad))
    val, d1, _ = grad.jets(p, order=1)
    assert val.shape == () and val.dtype == complex and d1.tolist() == [0.0, 1.0j, 0.0]
    # an order-2 request over a first-order jet is an error, not a silent zero
    dropped = ChartField(dim=3, shape=(2,), func=lambda c: [c[0], Jet(c[1].val, c[1].grad)])
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
        yield name, make_builtin_frame(name).field
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
