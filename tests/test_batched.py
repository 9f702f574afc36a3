"""Block evaluation: one vectorised jet pass over N points against the per-point path."""

import math
from dataclasses import replace

import numpy as np
import pytest

import geodyn.action as action
from geodyn.action import (GridSpec, HeatKernelData, Region, exponential_cutoff,
                           heat_kernel_coefficients, integrate_scalar, moments,
                           riemannian_limit_action)
from geodyn.config import build_scenario
from geodyn.fields import ChartField
from geodyn.geometry import GeneralizedMetric, sigma_squared
from geodyn.jets import (arctan, cos, cosh, exp, log, sin, sinh, sqrt, tan, tanh,
                         variables)
from geodyn.library import make_builtin_frame
from geodyn.tensors import Point, SingularMetricError


def _assert_rel(a, b, rtol):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.abs(b).max()), 1e-300)
    assert float(np.abs(a - b).max()) <= rtol * scale


# -- jets --------------------------------------------------------------------

JET_CASES = {
    "sin": lambda x, y: sin(x * y),
    "cos": lambda x, y: cos(x - y),
    "tan": lambda x, y: tan(0.3 * x + 0.2 * y),
    "exp": lambda x, y: exp(x * y),
    "log": lambda x, y: log(x + y * y),
    "sqrt": lambda x, y: sqrt(x * y),
    "sinh": lambda x, y: sinh(x - y),
    "cosh": lambda x, y: cosh(x * y),
    "tanh": lambda x, y: tanh(0.3 * x - 0.2 * y),
    "arctan": lambda x, y: arctan(x / y),
    "pow_float": lambda x, y: (x * y) ** 1.7,
    "pow_int": lambda x, y: (x + y) ** 3,
    "pow_zero": lambda x, y: (x + y) ** 0,
    "pow_jet": lambda x, y: x ** y,
    "rpow": lambda x, y: 2.0 ** (x * y),
    "div": lambda x, y: (x * x - y) / (x + 2.0 * y),
    "div_const": lambda x, y: (x * y) / 3.0,
    "rdiv": lambda x, y: 1.5 / (x * y + x),
}


@pytest.mark.parametrize("name", sorted(JET_CASES))
@pytest.mark.parametrize("order", [1, 2])
def test_block_jets_equal_scalar_jets_elementwise(name, order):
    fn = JET_CASES[name]
    rng = np.random.default_rng(5)
    # positive coordinates keep every argument inside the real domain
    block = np.column_stack([rng.uniform(0.4, 1.6, 9), rng.uniform(0.6, 1.4, 9)])
    out = fn(*variables(tuple(block.T), order=order))
    assert out.val.shape == (9,) and out.grad.shape == (2, 9)
    for i, x in enumerate(block):
        ref = fn(*variables(tuple(x), order=order))
        _assert_rel(out.val[i], ref.val, 1e-15)
        _assert_rel(out.grad[:, i], ref.grad, 1e-15)
        if order == 2:
            assert out.hess.shape == (2, 2, 9)
            _assert_rel(out.hess[:, :, i], ref.hess, 1e-15)
        else:
            assert out.hess is None


# -- geometry ----------------------------------------------------------------


def _expression_frame(frame: dict, dim: int, signature: str):
    return build_scenario({
        "schema": "geodyn-config-v1",
        "chart": {"dimension": dim, "signature": signature,
                  "box": {"lo": [0.0] * dim, "hi": [1.0] * dim}},
        "frame": frame,
        "tasks": [{"type": "curvature-at-points", "points": [[0.5] * dim]}],
    }).frame


def _frames():
    out = {name: make_builtin_frame(name) for name in
           ("flat", "polar", "sphere2", "schwarzschild", "sphere2-cross-flat2")}
    out["expr-diagonal"] = _expression_frame(
        {"diagonal": ["1 + 0.1*x0^2", "exp(0.2*x1)", "1 + 0.3*sin(x0*x2)"]},
        3, "euclidean")
    out["expr-matrix"] = _expression_frame(
        {"matrix": [["1 + 0.2*x1", "0.1*x1", "0"],
                    ["0.2*x0", "1 + 0.1*x2^2", "0.05*x0*x1"],
                    ["0", "0.1*sin(x0)", "cosh(0.2*x1)"]]},
        3, "lorentzian")
    return out


# coordinate boxes inside each chart's regular region
BOXES = {
    "flat": ([-1.0] * 4, [1.0] * 4),
    "polar": ([0.5, 0.0], [2.0, 6.0]),
    "sphere2": ([0.3, 0.0], [2.8, 6.0]),
    "schwarzschild": ([0.0, 4.0, 0.6, 0.0], [1.0, 9.0, 2.5, 6.0]),
    "sphere2-cross-flat2": ([0.3, 0.0, -1.0, -1.0], [2.8, 6.0, 1.0, 1.0]),
    "expr-diagonal": ([0.0] * 3, [1.0] * 3),
    "expr-matrix": ([0.0] * 3, [1.0] * 3),
}


@pytest.mark.parametrize("name", sorted(BOXES))
def test_block_geometry_matches_point_loop(name):
    frame = _frames()[name]
    g = frame.metric()
    lo, hi = BOXES[name]
    block = np.random.default_rng(11).uniform(lo, hi, size=(13, len(lo)))
    ct = g.curvature(block)
    rr, r2 = ct.riemann_squared(), ct.ricci_squared()
    vol = g.volume_element(block)
    n = frame.dim
    assert ct.riemann.shape == (13, n, n, n, n) and ct.ricci.shape == (13, n, n)
    assert rr.shape == r2.shape == ct.scalar.shape == vol.value.shape == (13,)
    for i, x in enumerate(block):
        p = Point(tuple(x))
        ref = g.curvature(p)
        _assert_rel(ct.riemann[i], ref.riemann, 1e-13)
        _assert_rel(ct.ricci[i], ref.ricci, 1e-13)
        _assert_rel(ct.scalar[i], ref.scalar, 1e-13)
        _assert_rel(rr[i], ref.riemann_squared(), 1e-13)
        _assert_rel(r2[i], ref.ricci_squared(), 1e-13)
        ref_vol = g.volume_element(p)
        _assert_rel(vol.value[i], ref_vol.value, 1e-13)
        _assert_rel(vol.det[i], ref_vol.det, 1e-13)
        assert vol.mode[i] == ref_vol.mode
    assert isinstance(ref.scalar, float) and isinstance(ref_vol.mode, str)


def test_fd_mode_block_loops_over_points():
    fd = replace(_frames()["expr-matrix"].field, derivative_mode="fd")
    block = np.random.default_rng(3).uniform(0.0, 1.0, size=(4, 3))
    val, d1, d2 = fd.jets(block, order=2)
    assert d2.shape == (4, 3, 3, 3, 3)
    for i, x in enumerate(block):
        ref = fd.jets(Point(tuple(x)), order=2)
        for got, want in zip((val, d1, d2), ref):
            assert np.array_equal(got[i], want)
    assert fd.jets(block, order=1)[2] is None


def test_block_rejects_nonfinite_coordinates_and_values():
    field = make_builtin_frame("schwarzschild").field
    block = np.array([[0.0, 5.0, 1.0, 0.0], [0.0, np.nan, 1.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite coordinates or field value at \\(0\\.0, nan"):
        field.jets(block)
    # r = 1.5 < 2M makes sqrt(1 - 2M/r) NaN; the first such point is named
    block = np.array([[0.0, 5.0, 1.0, 0.0], [0.0, 1.5, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=r"field value at \(0\.0, 1\.5, 1\.0, 0\.0\)"):
        field.jets(block)
    with pytest.raises(ValueError, match="expected"):
        field.jets(np.zeros((2, 3)))


def test_block_singular_metric_names_first_failing_point():
    g = make_builtin_frame("polar").metric()
    block = np.array([[1.0, 0.1], [0.5, 0.2], [0.0, 0.3], [0.0, 0.4]])
    with pytest.raises(SingularMetricError, match="at batch index 2"):
        g.curvature(block)
    with pytest.raises(SingularMetricError, match="at batch index 2"):
        g.volume_element(block)


# -- quadrature --------------------------------------------------------------


def test_heat_kernel_block_density_matches_per_point_quadrature():
    frame = make_builtin_frame("schwarzschild")
    g = frame.metric()
    region = Region(lo=(0.0, 4.0, 0.6, 0.0), hi=(1.0, 9.0, 2.5, 2 * math.pi),
                    periodic=(False, False, False, True))
    grid = GridSpec((2, 5, 5, 4))
    sig_sq = sigma_squared(frame.signature)[0]
    out = heat_kernel_coefficients(HeatKernelData(metric=g, aa_mode="metric"), region, grid)

    def aa(c):
        p = Point(c)
        return sig_sq * g.curvature(p).riemann_squared() * g.volume_element(p).value

    def vol(c):
        return g.volume_element(Point(c)).value

    a4, _, _ = integrate_scalar(aa, region, grid)
    a0, _, _ = integrate_scalar(vol, region, grid)
    _assert_rel(out.a4, a4 / (192.0 * math.pi ** 2), 1e-13)
    _assert_rel(out.a0, a0 / (16.0 * math.pi ** 2), 1e-13)


@pytest.mark.parametrize("r_lo", [1.5, 2.0])
def test_quadrature_box_reaching_the_horizon_raises(r_lo):
    g = make_builtin_frame("schwarzschild").metric()
    region = Region(lo=(0.0, r_lo, 0.6, 0.0), hi=(1.0, 5.0, 2.5, 1.0))
    grid = GridSpec((2, 5, 3, 3))
    with pytest.raises((ValueError, SingularMetricError), match=r"at \(0\.0, [12]\.[05]"):
        heat_kernel_coefficients(HeatKernelData(metric=g, aa_mode="metric"), region, grid)
    with pytest.raises((ValueError, SingularMetricError)):
        riemannian_limit_action(make_builtin_frame("schwarzschild"), region, grid,
                                moments(exponential_cutoff()))


def test_riemannian_limit_evaluates_each_grid_point_once(monkeypatch):
    seen = []
    original = GeneralizedMetric.curvature

    def counting(self, p):
        seen.append(np.array(p, dtype=float).reshape(-1, 4))
        return original(self, p)

    monkeypatch.setattr(GeneralizedMetric, "curvature", counting)
    region = Region(lo=(0.0, 4.0, 0.6, 0.0), hi=(1.0, 9.0, 2.5, 2 * math.pi),
                    periodic=(False, False, False, True))
    grid = GridSpec((3, 5, 5, 6))
    riemannian_limit_action(make_builtin_frame("schwarzschild"), region, grid,
                            moments(exponential_cutoff()))
    fine, _ = action._grid_points(region, grid)
    coarse, _ = action._grid_points(region, grid.coarser())
    rows = np.concatenate(seen)
    assert len(rows) == len(fine) + len(coarse)
    assert np.array_equal(rows[:len(fine)], fine)
    assert np.array_equal(rows[len(fine):], coarse)
    blocks = -(-len(fine) // action.BLOCK_POINTS) - (-len(coarse) // action.BLOCK_POINTS)
    assert len(seen) == blocks


@pytest.mark.parametrize("which", ["heat-kernel", "riemannian-limit"])
def test_metric_mode_densities_make_one_jet_pass_per_block(which, monkeypatch):
    orders = []
    original = ChartField.jets

    def counted(self, p, order=2):
        orders.append(order)
        return original(self, p, order=order)

    monkeypatch.setattr(ChartField, "jets", counted)
    frame = make_builtin_frame("schwarzschild")
    region = Region(lo=(0.0, 4.0, 0.6, 0.0), hi=(1.0, 9.0, 2.5, 2 * math.pi),
                    periodic=(False, False, False, True))
    grid = GridSpec((3, 5, 5, 6))
    if which == "heat-kernel":
        heat_kernel_coefficients(HeatKernelData(metric=frame.metric(), aa_mode="metric"),
                                 region, grid)
    else:
        riemannian_limit_action(frame, region, grid, moments(exponential_cutoff()))
    fine, _ = action._grid_points(region, grid)
    coarse, _ = action._grid_points(region, grid.coarser())
    blocks = -(-len(fine) // action.BLOCK_POINTS) - (-len(coarse) // action.BLOCK_POINTS)
    # the volume comes from the curvature pass's gamma: no order-1 pass
    assert orders == [2] * blocks
