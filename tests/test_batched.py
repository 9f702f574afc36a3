"""Block evaluation: one vectorised jet pass over N points against the per-point path."""

import dataclasses
import math

import numpy as np
import pytest

import geodyn.action as action
import geodyn.tensors as tensors
from geodyn.action import (GridSpec, Region, exponential_cutoff, heat_kernel_coefficients,
                           integrate_scalar, riemannian_limit_action)
from geodyn.config import build_scenario
from geodyn.connection import (ConnectionForm, curvature, curvature_squared,
                               sm_lagrangian_normalized)
from geodyn.fields import ChartField
from geodyn.geometry import GeneralizedMetric, sigma_squared
from geodyn.jets import (arctan, cos, cosh, exp, log, sin, sinh, sqrt, tan, tanh,
                         variables)
from geodyn.library import BUILTIN_FRAMES, diagonal_vielbein, flat, polar, schwarzschild
from geodyn.scenarios import builtin_config, format_csv, run_scenario
from geodyn.tensors import MinkowskiSignature, Point, SingularMetricError
from test_connection import _antisymmetry, _random_higgs, _random_sm, _substitution_residual


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
    out = {name: BUILTIN_FRAMES[name][0]() for name in
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


def test_block_rejects_nonfinite_coordinates_and_values():
    field = schwarzschild().field
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
    g = polar().metric()
    block = np.array([[1.0, 0.1], [0.5, 0.2], [0.0, 0.3], [0.0, 0.4]])
    with pytest.raises(SingularMetricError, match="at batch index 2"):
        g.curvature(block)
    with pytest.raises(SingularMetricError, match="at batch index 2"):
        g.volume_element(block)


# -- quadrature --------------------------------------------------------------


def test_heat_kernel_block_density_matches_per_point_quadrature():
    frame = schwarzschild()
    g = frame.metric()
    region = Region(lo=(0.0, 4.0, 0.6, 0.0), hi=(1.0, 9.0, 2.5, 2 * math.pi),
                    periodic=(False, False, False, True))
    grid = GridSpec((2, 5, 5, 4))
    sig_sq = sigma_squared(frame.signature)[0]
    out = heat_kernel_coefficients(frame, region, grid)

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
    region = Region(lo=(0.0, r_lo, 0.6, 0.0), hi=(1.0, 5.0, 2.5, 1.0))
    grid = GridSpec((2, 5, 3, 3))
    with pytest.raises((ValueError, SingularMetricError), match=r"at \(0\.0, [12]\.[05]"):
        heat_kernel_coefficients(schwarzschild(), region, grid)
    with pytest.raises((ValueError, SingularMetricError)):
        riemannian_limit_action(schwarzschild(), region, grid,
                                exponential_cutoff())


SCHWARZSCHILD_BOX = Region(lo=(0.0, 4.0, 0.6, 0.0), hi=(1.0, 9.0, 2.5, 2 * math.pi),
                           periodic=(False, False, False, True))
# every coarse axis point of (3, 5, 5, 6) is a fine one, so the coarse values
# come from the fine grid; the periodic 5 -> 3 axis of (3, 5, 5, 5) is not a
# subset, so that coarse grid is evaluated again
SUBSET_GRID, OFF_GRID = (3, 5, 5, 6), (3, 5, 5, 5)


def _evaluated_rows(grid, subset):
    """The grid points a quadrature evaluates, in order, and its block count."""
    fine, _ = action._grid_points(SCHWARZSCHILD_BOX, grid)
    grids = [fine] if subset else [fine, action._grid_points(SCHWARZSCHILD_BOX,
                                                             grid.coarser())[0]]
    return (np.concatenate(grids),
            sum(-(-len(g) // action.BLOCK_POINTS) for g in grids))


def _check_curvature_rows(monkeypatch, shape, subset):
    seen = []
    original = GeneralizedMetric.curvature

    def counting(self, p):
        seen.append(np.array(p, dtype=float).reshape(-1, 4))
        return original(self, p)

    monkeypatch.setattr(GeneralizedMetric, "curvature", counting)
    grid = GridSpec(shape)
    riemannian_limit_action(schwarzschild(), SCHWARZSCHILD_BOX, grid,
                            exponential_cutoff())
    rows, blocks = _evaluated_rows(grid, subset)
    assert np.array_equal(np.concatenate(seen), rows)
    assert len(seen) == blocks


def _metric_mode_run(which, frame, region, grid):
    if which == "heat-kernel":
        heat_kernel_coefficients(frame, region, grid)
    else:
        riemannian_limit_action(frame, region, grid, exponential_cutoff())


def _check_jet_orders(monkeypatch, which, shape, subset):
    orders = []
    original = ChartField.jets

    def counted(self, p, order=2):
        orders.append(order)
        return original(self, p, order=order)

    monkeypatch.setattr(ChartField, "jets", counted)
    grid = GridSpec(shape)
    _metric_mode_run(which, schwarzschild(), SCHWARZSCHILD_BOX, grid)
    # the volume comes from the curvature pass's gamma: no order-1 pass
    assert orders == [2] * _evaluated_rows(grid, subset)[1]


def test_riemannian_limit_evaluates_each_grid_point_once(monkeypatch):
    _check_curvature_rows(monkeypatch, SUBSET_GRID, subset=True)


@pytest.mark.parametrize("which", ["heat-kernel", "riemannian-limit"])
def test_metric_mode_densities_make_one_jet_pass_per_block(which, monkeypatch):
    _check_jet_orders(monkeypatch, which, SUBSET_GRID, subset=True)


@pytest.mark.parametrize("which", ["heat-kernel", "riemannian-limit"])
def test_metric_mode_densities_guard_each_block_once(which, monkeypatch):
    # the volume reuses the determinant of the curvature pass's guarded
    # inverse: one singularity guard per block, not a second on its gamma
    calls = []
    original = tensors._guard

    def counted(m):
        calls.append(m.shape)
        return original(m)

    monkeypatch.setattr(tensors, "_guard", counted)
    grid = GridSpec(SUBSET_GRID)
    _metric_mode_run(which, schwarzschild(), SCHWARZSCHILD_BOX, grid)
    rows, blocks = _evaluated_rows(grid, subset=True)
    assert len(calls) == blocks
    assert sum(shape[0] for shape in calls) == len(rows)


@pytest.mark.parametrize("which", ["heat-kernel", "riemannian-limit"])
def test_metric_mode_volume_outside_the_float_range_is_an_arithmetic_error(which):
    # a frame of 1e80 gives det gamma = -1e640: the guard passes it (it is
    # scale-free) and the volume raises as checked_det does
    frame = diagonal_vielbein(["1e80"] * 4, MinkowskiSignature.lorentzian(4))
    with pytest.raises(ArithmeticError, match="^determinant outside the float range$"):
        _metric_mode_run(which, frame, UNIT_BOX, GridSpec((2, 2, 2, 2)))


@pytest.mark.parametrize("which", ["points", "heat-kernel", "riemannian-limit"])
def test_coarse_grid_off_the_fine_grid_is_evaluated_again(which, monkeypatch):
    if which == "points":
        _check_curvature_rows(monkeypatch, OFF_GRID, subset=False)
    else:
        _check_jet_orders(monkeypatch, which, OFF_GRID, subset=False)


# -- metric passes shared by the action tasks of one run ---------------------

SPECTRAL_METRIC = {"type": "action", "form": "spectral", "aa_mode": "metric"}
SPECTRAL_BLOCKS = {**SPECTRAL_METRIC, "aa_mode": "blocks"}
METRIC_TASKS = ({"type": "action", "form": "riemannian-limit"}, SPECTRAL_METRIC)
# a zero gauge field and Higgs field: the scenario gets a connection
ZERO_SM = {"gauge": {"b": ["0"] * 4, "couplings": {"g1": 1.0}},
           "higgs": {"x": "0", "y": "0"}}


def _action_config(shape, tasks, frame=None, box=SCHWARZSCHILD_BOX, **sections):
    return {"schema": "geodyn-config-v1",
            "chart": {"dimension": 4, "signature": "lorentzian",
                      "coordinates": ["t", "r", "theta", "phi"],
                      "box": {"lo": list(box.lo), "hi": list(box.hi)},
                      "grid": list(shape), "periodic": list(box.periodic)},
            "frame": frame or {"builtin": "schwarzschild"},
            "cutoff": {"builtin": "exponential"},
            "tasks": list(tasks), **sections}


def _blocks_record(results):
    return [(r.summary["curvature_blocks_passed"], r.summary["curvature_blocks_read"])
            for r in results]


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("shape", [SUBSET_GRID, OFF_GRID])
def test_metric_pass_tasks_of_one_run_write_the_bytes_of_each_alone(shape, first):
    tasks = [METRIC_TASKS[first], METRIC_TASKS[1 - first]]
    both = run_scenario(_action_config(shape, tasks)).results
    alone = [run_scenario(_action_config(shape, [task])).results[0] for task in tasks]
    assert [r.status for r in both] == ["pass", "pass"]
    assert [format_csv(r) for r in both] == [format_csv(r) for r in alone]
    # the report charges every pass to the first task
    blocks = _evaluated_rows(GridSpec(shape), subset=shape == SUBSET_GRID)[1]
    assert _blocks_record(both) == [(blocks, 0), (0, blocks)]
    assert _blocks_record(alone) == [(blocks, 0), (blocks, 0)]


@pytest.mark.parametrize("sm", [False, True])
def test_metric_pass_tasks_of_one_run_pass_each_block_once(sm, monkeypatch):
    metric_rows, connection_passes = [], []
    original, original_connection = GeneralizedMetric.curvature, action.curvature

    def counting(self, p):
        metric_rows.append(np.array(p, dtype=float).reshape(-1, 4))
        return original(self, p)

    def counting_connection(a, p):
        connection_passes.append(len(p))
        return original_connection(a, p)

    monkeypatch.setattr(GeneralizedMetric, "curvature", counting)
    monkeypatch.setattr(action, "curvature", counting_connection)
    # with a connection the limit form takes the connection's pass, so the
    # metric-pass pair is two spectral tasks around a blocks-mode one
    tasks = ([SPECTRAL_METRIC, SPECTRAL_BLOCKS, SPECTRAL_METRIC] if sm
             else list(METRIC_TASKS))
    obj = _action_config(OFF_GRID, tasks, **(ZERO_SM if sm else {}))
    rows, blocks = _evaluated_rows(GridSpec(OFF_GRID), subset=False)
    for _ in range(2):
        # each run passes again: nothing is kept from the one before
        metric_rows.clear()
        connection_passes.clear()
        results = run_scenario(obj).results
        assert [r.status for r in results] == ["pass"] * len(tasks)
        if sm:
            # the blocks-mode task's connection pass runs its own metric pass
            assert np.array_equal(np.concatenate(metric_rows), np.concatenate([rows, rows]))
            assert (len(connection_passes), sum(connection_passes)) == (blocks, len(rows))
            assert _blocks_record(results) == [(blocks, 0), (blocks, 0), (0, blocks)]
        else:
            assert np.array_equal(np.concatenate(metric_rows), rows)
            assert connection_passes == []
            assert _blocks_record(results) == [(blocks, 0), (0, blocks)]


# a Schwarzschild box down to r = 2m fails in its first block; a frame that
# degenerates at t = 1 fails in block 4 of SUBSET_GRID, after four good ones
SINGULAR_CASES = {
    "horizon": (None, Region(lo=(0.0, 2.0, 0.6, 0.0), hi=(1.0, 5.0, 2.5, 1.0))),
    "late-block": ({"diagonal": ["1 - t", "1", "r", "r"]}, SCHWARZSCHILD_BOX),
}


@pytest.mark.parametrize("case", sorted(SINGULAR_CASES))
def test_failed_metric_pass_leaves_the_finished_blocks_for_the_next_task(case, monkeypatch):
    frame, box = SINGULAR_CASES[case]
    calls = []
    original = GeneralizedMetric.curvature

    def counting(self, p):
        calls.append(len(p))
        return original(self, p)

    monkeypatch.setattr(GeneralizedMetric, "curvature", counting)
    alone, alone_calls = [], []
    for task in METRIC_TASKS:
        calls.clear()
        alone.append(run_scenario(_action_config(SUBSET_GRID, [task], frame, box)).results[0])
        alone_calls.append(list(calls))
    calls.clear()
    both = run_scenario(_action_config(SUBSET_GRID, METRIC_TASKS, frame, box)).results
    assert [r.status for r in both] == ["fail", "fail"]
    assert [r.summary for r in both] == [r.summary for r in alone]
    assert all(r.rows == [] for r in both)
    # the second task reads the blocks the first finished and passes only
    # the failing one itself
    assert len(alone_calls[0]) == (1 if case == "horizon" else 5)
    assert calls == alone_calls[0] + alone_calls[1][-1:]
    scn = build_scenario(_action_config(SUBSET_GRID, METRIC_TASKS, frame, box))
    with pytest.raises((ArithmeticError, ValueError)):
        riemannian_limit_action(scn.frame, scn.region, scn.grid, scn.cutoff)
    assert len(scn.frame.invariants) == len(alone_calls[0]) - 1


def test_a_frame_is_frozen_under_its_memo():
    # the memo is keyed by block coordinates alone, so a frame whose field
    # could be swapped would hand back the old field's passes (a4 = 0.018565
    # again, where mass 1.5 gives 0.041771)
    region, grid = Region((0, 4, 0.6, 0), (1, 9, 2.5, 6.28)), GridSpec((2, 3, 3, 3))

    def a4(frame):
        return heat_kernel_coefficients(frame, region, grid).a4

    f = schwarzschild(1.0)
    before = a4(f)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.field = schwarzschild(1.5).field
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.field.func = schwarzschild(1.5).field.func
    assert a4(f) == before
    assert abs(before - 0.018565) < 1e-6
    assert abs(a4(schwarzschild(1.5)) - 0.041771) < 1e-6


# -- gauge path --------------------------------------------------------------

# the expression frame of the gauge-sm benchmark workload at perturbation 0.1
GAUGE_SM_FRAME = {"diagonal": ["1 + 0.1*x", "1 + 0.1*t*y", "1 + 0.1*z^2", "1 + 0.1*x*y"]}
UNIT_BOX = Region(lo=(0.0,) * 4, hi=(1.0,) * 4)


def _sm_connection(frame=None):
    obj = builtin_config("sm-trace-check")
    if frame is not None:
        obj["frame"] = frame
    return build_scenario(obj).connection


def _connection(name):
    if name == "random":
        rng = np.random.default_rng(61)
        return ConnectionForm(flat(4), _random_sm(rng), _random_higgs(rng))
    return _sm_connection(GAUGE_SM_FRAME if name == "gauge-sm-frame" else None)


CURVATURE_ARRAYS = ("gamma", "gamma_inv", "ricci", "riemann", "b_f", "w_f", "g_f",
                    "lam_f", "q_f", "v_f", "gauge_full", "higgs_kinetic", "higgs_value",
                    "higgs_potential")


def _curvature_scalars(f):
    norm = sm_lagrangian_normalized(f, f0=2.0, f4=0.5, lam_sq=1.5, n_r=1.2, n_h=0.8)
    out = {"ricci_squared": f.ricci_squared(),
           "higgs_kinetic_scalar": f.higgs_kinetic_scalar(),
           "b_square": f.component_square(f.b_components),
           "w_square": f.component_square(f.w_f),
           "q_square": f.square_scalar(f.q_f),
           "curvature_squared": curvature_squared(f).total,
           "sm_lagrangian": norm.total,
           "substitution_residual": _substitution_residual(f, norm, 2.0, n_r=1.2, n_h=0.8)}
    out.update({f"term {k}": v for k, v in norm.terms.items()})
    return out


@pytest.mark.parametrize("name", ["sm-trace-check", "gauge-sm-frame", "random"])
def test_block_connection_curvature_matches_point_loop(name):
    conn = _connection(name)
    block = np.random.default_rng(13).uniform(0.0, 1.0, size=(action.BLOCK_POINTS, 4))
    f = curvature(conn, block)
    # the metric data is the generalized metric's own curvature, bit for bit
    ct = conn.vielbein.metric().curvature(block)
    for key in ("gamma", "gamma_inv", "ricci", "riemann"):
        assert np.array_equal(getattr(f, key), getattr(ct, key)), key
    scalars = _curvature_scalars(f)
    assert f.riemann.shape == (action.BLOCK_POINTS, 4, 4, 4, 4)
    assert f.higgs_potential.shape == scalars["sm_lagrangian"].shape == (action.BLOCK_POINTS,)
    for i, x in enumerate(block):
        ref = curvature(conn, Point(tuple(x)))
        for key in CURVATURE_ARRAYS:
            _assert_rel(getattr(f, key)[i], getattr(ref, key), 1e-13)
        ref_scalars = _curvature_scalars(ref)
        for key, want in ref_scalars.items():
            if key != "substitution_residual":
                _assert_rel(np.broadcast_to(scalars[key], (len(block),))[i], want, 1e-13)
    # a point keeps its Python scalars
    assert isinstance(ref.higgs_potential, float)
    assert isinstance(ref_scalars["sm_lagrangian"], float)
    assert _antisymmetry(f) < 1e-11
    assert float(np.max(scalars["substitution_residual"])) < 1e-12


def test_blocks_densities_match_per_point_quadrature():
    conn = _sm_connection(GAUGE_SM_FRAME)
    grid = GridSpec((2, 3, 5, 4))
    m = exponential_cutoff()

    def at(c):
        f = curvature(conn, Point(c))
        norm = sm_lagrangian_normalized(f, f0=m.m0, f4=m.m4, lam_sq=m.lam_sq)
        return f, norm, np.sqrt(abs(np.linalg.det(f.gamma)))

    def aa(c):
        f, _, vol = at(c)
        return curvature_squared(f).total * vol

    def sector(names):
        def density(c):
            _, norm, vol = at(c)
            return sum(norm.terms[k] for k in names) * vol
        return density

    out = heat_kernel_coefficients(conn, UNIT_BOX, grid)
    a4, a4_err, _ = integrate_scalar(aa, UNIT_BOX, grid)
    _assert_rel(out.a4, a4 / (192.0 * math.pi ** 2), 1e-13)
    _assert_rel(out.errors["a4"], a4_err / (192.0 * math.pi ** 2), 1e-13)
    rep = riemannian_limit_action(conn, UNIT_BOX, grid, m)
    for term, names in (("gauge_sector", ("gauge_b", "gauge_w", "gauge_g")),
                        ("higgs_sector", ("higgs_kinetic", "higgs_potential"))):
        want, _, _ = integrate_scalar(sector(names), UNIT_BOX, grid)
        _assert_rel(rep.terms[term][1], want, 1e-13)


@pytest.mark.parametrize("which", ["heat-kernel", "riemannian-limit"])
def test_blocks_density_makes_five_jet_passes_per_block(which, monkeypatch):
    orders = []
    original = ChartField.jets

    def counted(self, p, order=2):
        orders.append(order)
        return original(self, p, order=order)

    conn = _sm_connection(GAUGE_SM_FRAME)
    monkeypatch.setattr(ChartField, "jets", counted)
    # the coarse (2, 2, 3, 3) grid is a subset: four fine blocks and no more
    grid = GridSpec((3, 3, 5, 5))
    if which == "heat-kernel":
        heat_kernel_coefficients(conn, UNIT_BOX, grid)
    else:
        riemannian_limit_action(conn, UNIT_BOX, grid, exponential_cutoff())
    # one curvature(connection, block) pass: frame; B, W, G; Higgs
    assert orders == [2, 1, 1, 1, 1] * 4


def test_limit_gravity_terms_are_the_frames_own_with_a_connection():
    conn = _sm_connection(GAUGE_SM_FRAME)
    args = (UNIT_BOX, GridSpec((3, 3, 3, 3)), exponential_cutoff())
    with_conn = riemannian_limit_action(conn, *args)
    alone = riemannian_limit_action(conn.vielbein, *args)
    gravity = ("delta0_volume", "einstein_hilbert", "ricci_sq", "lap_scalar", "scalar_sq",
               "ricci_riemann_sq")
    # the connection's curvature pass gives the frame's integrals bit for bit;
    # only delta0's coefficient gains the connection's lambda0
    assert [with_conn.terms[t][1] for t in gravity] == [alone.terms[t][1] for t in gravity]
    assert [with_conn.terms[t] for t in gravity[1:]] == [alone.terms[t] for t in gravity[1:]]


def test_gauge_action_integrals_hold_their_recorded_values():
    obj = builtin_config("sm-trace-check")
    obj["chart"]["grid"] = [2, 3, 3, 3]
    obj["cutoff"] = {"builtin": "exponential", "scale_sq": 1.0}
    obj["tasks"] = [{"type": "action", "form": "spectral", "aa_mode": "blocks"},
                    {"type": "action", "form": "riemannian-limit"}]
    blocks, limit = (dict((row[0], row[2]) for row in r.rows)
                     for r in run_scenario(obj).results)
    # recorded from the per-point evaluation the block path replaced
    for got, want in ((blocks["a4_curvature"], 0.0020931224745011421),
                      (limit["gauge_sector"], 0.03061413526330322),
                      (limit["higgs_sector"], -0.00070576421955596391)):
        assert abs(got - want) <= 1e-12 * abs(want)
