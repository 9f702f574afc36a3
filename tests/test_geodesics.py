"""Geodesic integrator behavior on known solutions."""

import hashlib
import importlib.util
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from geodyn import geodesics
from geodyn.config import build_scenario
from geodyn.exprs import compile_expression, derivative_code, differentiate
from geodyn.fields import ChartField, entry_field
from geodyn.geodesics import (Trajectory, _diagonal, _diagonal_stage, _general_stage,
                              _loop_source, integrate_geodesic, velocity_norm)
from geodyn.library import BUILTIN_FRAMES, diagonal_vielbein, flat, polar, schwarzschild, sphere2
from geodyn.scenarios import builtin_config, format_csv, run_scenario
from geodyn.tensors import SINGULAR_REL, MinkowskiSignature, Point, _singular
from test_fields import _point_route_cases, _rank1_cases
from test_geometry import diagonal_frames, matrix_twin

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _emitters(frame):
    """The diagonal stage of a frame whose diagonal _diagonal finds."""
    return _diagonal_stage(_diagonal(frame), frame.signature.signs)


def _stage(frame):
    """(metric_jets, accel): the metric pass and the acceleration that the
    loop inlines in each stage, as functions of a point and of (the pass's
    lists, a velocity), from the diagonal stage's emitters.  The pass does
    not form the dead slots; metric_jets forms them as the dense pass did,
    from the gradient of the derivative code that the pass runs."""
    n = frame.dim
    scope, metric_pass, accel, _ = _emitters(frame)
    c, u, out = ([f"{p}{m}" for m in range(n)] for p in ("_c", "_u", "_o"))
    pass_lines = metric_pass(c)
    formed = {line.split(" = ")[0] for line in pass_lines}
    grads = derivative_code(_diagonal(frame)).grads
    slots = [f"_h{k}" if grads is None or f"_h{k}" in formed
             else f"2.0 * (_e{k // n} * {grads[k]})" for k in range(n * n)]
    g, h = ", ".join(f"_g{m}" for m in range(n)), ", ".join(f"_h{k}" for k in range(n * n))
    lines = ["def metric_jets(_c):", f"    ({', '.join(c)},) = _c",
             *[f"    {line}" for line in pass_lines],
             f"    return [{g}], [{', '.join(slots)}, 0.0]",
             "def accel(_gj, _vc):", f"    ({g},), ({h}, _) = _gj", f"    ({', '.join(u)},) = _vc",
             *[f"    {line}" for line in accel(u, out)],
             f"    return [{', '.join(out)}]"]
    exec(compile("\n".join(lines), "<diagonal stage>", "exec"), scope)
    return scope["metric_jets"], scope["accel"]


def _source(frame):
    """The generated loop of a diagonal frame."""
    return _loop_source(frame.dim, *_emitters(frame)[1:])


def test_equator_is_a_great_circle():
    g = sphere2().metric()
    traj = integrate_geodesic(g, (np.pi / 2, 0.0), (0.0, 1.0),
                              t_max=2.0 * np.pi, steps=600)
    assert traj.status == "ok"
    # theta stays on the equator and phi advances uniformly
    assert np.abs(traj.xs[:, 0] - np.pi / 2).max() < 1e-12
    assert np.abs(traj.xs[:, 1] - traj.ts).max() < 1e-12
    assert traj.norm_drift < 1e-12
    assert traj.xs[-1, 1] == pytest.approx(2.0 * np.pi, abs=1e-12)


def test_tilted_great_circle_conserves_norm_and_clairaut():
    g = sphere2().metric()
    traj = integrate_geodesic(g, (np.pi / 2, 0.0), (0.4, 0.8),
                              t_max=3.0, steps=1500)
    assert traj.status == "ok"
    assert traj.norm_drift < 1e-10
    # Clairaut: sin(theta)^2 * dphi/dt is constant along a sphere geodesic
    clair = np.sin(traj.xs[:, 0]) ** 2 * traj.vs[:, 1]
    assert np.abs(clair - clair[0]).max() < 1e-10


def test_sphere_geodesic_closes_after_full_revolution():
    g = sphere2().metric()
    speed = np.hypot(0.3, 0.9)
    period = 2.0 * np.pi / speed
    traj = integrate_geodesic(g, (np.pi / 2, 0.2), (0.3, 0.9),
                              t_max=period, steps=4000)
    assert traj.status == "ok"
    assert abs(traj.xs[-1, 0] - np.pi / 2) < 1e-9
    assert abs((traj.xs[-1, 1] - 0.2) % (2.0 * np.pi)) < 1e-8


def test_timelike_norm_preserved_near_mass():
    g = schwarzschild(mass=1.0).metric()
    f = 1.0 - 2.0 / 10.0
    b = -0.1
    a = np.sqrt((1.0 + b * b / f) / f)
    x0 = (0.0, 10.0, np.pi / 2, 0.0)
    v0 = (a, b, 0.0, 0.0)
    assert abs(velocity_norm(g.value(Point(x0)), v0) + 1.0) < 1e-14
    traj = integrate_geodesic(g, x0, v0, t_max=5.0, steps=500)
    assert traj.status == "ok"
    assert traj.norm_drift < 1e-10
    assert traj.xs[-1, 1] < 10.0  # infalling


def test_circular_orbit_angular_velocity():
    # r = 6, m = 1: Omega^2 = m / r^3 exactly for a circular orbit
    g = schwarzschild(mass=1.0).metric()
    u_t = np.sqrt(2.0)
    u_phi = 0.09622504486493764
    traj = integrate_geodesic(g, (0.0, 6.0, np.pi / 2, 0.0),
                              (u_t, 0.0, 0.0, u_phi), t_max=20.0, steps=2000)
    assert traj.status == "ok"
    assert np.abs(traj.xs[:, 1] - 6.0).max() < 1e-9
    omega = (traj.xs[-1, 3] - traj.xs[0, 3]) / (traj.xs[-1, 0] - traj.xs[0, 0])
    assert abs(omega ** 2 - 1.0 / 216.0) < 1e-12


def test_singular_metric_stops_the_run():
    # straight line through the origin of the polar chart
    g = polar().metric()
    traj = integrate_geodesic(g, (1.0, 0.0), (-1.0, 0.0), t_max=2.0, steps=200)
    assert traj.status == "singular"
    assert traj.message != ""
    assert len(traj.ts) < 201
    assert traj.xs[-1, 0] < 0.05


def test_bad_arguments_rejected():
    g = sphere2().metric()
    with pytest.raises(ValueError):
        integrate_geodesic(g, (1.0, 1.0), (0.0, 1.0), t_max=1.0, steps=0)
    with pytest.raises(ValueError):
        integrate_geodesic(g, (1.0,), (0.0, 1.0), t_max=1.0, steps=5)


def test_trajectory_metadata():
    g = sphere2().metric()
    traj = integrate_geodesic(g, (1.0, 0.0), (0.1, 0.0), t_max=1.0, steps=10)
    assert isinstance(traj, Trajectory)
    assert traj.meta["steps_requested"] == 10
    assert traj.meta["step_size"] == pytest.approx(0.1)
    assert traj.ts.shape == (11,)
    assert traj.xs.shape == (11, 2)


def _reference_rk4(g, x0, v0, t_max, steps):
    """Plain RK4 on the public Christoffel and norm calls, five passes a step."""
    def rhs(x, v):
        gam = g.christoffel(Point(tuple(x))).values
        return v, -np.einsum("mab,a,b->m", gam, v, v)

    def norm(x, v):
        return velocity_norm(g.value(Point(tuple(x))), v)

    h = t_max / steps
    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    xs, vs, norms = [x], [v], [norm(x, v)]
    for _ in range(steps):
        k1 = rhs(x, v)
        k2 = rhs(x + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        k3 = rhs(x + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        k4 = rhs(x + h * k3[0], v + h * k3[1])
        x = x + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v = v + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        xs.append(x)
        vs.append(v)
        norms.append(norm(x, v))
    return np.array(xs), np.array(vs), np.array(norms)


@pytest.mark.parametrize("frame, x0, v0, t_max, steps", [
    (schwarzschild(mass=1.0), (0.0, 6.0, np.pi / 2, 0.0),
     (np.sqrt(2.0), 0.0, 0.0, 0.09622504486493764), 5.0, 500),
    (sphere2(), (np.pi / 2, 0.0), (0.4, 0.8), 3.0, 1500),
])
def test_integrator_matches_reference_rk4(frame, x0, v0, t_max, steps):
    g = frame.metric()
    traj = integrate_geodesic(g, x0, v0, t_max=t_max, steps=steps)
    xs, vs, norms = _reference_rk4(g, x0, v0, t_max, steps)
    assert traj.status == "ok"
    assert np.abs(traj.xs - xs).max() <= 1e-12
    assert np.abs(traj.vs - vs).max() <= 1e-12
    assert np.abs(traj.norms - norms).max() <= 1e-12


def test_singular_stop_is_pinned():
    g = polar().metric()
    traj = integrate_geodesic(g, (1.0, 0.0), (-1.0, 0.0), t_max=2.0, steps=200)
    assert traj.status == "singular"
    assert traj.message.startswith("determinant")
    assert len(traj.ts) == 100


def _counted_passes(monkeypatch) -> list:
    """The list to which each later diagonal metric pass appends its
    number of coordinates: the diagonal stage, with a line that appends it
    put in front of each pass that the loop inlines."""
    passes = []

    def counted_stage(diagonal, signs):
        scope, metric_pass, accel, sample = _diagonal_stage(diagonal, signs)
        scope["_passes"] = passes
        return (scope, lambda c, checked=False: [f"_passes.append({len(c)})",
                                                 *metric_pass(c, checked)], accel, sample)

    monkeypatch.setattr(geodesics, "_diagonal_stage", counted_stage)
    return passes


def test_four_metric_passes_per_step(monkeypatch):
    # a pass runs the inlined order-1 code of the frame's diagonal once:
    # ChartField.jets is not called at all
    jets_calls = []
    monkeypatch.setattr(ChartField, "jets",
                        lambda self, p, order=2: jets_calls.append(order))
    passes = _counted_passes(monkeypatch)
    frame = schwarzschild(mass=1.0)
    steps = 25
    traj = integrate_geodesic(frame.metric(), (0.0, 6.0, np.pi / 2, 0.0),
                              (np.sqrt(2.0), 0.0, 0.0, 0.09622504486493764),
                              t_max=0.25, steps=steps)
    assert traj.status == "ok"
    assert passes == [4] * (4 * steps + 1)
    assert jets_calls == []


def test_no_determinant_call_inside_the_loop(monkeypatch):
    # a diagonal frame's stage guards with the scaled product of its metric's
    # diagonal and inverts it entry by entry, so no matrix routine runs
    calls = []

    def counting(fn):
        def counted(m):
            calls.append(np.shape(m))
            return fn(m)
        return counted

    monkeypatch.setattr(np.linalg, "det", counting(np.linalg.det))
    monkeypatch.setattr(np.linalg, "inv", counting(np.linalg.inv))
    g = schwarzschild(mass=1.0).metric()
    traj = integrate_geodesic(g, (0.0, 6.0, np.pi / 2, 0.0),
                              (np.sqrt(2.0), 0.0, 0.0, 0.09622504486493764),
                              t_max=0.25, steps=25)
    assert traj.status == "ok"
    assert calls == []


def _frame_2d(f0):
    return diagonal_vielbein([f0, "1.0"], MinkowskiSignature.euclidean(2))


def test_arithmetic_error_at_the_start_stops_the_run():
    g = _frame_2d("1.0 / x0").metric()
    traj = integrate_geodesic(g, (0.0, 0.0), (1.0, 0.0), t_max=0.1, steps=10)
    assert traj.status == "singular"
    assert "division by zero" in traj.message
    assert traj.xs.tolist() == [[0.0, 0.0]] and np.isnan(traj.norms[0])


def test_arithmetic_error_inside_the_run_stops_it():
    # a flat metric whose frame still divides by x: with h = 1/8 the straight
    # line from x = 1/2 is exact and its fourth step's last stage hits x = 0
    g = _frame_2d("1.0 + 0.0 * (1.0 / x0)").metric()
    traj = integrate_geodesic(g, (0.5, 0.0), (-1.0, 0.0), t_max=1.0, steps=8)
    assert traj.status == "singular"
    assert "division by zero" in traj.message
    assert traj.xs[:, 0].tolist() == [0.5, 0.375, 0.25, 0.125]


def test_complex_frame_value_stops_the_run():
    g = _frame_2d("x0^0.5").metric()
    traj = integrate_geodesic(g, (-0.5, 0.0), (0.1, 0.0), t_max=0.1, steps=10)
    assert traj.status == "singular"
    assert traj.message == "complex metric value at (-0.5, 0.0)"
    assert len(traj.ts) == 1

    # a run that leaves the real domain stops at the first complex stage
    traj = integrate_geodesic(g, (0.05, 0.0), (-1.0, 0.0), t_max=0.2, steps=20)
    assert traj.status == "singular"
    assert traj.message.startswith("complex metric value at (-")
    assert traj.xs.dtype == float and (traj.xs[:, 0] > 0.0).all()


# -- the diagonal-frame stage against the general stage ------------------------


STARTS = {
    "flat": ((0.0, 1.0, -2.0, 0.5), (1.0, 0.0, -0.3, 0.0), 1.0, 40),
    "polar": ((1.0, 0.0), (-1.0, 0.0), 2.0, 200),           # ends singular at r = 0
    "sphere2": ((np.pi / 2, 0.0), (0.4, 0.8), 3.0, 200),
    "schwarzschild": ((0.0, 6.0, np.pi / 2, 0.0),
                      (np.sqrt(2.0), 0.0, 0.0, 0.09622504486493764), 20.0, 400),
    "sphere2-cross-flat2": ((1.0, 0.0, 0.0, 0.0), (0.3, 0.4, 0.0, -0.2), 5.0, 200),
    "expr-diagonal": ((0.3, 0.2, 0.0), (1.0, 0.1, 0.0), 2.0, 200),
}

# starts whose velocity components are all nonzero, so that every Christoffel
# term enters the sum and its order is tested: name -> (frame, start)
ALL_TERMS = {
    "schwarzschild-off-equator": ("schwarzschild", ((0.0, 7.0, 1.1, 0.3),
                                                    (1.3, 0.05, 0.02, 0.07), 20.0, 400)),
    "sphere2-cross-flat2-all-terms": ("sphere2-cross-flat2", ((1.0, 0.2, -0.5, 0.3),
                                                              (0.3, 0.4, 0.25, -0.2), 5.0, 200)),
}


def _bits(traj):
    return (traj.status, traj.message, traj.ts.tobytes(), traj.xs.tobytes(),
            traj.vs.tobytes(), traj.norms.tobytes())


@pytest.mark.parametrize("name", sorted(STARTS) + sorted(ALL_TERMS))
def test_diagonal_stage_matches_the_general_stage(name):
    frame_name, start = ALL_TERMS.get(name, (name, STARTS.get(name)))
    frame = diagonal_frames()[frame_name]
    x0, v0, t_max, steps = start
    fast = integrate_geodesic(frame.metric(), x0, v0, t_max=t_max, steps=steps)
    general = integrate_geodesic(matrix_twin(frame).metric(), x0, v0,
                                 t_max=t_max, steps=steps)
    assert _bits(fast) == _bits(general)
    assert fast.status == ("singular" if name == "polar" else "ok")


_BIG = "1e150 * (1.0 + x0 * x0)"


@pytest.mark.parametrize("entries, x0, v0", [
    (("1e200 * x0", "1.0"), (1.0, 0.0), (1.0, 0.0)),  # e^2 overflows
    (("1e308 * x0 * x0", "1.0"), (0.5, 0.0), (1.0, 0.0)),  # e finite
    (("1e308 * x0 * x0", "1.0"), (1.0, 0.0), (1.0, 0.0)),  # grad e not
    ((_BIG, _BIG), (0.0, 0.0), (10.0, 0.0)),  # a later stage overflows
])
def test_overflowing_diagonal_metric_stops_the_run_without_a_warning(entries, x0, v0):
    frame = diagonal_vielbein(list(entries), MinkowskiSignature.euclidean(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_geodesic(frame.metric(), x0, v0, t_max=10.0, steps=20)
        general = integrate_geodesic(matrix_twin(frame).metric(), x0, v0,
                                     t_max=10.0, steps=20)
    assert traj.status == "singular"
    assert traj.message.startswith("non-finite metric value at (")
    assert _bits(traj) == _bits(general)


def test_overflowing_acceleration_stops_both_stages_alike():
    # the metric and its derivatives are finite, but (p + p) - p in the
    # Christoffel symbols overflows, where the general stage's zero terms
    # turn inf into NaN and the diagonal stage's would not
    frame = diagonal_vielbein(["0.9e154 * x0"] * 3, MinkowskiSignature.euclidean(3))
    x0, v0 = (1.0, 0.0, 0.0), (1.0, 0.5, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = integrate_geodesic(frame.metric(), x0, v0, t_max=1.0, steps=10)
        general = integrate_geodesic(matrix_twin(frame).metric(), x0, v0, t_max=1.0, steps=10)
    assert fast.status == "singular" and fast.message == "non-finite acceleration"
    assert _bits(fast) == _bits(general)


def _eccentric_start(steps):
    """A bound Schwarzschild orbit (m = 1) from r0 = 12 at rest in r with
    L = 0.9 L_circ, so that r runs over [5.64, 12], for tau = 400: unlike the
    circular orbit, which is linear in tau, every stage and the step's
    combination change its bits."""
    r0 = 12.0
    ang = 0.9 * math.sqrt(r0 * r0 / (r0 - 3.0))
    return ((0.0, r0, np.pi / 2, 0.0),
            (math.sqrt((1.0 + (ang / r0) ** 2) / (1.0 - 2.0 / r0)), 0.0, 0.0, ang / r0 ** 2),
            400.0, steps)


def test_eccentric_orbit_matches_the_general_stage(monkeypatch):
    start = _eccentric_start(2000)
    fast, generated, general = _picked_and_general(monkeypatch, schwarzschild(mass=1.0), start)
    assert generated and fast.status == "ok"
    assert fast.xs[:, 1].min() < 5.7 and fast.norm_drift < 1e-9
    assert _bits(fast) == _bits(general)


def _list_loop(frame, x0, v0, t_max, steps):
    """The _bits of the loop that the generated one replaced: RK4 over
    lists of floats on the stage's pass and acceleration as functions, with
    a per-point numpy norm at each accepted point."""
    metric_jets, accel = _stage(frame)
    h = t_max / steps
    half, sixth = 0.5 * h, h / 6.0
    x, v = [float(a) for a in x0], [float(a) for a in v0]
    ts, xs, vs, norms = [0.0], x[:], v[:], [math.nan]
    status, message = "ok", ""
    with np.errstate(all="ignore"):
        try:
            here = metric_jets(x)
            norms[0] = float(np.array(v) @ np.diag(here[0]) @ np.array(v))
            for k in range(steps):
                k1x, k1v = v, accel(here, v)
                k2x = [a + half * b for a, b in zip(v, k1v)]
                k2v = accel(metric_jets([a + half * b for a, b in zip(x, k1x)]), k2x)
                k3x = [a + half * b for a, b in zip(v, k2v)]
                k3v = accel(metric_jets([a + half * b for a, b in zip(x, k2x)]), k3x)
                k4x = [a + h * b for a, b in zip(v, k3v)]
                k4v = accel(metric_jets([a + h * b for a, b in zip(x, k3x)]), k4x)
                x = [y + sixth * (a + 2.0 * b + 2.0 * c + d)
                     for y, a, b, c, d in zip(x, k1x, k2x, k3x, k4x)]
                v = [y + sixth * (a + 2.0 * b + 2.0 * c + d)
                     for y, a, b, c, d in zip(v, k1v, k2v, k3v, k4v)]
                if not all(map(math.isfinite, x + v)):
                    status, message = "singular", "non-finite state"
                    break
                here = metric_jets(x)
                norms.append(float(np.array(v) @ np.diag(here[0]) @ np.array(v)))
                ts.append((k + 1) * h)
                xs += x
                vs += v
        except (ArithmeticError, ValueError) as exc:
            status, message = "singular", str(exc)
    return (status, message, np.array(ts).tobytes(), np.array(xs).tobytes(),
            np.array(vs).tobytes(), np.array(norms).tobytes())


@pytest.mark.parametrize("name", sorted(STARTS) + sorted(ALL_TERMS) + ["eccentric"])
def test_generated_loop_matches_the_list_loop(name):
    # the same bits as the list loop it replaced, on the same stage code
    if name == "eccentric":
        frame_name, start = "schwarzschild", _eccentric_start(500)
    else:
        frame_name, start = ALL_TERMS.get(name, (name, STARTS.get(name)))
    frame = diagonal_frames()[frame_name]
    x0, v0, t_max, steps = start
    traj = integrate_geodesic(frame.metric(), x0, v0, t_max=t_max, steps=steps)
    assert _bits(traj) == _list_loop(frame, x0, v0, t_max, steps)


def _singular_at(c):
    """diag(exp(x0), x0 - c): from v = (1, 0) x0 moves alone, with
    a^0 = -(v^0)^2, and the metric is singular where x0 = c."""
    return diagonal_vielbein(["exp(x0)", f"x0 - {c!r}"], MinkowskiSignature.euclidean(2))


# x0 at the stage points of the first step from x0 = 0 with v0 = 1 and h = 1/2
FIRST_STEP = {1: 0.0, 2: 0.25, 3: 0.1875, 4: 0.4296875}


@pytest.mark.parametrize("stop", ["stage-1", "stage-2", "stage-3", "stage-4",
                                  "stage-1-of-step-2", "non-finite-state"])
def test_a_stop_in_every_stage_matches_the_general_stage(monkeypatch, stop):
    # the loop inlines each stage's guard and pass: each copy stops the run
    # with the general stage's status, message and samples, after the metric
    # passes that come before it
    x0, v0, t_max, steps = (0.0, 0.0), (1.0, 0.0), 1.0, 2
    if stop == "non-finite-state":
        # flat: each stage point is finite, x + (h/6)(v + 2 v + 2 v + v) is not
        frame, v0, t_max = _frame_2d("1.0"), (1e308, 0.0), 1e-3
        message, samples, passes_before = "non-finite state", 1, 4
    elif stop == "stage-1-of-step-2":
        accepted = integrate_geodesic(_singular_at(5.0).metric(), x0, v0, t_max=0.5, steps=1)
        frame = _singular_at(float(accepted.xs[1, 0]))
        message, samples, passes_before = "determinant", 2, 5
    else:
        stage = int(stop[-1])
        frame = _singular_at(FIRST_STEP[stage])
        message, samples, passes_before = "determinant", 1, stage
    passes = _counted_passes(monkeypatch)
    fast = integrate_geodesic(frame.metric(), x0, v0, t_max=t_max, steps=steps)
    assert fast.status == "singular" and fast.message.startswith(message)
    assert len(fast.ts) == samples and len(passes) == passes_before
    general = integrate_geodesic(matrix_twin(frame).metric(), x0, v0, t_max=t_max, steps=steps)
    assert _bits(fast) == _bits(general)


# -- the stage chosen from the frame's entries ---------------------------------


SCHWARZSCHILD_DIAGONAL = ["sqrt(1.0 - 2.0 * 1.0 / r)", "1.0 / sqrt(1.0 - 2.0 * 1.0 / r)",
                          "r", "r * sin(theta)"]
ORBIT_STARTS = [STARTS["schwarzschild"], ALL_TERMS["schwarzschild-off-equator"][1]]


def _matrix_frame(off):
    """The schwarzschild-geodesic config's frame written as a matrix frame
    with the source off in every off-diagonal entry."""
    config = builtin_config("schwarzschild-geodesic")
    config["frame"] = {"matrix": [[SCHWARZSCHILD_DIAGONAL[a] if a == m else off
                                   for m in range(4)] for a in range(4)]}
    return build_scenario(config).frame


def _picked_and_general(monkeypatch, frame, start):
    """(trajectory, whether integrate_geodesic generated the diagonal stage
    for it, the general stage's trajectory on the same frame)."""
    x0, v0, t_max, steps = start
    sources = []

    def counted(diagonal, signs):
        sources.append(diagonal)
        return _diagonal_stage(diagonal, signs)

    with monkeypatch.context() as m:
        m.setattr(geodesics, "_diagonal_stage", counted)
        picked = integrate_geodesic(frame.metric(), x0, v0, t_max=t_max, steps=steps)
    with monkeypatch.context() as m:
        m.setattr(geodesics, "_diagonal", lambda frame: None)
        general = integrate_geodesic(frame.metric(), x0, v0, t_max=t_max, steps=steps)
    return picked, sources != [], general


@pytest.mark.parametrize("off", ["0", "0.0", "-0.0"])
@pytest.mark.parametrize("start", ORBIT_STARTS)
def test_matrix_frame_with_zeros_off_the_diagonal_takes_the_generated_stage(monkeypatch, off,
                                                                             start):
    frame = _matrix_frame(off)
    assert [e.source for e in _diagonal(frame)] == SCHWARZSCHILD_DIAGONAL
    picked, generated, general = _picked_and_general(monkeypatch, frame, start)
    assert generated and picked.status == "ok"
    # the same bytes as the general stage, zero signs included, and as the library frame
    assert _bits(picked) == _bits(general)
    x0, v0, t_max, steps = start
    library = integrate_geodesic(schwarzschild(mass=1.0).metric(), x0, v0,
                                 t_max=t_max, steps=steps)
    assert _bits(picked) == _bits(library)


@pytest.mark.parametrize("off", ["0*r", "0.1", "0*(-1)^0.5"])
def test_matrix_frame_with_other_entries_off_the_diagonal_takes_the_general_stage(monkeypatch,
                                                                                  off):
    # 0*r names a coordinate, 0.1 is not zero, and 0*(-1)^0.5 is a complex zero
    frame = _matrix_frame(off)
    assert _diagonal(frame) is None
    picked, generated, general = _picked_and_general(monkeypatch, frame, ORBIT_STARTS[1])
    assert not generated and _bits(picked) == _bits(general)
    if off == "0*(-1)^0.5":
        assert picked.status == "singular"
        assert picked.message == "complex metric value at (0.0, 7.0, 1.1, 0.3)"
    else:
        assert picked.status == "ok"


def test_closure_built_matrix_frame_takes_the_general_stage(monkeypatch):
    frame = matrix_twin(schwarzschild(mass=1.0))
    assert _diagonal(frame) is None
    picked, generated, general = _picked_and_general(monkeypatch, frame, ORBIT_STARTS[1])
    assert not generated and picked.status == "ok" and _bits(picked) == _bits(general)


# -- one metric pass of the diagonal stage against the ChartField.jets route --


def _jets_route_pass(field, signs, xc):
    """The diagonal stage's former pass: ChartField.jets at a Point, then
    gamma_m = eta_m e_m^2 and its gradient from the arrays' lists."""
    p = Point(tuple(xc))
    e, de, _ = field.jets(p, order=1)
    if e.dtype.kind == "c":
        raise ValueError(f"complex metric value at {p.coords}")
    el = e.tolist()
    gm = [x * s * x + 0.0 for x, s in zip(el, signs)]
    dgm = [2.0 * (x * s * y) for x, s, row in zip(el, signs, de.tolist()) for y in row]
    if not all(map(np.isfinite, gm + dgm)):
        raise ValueError(f"non-finite metric value at {p.coords}")
    return gm, dgm + [0.0]


def _windows(field):
    """The expression lists of the diagonal frames of an expression-built
    rank-1 field: the field's own if it has one entry per coordinate, else n
    consecutive entries (cyclically) that between them hold every entry."""
    n, k = field.dim, field.shape[0]
    for start in range(0, k, n):
        yield [field.expressions[(start + j) % k] for j in range(n)]


# the builtin frames are in both lists; they run once, as rank1 cases
_PASS_CASES = {**{f"rank1-{name}": field for name, field in _rank1_cases()
                  if field.expressions is not None},
               **{f"route-{name}": field for name, field in _point_route_cases()
                  if name not in BUILTIN_FRAMES}}


@pytest.mark.parametrize("name", sorted(_PASS_CASES))
def test_diagonal_pass_matches_the_chart_field_route(name):
    # against the expressions evaluated by a closure on numpy jets: int and
    # constant entries and every expression function give the same floats;
    # complex values and gradients the same complex-value error
    for window in _windows(_PASS_CASES[name]):
        n = len(window)
        frame = diagonal_vielbein(window, MinkowskiSignature.lorentzian(n))
        closure = ChartField(dim=n, shape=(n,), func=lambda c, w=window: [e(c) for e in w])
        metric_jets = _stage(frame)[0]
        xc = [0.7, 3.1, 1.2, 0.4][:n]
        if "complex" not in name:
            got, want = metric_jets(xc), _jets_route_pass(closure, frame.signature.signs, xc)
            assert all(type(x) is float for part in got for x in part), name
            assert [list(map(float.hex, part)) for part in got] == \
                [list(map(float.hex, part)) for part in want], name
            continue
        with pytest.raises(ValueError) as want:
            _jets_route_pass(closure, frame.signature.signs, xc)
        with pytest.raises(ValueError) as got:
            metric_jets(xc)
        assert str(got.value) == str(want.value), name
        assert str(want.value).startswith("complex metric value at ("), name


@pytest.mark.parametrize("name", sorted(n for n in _PASS_CASES if n.startswith("route-")))
def test_diagonal_pass_of_expression_windows_matches_the_chart_field_route(name):
    # frames of n consecutive expressions of an expression-built field run
    # the generated code in both routes; the pass reads its lists as floats
    for window in _windows(_PASS_CASES[name]):
        n = len(window)
        frame = diagonal_vielbein(window, MinkowskiSignature.lorentzian(n))
        metric_jets, xc = _stage(frame)[0], [0.7, 3.1, 1.2][:n]
        try:
            want = _jets_route_pass(entry_field(window), frame.signature.signs, xc)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                metric_jets(xc)
            assert "complex" in name
            continue
        got = metric_jets(xc)
        assert [list(map(float.hex, part)) for part in got] == \
            [list(map(float.hex, part)) for part in want], name


@pytest.mark.parametrize("x0, v0, at", [((1.0, 0.0), (1e308, 0.0), "(inf, 0.0)"),
                                        ((-1.0, 2.0), (-1e308, 1e308), "(-inf, inf)")])
def test_non_finite_stage_point_stops_the_run(x0, v0, at):
    # the start is finite, but the second stage's point x + (h/2) v is not
    frame = _frame_2d("1.0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = integrate_geodesic(frame.metric(), x0, v0, t_max=10.0, steps=1)
        general = integrate_geodesic(matrix_twin(frame).metric(), x0, v0,
                                     t_max=10.0, steps=1)
    assert fast.status == "singular"
    assert fast.message == f"non-finite coordinates: {at}"
    assert len(fast.ts) == 1
    assert _bits(fast) == _bits(general)


# -- the generated diagonal stage against the dense loops it replaced ---------


def _dense_stage(frame):
    """The diagonal stage's former (metric_jets, accel): list comprehensions
    over the entries, then a loop over all n(3n-2) Christoffel terms that a
    diagonal metric can make nonzero, in einsum's C order."""
    n, signs = frame.dim, [float(s) for s in frame.signature.signs]
    evaluate = differentiate(frame.field.expressions[::n + 1])

    # per m: (a, b) and t's three d_r g_la, dgm[l * n + r] or the zero dgm[-1]
    def at(l, a, r):
        return l * n + r if l == a else n * n
    terms = [[(a, b, at(m, a, b), at(m, b, a), at(a, b, m))
              for a in range(n) for b in range(n) if m in (a, b) or a == b]
             for m in range(n)]

    def metric_jets(xc):
        if not all(map(math.isfinite, xc)):
            raise ValueError(f"non-finite coordinates: {tuple(xc)}")
        vals, grads = evaluate(xc)
        es = [x * s for x, s in zip(vals, signs)]
        gm = [e * x + 0.0 for e, x in zip(es, vals)]
        dgm = [2.0 * (e * y) for e, y in zip([e for e in es for _ in range(n)], grads)]
        try:
            finite = all([*map(math.isfinite, gm), *map(math.isfinite, dgm)])
        except TypeError:
            raise ValueError(f"complex metric value at {tuple(xc)}") from None
        if not finite:
            raise ValueError(f"non-finite metric value at {tuple(xc)}")
        return gm, dgm + [0.0]

    def accel(gj, vc):
        gm, dgm = gj
        scale = max(1e-300, *map(abs, gm))
        scaled = math.prod([d / scale for d in gm])
        if abs(scaled) <= SINGULAR_REL:
            raise _singular(scaled + 0.0, n)
        out = []
        for gmm, row in zip(gm, terms):
            ginv, acc = 1.0 / gmm, 0.0
            for a, b, i, j, k in row:
                acc += (0.5 * (ginv * ((dgm[i] + dgm[j]) - dgm[k]))) * vc[a] * vc[b]
            out.append(-acc)
        if not all(map(math.isfinite, out)):
            raise ArithmeticError("non-finite acceleration")
        return out

    return metric_jets, accel


def _outcome(fn, *args):
    """The float bits of fn's lists, or the type and message of its error."""
    try:
        got = fn(*args)
    except (ArithmeticError, ValueError) as e:  # what integrate_geodesic stops on
        return type(e), str(e)
    parts = got if isinstance(got, tuple) else (got,)
    assert all(type(x) is float for part in parts for x in part)
    return [[x.hex() for x in part] for part in parts]


def _gauge_sm_frame():
    # the expression-valued diagonal frame of the benchmark's gauge-sm workload
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = workloads.generate("gauge-sm", 0)
    coords = config["chart"]["coordinates"]
    return diagonal_vielbein([compile_expression(e, coords) for e in config["frame"]["diagonal"]],
                             MinkowskiSignature.lorentzian(4))


def _oracle_frames():
    frames = {name: make() for name, (make, _) in BUILTIN_FRAMES.items()}
    frames["gauge-sm"] = _gauge_sm_frame()
    lorentzian = MinkowskiSignature.lorentzian(4)
    # each entry depends on every coordinate, so all 40 terms are formed
    frames["every-coordinate"] = diagonal_vielbein(
        [f"{k} + 0.3*sin(x0 + {k}*x1 - x2*x3)" for k in (2, 3, 4, 5)], lorentzian)
    # an int and a float constant, and a root that turns complex
    frames["constant-entries"] = diagonal_vielbein(["1", "x0 * x3", "2.5", "(x1 + x2^2 - 1)^0.5"],
                                                   lorentzian)
    return frames


def _states(n, seed):
    """Stage points and velocities drawn from seed, with zeros, signed zeros,
    large and non-finite components among them."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(40):
        x = rng.uniform(-3.0, 3.0, n)
        if k % 3 == 0:
            x[0] = abs(x[0]) + 2.0  # a Schwarzschild-like r in the first slots
            x[1] = abs(x[1]) + 2.0
        v = rng.normal(size=n) * rng.choice([1.0, 1e100, 1e170], p=[0.8, 0.1, 0.1])
        v[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
        out.append((x.tolist(), v.tolist()))
    out += [([0.5] * n, [1.0] + [math.inf] + [0.0] * (n - 2)),
            ([0.5] * n, [math.nan] + [0.0] * (n - 1)),
            ([0.0] * n, [1.0] * n),
            ([math.nan] + [1.0] * (n - 1), [1.0] * n)]
    return out


@pytest.mark.parametrize("name", sorted(_oracle_frames()))
def test_generated_stage_matches_the_dense_loops(name):
    # the same floats bit for bit, and the same error type and message
    frame = _oracle_frames()[name]
    metric_jets, accel = _stage(frame)
    dense_jets, dense_accel = _dense_stage(frame)
    # the slots that the pass does not form, which a finite pass makes +-0
    dead = [k for k, (e, c) in enumerate((e, c) for e in _diagonal(frame) for c in e.coordinates)
            if c not in e.variables]
    outcomes = set()
    for seed in range(3):
        for x, v in _states(frame.dim, seed):
            want = _outcome(dense_jets, x)
            assert _outcome(metric_jets, x) == want, (name, x)
            if isinstance(want, tuple):
                outcomes.add(want[0])
                continue
            gj = dense_jets(x)
            assert all(gj[1][k] == 0.0 for k in dead), (name, x)
            want = _outcome(dense_accel, gj, v)
            assert _outcome(accel, gj, v) == want, (name, x, v)
            outcomes.add(want[0] if isinstance(want, tuple) else "ok")
    assert "ok" in outcomes and ArithmeticError in outcomes


@pytest.mark.parametrize("entries, message", [
    # a finite value whose gradient overflows
    (["1 + 1e10*sin(1e300*x0)", "1.0"], "non-finite metric value at (0.5, 1.0)"),
    # a complex value is reported before a later entry's overflow
    (["(x0 - 1)^0.5", "1e200*x1"], "complex metric value at (0.5, 1.0)"),
])
def test_generated_pass_reports_what_the_dense_pass_reports(entries, message):
    frame = diagonal_vielbein(entries, MinkowskiSignature.euclidean(2))
    want = _outcome(_dense_stage(frame)[0], [0.5, 1.0])
    assert want == (ValueError, message)
    assert _outcome(_stage(frame)[0], [0.5, 1.0]) == want


def _accel_source(frame):
    n = frame.dim
    return "\n".join(_emitters(frame)[2]([f"u{m}" for m in range(n)], [f"o{m}" for m in range(n)]))


def _terms(frame):
    # the terms of one acceleration, which the loop inlines in each of its four stages
    terms = _accel_source(frame).count("0.5 * (")
    assert _source(frame).count("0.5 * (") == 4 * terms
    return terms


def test_accel_forms_only_the_terms_the_frame_can_make_nonzero():
    assert _terms(schwarzschild(mass=1.0)) == 13
    assert _terms(flat()) == 0
    assert _terms(_oracle_frames()["every-coordinate"]) == 40
    # the analysis reads names, not values: 0*x0 keeps d_0 gamma_0
    kept = diagonal_vielbein(["1 + 0*x0", "1.0"], MinkowskiSignature.euclidean(2))
    assert _terms(kept) == 1 and "(_h0 + _h0) - _h0" in _accel_source(kept)


def test_schwarzschild_loop_inlines_the_pass_and_forms_the_live_slots():
    # no call of a derivative function: each pass inlines the recorded code
    source = _source(schwarzschild(mass=1.0))
    assert "_evaluate(" not in source and source.count("_t8 = _sqrt(_t5)") == 5
    # 5 of the 16 slots d_r gamma_l are live, and each pass forms those alone
    formed = re.findall(r"^ *(_h\d+) = ", source, re.M)
    assert sorted(set(formed)) == ["_h1", "_h13", "_h14", "_h5", "_h9"]
    assert len(formed) == 5 * 5
    # the off-diagonal zeros are folded, and the accepted point, which the
    # non-finite state check has just checked, is not checked again
    assert "+ 0.0)" not in source and "(0.0 +" not in source
    assert source.count("non-finite coordinates") == 4


def test_building_a_scenario_generates_no_stage_code(monkeypatch):
    sources = []

    def counted(diagonal, signs):
        sources.append(diagonal)
        return _diagonal_stage(diagonal, signs)

    monkeypatch.setattr(geodesics, "_diagonal_stage", counted)
    scenario = build_scenario(builtin_config("schwarzschild-geodesic"))
    assert sources == []
    traj = integrate_geodesic(scenario.frame.metric(), (0.0, 6.0, np.pi / 2, 0.0),
                              (np.sqrt(2.0), 0.0, 0.0, 0.09622504486493764), t_max=0.1, steps=2)
    assert traj.status == "ok" and sources == [scenario.frame.field.expressions[::5]]


def test_inverse_overflow_in_a_row_without_terms_stops_the_run():
    # 1/g_00 = 1/1e-310 overflows, but every term of row 0 is structurally
    # zero; the dense sum's inf * 0 made it NaN, and the guard keeps the stop
    frame = diagonal_vielbein(["1e-155", "1e-150*(1 + x1)"], MinkowskiSignature.euclidean(2))
    assert "_i0 *" not in _source(frame)
    x0, v0 = (0.0, 1.0), (1.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = integrate_geodesic(frame.metric(), x0, v0, t_max=1.0, steps=10)
        general = integrate_geodesic(matrix_twin(frame).metric(), x0, v0, t_max=1.0, steps=10)
    assert fast.status == "singular" and fast.message == "non-finite acceleration"
    assert _bits(fast) == _bits(general)


def test_accel_without_terms_rejects_a_non_finite_velocity():
    frame = flat()
    assert _terms(frame) == 0
    x, v = [0.0, 1.0, -2.0, 0.5], [1.0, 0.0, math.inf, 0.0]
    general = _general_stage(matrix_twin(frame).metric())[0]
    stages = [_stage(frame), (general["_metric_jets"], general["_accel"]), _dense_stage(frame)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy's inf * 0 in the general stage
        for metric_jets, accel in stages:
            with pytest.raises(ArithmeticError, match="^non-finite acceleration$"):
                accel(metric_jets(x), v)


# -- the norms of a run, formed in one batched call ------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_velocity_norm_matches_each_point(n):
    # each sample of the stack gets the bits of its own v @ gamma @ v, signed
    # zeros included, and a diagonal those of v @ np.diag(gamma) @ v
    rng = np.random.default_rng(n)
    k = 400
    vs = rng.normal(size=(k, n)) * rng.choice([1.0, 1e-3, 1e4], size=(k, 1))
    dense, diagonal = rng.normal(size=(k, n, n)), rng.normal(size=(k, n))
    for a in (vs, dense, diagonal):
        zeros = rng.random(a.shape) < 0.25
        a[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    vs[:20] = rng.choice([0.0, -0.0], size=(20, n))
    for gammas, matrices in ((dense, dense), (diagonal, [np.diag(d) for d in diagonal])):
        want = np.array([v @ gamma @ v for v, gamma in zip(vs, matrices)])
        got = velocity_norm(gammas, vs)
        assert got.shape == (k,) and got.tobytes() == want.tobytes()
        assert velocity_norm(gammas[:1], vs[:1]).tobytes() == want[:1].tobytes()


def test_sliced_velocity_norm_matches_the_unsliced_call(monkeypatch):
    # each slice of _NORM_SLICE samples is one matmul; across the slices'
    # boundaries the bits are those of one call over the whole stack, signed
    # zeros included, and a NaN start norm stays where it was
    rng = np.random.default_rng(7)
    k, n = 2 * geodesics._NORM_SLICE + 5, 4
    vs, diagonal = rng.normal(size=(k, n)), rng.normal(size=(k, n))
    dense = rng.normal(size=(k, n, n))
    for a in (vs, dense, diagonal):
        zeros = rng.random(a.shape) < 0.25
        a[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    dense[0, 1, 1] = diagonal[0, 1] = math.nan
    sliced = [velocity_norm(gammas, vs) for gammas in (dense, diagonal)]
    monkeypatch.setattr(geodesics, "_NORM_SLICE", k)
    for gammas, got in zip((dense, diagonal), sliced):
        want = velocity_norm(gammas, vs)
        assert math.isnan(got[0]) and got.shape == (k,) and got.tobytes() == want.tobytes()


def test_one_norm_call_per_run(monkeypatch):
    calls = []

    def counted(gamma, v):
        calls.append(np.shape(v))
        return velocity_norm(gamma, v)

    monkeypatch.setattr(geodesics, "velocity_norm", counted)
    traj = integrate_geodesic(schwarzschild(mass=1.0).metric(), (0.0, 6.0, np.pi / 2, 0.0),
                              (np.sqrt(2.0), 0.0, 0.0, 0.09622504486493764), t_max=1.0, steps=50)
    assert traj.status == "ok" and calls == [(51, 4)]


# SHA-256 of the geodesic CSV of these builtins at --seed 1, which holds the
# integrator's bits.  To re-record after a change that is meant to move them:
# python -m geodyn.cli run NAME --seed 1 --out DIR; sha256sum DIR/01-geodesic.csv
GEODESIC_CSV_SHA256 = {
    "schwarzschild-geodesic": "e012c646834246b534b6cc7400ab9248f34fe1a54a3a400ea038132b83ad8a58",
    "sphere2": "859bfe2175223be1301d1faedab671c85063cecb3440e2f42a49886fe322a11b",
}


@pytest.mark.parametrize("name", sorted(GEODESIC_CSV_SHA256))
def test_geodesic_csv_bytes_are_pinned(name):
    report = run_scenario(builtin_config(name), name=name, seed=1)
    [result] = [r for r in report.results if r.task_type == "geodesic"]
    assert result.csv_name == "01-geodesic.csv"
    digest = hashlib.sha256(format_csv(result).encode("utf-8")).hexdigest()
    assert digest == GEODESIC_CSV_SHA256[name]
