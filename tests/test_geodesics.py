"""Geodesic integrator behavior on known solutions."""

import warnings

import numpy as np
import pytest

from geodyn.fields import ChartField
from geodyn.geodesics import Trajectory, _diagonal_stage, integrate_geodesic, velocity_norm
from geodyn.geometry import Vielbein
from geodyn.library import BUILTIN_FRAMES, diagonal_vielbein, polar, schwarzschild, sphere2
from geodyn.tensors import MinkowskiSignature, Point
from test_fields import _point_route_cases, _rank1_cases
from test_geometry import diagonal_frames, matrix_twin


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
    assert abs(velocity_norm(g, np.array(x0), np.array(v0)) + 1.0) < 1e-14
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

    h = t_max / steps
    x, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    xs, vs, norms = [x], [v], [velocity_norm(g, x, v)]
    for _ in range(steps):
        k1 = rhs(x, v)
        k2 = rhs(x + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        k3 = rhs(x + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        k4 = rhs(x + h * k3[0], v + h * k3[1])
        x = x + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v = v + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        xs.append(x)
        vs.append(v)
        norms.append(velocity_norm(g, x, v))
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


def test_four_metric_passes_per_step(monkeypatch):
    # a pass runs the frame's evaluator once, on point jets, and reads its
    # entries directly: ChartField.jets is not called at all
    jets_calls, orders = [], []
    monkeypatch.setattr(ChartField, "jets",
                        lambda self, p, order=2: jets_calls.append(order))
    frame = schwarzschild(mass=1.0)
    func = frame.field.func

    def counted(coords):
        orders.append(1 if coords[0].hess is None else 2)
        return func(coords)

    frame.field.func = counted
    steps = 25
    traj = integrate_geodesic(frame.metric(), (0.0, 6.0, np.pi / 2, 0.0),
                              (np.sqrt(2.0), 0.0, 0.0, 0.09622504486493764),
                              t_max=0.25, steps=steps)
    assert traj.status == "ok"
    assert orders == [1] * (4 * steps + 1)
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
    return diagonal_vielbein([f0, lambda c: 1.0], MinkowskiSignature.euclidean(2))


def test_arithmetic_error_at_the_start_stops_the_run():
    g = _frame_2d(lambda c: 1.0 / c[0]).metric()
    traj = integrate_geodesic(g, (0.0, 0.0), (1.0, 0.0), t_max=0.1, steps=10)
    assert traj.status == "singular"
    assert "division by zero" in traj.message
    assert traj.xs.tolist() == [[0.0, 0.0]] and np.isnan(traj.norms[0])


def test_arithmetic_error_inside_the_run_stops_it():
    # a flat metric whose frame still divides by x: with h = 1/8 the straight
    # line from x = 1/2 is exact and its fourth step's last stage hits x = 0
    g = _frame_2d(lambda c: 1.0 + 0.0 * (1.0 / c[0])).metric()
    traj = integrate_geodesic(g, (0.5, 0.0), (-1.0, 0.0), t_max=1.0, steps=8)
    assert traj.status == "singular"
    assert "division by zero" in traj.message
    assert traj.xs[:, 0].tolist() == [0.5, 0.375, 0.25, 0.125]


def test_complex_frame_value_stops_the_run():
    g = _frame_2d(lambda c: c[0] ** 0.5).metric()
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


def _big(c):
    return 1e150 * (1.0 + c[0] * c[0])


@pytest.mark.parametrize("entries, x0, v0", [
    ((lambda c: 1e200 * c[0], lambda c: 1.0), (1.0, 0.0), (1.0, 0.0)),  # e^2 overflows
    ((lambda c: 1e308 * c[0] * c[0], lambda c: 1.0), (0.5, 0.0), (1.0, 0.0)),  # e finite
    ((lambda c: 1e308 * c[0] * c[0], lambda c: 1.0), (1.0, 0.0), (1.0, 0.0)),  # grad e not
    ((_big, _big), (0.0, 0.0), (10.0, 0.0)),  # a later stage overflows
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
    frame = diagonal_vielbein([lambda c: 0.9e154 * c[0]] * 3, MinkowskiSignature.euclidean(3))
    x0, v0 = (1.0, 0.0, 0.0), (1.0, 0.5, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = integrate_geodesic(frame.metric(), x0, v0, t_max=1.0, steps=10)
        general = integrate_geodesic(matrix_twin(frame).metric(), x0, v0, t_max=1.0, steps=10)
    assert fast.status == "singular" and fast.message == "non-finite acceleration"
    assert _bits(fast) == _bits(general)


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


def _diagonal_windows(field):
    """Diagonal frames of a rank-1 field: the field itself if it has one entry
    per coordinate, else frames of n consecutive entries (cyclically) that
    between them hold every entry."""
    n, k = field.dim, field.shape[0]
    if k == n:
        yield field
        return
    for start in range(0, k, n):
        window = [(start + j) % k for j in range(n)]
        yield ChartField(dim=n, shape=(n,),
                         func=lambda c, w=window: [field.func(c)[i] for i in w])


# the builtin frames are in both lists; they run once, as rank1 cases
_PASS_CASES = {**{f"rank1-{name}": field for name, field in _rank1_cases()},
               **{f"route-{name}": field for name, field in _point_route_cases()
                  if name not in BUILTIN_FRAMES}}


@pytest.mark.parametrize("name", sorted(_PASS_CASES))
def test_diagonal_pass_matches_the_chart_field_route(name):
    # int and constant entries, numpy object-array returns and every
    # expression function give the same floats; complex values, complex
    # gradients and numpy complex scalars the same complex-value error
    for field in _diagonal_windows(_PASS_CASES[name]):
        n = field.dim
        frame = Vielbein(field, MinkowskiSignature.lorentzian(n))
        metric_jets = _diagonal_stage(frame)[0]
        xc = [0.7, 3.1, 1.2, 0.4][:n]
        if "complex" not in name:
            got, want = metric_jets(xc), _jets_route_pass(field, frame.signature.signs, xc)
            assert all(type(x) is float for part in got for x in part), name
            assert [list(map(float.hex, part)) for part in got] == \
                [list(map(float.hex, part)) for part in want], name
            continue
        with pytest.raises(ValueError) as want:
            _jets_route_pass(field, frame.signature.signs, xc)
        with pytest.raises(ValueError) as got:
            metric_jets(xc)
        assert str(got.value) == str(want.value), name
        assert str(want.value).startswith("complex metric value at ("), name


@pytest.mark.parametrize("x0, v0, at", [((1.0, 0.0), (1e308, 0.0), "(inf, 0.0)"),
                                        ((-1.0, 2.0), (-1e308, 1e308), "(-inf, inf)")])
def test_non_finite_stage_point_stops_the_run(x0, v0, at):
    # the start is finite, but the second stage's point x + (h/2) v is not
    frame = _frame_2d(lambda c: 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = integrate_geodesic(frame.metric(), x0, v0, t_max=10.0, steps=1)
        general = integrate_geodesic(matrix_twin(frame).metric(), x0, v0,
                                     t_max=10.0, steps=1)
    assert fast.status == "singular"
    assert fast.message == f"non-finite coordinates: {at}"
    assert len(fast.ts) == 1
    assert _bits(fast) == _bits(general)
