"""Geodesic integrator behavior on known solutions."""

import numpy as np
import pytest

from geodyn.fields import ChartField
from geodyn.geodesics import Trajectory, integrate_geodesic, velocity_norm
from geodyn.library import diagonal_vielbein, polar, schwarzschild, sphere2
from geodyn.tensors import MinkowskiSignature, Point


def test_equator_is_a_great_circle():
    g = sphere2().metric()
    traj = integrate_geodesic(g, (np.pi / 2, 0.0), (0.0, 1.0),
                              t_max=2.0 * np.pi, steps=600)
    assert traj.status == "ok"
    # theta stays on the equator and phi advances uniformly
    assert np.abs(traj.xs[:, 0] - np.pi / 2).max() < 1e-12
    assert np.abs(traj.xs[:, 1] - traj.ts).max() < 1e-12
    assert traj.norm_drift < 1e-12
    assert traj.final_point.coords[1] == pytest.approx(2.0 * np.pi, abs=1e-12)


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
    calls = []
    jets = ChartField.jets

    def counted(self, p, order=2):
        calls.append(order)
        return jets(self, p, order=order)

    monkeypatch.setattr(ChartField, "jets", counted)
    g = schwarzschild(mass=1.0).metric()
    steps = 25
    traj = integrate_geodesic(g, (0.0, 6.0, np.pi / 2, 0.0),
                              (np.sqrt(2.0), 0.0, 0.0, 0.09622504486493764),
                              t_max=0.25, steps=steps)
    assert traj.status == "ok"
    assert calls == [1] * (4 * steps + 1)


def test_no_determinant_call_inside_the_loop(monkeypatch):
    # the guard's determinant comes from the inverse's own LU factorisation
    calls = []
    det = np.linalg.det

    def counted(m):
        calls.append(np.shape(m))
        return det(m)

    monkeypatch.setattr(np.linalg, "det", counted)
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
