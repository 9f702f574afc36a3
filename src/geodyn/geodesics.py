"""Geodesic integration for generalized metrics.

Classical fixed-step RK4 on the first-order system (x, v) with
a^m = -Gamma^m_ab v^a v^b.  The Christoffel evaluation uses order-1 jets
only, which keeps a single right-hand-side call cheap enough for 1e4-step
runs in a few seconds.  A step costs four order-1 metric jet passes: the
pass at the accepted point gives both its velocity norm and the next
step's k1 Christoffel symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import GeneralizedMetric, _christoffel_from
from .tensors import Point, SingularMetricError, checked_inverse

__all__ = ["Trajectory", "integrate_geodesic", "velocity_norm"]


@dataclass
class Trajectory:
    ts: np.ndarray
    xs: np.ndarray              # shape (len(ts), dim)
    vs: np.ndarray
    norms: np.ndarray           # gamma_mn v^m v^n along the run
    status: str = "ok"          # "ok" or "singular"
    message: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def final_point(self) -> Point:
        return Point(tuple(self.xs[-1]))

    @property
    def norm_drift(self) -> float:
        return float(np.abs(self.norms - self.norms[0]).max())


def velocity_norm(g: GeneralizedMetric, x: np.ndarray, v: np.ndarray) -> float:
    gam = g.value(Point(tuple(x)))
    return float(v @ gam @ v)


def integrate_geodesic(g: GeneralizedMetric, x0, v0, t_max: float,
                       steps: int) -> Trajectory:
    """Integrate the geodesic through (x0, v0) for parameter length t_max.

    On a singular-metric evaluation or a non-finite state the run stops and
    returns the samples accumulated so far with status "singular".
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    dim = g.dim
    if x.shape != (dim,) or v.shape != (dim,):
        raise ValueError(f"state vectors must have shape ({dim},)")

    def metric_jets(xc: np.ndarray) -> tuple:
        return g.gamma_jets(Point(tuple(xc)), order=1)

    def accel(gj: tuple, vc: np.ndarray) -> np.ndarray:
        gam = _christoffel_from(checked_inverse(gj[0]), gj[1])
        return -np.einsum("mab,a,b->m", gam, vc, vc)

    h = t_max / steps
    here = metric_jets(x)  # gamma jets at the last accepted point
    ts = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    norms = [float(v @ here[0] @ v)]
    status, message = "ok", ""
    for k in range(steps):
        try:
            k1x, k1v = v, accel(here, v)
            k2x = v + 0.5 * h * k1v
            k2v = accel(metric_jets(x + 0.5 * h * k1x), k2x)
            k3x = v + 0.5 * h * k2v
            k3v = accel(metric_jets(x + 0.5 * h * k2x), k3x)
            k4x = v + h * k3v
            k4v = accel(metric_jets(x + h * k3x), k4x)
            x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
                status, message = "singular", "non-finite state"
                break
            here = metric_jets(x)
            norm = float(v @ here[0] @ v)
        except (SingularMetricError, FloatingPointError, ValueError) as exc:
            status, message = "singular", str(exc)
            break
        ts.append((k + 1) * h)
        xs.append(x.copy())
        vs.append(v.copy())
        norms.append(norm)
    return Trajectory(ts=np.array(ts), xs=np.array(xs), vs=np.array(vs),
                      norms=np.array(norms), status=status, message=message,
                      meta={"steps_requested": steps, "step_size": h})
