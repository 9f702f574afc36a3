"""Geodesic integration for generalized metrics.

Classical fixed-step RK4 on the first-order system (x, v) with
a^m = -Gamma^m_ab v^a v^b.  A stage is one order-1 jet pass, then the
Christoffel symbols from the metric's inverse.  On a diagonal frame (every
library frame and every ``diagonal`` config frame) the pass is over the n
frame entries alone: gamma_m = eta_m e_m^2 and its gradient are formed
entry by entry, the singularity guard is the scaled product of the gamma_m
and the inverse is 1/gamma_m, with no n x n frame matrix and no matrix
factorisation.  Any other frame, and a metric given as a gamma field, takes
the general stage: gamma jets and ``checked_inverse``.  Both give the same
trajectory bit for bit on a diagonal frame.  A step costs four stages: the
pass at the accepted point gives both its velocity norm and the next step's
k1 Christoffel symbols.  On the Schwarzschild frame a step takes about
0.2 ms on a 2-vCPU x86-64 Linux VM, so a 1e4-step run takes about 2 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GeneralizedMetric, Vielbein, _christoffel_from
from .tensors import SINGULAR_REL, Point, _singular, checked_inverse

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


def _general_stage(g: GeneralizedMetric) -> tuple:
    """(metric_jets, accel, norm) on the metric's gamma jets and checked_inverse."""
    def metric_jets(xc: np.ndarray) -> tuple:
        return g.gamma_jets(Point(tuple(xc.tolist())), order=1)

    def accel(gj: tuple, vc: np.ndarray) -> np.ndarray:
        gam = _christoffel_from(checked_inverse(gj[0]), gj[1])
        return -np.einsum("mab,a,b->m", gam, vc, vc)

    def norm(gj: tuple, vc: np.ndarray) -> float:
        return float(vc @ gj[0] @ vc)

    return metric_jets, accel, norm


def _diagonal_stage(frame: Vielbein) -> tuple:
    """(metric_jets, accel, norm) for a diagonal frame, from its entries' jets.

    gamma_m = eta_m e_m^2 and d gamma_m = 2 eta_m e_m grad e_m are formed
    entry by entry in Python floats.  Laid out as n x n arrays they are the
    general stage's bit for bit: there each entry is one product plus exact
    zeros, and the + 0.0 gives a zero product the sign such a sum has.  The
    guard is checked_inverse's rule on a diagonal matrix, the scaled product
    of the diagonal, and the inverse is 1/gamma_m with the zero signs of an
    LU solve, so the Christoffel symbols are the general stage's too.
    """
    field, n = frame.field, frame.dim
    signs, dim = frame.signature.signs, field.dim
    eye, zeros = np.eye(n), np.zeros(n * n * dim)
    # for each d_r e_m in de's order: m, and the flat index of dg[m, m, r]
    row = [m for m in range(n) for _ in range(dim)]
    at = np.array([(m * n + m) * dim + r for m in range(n) for r in range(dim)])

    def metric_jets(xc: np.ndarray) -> tuple:
        p = Point(tuple(xc.tolist()))
        e, de, _ = field.jets(p, order=1)
        if e.dtype.kind == "c":
            raise ValueError(f"complex metric value at {p.coords}")
        el = e.tolist()
        e_eta = [x * s for x, s in zip(el, signs)]
        gm = [a * x + 0.0 for a, x in zip(e_eta, el)]
        dgm = [2.0 * (e_eta[m] * y) + 0.0 for m, y in zip(row, de.ravel().tolist())]
        # a float overflow gives inf without an error, so this test reports it
        if not all(map(math.isfinite, gm + dgm)):
            raise ValueError(f"non-finite metric value at {p.coords}")
        dg = zeros.copy()
        dg[at] = dgm
        return gm, dg.reshape(n, n, dim)

    def accel(gj: tuple, vc: np.ndarray) -> np.ndarray:
        gm = gj[0]
        scale = max(1e-300, *map(abs, gm))
        scaled = math.prod([d / scale for d in gm])
        if abs(scaled) <= SINGULAR_REL:
            raise _singular(scaled + 0.0, n)
        gam = _christoffel_from(eye / np.array(gm)[:, None], gj[1])
        return -np.einsum("mab,a,b->m", gam, vc, vc)

    def norm(gj: tuple, vc: np.ndarray) -> float:
        return float(vc @ np.diag(gj[0]) @ vc)

    return metric_jets, accel, norm


def integrate_geodesic(g: GeneralizedMetric, x0, v0, t_max: float,
                       steps: int) -> Trajectory:
    """Integrate the geodesic through (x0, v0) for parameter length t_max.

    On a singular-metric evaluation, an arithmetic error, a complex metric
    value or a non-finite state the run stops and returns the samples
    accumulated so far with status "singular" and the reason as message.
    If the start point itself fails, that one sample is returned with a NaN
    norm.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    dim = g.dim
    if x.shape != (dim,) or v.shape != (dim,):
        raise ValueError(f"state vectors must have shape ({dim},)")

    frame = g.vielbein
    if frame is not None and frame.diagonal:
        metric_jets, accel, norm = _diagonal_stage(frame)
    else:
        metric_jets, accel, norm = _general_stage(g)

    h = t_max / steps
    half, sixth = 0.5 * h, h / 6.0
    # every accepted state is a fresh array, so the samples need no copies
    ts, xs, vs, norms = [0.0], [x], [v], [math.nan]
    status, message = "ok", ""
    # a stage reports a non-finite point or metric and the loop a non-finite
    # state, so numpy's overflow warnings along the way would only repeat that
    with np.errstate(all="ignore"):
        try:
            here = metric_jets(x)  # gamma jets at the last accepted point
            norms[0] = norm(here, v)
            for k in range(steps):
                k1x, k1v = v, accel(here, v)
                k2x = v + half * k1v
                k2v = accel(metric_jets(x + half * k1x), k2x)
                k3x = v + half * k2v
                k3v = accel(metric_jets(x + half * k2x), k3x)
                k4x = v + h * k3v
                k4v = accel(metric_jets(x + h * k3x), k4x)
                x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
                v = v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
                if not all(map(math.isfinite, x.tolist() + v.tolist())):
                    status, message = "singular", "non-finite state"
                    break
                here = metric_jets(x)
                norms.append(norm(here, v))
                ts.append((k + 1) * h)
                xs.append(x)
                vs.append(v)
        except (ArithmeticError, ValueError) as exc:  # SingularMetricError included
            status, message = "singular", str(exc)
    return Trajectory(ts=np.array(ts), xs=np.array(xs), vs=np.array(vs),
                      norms=np.array(norms), status=status, message=message,
                      meta={"steps_requested": steps, "step_size": h})
