"""Geodesic integration for generalized metrics.

Classical fixed-step RK4 on the first-order system (x, v) with
a^m = -Gamma^m_ab v^a v^b, the state held as lists of floats.  A stage is
one order-1 jet pass, then the Christoffel symbols from the metric's
inverse.  On a diagonal frame (every library frame and every ``diagonal``
config frame) a stage runs on Python floats alone: the frame's evaluator on
point jets, whose values and tuple gradients (``fields._point_jets``) become
gamma_m = eta_m e_m^2 and its gradient with no array in between, then the
guard, 1/gamma_m and the Christoffel terms a diagonal metric can make
nonzero.  Any other frame, and a metric given as a gamma field, takes the
general stage (``checked_inverse``, einsum); both give the same trajectory
bit for bit.  A step costs four stages: the pass at the accepted point gives
its velocity norm and the next k1.  On the Schwarzschild frame a step takes
103-116 us of CPU on a 2-vCPU x86-64 Linux VM (134-145 us when each pass
went through ``ChartField.jets``), so 1e4 steps take ~1.1 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import jets
from .fields import _point_jets
from .geometry import GeneralizedMetric, Vielbein, _christoffel_from
from .tensors import SINGULAR_REL, Point, _singular, checked_inverse

__all__ = ["Trajectory", "integrate_geodesic", "velocity_norm"]

_FLOAT = {float}


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
    def norm_drift(self) -> float:
        return float(np.abs(self.norms - self.norms[0]).max())


def velocity_norm(g: GeneralizedMetric, x: np.ndarray, v: np.ndarray) -> float:
    gam = g.value(Point(tuple(x)))
    return float(v @ gam @ v)


def _finite(accel: list) -> list:
    # past an overflow the two stages differ: the general one's zero terms give NaN
    if not all(map(math.isfinite, accel)):
        raise ArithmeticError("non-finite acceleration")
    return accel


def _general_stage(g: GeneralizedMetric) -> tuple:
    """(metric_jets, accel, norm) on the metric's gamma jets and checked_inverse."""
    def metric_jets(xc: list) -> tuple:
        return g.gamma_jets(Point(tuple(xc)), order=1)

    def accel(gj: tuple, vc: list) -> list:
        gam = _christoffel_from(checked_inverse(gj[0]), gj[1])
        return _finite((-np.einsum("mab,a,b->m", gam, vc, vc)).tolist())

    def norm(gj: tuple, vc: list) -> float:
        vc = np.array(vc)
        return float(vc @ gj[0] @ vc)

    return metric_jets, accel, norm


def _diagonal_stage(frame: Vielbein) -> tuple:
    """(metric_jets, accel, norm) for a diagonal frame, in Python floats.

    A metric pass checks the stage point, runs the frame's evaluator on
    point jets and reads the entries into the float lists gamma_m and
    d_r gamma_m, with ChartField.jets's checks and messages: a complex value
    or gradient stops the stage, and ints and numpy scalars become floats as
    its stacking makes them.

    The guard is checked_inverse's rule on a diagonal matrix.  Of the general
    stage's sum only the n(3n-2) terms a diagonal metric can make nonzero are
    formed, with its operations: t = (d_b g_ma + d_a g_mb) - d_m g_ab with
    exact zeros in place, then 0.5 (g^mm t) v^a v^b summed over (a, b) in
    einsum's C order.  The rest add exact zeros to a finite result.
    """
    func, shape, n = frame.field.func, frame.field.shape, frame.dim
    signs = frame.signature.signs
    # per m: (a, b) and t's three d_r g_la, dgm[l * n + r] or the zero dgm[-1]
    def at(l, a, r):
        return l * n + r if l == a else n * n
    terms = [[(a, b, at(m, a, b), at(m, b, a), at(a, b, m))
              for a in range(n) for b in range(n) if m in (a, b) or a == b]
             for m in range(n)]

    def metric_jets(xc: list) -> tuple:
        if not all(map(math.isfinite, xc)):
            raise ValueError(f"non-finite coordinates: {tuple(xc)}")
        vals, rows = _point_jets(func(jets.variables(xc, order=1)), shape, n)
        nums = [*vals, *chain.from_iterable(rows)]
        if set(map(type, nums)) != _FLOAT:
            # math.isfinite would take a numpy complex64 for its real part
            if any(map(np.iscomplexobj, nums)):
                raise ValueError(f"complex metric value at {tuple(xc)}")
            vals, rows = [float(x) for x in vals], [[float(y) for y in r] for r in rows]
        gm = [x * s * x + 0.0 for x, s in zip(vals, signs)]
        dgm = [2.0 * (x * s * y) for x, s, row in zip(vals, signs, rows) for y in row]
        # a float overflow gives inf without an error, so this test reports it
        if not all(map(math.isfinite, gm + dgm)):
            raise ValueError(f"non-finite metric value at {tuple(xc)}")
        return gm, dgm + [0.0]

    def accel(gj: tuple, vc: list) -> list:
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
        return _finite(out)

    def norm(gj: tuple, vc: list) -> float:
        vc = np.array(vc)
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
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    dim = g.dim
    if x.shape != (dim,) or v.shape != (dim,):
        raise ValueError(f"state vectors must have shape ({dim},)")
    x, v = x.tolist(), v.tolist()

    frame = g.vielbein
    if frame is not None and frame.diagonal:
        metric_jets, accel, norm = _diagonal_stage(frame)
    else:
        metric_jets, accel, norm = _general_stage(g)

    h = t_max / steps
    half, sixth = 0.5 * h, h / 6.0

    ts, xs, vs, norms = [0.0], x[:], v[:], [math.nan]  # xs, vs flat, sample by sample
    status, message = "ok", ""
    # a stage reports a non-finite point or metric and the loop a non-finite
    # state, so numpy's overflow warnings along the way would only repeat that
    with np.errstate(all="ignore"):
        try:
            here = metric_jets(x)  # gamma jets at the last accepted point
            norms[0] = norm(here, v)
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
                norms.append(norm(here, v))
                ts.append((k + 1) * h)
                xs += x
                vs += v
        except (ArithmeticError, ValueError) as exc:  # SingularMetricError included
            status, message = "singular", str(exc)
    return Trajectory(ts=np.array(ts), xs=np.reshape(xs, (-1, dim)), vs=np.reshape(vs, (-1, dim)),
                      norms=np.array(norms), status=status, message=message,
                      meta={"steps_requested": steps, "step_size": h})
