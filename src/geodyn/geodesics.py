"""Geodesic integration for generalized metrics.

Classical fixed-step RK4 on the first-order system (x, v) with
a^m = -Gamma^m_ab v^a v^b, the state held as lists of floats.  A stage is
one order-1 jet pass, then the Christoffel symbols from the metric's
inverse.  On a frame of expressions that are zero off the diagonal (every
library frame, every ``diagonal`` config frame and a ``matrix`` one written
so) a stage is straight-line float code generated once per run: the pass
turns the lists of the diagonal's order-1 code into gamma_m = eta_m e_m^2
and its gradient with no array in between, and ``accel`` guards, forms
1/gamma_m and sums only the Christoffel terms that the frame can make
nonzero.  Any other frame, and a metric given as a gamma field, takes the
general stage (``checked_inverse``, einsum); both give the same trajectory
bit for bit.
A step costs four stages: the pass at the accepted point gives its
velocity norm and the next k1.  On the Schwarzschild frame, timed with
timeit on a shared 2-vCPU x86-64 Linux VM whose speed drifts, a metric pass
takes 2.3-4.5 us (1-1.7 us of it in the generated order-1 code), one
``accel`` 1.9-4.2 us and the numpy ``norm`` 4.3-9 us; the list
comprehensions and the loop over all 40 terms that the generated code
replaced took 6.3-12 us and 7.2-13.6 us, timed in the same minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exprs import differentiate
from .geometry import GeneralizedMetric, Vielbein, _christoffel_from, _symmetrized_dg
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
    def norm_drift(self) -> float:
        return float(np.abs(self.norms - self.norms[0]).max())


def velocity_norm(gamma: np.ndarray, v) -> float:
    """gamma_mn v^m v^n, the one formula of both stages."""
    v = np.array(v)
    return float(v @ gamma @ v)


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
        gam = _christoffel_from(checked_inverse(gj[0]), _symmetrized_dg(gj[1]))
        return _finite((-np.einsum("mab,a,b->m", gam, vc, vc)).tolist())

    def norm(gj: tuple, vc: list) -> float:
        return velocity_norm(gj[0], vc)

    return metric_jets, accel, norm


def _diagonal(frame: Vielbein | None) -> tuple | None:
    """The diagonal expressions of an expression-built frame whose every
    off-diagonal entry is a structural zero, else None.  A structural zero
    is free of coordinates and its value is a real int or float equal to 0:
    0, 0.0 and -0.0, but not a complex zero such as 0*(-1)^0.5."""
    exprs = None if frame is None else frame.field.expressions
    if exprs is None:
        return None
    n = frame.dim
    for k, e in enumerate(exprs):
        if k % (n + 1) and (e.variables or type(z := e((0.0,) * n)) not in (int, float)
                            or z != 0):
            return None
    return exprs[::n + 1]


def _stage_source(diagonal: tuple, signs: tuple) -> str:
    """The source of ``metric_jets`` and ``accel`` for a frame with these
    diagonal expressions and signature signs, which _diagonal_stage
    describes; it reads the ``_evaluate`` code of the expressions and the
    ``_isfinite``, ``_singular`` and ``_SINGULAR_REL`` names from its globals."""
    n = len(diagonal)
    # live[l * n + r]: d_r gamma_l can be nonzero, as far as the entry's names tell
    live = [c in e.variables for e in diagonal for c in e.coordinates]

    def join(fmt: str, ks, sep: str = ", ") -> str:
        return sep.join(fmt.format(k) for k in ks)

    g, h = [f"_g{m}" for m in range(n)], [f"_h{k}" for k in range(n * n)]
    lines = [
        "def metric_jets(_c):",
        f"    if not ({join('_isfinite(_c[{}])', range(n), ' and ')}):",
        '        raise ValueError(f"non-finite coordinates: {tuple(_c)}")',
        f"    ({join('_v{}', range(n))},), ({join('_y{}', range(n * n))},) = _evaluate(_c)",
        *[f"    _e{m} = _v{m} * {float(s)!r}" for m, s in enumerate(signs)],
        *[f"    _g{m} = _e{m} * _v{m} + 0.0" for m in range(n)],
        *[f"    _h{k} = 2.0 * (_e{k // n} * _y{k})" for k in range(n * n)],
        "    try:",
        "        # a complex entry makes the sum complex, an inf or NaN one NaN",
        f"        _ok = _isfinite({join('0.0 * {}', g + h, ' + ')})",
        "    except TypeError:",
        '        raise ValueError(f"complex metric value at {tuple(_c)}") from None',
        "    if not _ok:",
        '        raise ValueError(f"non-finite metric value at {tuple(_c)}")',
        f"    return [{', '.join(g)}], [{', '.join(h)}, 0.0]",
        "",
        "def accel(_gj, _vc):",
        f"    ({', '.join(g)},), _dgm = _gj",
        f"    _s = max(1e-300, {join('abs(_g{})', range(n))})",
        f"    _p = {join('(_g{} / _s)', range(n), ' * ')}",
        "    if abs(_p) <= _SINGULAR_REL:",
        f"        raise _singular(_p + 0.0, {n})",
        f"    ({join('_u{}', range(n))},) = _vc",
        *[f"    _i{m} = 1.0 / _g{m}" for m in range(n)],
    ]
    sums, read = [], set()
    for m in range(n):
        terms = []
        for a in range(n):
            for b in range(n):
                # the slots of d_b g_ma, d_a g_mb and d_m g_ab; None for an off-diagonal g
                slots = (m * n + b if m == a else None, m * n + a if m == b else None,
                         a * n + m if a == b else None)
                if not any(k is not None and live[k] for k in slots):
                    continue
                i, j, k = ("0.0" if k is None else f"_d{k}" for k in slots)
                read.update(k for k in slots if k is not None)
                terms.append(f"(0.5 * (_i{m} * (({i} + {j}) - {k}))) * _u{a} * _u{b}")
        sums.append(f"    _a{m} = {' + '.join(['0.0', *terms])}")
    guarded = [f"_{x}{m}" for x in "iua" for m in range(n)]
    lines += [f"    _d{k} = _dgm[{k}]" for k in sorted(read)] + sums + [
        f"    if not ({join('_isfinite({})', guarded, ' and ')}):",
        '        raise ArithmeticError("non-finite acceleration")',
        f"    return [{join('-_a{}', range(n))}]",
    ]
    return "\n".join(lines) + "\n"


def _diagonal_stage(diagonal: tuple, signs: tuple) -> tuple:
    """(metric_jets, accel, norm) for a frame with these diagonal expressions
    (_diagonal) and signature signs, in Python floats.

    ``metric_jets`` and ``accel`` are straight-line code that _stage_source
    writes for the frame, once per integrate_geodesic call (1-2 ms to
    compile), with the float operations of a loop over the entries and of
    the Christoffel sum, in the same order.

    A metric pass checks the stage point, runs the diagonal's order-1 code
    (exprs.differentiate) and forms gamma_m = (e_m eta_m) e_m + 0.0 and every
    slot d_r gamma_m = 2.0 (e_m eta_m d_r e_m), with ChartField.jets's checks and
    messages: a complex value or gradient stops the stage, before a
    non-finite one does, and an int value (a constant entry) counts as its
    float, since the signs are floats.

    ``accel`` guards with checked_inverse's rule on a diagonal matrix.  Of
    the general stage's sum it forms the terms that a diagonal metric can
    make nonzero, with its operations:
    t = (d_b g_ma + d_a g_mb) - d_m g_ab with exact zeros for the
    off-diagonal g, then 0.5 (g^mm t) v^a v^b, added to 0.0 over (a, b) in
    einsum's C order.  A term is also dropped when each of its three slots
    is structurally zero: d_r gamma_l where coordinate r does not occur in
    entry l (CompiledExpression.variables).  The chain rule is linear in the
    unit-row entries, so such a slot is +-0 or NaN, and the pass rejects
    NaN.  With 1/g_mm and the velocity finite the dropped term is then +-0,
    and adding +-0 to a running sum that starts at 0.0 (and so never reaches
    -0.0) leaves its bits unchanged, so the result is the dense sum's.  Where
    1/g_mm or a velocity component v^a is not finite, the dense sum's (m, m)
    term, or each row's (a, a) term, is inf or NaN, and ``accel`` raises the
    error that sum ends in.  Schwarzschild forms 13 of the 40 terms, a flat
    frame none.
    """
    names = {"_evaluate": differentiate(diagonal), "_isfinite": math.isfinite,
             "_singular": _singular, "_SINGULAR_REL": SINGULAR_REL}
    exec(compile(_stage_source(diagonal, signs), "<diagonal stage>", "exec"), names)

    def norm(gj: tuple, vc: list) -> float:
        return velocity_norm(np.diag(gj[0]), vc)

    return names["metric_jets"], names["accel"], norm


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

    diagonal = _diagonal(g.vielbein)
    if diagonal is None:
        metric_jets, accel, norm = _general_stage(g)
    else:
        metric_jets, accel, norm = _diagonal_stage(diagonal, g.vielbein.signature.signs)

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
