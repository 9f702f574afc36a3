"""Geodesic integration for generalized metrics.

Classical fixed-step RK4 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.1)
on the first-order system (x, v) with a^m = -Gamma^m_ab v^a v^b.  The whole
loop is Python source generated and compiled on each call: position,
velocity and k1-k4 stay float locals from one step to the next, and each
accepted state, and the metric there, goes to an array('d') buffer.  A
stage is one order-1 metric pass, then the Christoffel symbols from the
metric's inverse.  On a frame of expressions that are zero off the
diagonal (every library frame, every ``diagonal`` config frame and a
``matrix`` one written so) the loop inlines straight-line float code in
each stage: the pass runs the statements of the diagonal's recorded
order-1 code and forms gamma_m = eta_m e_m^2 and the slots of its gradient
that the frame can make nonzero, and the acceleration guards, forms
1/gamma_m and sums only the Christoffel terms that can be nonzero, with
the exact zeros of the off-diagonal metric folded (``_diagonal_stage``
gives the argument for each).  Any other frame, and a metric given as a
gamma field, takes the general stage (``checked_inverse``, einsum), whose
two functions the same loop calls; both give the same trajectory bit for
bit.
A step costs four passes: the pass at the accepted point gives the next k1
and the metric for that point's velocity norm, and one ``velocity_norm``
call after the loop forms every norm by batched matmul.  On the
Schwarzschild frame a step takes 11-13 us, and writing and compiling the
loop about 4 ms on every call (10 000 steps on a shared 2-vCPU x86-64
Linux VM whose speed drifts).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import field
from itertools import product

import numpy as np

from .exprs import derivative_code
from .geometry import GeneralizedMetric, Vielbein, _christoffel_from, _symmetrized_dg
from .records import record
from .tensors import SINGULAR_REL, Point, _singular, checked_inverse

__all__ = ["Trajectory", "integrate_geodesic", "velocity_norm"]


@record
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


# samples per matmul in velocity_norm: a diagonal's matrices are formed a slice at a time
_NORM_SLICE = 1024


def velocity_norm(gamma, v) -> np.ndarray:
    """gamma_mn v^m v^n over the last axes, by one pair of np.matmul calls
    for each slice of _NORM_SLICE samples along the first axis: gamma of
    shape (..., n, n), or (..., n) for the diagonal of a diagonal metric,
    and v of shape (..., n), with the same leading shape.  Each sample gets
    the bits of its own ``v @ gamma @ v``, a diagonal those of
    ``v @ np.diag(gamma) @ v``, so the slicing does not show in them."""
    gamma, v = np.asarray(gamma, dtype=float), np.asarray(v, dtype=float)
    if v.ndim > 1 and len(v) > _NORM_SLICE:
        return np.concatenate([_norms(gamma[s:s + _NORM_SLICE], v[s:s + _NORM_SLICE])
                               for s in range(0, len(v), _NORM_SLICE)])
    return _norms(gamma, v)


def _norms(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    if gamma.shape == v.shape:  # a diagonal: the matrix np.diag builds, zeros and all
        n = v.shape[-1]
        full = np.zeros(v.shape + (n,))
        full[..., range(n), range(n)] = gamma
        gamma = full
    return (v[..., None, :] @ gamma @ v[..., :, None])[..., 0, 0]


def _loop_source(n: int, metric_pass, accel, sample: str) -> str:
    """The source of ``run(xs, vs, gs, h, steps)``: classical RK4 from the
    state in the array('d') buffers xs and vs, which appends each accepted
    state to them and the metric at the accepted point to gs, with every
    number a float local from one step to the next.

    A stage's code comes from the emitters: ``metric_pass(c, checked)``
    gives the lines of a metric pass at the coordinates named c, which may
    skip their finiteness check when checked is true, ``accel(u, out)``
    those that set the names out to the acceleration from the last pass's
    metric and the velocity named u, and ``sample`` is the line that appends
    that metric to gs.  A stop raises ArithmeticError or ValueError, a
    non-finite state ArithmeticError("non-finite state"); the samples
    accepted before it stay in the buffers."""
    def names(prefix: str) -> list:
        return [f"{prefix}{m}" for m in range(n)]

    def step(out: list, base: list, scale: str, by: list) -> list:
        return [f"{o} = {b} + {scale} * {d}" for o, b, d in zip(out, base, by)]

    x, v, c = names("x"), names("v"), names("_c")
    kx, kv = {1: v}, {1: names("k1v")}  # k1x = v
    body = accel(v, kv[1])
    for j, scale in ((2, "half"), (3, "half"), (4, "h")):
        kx[j], kv[j] = names(f"k{j}x"), names(f"k{j}v")
        body += (step(kx[j], v, scale, kv[j - 1]) + step(c, x, scale, kx[j - 1])
                 + metric_pass(c) + accel(kx[j], kv[j]))
    # every x from the old v, then v
    body += [f"{y} = {y} + sixth * ({k1} + 2.0 * {k2} + 2.0 * {k3} + {k4})"
             for ys, k in ((x, kx), (v, kv)) for y, k1, k2, k3, k4 in zip(ys, *k.values())]
    body += [f"if not ({' and '.join(f'_isfinite({y})' for y in x + v)}):",
             '    raise ArithmeticError("non-finite state")',
             *metric_pass(x, checked=True), sample, f"xs.extend(({', '.join(x)},))",
             f"vs.extend(({', '.join(v)},))"]
    lines = ["def run(xs, vs, gs, h, steps):",
             "    half, sixth = 0.5 * h, h / 6.0",
             f"    ({', '.join(x)},), ({', '.join(v)},) = xs, vs",
             *[f"    {line}" for line in metric_pass(x) + [sample]],
             "    for _ in range(steps):",
             *[f"        {line}" for line in body]]
    return "\n".join(lines) + "\n"


def _general_stage(g: GeneralizedMetric) -> tuple:
    """(scope, metric_pass, accel, sample) for _loop_source: a loop whose
    stages call ``_metric_jets``, the metric's gamma jets, and ``_accel``,
    which inverts gamma with checked_inverse and contracts by einsum."""
    def metric_jets(xc) -> tuple:
        return g.gamma_jets(Point(tuple(xc)), order=1)

    def accel(gj: tuple, vc) -> list:
        gam = _christoffel_from(checked_inverse(gj[0]), _symmetrized_dg(gj[1]))
        out = (-np.einsum("mab,a,b->m", gam, vc, vc)).tolist()
        # past an overflow the two stages differ: the general one's zero terms give NaN
        if not all(map(math.isfinite, out)):
            raise ArithmeticError("non-finite acceleration")
        return out

    return ({"_metric_jets": metric_jets, "_accel": accel, "_isfinite": math.isfinite},
            lambda c, checked=False: [f"_gj = _metric_jets(({', '.join(c)},))"],
            lambda u, out: [f"({', '.join(out)},) = _accel(_gj, [{', '.join(u)}])"],
            "gs.extend(_gj[0].flat)")


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


def _diagonal_stage(diagonal: tuple, signs: tuple) -> tuple:
    """(scope, metric_pass, accel, sample) for _loop_source, for a frame
    with these diagonal expressions (_diagonal) and signature signs: the
    straight-line float code that the loop inlines in each stage, with the
    float operations of a loop over the entries and of the Christoffel sum,
    in the same order.  A pass sets the locals _g{m} = gamma_m and the live
    _h{m n + r} = d_r gamma_m, which ``accel`` reads.

    A metric pass checks the stage point, runs the statements of the
    diagonal's order-1 code (exprs.derivative_code, recorded once for all
    passes) and forms gamma_m = (e_m eta_m) e_m + 0.0 and d_r gamma_m =
    2.0 (e_m eta_m d_r e_m), with ChartField.jets's checks and messages: a
    complex value or gradient stops the stage, before a non-finite one does,
    and an int value (a constant entry) counts as its float, since the signs
    are floats.  The pass at an accepted point skips the point's check,
    which the loop's non-finite state check has just made.

    A slot d_r gamma_l is dead when coordinate r does not occur in entry l
    (CompiledExpression.variables): the chain rule is linear in the unit-row
    entries, so the code's d_r e_l is then +-0 or NaN.  The pass forms only
    the live slots.  For a dead one the finiteness sum reads d_r e_l itself:
    the sum also holds 0.0 * gamma_l, which is finite only where e_l is, so
    2.0 (e_l eta_l d_r e_l) is complex or not finite exactly where d_r e_l
    is, and the sum, which names each number once, ends as the one over
    every slot did.

    ``accel`` guards with checked_inverse's rule on a diagonal matrix.  Of
    the general stage's sum it forms the terms that a diagonal metric can
    make nonzero, with its operations: t = (d_b g_ma + d_a g_mb) - d_m g_ab,
    then 0.5 (g^mm t) v^a v^b, added to 0.0 over (a, b) in einsum's C order.
    A term that reads a dead slot is dropped: with 1/g_mm and the velocity
    finite it is +-0, and adding +-0 to a running sum that starts at 0.0
    (and so never reaches -0.0) leaves its bits unchanged.  The exact zeros
    of the off-diagonal g are folded: off (m, m, m) a term reads one slot,
    so t is that slot, and the term is subtracted where the slot is
    d_m g_ab.  This changes at most the sign of a zero term, which by the
    same argument no bit of the sum shows; at (m, m, m) the term keeps
    (p + p) - p, which overflows where p does not.  Where 1/g_mm or a
    velocity component v^a is not finite, the dense sum's (m, m) term, or
    each row's (a, a) term, is inf or NaN, and ``accel`` raises the error
    that sum ends in.  Schwarzschild forms 5 of the 16 slots and 13 of the
    40 terms, a flat frame none.
    """
    n = len(diagonal)
    code = derivative_code(diagonal)
    # live[l * n + r]: d_r gamma_l can be nonzero, as far as the entry's names tell
    live = [c in e.variables for e in diagonal for c in e.coordinates]

    def join(fmt: str, ks, sep: str = ", ") -> str:
        return sep.join(fmt.format(k) for k in ks)

    g, h = [f"_g{m}" for m in range(n)], [f"_h{k}" for k in range(n * n)]

    def metric_pass(c: list, checked: bool = False) -> list:
        at = f"({', '.join(c)},)"
        lines = [] if checked else [
            f"if not ({join('_isfinite({})', c, ' and ')}):",
            f'    raise ValueError(f"non-finite coordinates: {{{at}}}")']
        lines += [f"_x{i} = {x}" for i, x in enumerate(c)] + list(code.lines)
        if code.values is None:  # the recorded code raises
            return lines
        e, de = code.values, code.grads
        # each name once: a dead slot's d_r e_l is often a local that others share
        summed = dict.fromkeys(g + [h[k] if live[k] else de[k] for k in range(n * n)])
        return lines + [
            *[f"_e{m} = {e[m]} * {float(s)!r}" for m, s in enumerate(signs)],
            *[f"_g{m} = _e{m} * {e[m]} + 0.0" for m in range(n)],
            *[f"_h{k} = 2.0 * (_e{k // n} * {de[k]})" for k in range(n * n) if live[k]],
            "try:",
            "    # a complex entry makes the sum complex, an inf or NaN one NaN",
            f"    _ok = _isfinite({join('0.0 * {}', summed, ' + ')})",
            "except TypeError:",
            f'    raise ValueError(f"complex metric value at {{{at}}}") from None',
            "if not _ok:",
            f'    raise ValueError(f"non-finite metric value at {{{at}}}")',
        ]

    # per m, the terms that the frame can make nonzero: the sign with which
    # the term enters the sum, t with its exact zeros folded, then a and b
    rows = [[] for _ in range(n)]
    for m, a, b in product(range(n), repeat=3):
        if m in (a, b) or a == b:
            # the slot d_b g_ma, d_a g_mb or d_m g_ab that the term reads, or all three
            k = m * n + a + b - m if m in (a, b) else a * n + m
            if live[k]:
                t = f"(({h[k]} + {h[k]}) - {h[k]})" if m == a == b else h[k]
                rows[m].append(("+" if m in (a, b) else "-", t, a, b))

    def accel(u: list, out: list) -> list:
        sums = [" ".join([f"_a{m} = 0.0", *(f"{sign} (0.5 * (_i{m} * {t})) * {u[a]} * {u[b]}"
                                           for sign, t, a, b in row)])
                for m, row in enumerate(rows)]
        guarded = [f"_i{m}" for m in range(n)] + u + [f"_a{m}" for m in range(n)]
        return [
            f"_s = max(1e-300, {join('abs(_g{})', range(n))})",
            f"_p = {join('(_g{} / _s)', range(n), ' * ')}",
            "if abs(_p) <= _SINGULAR_REL:",
            f"    raise _singular(_p + 0.0, {n})",
            *[f"_i{m} = 1.0 / _g{m}" for m in range(n)],
            *sums,
            f"if not ({join('_isfinite({})', guarded, ' and ')}):",
            '    raise ArithmeticError("non-finite acceleration")',
            *[f"{o} = -_a{m}" for m, o in enumerate(out)],
        ]

    scope = {**code.scope(), "_isfinite": math.isfinite, "_singular": _singular,
             "_SINGULAR_REL": SINGULAR_REL}
    return scope, metric_pass, accel, f"gs.extend(({', '.join(g)},))"


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
    diagonal = _diagonal(g.vielbein)
    scope, *emitters = (_general_stage(g) if diagonal is None
                        else _diagonal_stage(diagonal, g.vielbein.signature.signs))
    # a warning raised in the loop is filed under this module
    scope["__name__"] = __name__
    exec(compile(_loop_source(dim, *emitters), "<geodesic loop>", "exec"), scope)
    h = t_max / steps
    xs, vs, gs = array("d", x.tolist()), array("d", v.tolist()), array("d")
    status, message = "ok", ""
    # a stage reports a non-finite point or metric and the loop a non-finite
    # state, so numpy's overflow warnings along the way would only repeat that
    with np.errstate(all="ignore"):
        try:
            scope["run"](xs, vs, gs, h, steps)
        except (ArithmeticError, ValueError) as exc:  # SingularMetricError included
            status, message = "singular", str(exc)
        xs, vs = np.frombuffer(xs).reshape(-1, dim), np.frombuffer(vs).reshape(-1, dim)
        gammas = np.frombuffer(gs).reshape((-1, dim) if diagonal else (-1, dim, dim))
        # every norm in one call; the start's is NaN when its own pass failed
        norms = velocity_norm(gammas, vs) if len(gammas) else np.array([math.nan])
    ts = np.arange(len(xs)) * h
    ts[0] = 0.0  # also where h is negative or not finite
    return Trajectory(ts=ts, xs=xs, vs=vs, norms=norms, status=status, message=message,
                      meta={"steps_requested": steps, "step_size": h})
