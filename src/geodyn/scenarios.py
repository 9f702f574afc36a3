"""Builtin scenarios and the task runner behind the command line.

A scenario is an ordinary configuration dict (schema geodyn-config-v1); the
builtins below double as format documentation.  run_scenario executes every
task in config order, in one thread, and returns a RunReport whose results
and CSV artifacts follow that order, so outputs are deterministic.

CSV artifacts carry no timings and format floats with 17 significant digits,
so a rerun with the same config and seed is byte-identical.  Timings go to
the human-readable report only.
"""

from __future__ import annotations

import math
import time
from dataclasses import field

import numpy as np

from .action import (FieldEquationInput, field_equation_residual,
                     heat_kernel_coefficients, riemannian_limit_action, spectral_action)
from .config import Scenario, build_scenario
from .connection import curvature, gauge_square_report
from .geodesics import integrate_geodesic
from .geometry import frame_curvature_check, frame_geometry
from .records import record
from .tensors import MAX_DIM
from .triples import (check_axioms, fluctuate, fluctuation_space, hermitian_part,
                      inner_fluctuations, unimodular_projection)

__all__ = ["TaskResult", "RunReport", "BUILTIN_SCENARIOS", "builtin_config",
           "run_scenario", "format_csv"]


@record
class TaskResult:
    index: int
    task_type: str
    status: str                  # "pass" or "fail"
    tolerance: float
    worst_residual: float
    columns: tuple
    rows: list                   # list of tuples matching columns
    summary: dict = field(default_factory=dict)
    duration: float = 0.0

    @property
    def csv_name(self) -> str:
        return f"{self.index:02d}-{self.task_type}.csv"


@record
class RunReport:
    name: str
    seed: int
    results: list
    duration: float = 0.0

    def all_passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_text(self) -> str:
        lines = [f"scenario: {self.name}", f"seed: {self.seed}"]
        for r in self.results:
            lines.append(f"task {r.index} [{r.task_type}] {r.status}: "
                         f"worst residual {r.worst_residual:.3e} "
                         f"(tolerance {r.tolerance:.1e}, {r.duration:.2f}s)")
            for key in sorted(r.summary):
                lines.append(f"    {key}: {r.summary[key]}")
        lines.append(f"total wall time: {self.duration:.2f}s")
        lines.append("status: " + ("pass" if self.all_passed() else "fail"))
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def format_csv(result: TaskResult) -> str:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# -- task implementations ---------------------------------------------------------


def _worst(*values) -> float:
    """The largest residual, NaN if any is NaN (Python's max can drop a NaN)."""
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def _note(summary: dict, text: str):
    """Add text to the summary's message."""
    reason = summary.get("message")
    summary["message"] = f"{reason}; {text}" if reason else text


def _run_curvature(scn: Scenario, task: dict, rng: np.random.Generator) -> dict:
    gm = scn.frame.metric()
    expected = task["expected_scalar"]
    rows, worst = [], 0.0
    for p in task["points"]:
        ct = gm.curvature(p)
        ricci_max = float(np.abs(ct.ricci).max())
        res = abs(ct.scalar - expected) if expected is not None else 0.0
        if task["expect_vacuum"]:
            res = _worst(res, ricci_max)
        worst = _worst(worst, res)
        rows.append(tuple(p.coords) + (ct.scalar, ricci_max,
                                       expected if expected is not None else "",
                                       res))
    cols = tuple(scn.coordinates) + ("ricci_scalar", "ricci_max_abs",
                                     "expected_scalar", "residual")
    return {"columns": cols, "rows": rows, "worst": worst,
            "summary": {"points": len(rows)}}


def _run_geodesic(scn: Scenario, task: dict, rng: np.random.Generator) -> dict:
    gm = scn.frame.metric()
    steps, h, orbit = task["steps"], task["step_size"], task["orbit"]
    traj = integrate_geodesic(gm, task["start"], task["velocity"],
                              t_max=steps * h, steps=steps)
    worst = traj.norm_drift if traj.status == "ok" else np.inf
    summary = {"status": traj.status, "norm_drift": traj.norm_drift,
               "steps": steps}
    if traj.status != "ok":
        summary["message"] = traj.message
    if orbit is not None and len(traj.ts) > 1:
        omega_sq_ref = orbit["mass"] / orbit["radius"] ** 3
        dt = traj.xs[-1, 0] - traj.xs[0, 0]
        dphi = traj.xs[-1, 3] - traj.xs[0, 3]
        omega_sq = (dphi / dt) ** 2
        orbit_res = abs(omega_sq - omega_sq_ref) / omega_sq_ref
        summary.update({"omega_sq": omega_sq, "omega_sq_ref": omega_sq_ref,
                        "orbit_rel_residual": orbit_res})
        tol = task["orbit_tolerance"]
        if not orbit_res <= tol:  # NaN misses too
            worst = np.inf
            _note(summary, f"orbit_rel_residual {orbit_res:.3e} misses orbit_tolerance {tol:.1e}")
    stride = max(1, steps // task["csv_samples"])
    rows = [(i, traj.ts[i]) + tuple(traj.xs[i]) + (traj.norms[i],)
            for i in range(0, len(traj.ts), stride)]
    cols = ("step", "t") + tuple(scn.coordinates) + ("velocity_norm",)
    return {"columns": cols, "rows": rows, "worst": worst, "summary": summary}


def _run_action(scn: Scenario, task: dict, rng: np.random.Generator) -> dict:
    m = scn.cutoff
    consts = scn.constants
    if task["form"] == "riemannian-limit":
        rep = riemannian_limit_action(
            scn.connection or scn.frame, scn.region, scn.grid, m,
            n_r=consts["n_r"], n_h=consts["n_h"])
    else:
        # aa_mode picks the source: the connection's blocks or the frame's metric
        source = scn.connection if task["aa_mode"] == "blocks" else scn.frame
        coeffs = heat_kernel_coefficients(source, scn.region, scn.grid)
        rep = spectral_action(m, coeffs, connection=scn.connection)
    # how many grid blocks this task passed itself and how many it read from
    # an earlier task's pass over the same frame
    summary = {"total": rep.total, **rep.constants,
               "curvature_blocks_passed": rep.quadrature["blocks_passed"],
               "curvature_blocks_read": rep.quadrature["blocks_read"],
               **{f"quadrature_error_{term}": err
                  for term, err in rep.quadrature["errors"].items()}}
    # beyond expect_only, the verdict rests on run_scenario's finite-row check
    worst = 0.0
    keep = task["expect_only"]
    if keep is not None:
        worst = _worst(*(abs(v[2]) for k, v in rep.terms.items() if k != keep))
        summary["largest_unexpected_term"] = worst
    rows = [(name,) + tuple(rep.terms[name]) for name in sorted(rep.terms)]
    return {"columns": ("term", "coefficient", "integral", "value"),
            "rows": rows, "worst": worst, "summary": summary}


def _run_field_equations(scn: Scenario, task: dict, rng: np.random.Generator) -> dict:
    consts = scn.constants
    inp = FieldEquationInput(
        scn.connection if task["sm"] else scn.frame.metric(),
        kappa0=task["kappa0"], tau0=task["tau0"],
        f0=consts["f0"], n_r=consts["n_r"], n_h=consts["n_h"])
    rows, worst = [], 0.0
    for p in task["points"]:
        res = field_equation_residual(inp, p)
        fd_var = res.fd_report["full_vs_variational"]
        fd_rr = res.fd_report["rr_frozen_vol"]
        sm_fd = res.sm["fd_vs_algebraic"] if res.sm else 0.0
        worst = _worst(worst, fd_var, fd_rr, sm_fd, res.symmetry_residual)
        rows.append(tuple(p.coords) + (
            fd_rr, fd_var, res.fd_report["full_vs_display"],
            float(np.abs(res.residual_variational).max()),
            float(np.abs(res.residual_display).max()),
            res.symmetry_residual, sm_fd))
    cols = tuple(scn.coordinates) + (
        "fd_rr_frozen_vol", "fd_full_vs_variational", "fd_full_vs_display",
        "residual_variational_max", "residual_display_max",
        "symmetry_residual", "sm_fd_residual")
    if task["expect_zero_residual"]:
        worst = _worst(worst, *(v for r in rows for v in (r[-4], r[-3])))
    return {"columns": cols, "rows": rows, "worst": worst,
            "summary": {"points": len(rows), "sm": bool(res.sm)}}


def _run_axioms(scn: Scenario, task: dict, rng: np.random.Generator) -> dict:
    t = scn.triple
    report = check_axioms(t)
    rows = list(report.items())
    worst = _worst(*(v for _, v in report.residual_items()))
    summary = {"label": t.label, "dim": t.dim,
               "first_order_claimed": t.first_order_claimed}
    if not t.first_order_claimed and report.first_order is not None:
        summary["first_order_unclaimed_residual"] = report.first_order
    if task["fluctuations"] and t.k is not None:
        dim_omega, basis = fluctuation_space(t)
        summary["omega1_dimension"] = dim_omega
        if t.dim in (2,):
            a = rng.standard_normal(2)
            pairs = [(np.diag([a[0], 0]).astype(complex),
                      np.diag([0, a[1]]).astype(complex))]
        else:
            pairs = [(g.astype(complex), h.astype(complex))
                     for g, h in zip(t.algebra_generators,
                                     t.algebra_generators[::-1])]
        fl = inner_fluctuations(t, pairs)
        flucted = fluctuate(t, fl)
        # D + A + JAJ^-1 is Hermitian only where D is
        herm = float(np.abs(flucted.d - flucted.d.conj().T).max())
        rows.append(("fluctuated_dirac_hermitian", herm, t.dirac_hermitian_claimed))
        proj = unimodular_projection(hermitian_part(fl))
        trace_res = abs(complex(np.trace(proj)))
        rows.append(("unimodular_trace", trace_res, True))
        worst = _worst(worst, trace_res, herm if t.dirac_hermitian_claimed else 0.0)
    return {"columns": ("axiom", "residual", "claimed"), "rows": rows,
            "worst": worst, "summary": summary}


def _run_limit_check(scn: Scenario, task: dict, rng: np.random.Generator) -> dict:
    gamma_tol = task["gamma_tolerance"]
    ref = task["reference"]
    rows, worst, gamma_worst = [], 0.0, 0.0
    for p in task["points"]:
        fg = frame_geometry(scn.frame, p)
        spin_route = frame_curvature_check(fg, scn.frame.signature)
        g_res, r_res = 0.0, 0.0
        if ref is not None:
            rc = ref.curvature(p)
            g_res = float(np.abs(fg.gamma - rc.gamma).max())
            r_res = float(np.abs(fg.riemann - rc.riemann).max())
        worst = _worst(worst, spin_route, r_res)
        gamma_worst = _worst(gamma_worst, g_res)
        rows.append(tuple(p.coords) + (g_res, r_res, spin_route))
    cols = tuple(scn.coordinates) + ("gamma_vs_reference",
                                     "riemann_vs_reference",
                                     "spin_route_residual")
    summary = {"points": len(rows), "gamma_tolerance": gamma_tol}
    if not gamma_worst <= gamma_tol:  # NaN misses too
        worst = np.inf
        _note(summary, f"gamma_vs_reference {gamma_worst:.3e} misses "
                       f"gamma_tolerance {gamma_tol:.1e}")
    return {"columns": cols, "rows": rows, "worst": worst, "summary": summary}


def _run_trace_oracle(scn: Scenario, task: dict, rng: np.random.Generator) -> dict:
    rows, worst = [], 0.0
    display_worst = 0.0
    for p in task["points"]:
        f = curvature(scn.connection, p)
        rep = gauge_square_report(f)
        worst = _worst(worst, rep.q_identity_residual, rep.trace_max)
        display_worst = _worst(display_worst, rep.v_display_residual,
                               rep.display_residual)
        rows.append(tuple(p.coords) + (
            float(np.real(rep.s_q)), rep.w_sq, rep.q_identity_residual,
            float(np.real(rep.raw_v)), rep.v_display_residual,
            rep.weighted_total, rep.display_total, rep.display_residual,
            rep.trace_max))
    cols = tuple(scn.coordinates) + (
        "q_trace_scalar", "w_component_square", "q_identity_residual",
        "v_trace_scalar", "v_display_residual", "weighted_total",
        "display_total", "display_residual", "unimodular_trace_max")
    return {"columns": cols, "rows": rows, "worst": worst,
            "summary": {"display_agreement_max": display_worst,
                        "verdict": ("display matches the brute-force traces"
                                    if display_worst < 1e-8 else
                                    "display disagrees; trusting the traces")}}


def _non_finite_column(columns: tuple, rows: list):
    """The column of the first non-finite number in the rows, or None."""
    return next((name for row in rows for name, value in zip(columns, row)
                 if isinstance(value, float) and not math.isfinite(value)), None)


_RUNNERS = {
    "curvature-at-points": _run_curvature,
    "geodesic": _run_geodesic,
    "action": _run_action,
    "field-equations": _run_field_equations,
    "axioms": _run_axioms,
    "limit-check": _run_limit_check,
    "trace-oracle": _run_trace_oracle,
}


def run_scenario(obj: dict, name: str = "custom", seed: int = 0,
                 grid_override: int | None = None) -> RunReport:
    """Build the scenario, then run every task in config order.

    A task whose runner raises ArithmeticError or ValueError fails with an
    infinite worst residual, the error's text as its summary's ``message``,
    and no columns or rows, so no CSV is written for it.  Runners run with
    numpy's floating-point warnings off; a task whose rows hold a non-finite
    number fails, and its ``message`` names the column.

    grid_override sets the grid on every axis before the one parse, so a bad
    value is reported with the other config problems: build_scenario raises
    ConfigError listing all of them.
    """
    chart = obj.get("chart") if isinstance(obj, dict) else None
    dim = chart.get("dimension") if isinstance(chart, dict) else None
    # an invalid dimension is left for the parse to report
    if grid_override is not None and isinstance(dim, int) and 1 <= dim <= MAX_DIM:
        obj = {**obj, "chart": {**chart, "grid": [grid_override] * dim}}
    scn = build_scenario(obj)
    started = time.perf_counter()

    def exec_task(item):
        idx, task = item
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed + idx)
        try:
            # an overflow leaves inf or NaN, which the runner's checks or the
            # row check below turn into a failure with a reason, not a warning
            with np.errstate(all="ignore"):
                out = _RUNNERS[task["type"]](scn, task, rng)
        except (ArithmeticError, ValueError) as exc:  # SingularMetricError included
            # a failed evaluation fails its task, with no table to write
            out = {"columns": (), "rows": [], "worst": np.inf,
                   "summary": {"message": str(exc)}}
        column = _non_finite_column(out["columns"], out["rows"])
        if column is not None:
            _note(out["summary"], f"non-finite value in column {column!r}")
        status = "pass" if out["worst"] <= task["tolerance"] and column is None else "fail"
        return TaskResult(index=idx, task_type=task["type"], status=status,
                          tolerance=task["tolerance"],
                          worst_residual=float(out["worst"]),
                          columns=out["columns"], rows=out["rows"],
                          summary=out["summary"],
                          duration=time.perf_counter() - t0)

    results = [exec_task(it) for it in enumerate(scn.tasks)]
    return RunReport(name=name, seed=seed, results=results,
                     duration=time.perf_counter() - started)


# -- builtin scenarios --------------------------------------------------------------


def _flat_empty() -> dict:
    return {
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 4, "signature": "lorentzian",
                  "box": {"lo": [0, 0, 0, 0], "hi": [1, 1, 1, 1]},
                  "grid": [3, 3, 3, 3],
                  "periodic": [False, False, False, False]},
        "frame": {"builtin": "flat"},
        "cutoff": {"builtin": "sharp-cutoff", "scale_sq": 1.0},
        "tasks": [
            {"type": "curvature-at-points",
             "points": [[0.1, 0.2, 0.3, 0.4], [0.9, 0.5, 0.1, 0.7]],
             "expected_scalar": 0.0, "expect_vacuum": True,
             "tolerance": 1e-12},
            {"type": "action", "form": "riemannian-limit",
             "expect_only": "delta0_volume", "tolerance": 1e-12},
            {"type": "field-equations", "expect_zero_residual": True,
             "points": [[0.5, 0.5, 0.5, 0.5]], "tolerance": 1e-12},
        ],
    }


def _sphere2() -> dict:
    return {
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 2, "signature": "euclidean",
                  "coordinates": ["theta", "phi"],
                  "box": {"lo": [0.05, 0.0],
                          "hi": [3.0915926535897933, 6.283185307179586]},
                  "grid": [33, 17], "periodic": [False, True]},
        "frame": {"builtin": "sphere2", "parameters": {"radius": 1.0}},
        "cutoff": {"builtin": "exponential", "scale_sq": 1.0},
        "tasks": [
            {"type": "curvature-at-points",
             "points": [[0.6, 0.0], [1.0, 1.0], [1.5707963267948966, 2.0],
                        [2.2, 4.0], [2.9, 5.5]],
             "expected_scalar": 2.0, "tolerance": 1e-6},
            {"type": "geodesic",
             "start": [1.5707963267948966, 0.0], "velocity": [0.0, 1.0],
             "steps": 2000, "step_size": 0.005, "tolerance": 1e-6},
            {"type": "limit-check",
             "points": [[0.7, 0.3], [1.2, 2.5], [2.0, 5.0]],
             "reference": {"matrix": [["1", "0"], ["0", "sin(theta)^2"]]},
             "tolerance": 1e-8, "gamma_tolerance": 1e-12},
        ],
    }


def _sm_trace_check() -> dict:
    return {
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 4, "signature": "lorentzian",
                  "coordinates": ["t", "x", "y", "z"],
                  "box": {"lo": [0, 0, 0, 0], "hi": [1, 1, 1, 1]},
                  "grid": [3, 3, 3, 3]},
        "frame": {"builtin": "flat"},
        "gauge": {
            "b": ["0.3*x", "0.1*y^2", "-0.2*t", "0.05*x*z"],
            "w": [["0", "0.2*y", "0", "0"],
                  ["0", "0", "-0.15*t", "0.1*x"],
                  ["0.05*z", "0", "0", "0.1*x^2"]],
            "g": [["0.1*z", "0", "0", "0"], ["0", "0.2*y", "0", "0"],
                  ["0", "0", "0", "0.1*t"], ["0", "0.15*x", "0", "0"],
                  ["0", "0", "0.05*y", "0"], ["0.1*x", "0", "0", "0"],
                  ["0", "0", "-0.1*t*x", "0"], ["0", "0", "0", "0.2*z"]],
            "couplings": {"g1": 0.8, "g2": 1.1, "g3": 1.3},
        },
        "higgs": {"x": "0.4 + 0.1*t", "y": "0.2*x", "c": 0.9, "alpha": 1.0},
        "tasks": [
            {"type": "trace-oracle",
             "points": [[0.3, 0.7, -0.2, 0.5], [0.0, 0.1, 0.2, 0.3],
                        [0.8, -0.4, 0.6, -0.1]],
             "tolerance": 1e-12},
            {"type": "field-equations", "sm": True,
             "points": [[0.3, 0.7, -0.2, 0.5]], "tolerance": 1e-6},
        ],
    }


def _schwarzschild_geodesic() -> dict:
    # circular orbit at r = 6m: u^t = 1/sqrt(1 - 3m/r), u^phi = u^t sqrt(m/r^3)
    ut = 1.4142135623730951
    uphi = 0.09622504486493764
    return {
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 4, "signature": "lorentzian",
                  "coordinates": ["t", "r", "theta", "phi"],
                  "box": {"lo": [0.0, 4.0, 0.5, 0.0],
                          "hi": [10.0, 10.0, 2.6, 6.283185307179586]},
                  "grid": [3, 5, 5, 5]},
        "frame": {"builtin": "schwarzschild", "parameters": {"mass": 1.0}},
        "tasks": [
            {"type": "curvature-at-points",
             "points": [[0.0, 5.0, 1.2, 0.3], [1.0, 7.5, 0.8, 2.0],
                        [2.0, 6.0, 1.5707963267948966, 4.0]],
             "expected_scalar": 0.0, "expect_vacuum": True,
             "tolerance": 1e-6},
            {"type": "geodesic",
             "start": [0.0, 6.0, 1.5707963267948966, 0.0],
             "velocity": [ut, 0.0, 0.0, uphi],
             "steps": 10000, "step_size": 0.01,
             "orbit": {"mass": 1.0, "radius": 6.0},
             "tolerance": 1e-6, "orbit_tolerance": 1e-4},
        ],
    }


def _riemannian_limit() -> dict:
    return {
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 4, "signature": "lorentzian",
                  "coordinates": ["t", "r", "theta", "phi"],
                  "box": {"lo": [0.0, 4.0, 0.6, 0.0],
                          "hi": [1.0, 9.0, 2.5, 6.28]},
                  "grid": [3, 5, 5, 5]},
        "frame": {"builtin": "schwarzschild", "parameters": {"mass": 1.0}},
        "tasks": [
            {"type": "limit-check",
             "points": [[0.0, 5.0, 1.1, 0.3], [0.5, 6.5, 1.9, 2.0],
                        [1.0, 8.0, 0.8, 5.0]],
             "reference": {"matrix": [
                 ["-(1 - 2/r)", "0", "0", "0"],
                 ["0", "1/(1 - 2/r)", "0", "0"],
                 ["0", "0", "r^2", "0"],
                 ["0", "0", "0", "r^2 * sin(theta)^2"]]},
             "tolerance": 1e-8, "gamma_tolerance": 1e-12},
        ],
    }


def _two_point_axioms() -> dict:
    return {
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 2, "signature": "euclidean",
                  "box": {"lo": [0, 0], "hi": [1, 1]}, "grid": [3, 3]},
        "frame": {"builtin": "polar"},
        "finite_triple": {"builtin": "two-point", "parameters": {"m": 1.3}},
        "tasks": [
            {"type": "axioms", "fluctuations": True, "tolerance": 1e-12},
        ],
    }


BUILTIN_SCENARIOS = {
    "flat-empty": _flat_empty,
    "sphere2": _sphere2,
    "sm-trace-check": _sm_trace_check,
    "schwarzschild-geodesic": _schwarzschild_geodesic,
    "riemannian-limit": _riemannian_limit,
    "two-point-axioms": _two_point_axioms,
}


def builtin_config(name: str) -> dict:
    if name not in BUILTIN_SCENARIOS:
        raise KeyError(f"unknown builtin scenario {name!r}; known: "
                       f"{', '.join(sorted(BUILTIN_SCENARIOS))}")
    return BUILTIN_SCENARIOS[name]()
