"""Config schema validation diagnostics and scenario construction."""

import importlib.util
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from geodyn.cli import main
from geodyn.config import (
    MAX_GEODESIC_STEPS,
    MAX_GRID_POINTS,
    SCHEMA_VERSION,
    ConfigError,
    Diagnostic,
    Scenario,
    build_scenario,
    load_config,
    validate_config,
)
from geodyn.exprs import ExpressionError, compile_expression
from geodyn.scenarios import BUILTIN_SCENARIOS, builtin_config, run_scenario
from geodyn.tensors import Point


def _minimal(**overrides):
    obj = {
        "schema": SCHEMA_VERSION,
        "chart": {"dimension": 2, "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
        "frame": {"builtin": "flat", "parameters": {"dim": 2}},
        "tasks": [{"type": "curvature-at-points"}],
    }
    obj.update(overrides)
    return obj


def _paths(diags):
    return {d.path for d in diags}


def test_minimal_config_is_valid_and_builds():
    obj = _minimal()
    assert validate_config(obj) == []
    scn = build_scenario(obj)
    assert scn.dim == 2
    assert scn.grid.shape == (5, 5)
    assert scn.region.hi == (1.0, 1.0)
    assert scn.connection is None and scn.triple is None


def test_builtin_scenarios_all_validate():
    assert len(BUILTIN_SCENARIOS) == 6
    for name in BUILTIN_SCENARIOS:
        obj = builtin_config(name)
        diags = validate_config(obj)
        assert diags == [], f"{name}: {[str(d) for d in diags]}"
        build_scenario(obj)
    with pytest.raises(KeyError):
        builtin_config("no-such-scenario")


def test_schema_and_unknown_sections():
    diags = validate_config(_minimal(schema="v0", extra={}))
    assert {"schema", "extra"} <= _paths(diags)
    assert validate_config([1, 2]) [0].path == "<root>"
    assert str(Diagnostic("a.b", "msg")) == "a.b: msg"


def test_chart_diagnostics():
    obj = _minimal()
    obj["chart"] = {"dimension": 0, "box": {"lo": [0.0], "hi": [0.0]}}
    assert "chart.dimension" in _paths(validate_config(obj))

    obj = _minimal()
    obj["chart"]["coordinates"] = ["x", "x"]
    assert "chart.coordinates" in _paths(validate_config(obj))

    obj = _minimal()
    obj["chart"]["box"] = {"lo": [0.0, 0.0], "hi": [1.0, 0.0]}
    assert "chart.box" in _paths(validate_config(obj))

    obj = _minimal()
    obj["chart"]["grid"] = [9, 1]
    obj["chart"]["periodic"] = [True]
    got = _paths(validate_config(obj))
    assert {"chart.grid", "chart.periodic"} <= got


def test_frame_diagnostics():
    obj = _minimal()
    obj["frame"] = {"diagonal": ["1", "1"], "matrix": [["1", "0"], ["0", "1"]]}
    assert "frame" in _paths(validate_config(obj))

    obj = _minimal()
    obj["frame"] = {"builtin": "torus7"}
    assert "frame.builtin" in _paths(validate_config(obj))

    # builtin whose dimension disagrees with the chart
    obj = _minimal()
    obj["frame"] = {"builtin": "sphere2"}
    obj["chart"]["dimension"] = 4
    obj["chart"]["box"] = {"lo": [0.0] * 4, "hi": [1.0] * 4}
    assert "frame.builtin" in _paths(validate_config(obj))

    obj = _minimal()
    obj["frame"] = {"builtin": "flat", "parameters": {"dim": 2, "twist": 1}}
    assert "frame.parameters.twist" in _paths(validate_config(obj))

    obj = _minimal()
    obj["frame"] = {"diagonal": ["1", "x0 +"]}
    got = validate_config(obj)
    assert any(d.path.startswith("frame.diagonal") for d in got)


@pytest.mark.parametrize("entry, offset", [("1 + 1e999*x0", 4),
                                           ("1 + (1e308*1e308 - 1e308*1e308)*x0", 5)])
def test_non_finite_constant_is_a_diagnostic(entry, offset, tmp_path, capsys):
    # each once validated, then failed the run with "matrix has a NaN or inf entry"
    obj = _minimal(frame={"diagonal": [entry, "1"]})
    diags = validate_config(obj)
    assert [d.path for d in diags] == ["frame.diagonal[0]"]
    assert f"evaluates to inf at offset {offset}" in diags[0].message
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("frame.diagonal[0]: ")


def test_gauge_diagnostics():
    obj = _minimal(gauge={"w": [["0", "0"]] * 3})
    got = _paths(validate_config(obj))
    assert "gauge.couplings.g2" in got

    obj = _minimal(gauge={"couplings": {"g1": -1.0}, "b": ["0", "0"]})
    assert "gauge.couplings.g1" in _paths(validate_config(obj))

    obj = _minimal(gauge={"couplings": {"g3": 1.0}, "g": [["0", "0"]] * 7})
    assert "gauge.g" in _paths(validate_config(obj))

    obj = _minimal(gauge={"couplings": {}})
    assert "gauge" in _paths(validate_config(obj))


def test_higgs_and_constants_diagnostics():
    obj = _minimal(higgs={"y": "x0", "alpha": 0})
    got = _paths(validate_config(obj))
    assert {"higgs.x", "higgs.alpha"} <= got

    obj = _minimal(constants={"n_r": 0, "weird": 1.0, "f0": "a"})
    got = _paths(validate_config(obj))
    assert {"constants.n_r", "constants.weird", "constants.f0"} <= got


def test_triple_diagnostics():
    obj = _minimal(finite_triple={"builtin": "three-point"})
    assert "finite_triple.builtin" in _paths(validate_config(obj))

    obj = _minimal(finite_triple={"dim": 2})
    got = _paths(validate_config(obj))
    assert {"finite_triple.dirac", "finite_triple.generators"} <= got

    obj = _minimal(finite_triple={
        "dim": 2,
        "dirac": [["0", "1"], ["1", "0"]],
        "generators": [[["1", "0"], ["0", "1"]]],
        "epsilon_signs": [1, 2, 1],
    })
    assert "finite_triple.epsilon_signs" in _paths(validate_config(obj))

    obj = _minimal(finite_triple={
        "builtin": "lepton-sector",
        "parameters": {"k_e": [["1"]]},
    })
    assert "finite_triple.parameters.k_e" in _paths(validate_config(obj))


def test_cutoff_diagnostics():
    obj = _minimal(cutoff={})
    assert "cutoff" in _paths(validate_config(obj))

    obj = _minimal(cutoff={"builtin": "window"})
    assert "cutoff.builtin" in _paths(validate_config(obj))

    obj = _minimal(cutoff={"table": {"u": [1.0, 0.5], "f": [1.0, 0.0]}})
    assert "cutoff.table.u" in _paths(validate_config(obj))

    # the profile lives on [0, inf); a table reaching below 0 is no profile
    obj = _minimal(cutoff={"table": {"u": [-1.0, 1.0], "f": [1.0, 0.0]}})
    assert "cutoff.table.u" in _paths(validate_config(obj))

    # a cutoff profile is nonnegative
    obj = _minimal(cutoff={"table": {"u": [0.0, 1.0], "f": [-1.0, 0.0]}})
    assert "cutoff.table.f" in _paths(validate_config(obj))

    obj = _minimal(cutoff={"builtin": "gaussian", "scale_sq": -2.0})
    assert "cutoff.scale_sq" in _paths(validate_config(obj))


def test_overflowing_table_moments_are_a_diagnostic():
    # every entry is a finite float, but M4 ~ 1e600 and M2 ~ 1e400 are not
    obj = _minimal(cutoff={"table": {"u": [0.0, 1e200], "f": [1e200, 1e200]}})
    diags = validate_config(obj)
    assert [d.path for d in diags] == ["cutoff.table"]
    assert "not finite" in diags[0].message


def test_task_diagnostics():
    obj = _minimal(tasks=[])
    assert "tasks" in _paths(validate_config(obj))

    obj = _minimal(tasks=[{"type": "resonance"}])
    assert "tasks[0].type" in _paths(validate_config(obj))

    obj = _minimal(tasks=[{"type": "geodesic", "velocity": [1.0, 0.0],
                           "steps": 0}])
    got = _paths(validate_config(obj))
    assert {"tasks[0].start", "tasks[0].steps"} <= got

    obj = _minimal(tasks=[{"type": "curvature-at-points", "points": [[0.1]]}])
    assert "tasks[0].points[0]" in _paths(validate_config(obj))

    obj = _minimal(tasks=[{"type": "action"}])
    assert "tasks[0]" in _paths(validate_config(obj))

    obj = _minimal(tasks=[{"type": "axioms"}])
    assert "tasks[0]" in _paths(validate_config(obj))

    obj = _minimal(tasks=[{"type": "trace-oracle"}])
    assert "tasks[0]" in _paths(validate_config(obj))

    ok = _minimal(cutoff={"builtin": "exponential"},
                  tasks=[{"type": "action", "aa_mode": "metric"}])
    assert validate_config(ok) == []


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_minimal()), encoding="utf-8")
    obj, diags = load_config(str(path))
    assert diags == [] and obj["schema"] == SCHEMA_VERSION

    missing, diags = load_config(str(tmp_path / "nope.json"))
    assert missing is None and diags and diags[0].path == "<file>"

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    obj, diags = load_config(str(bad))
    assert obj is None and "line 1" in diags[0].message


def test_build_scenario_with_expressions():
    obj = {
        "schema": SCHEMA_VERSION,
        "chart": {"dimension": 2, "coordinates": ["th", "ph"],
                  "box": {"lo": [0.2, 0.0], "hi": [2.9, 6.2]}},
        "frame": {"diagonal": ["1", "sin(th)"]},
        "gauge": {"couplings": {"g1": 0.5}, "b": ["th", "0"]},
        "higgs": {"x": "th/10", "y": "0", "c": 0.8},
        "finite_triple": {"builtin": "two-point", "parameters": {"m": 1.5}},
        "constants": {"f0": 4.0},
        "tasks": [{"type": "curvature-at-points"}],
    }
    assert validate_config(obj) == []
    scn = build_scenario(obj)
    gamma = scn.frame.metric().value(Point((0.7, 0.3)))
    assert abs(gamma[1, 1] - np.sin(0.7) ** 2) < 1e-14
    assert abs(gamma[0, 0] - 1.0) < 1e-15
    assert scn.connection is not None
    assert scn.triple is not None and scn.triple.dim == 2
    assert scn.constants["f0"] == 4.0


# -- constructor errors are diagnostics, and run exits 2 on them ------------------


def _flat_empty(**sections):
    obj = builtin_config("flat-empty")
    obj.update(sections)
    return obj


def _with_scale_sq(value):
    obj = builtin_config("flat-empty")
    obj["cutoff"]["scale_sq"] = value
    return obj


def _sphere2_reference(matrix):
    obj = builtin_config("sphere2")
    obj["tasks"][2]["reference"]["matrix"] = matrix
    return obj


def _with_task_entry(name, index, **entries):
    obj = builtin_config(name)
    obj["tasks"][index].update(entries)
    return obj


def _with_section_entry(name, section, **entries):
    obj = builtin_config(name)
    obj[section].update(entries)
    return obj


def _inline_two_point(**entries):
    """two-point-axioms with its triple written out inline."""
    obj = builtin_config("two-point-axioms")
    obj["finite_triple"] = {"dim": 2, "dirac": [[0, 1.3], [1.3, 0]],
                            "grading": [[1, 0], [0, -1]],
                            "real_structure": [[0, 1], [1, 0]],
                            "generators": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                            "epsilon_signs": [1, 1, -1], **entries}
    return obj


def _short_orbit(**entries):
    """200 steps of the builtin orbit with u^phi = 0.3: not a circular orbit."""
    obj = builtin_config("schwarzschild-geodesic")
    task = {**obj["tasks"][1], "steps": 200, **entries}
    task["velocity"] = task["velocity"][:3] + [0.3]
    obj["tasks"] = [task]
    return obj


def _flat2_limit_check(gamma_tolerance):
    """A Euclidean flat frame against the reference metric 2I: wrong gamma."""
    return {"schema": SCHEMA_VERSION,
            "chart": {"dimension": 2, "signature": "euclidean",
                      "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
            "frame": {"builtin": "flat", "parameters": {"dim": 2, "signature": "euclidean"}},
            "tasks": [{"type": "limit-check",
                       "reference": {"matrix": [["2", "0"], ["0", "2"]]},
                       "gamma_tolerance": gamma_tolerance}]}


def _odd_action(dim, sm=False, **task):
    """An action task on a flat Euclidean chart of dimension dim, with gauge
    and Higgs sections if sm."""
    obj = {"schema": SCHEMA_VERSION,
           "chart": {"dimension": dim, "signature": "euclidean",
                     "box": {"lo": [0.0] * dim, "hi": [1.0] * dim}, "grid": [3] * dim},
           "frame": {"builtin": "flat", "parameters": {"dim": dim, "signature": "euclidean"}},
           "cutoff": {"builtin": "exponential"},
           "tasks": [{"type": "action", **task}]}
    if sm:
        obj["gauge"] = {"couplings": {"g1": 0.5}, "b": ["x0"] + ["0"] * (dim - 1)}
        obj["higgs"] = {"x": "0.1*x0", "y": "0"}
    return obj


# each of these once passed validate and then crashed or misran `geodyn run`
# (chart-dimension-a-boolean crashed validate itself)
BUILD_ERRORS = {
    "schwarzschild-negative-mass": (
        lambda: _flat_empty(frame={"builtin": "schwarzschild",
                                   "parameters": {"mass": -1}}),
        "frame.parameters"),
    "flat-unknown-signature": (
        lambda: _flat_empty(frame={"builtin": "flat",
                                   "parameters": {"signature": "bogus"}}),
        "frame.parameters"),
    "flat-float-dim": (
        lambda: _flat_empty(frame={"builtin": "flat", "parameters": {"dim": 4.0}}),
        "frame.parameters"),
    "negative-alpha": (lambda: _flat_empty(higgs={"x": "0", "y": "0", "alpha": -1}),
                       "higgs.alpha"),
    "scale-sq-nan": (lambda: _with_scale_sq(float("nan")), "cutoff.scale_sq"),
    "scale-sq-infinity": (lambda: _with_scale_sq(float("inf")), "cutoff.scale_sq"),
    "scale-sq-beyond-float": (lambda: _with_scale_sq(10 ** 400), "cutoff.scale_sq"),
    "limit-check-unknown-function": (
        lambda: _sphere2_reference([["1", "0"], ["0", "bogus(theta)"]]),
        "tasks[2].reference.matrix[1][1]"),
    "limit-check-reference-1x1": (lambda: _sphere2_reference([["1"]]),
                                  "tasks[2].reference.matrix"),
    "limit-check-reference-not-an-object": (
        lambda: {**builtin_config("sphere2"),
                 "tasks": [{"type": "limit-check", "reference": None}]},
        "tasks[0].reference"),
    "tolerance-not-a-number": (lambda: _with_task_entry("sm-trace-check", 0,
                                                        tolerance="abc"),
                               "tasks[0].tolerance"),
    "sigma-sq-not-a-number": (
        lambda: _flat_empty(tasks=[{"type": "action", "form": "spectral",
                                    "sigma_sq": "x"}]),
        "tasks[0].sigma_sq"),
    "orbit-radius-missing": (lambda: _with_task_entry("schwarzschild-geodesic", 1,
                                                      orbit={"mass": 1.0}),
                             "tasks[1].orbit.radius"),
    "orbit-radius-zero": (lambda: _with_task_entry("schwarzschild-geodesic", 1,
                                                   orbit={"mass": 1.0, "radius": 0}),
                          "tasks[1].orbit.radius"),
    "csv-samples-zero": (lambda: _with_task_entry("schwarzschild-geodesic", 1,
                                                  csv_samples=0),
                         "tasks[1].csv_samples"),
    "orbit-not-an-object": (lambda: _with_task_entry("schwarzschild-geodesic", 1,
                                                     orbit=[1.0, 6.0]),
                            "tasks[1].orbit"),
    # a negative mass or tolerance flipped the sign of the scaled residual, so
    # these wrong orbits and metrics passed; zero divided by zero at run time
    "orbit-mass-negative": (lambda: _short_orbit(orbit={"mass": -1.0, "radius": 6.0}),
                            "tasks[0].orbit.mass"),
    "orbit-tolerance-negative": (lambda: _short_orbit(orbit_tolerance=-1e-4),
                                 "tasks[0].orbit_tolerance"),
    "orbit-tolerance-zero": (lambda: _short_orbit(orbit_tolerance=0),
                             "tasks[0].orbit_tolerance"),
    "gamma-tolerance-negative": (lambda: _flat2_limit_check(-1e-12),
                                 "tasks[0].gamma_tolerance"),
    "gamma-tolerance-zero": (lambda: _flat2_limit_check(0), "tasks[0].gamma_tolerance"),
    # the orbit reads t and phi as coordinates 0 and 3 (an IndexError in 2-D)
    "orbit-on-a-2d-chart": (lambda: _with_task_entry("sphere2", 1,
                                                     orbit={"mass": 1.0, "radius": 6.0}),
                            "tasks[1].orbit"),
    "chart-signature-differs-from-builtin-frame": (
        lambda: {**builtin_config("sphere2"),
                 "chart": {**builtin_config("sphere2")["chart"],
                           "signature": "lorentzian"}},
        "chart.signature"),
    "form-misspelt": (lambda: _with_task_entry("flat-empty", 1, form="riemanian-limit"),
                      "tasks[1].form"),
    "tolerance-misspelt": (lambda: _with_task_entry("sphere2", 0, tolerence=1e-30),
                           "tasks[0].tolerence"),
    "fluctuations-a-string": (lambda: _with_task_entry("two-point-axioms", 0,
                                                       fluctuations="false"),
                              "tasks[0].fluctuations"),
    "expect-vacuum-a-string": (lambda: _with_task_entry("flat-empty", 0,
                                                        expect_vacuum="no"),
                               "tasks[0].expect_vacuum"),
    **{f"constant-{name}-unread": (lambda name=name: _flat_empty(constants={name: 3.0}),
                                   f"constants.{name}")
       for name in ("n_b", "n_w", "n_g", "f4")},
    "cutoff-scale-for-scale-sq": (
        lambda: _flat_empty(cutoff={"builtin": "exponential", "scale": 4.0}),
        "cutoff.scale"),
    "chart-grids-misspelt": (
        lambda: _with_section_entry("flat-empty", "chart", grids=[9, 9, 9, 9]),
        "chart.grids"),
    "chart-periodic-misspelt": (
        lambda: _with_section_entry("flat-empty", "chart", periodc=[True] * 4),
        "chart.periodc"),
    "frame-parameters-misspelt": (
        lambda: _flat_empty(frame={"builtin": "flat",
                                   "paramters": {"signature": "euclidean"}}),
        "frame.paramters"),
    "parameters-of-a-diagonal-frame": (
        lambda: _flat_empty(frame={"diagonal": ["1"] * 4, "parameters": {"radius": 2.0}}),
        "frame.parameters"),
    "gauge-field-capitalised": (
        lambda: _flat_empty(gauge={"b": ["0"] * 4, "B": ["x0"] * 4,
                                   "couplings": {"g1": 1.0}}),
        "gauge.B"),
    "gauge-coupling-g4": (
        lambda: _flat_empty(gauge={"b": ["0"] * 4, "couplings": {"g1": 1.0, "g4": 2.0}}),
        "gauge.couplings.g4"),
    "higgs-alpha-misspelt": (
        lambda: _flat_empty(higgs={"x": "0", "y": "0", "alpah": 2.0}),
        "higgs.alpah"),
    "two-point-mass-for-m": (
        lambda: _with_section_entry("two-point-axioms", "finite_triple",
                                    parameters={"mass": 2.0}),
        "finite_triple.parameters.mass"),
    "builtin-triple-dim": (
        lambda: _with_section_entry("two-point-axioms", "finite_triple", dim=2),
        "finite_triple.dim"),
    "inline-first-order-claimed-a-string": (
        lambda: _inline_two_point(first_order_claimed="false"),
        "finite_triple.first_order_claimed"),
    "inline-label-a-number": (lambda: _inline_two_point(label=5), "finite_triple.label"),
    "sphere2-radius-a-boolean": (
        lambda: _with_section_entry("sphere2", "frame", parameters={"radius": True}),
        "frame.parameters.radius"),
    # a bool is an int to Python, but not a NUMBER of the expression grammar
    "diagonal-entry-true": (
        lambda: {**builtin_config("sphere2"), "frame": {"diagonal": ["True", "sin(theta)"]}},
        "frame.diagonal[0]"),
    # sigma^2 of metric mode needs the Clifford algebra of an even dimension
    "metric-action-on-dimension-1": (lambda: _odd_action(1), "tasks[0]"),
    "metric-action-on-dimension-3": (lambda: _odd_action(3), "tasks[0]"),
    "chart-dimension-a-boolean": (
        lambda: {"schema": SCHEMA_VERSION,
                 "chart": {"dimension": True, "box": {"lo": [0.0], "hi": [1.0]}},
                 "frame": {"diagonal": ["1"]},
                 "tasks": [{"type": "curvature-at-points"}]},
        "chart.dimension"),
}


@pytest.mark.parametrize("case", sorted(BUILD_ERRORS))
def test_constructor_errors_are_diagnostics(case, tmp_path, capsys):
    make, path = BUILD_ERRORS[case]
    obj = make()
    assert path in _paths(validate_config(obj))
    with pytest.raises(ConfigError) as err:
        build_scenario(obj)
    assert path in _paths(err.value.diagnostics)

    cfg = tmp_path / "cfg.json"
    # json.dumps writes the NaN and Infinity literals that json.loads reads
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    # in process, so an escaping exception would fail the test instead
    assert main(["validate", str(cfg)]) == 2
    printed = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"{path}: ") for line in printed)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"{path}: ")
    assert not (tmp_path / "out").exists()


def test_odd_dimension_metric_action_is_a_diagnostic():
    for dim in (1, 3):
        diags = validate_config(_odd_action(dim))
        assert [(d.path, d.message) for d in diags] == [
            ("tasks[0]", f"metric mode needs an even chart dimension, got {dim}")]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("task", [{"form": "riemannian-limit"},
                                  {"form": "riemannian-limit", "sm": True},
                                  {"aa_mode": "blocks", "sm": True}])
def test_other_action_forms_run_on_odd_dimensions(dim, task):
    obj = _odd_action(dim, **task)
    assert validate_config(obj) == []
    assert [r.status for r in run_scenario(obj).results] == ["pass"]


def test_the_wrong_orbit_and_metric_fail_at_positive_tolerances():
    # the configs whose negative tolerances BUILD_ERRORS rejects
    result = run_scenario(_short_orbit()).results[0]
    assert result.status == "fail"
    assert abs(result.summary["orbit_rel_residual"] - 7.79) < 0.01
    result = run_scenario(_flat2_limit_check(1e-12)).results[0]
    assert result.status == "fail"
    assert result.rows[0][2] == 1.0  # gamma_vs_reference


def test_chart_signature_defaults_to_the_builtin_frame():
    obj = builtin_config("flat-empty")
    del obj["chart"]["signature"]
    assert build_scenario(obj).frame.signature.signs == (-1, 1, 1, 1)
    obj["frame"]["parameters"] = {"signature": "euclidean"}
    assert build_scenario(obj).frame.signature.signs == (1, 1, 1, 1)
    obj["chart"]["signature"] = "lorentzian"
    assert "chart.signature" in _paths(validate_config(obj))


def test_limit_check_reference_is_built_once_in_the_parse():
    obj = builtin_config("sphere2")
    obj["tasks"].append({"type": "limit-check"})
    scn = build_scenario(obj)
    gamma = scn.tasks[2]["reference"].value(Point((0.7, 0.3)))
    assert abs(gamma[1, 1] - np.sin(0.7) ** 2) < 1e-15
    assert scn.tasks[3]["reference"] is None
    assert build_scenario(builtin_config("riemannian-limit")).tasks[0]["reference"].dim == 4


def test_every_task_entry_and_constant_has_its_default():
    obj = _minimal(gauge={"couplings": {"g1": 0.5}, "b": ["x0", "0"]},
                   higgs={"x": "0", "y": "0"},
                   finite_triple={"builtin": "two-point"},
                   cutoff={"builtin": "exponential"},
                   tasks=[{"type": "curvature-at-points"},
                          {"type": "geodesic", "start": [0.5, 0.5], "velocity": [1, 0]},
                          {"type": "action"}, {"type": "field-equations"},
                          {"type": "axioms"}, {"type": "limit-check"},
                          {"type": "trace-oracle"}])
    scn = build_scenario(obj)
    mid = (Point((0.5, 0.5)),)
    assert scn.tasks == [
        {"type": "curvature-at-points", "tolerance": 1e-6, "points": mid,
         "expected_scalar": None, "expect_vacuum": False},
        {"type": "geodesic", "tolerance": 1e-6, "start": (0.5, 0.5),
         "velocity": (1.0, 0.0), "steps": 1000, "step_size": 0.01,
         "csv_samples": 100, "orbit": None, "orbit_tolerance": 1e-4},
        {"type": "action", "tolerance": 1e-10, "form": "spectral",
         "aa_mode": "metric", "expect_only": None},
        {"type": "field-equations", "tolerance": 1e-6, "points": mid, "sm": False,
         "kappa0": 1.0, "tau0": 0.0, "expect_zero_residual": False},
        {"type": "axioms", "tolerance": 1e-12, "fluctuations": True},
        {"type": "limit-check", "tolerance": 1e-8, "gamma_tolerance": 1e-12,
         "points": mid, "reference": None},
        {"type": "trace-oracle", "tolerance": 1e-12, "points": mid},
    ]
    assert scn.constants == {"n_r": 1.0, "n_h": 1.0, "f0": 1.0}
    assert all(type(v) is float for v in scn.tasks[1]["start"] + scn.tasks[1]["velocity"])


def test_benchmark_workload_configs_validate():
    # the benchmark's configs must never become diagnostics
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bad = {}
    for name, (_, variants) in workloads.WORKLOADS.items():
        for size in workloads.SIZES:
            for seed in range(variants):
                diags = validate_config(workloads.generate(name, seed, size))
                if diags:
                    bad[f"{name}/{seed}/{size}"] = [str(d) for d in diags]
    assert bad == {}


def test_grid_override_below_two_is_a_diagnostic(tmp_path, capsys):
    obj = builtin_config("flat-empty")
    obj["chart"]["grid"] = [1, 1, 1, 1]
    assert "chart.grid" in _paths(validate_config(obj))
    assert main(["run", "flat-empty", "--grid", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("chart.grid: ")


def test_size_caps_are_diagnostics():
    # parsed only: a config over a cap is never run
    obj = _with_section_entry("flat-empty", "chart", grid=[10 ** 5] * 4)
    assert "chart.grid" in _paths(validate_config(obj))
    obj["chart"]["grid"] = [10, 100, 100, 10]
    assert math.prod(obj["chart"]["grid"]) == MAX_GRID_POINTS
    assert validate_config(obj) == []

    obj = _with_task_entry("schwarzschild-geodesic", 1, steps=10 ** 12)
    with pytest.raises(ConfigError) as err:
        build_scenario(obj)
    assert "tasks[1].steps" in _paths(err.value.diagnostics)
    obj["tasks"][1]["steps"] = MAX_GEODESIC_STEPS
    assert validate_config(obj) == []


# -- validate and build are one parse ------------------------------------------------

_WORDS = ["", "x0", "x1", "1/x0", "x0 +", "sin(x1)", "bogus", "flat", "sphere2",
          "schwarzschild", "euclidean", "lorentzian", "gaussian", "two-point",
          "sm-yukawa", "metric", "blocks", "geodesic"]
_KEYS = ["re", "im", "lo", "hi", "builtin", "parameters", "x", "y", "u", "f",
         "dim", "mass", "signature", "type", "radius"]
# the numeric entries each task type reads, and values that are not numbers
_NUMERIC_TASK_ENTRIES = {
    "curvature-at-points": ["tolerance", "expected_scalar"],
    "geodesic": ["tolerance", "orbit_tolerance", "orbit"],
    "action": ["tolerance"],
    "field-equations": ["tolerance", "kappa0", "tau0"],
    "axioms": ["tolerance"],
    "limit-check": ["tolerance", "gamma_tolerance"],
    "trace-oracle": ["tolerance"],
}
_NON_NUMBERS = st.sampled_from(["abc", "1e-6", None, True, [1.0], {"mass": "x"},
                                {"mass": 1.0, "radius": "6"}, {"radius": 0}])
# the boolean and choice entries each task type reads, values of the wrong
# kind for them, and misspellings of entry names
_FLAG_TASK_ENTRIES = {
    "curvature-at-points": ["expect_vacuum"],
    "geodesic": [],
    "action": ["form", "aa_mode"],
    "field-equations": ["sm", "expect_zero_residual"],
    "axioms": ["fluctuations"],
    "limit-check": [],
    "trace-oracle": [],
}
_WRONG_KINDS = st.sampled_from(["false", "no", "true", 0, 1, None, 1.0, ["blocks"],
                                "riemanian-limit", "Metric", "spectral "])
_MISSPELT = st.sampled_from(["tolerence", "point", "orbit_tolerence", "fluctuation",
                             "expect_vaccum", "aa-mode", "gama_tolerance", "Form",
                             "sigma", "step", "csv_sample", "expected-scalar"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(-3.0, 3.0)
    | st.sampled_from(_WORDS),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3)),
    max_leaves=8)


def _addresses(value, prefix=()):
    """The key path of every entry nested inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    out = []
    for key, item in items:
        out.append(prefix + (key,))
        out.extend(_addresses(item, prefix + (key,)))
    return out


def _owner(obj, address):
    """The dict or list that holds the entry at address."""
    for key in address[:-1]:
        obj = obj[key]
    return obj


# tokens of expression strings over the builtins' coordinate names
_TOKENS = ["x0", "x1", "t", "r", "theta", "phi", "x", "y", "z", "0", "1", "2.5",
           "1e308", "+", "-", "*", "/", "^", "**", "(", ")", "sin(", "sqrt(", "log(",
           "exp(", "arctan(", "pi", " ", "bogus(", ",", ".", "e"]
_EXPRESSIONS = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=8).map("".join)


def _is_expression_entry(obj, address):
    """A string in the frame, gauge or Higgs section or a limit-check reference."""
    return ((address[0] in ("frame", "gauge", "higgs") or "reference" in address)
            and isinstance(_owner(obj, address)[address[-1]], str))


@st.composite
def _mutated_builtins(draw):
    """A builtin config with one to three entries replaced or deleted,
    perhaps a numeric task entry set to a non-number, and perhaps an
    expression entry or the whole frame made of random expressions."""
    obj = builtin_config(draw(st.sampled_from(sorted(BUILTIN_SCENARIOS))))
    for _ in range(draw(st.integers(1, 3))):
        address = draw(st.sampled_from(_addresses(obj)))
        owner = _owner(obj, address)
        if isinstance(owner, dict) and draw(st.booleans()):
            del owner[address[-1]]
        else:
            owner[address[-1]] = draw(_JSON)
    tasks = obj.get("tasks")
    if isinstance(tasks, list) and tasks and draw(st.booleans()):
        task = tasks[draw(st.integers(0, len(tasks) - 1))]
        if isinstance(task, dict):
            pool = draw(st.sampled_from([_NUMERIC_TASK_ENTRIES, _FLAG_TASK_ENTRIES, None]))
            if pool is None:
                task[draw(_MISSPELT)] = draw(_JSON)
            else:
                values = _NON_NUMBERS if pool is _NUMERIC_TASK_ENTRIES else _WRONG_KINDS
                task[draw(st.sampled_from(sorted({k for ks in pool.values()
                                                  for k in ks})))] = draw(values)
    where = draw(st.sampled_from([None, "entry", "frame"]))
    expressions = [a for a in _addresses(obj) if _is_expression_entry(obj, a)]
    if where == "entry" and expressions:
        address = draw(st.sampled_from(expressions))
        _owner(obj, address)[address[-1]] = draw(_EXPRESSIONS)
    elif where == "frame":
        chart = obj.get("chart")
        dim = chart.get("dimension") if isinstance(chart, dict) else None
        size = dim if type(dim) is int and 1 <= dim <= 8 else 2
        obj["frame"] = {"diagonal": [draw(_EXPRESSIONS) for _ in range(size)]}
    return obj


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_builtins())
def test_validate_never_raises_and_agrees_with_build(obj):
    diags = validate_config(obj)
    if diags:
        with pytest.raises(ConfigError) as err:
            build_scenario(obj)
        assert err.value.diagnostics == diags
    else:
        assert isinstance(build_scenario(obj), Scenario)



@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_SCENARIOS)), st.data())
def test_non_numeric_task_entries_are_diagnostics(name, data):
    obj = builtin_config(name)
    i = data.draw(st.integers(0, len(obj["tasks"]) - 1))
    key = data.draw(st.sampled_from(_NUMERIC_TASK_ENTRIES[obj["tasks"][i]["type"]]))
    obj["tasks"][i][key] = data.draw(_NON_NUMBERS)
    assert any(path.startswith(f"tasks[{i}].{key}") for path in _paths(validate_config(obj)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_SCENARIOS)), st.data())
def test_misspelt_and_wrong_kind_task_entries_are_diagnostics(name, data):
    obj = builtin_config(name)
    i = data.draw(st.integers(0, len(obj["tasks"]) - 1))
    flags = _FLAG_TASK_ENTRIES[obj["tasks"][i]["type"]]
    if flags and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(flags))
        obj["tasks"][i][key] = data.draw(_WRONG_KINDS)
    else:
        key = data.draw(_MISSPELT)
        obj["tasks"][i][key] = 1e-6
    assert f"tasks[{i}].{key}" in _paths(validate_config(obj))


def _compiles(source, coords):
    try:
        compile_expression(source, coords)
    except ExpressionError:
        return False
    return True


def _well_formed(coords):
    """Expressions that compile over coords, but may evaluate to anything;
    compiling drops those with a non-finite coordinate-free part, as (0 / 0)."""
    atoms = st.sampled_from(list(coords) + ["0", "1", "2.5", "pi", "1e308"])
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join).map("({})".format),
        st.tuples(st.sampled_from(["sin", "sqrt", "log", "exp", "arctan"]), inner)
        .map("{0[0]}({0[1]})".format)), max_leaves=4).filter(
            lambda source: _compiles(source, coords))


@st.composite
def _runnable_builtins(draw):
    """A builtin config without its geodesic tasks (thousands of steps each,
    for no new path), with one expression entry or the whole frame made of
    well-formed random expressions."""
    obj = builtin_config(draw(st.sampled_from(sorted(BUILTIN_SCENARIOS))))
    obj["tasks"] = [t for t in obj["tasks"] if t["type"] != "geodesic"]
    dim = obj["chart"]["dimension"]
    expressions = _well_formed(obj["chart"].get("coordinates",
                                                [f"x{i}" for i in range(dim)]))
    where = [a for a in _addresses(obj) if _is_expression_entry(obj, a)
             and a[:2] != ("frame", "builtin")]
    if where and draw(st.booleans()):
        address = draw(st.sampled_from(where))
        _owner(obj, address)[address[-1]] = draw(expressions)
    else:
        obj["frame"] = {"diagonal": [draw(expressions) for _ in range(dim)]}
    return obj


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_runnable_builtins())
def test_run_of_random_expressions_ends_in_an_exit_code(obj):
    assert validate_config(obj) == []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(obj), encoding="utf-8")
        # in process, so an escaping exception fails the test
        out = Path(tmp) / "out"
        assert main(["run", str(cfg), "--out", str(out)]) in (0, 1, 2)
        # a written CSV with a non-finite number belongs to a failed task
        for csv in sorted(out.glob("*.csv")):
            cells = {c for line in csv.read_text().splitlines()[1:] for c in line.split(",")}
            if cells & {"nan", "inf", "-inf"}:
                index, _, task_type = csv.stem.partition("-")
                report = (out / "report.txt").read_text(encoding="utf-8")
                assert f"task {int(index)} [{task_type}] fail" in report


def _every_section():
    """A config that validates, with every section object and, in each, every
    entry its table takes (the cutoff gives its table, not a builtin)."""
    obj = builtin_config("sm-trace-check")
    obj["chart"]["periodic"] = [False] * 4
    obj["frame"] = {"builtin": "flat",
                    "parameters": {"dim": 4, "signature": "lorentzian"}}
    obj["finite_triple"] = {"builtin": "two-point", "parameters": {"m": 1.3}}
    obj["cutoff"] = {"table": {"u": [0.0, 1.0], "f": [1.0, 0.0]}, "scale_sq": 1.0}
    obj["constants"] = {"n_r": 1.0, "n_h": 1.0, "f0": 1.0}
    return obj


_SECTION_OBJECTS = [("chart",), ("chart", "box"), ("frame",), ("frame", "parameters"),
                    ("gauge",), ("gauge", "couplings"), ("higgs",), ("finite_triple",),
                    ("finite_triple", "parameters"), ("cutoff",), ("cutoff", "table"),
                    ("constants",)]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.sampled_from(_SECTION_OBJECTS), st.data())
def test_misspelt_section_entries_are_diagnostics(address, data):
    obj = _every_section()
    assert validate_config(obj) == []
    owner = _owner(obj, address)[address[-1]]
    known = data.draw(st.sampled_from(sorted(owner)))
    key = data.draw(st.sampled_from([known.capitalize(), known + "_", known[:-1],
                                     known + known[-1]]))
    # every entry the table takes is present, so key is one it lacks
    assume(key not in owner)
    owner[key] = owner[known]
    assert ".".join(address + (key,)) in _paths(validate_config(obj))
