"""Command line behavior: exit codes, artifacts, reproducible CSV output."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import geodyn
from geodyn.cli import main
from geodyn.config import SCHEMA_VERSION


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_builtins(capsys):
    code, out, _ = _run(["list-builtins"], capsys)
    assert code == 0
    assert "scenarios:" in out and "frames:" in out and "cutoffs:" in out
    assert "schwarzschild-geodesic" in out
    assert "exponential" in out
    assert "finite triples:" in out and "sm-yukawa" in out


def test_validate_builtin_and_bad_file(tmp_path, capsys):
    code, out, _ = _run(["validate", "flat-empty"], capsys)
    assert code == 0
    assert "0 diagnostics" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
    code, out, _ = _run(["validate", str(bad)], capsys)
    assert code == 2
    assert "schema" in out and "problem(s) found" in out

    code, out, _ = _run(["validate", str(tmp_path / "missing.json")], capsys)
    assert code == 2


def test_run_writes_report_and_csv(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out, _ = _run(["run", "flat-empty", "--out", str(out_dir)], capsys)
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert "report.txt" in names
    csvs = [n for n in names if n.endswith(".csv")]
    assert csvs, names
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    assert "pass" in report
    assert "fail" not in report.replace("passed/failed", "")
    # the action task's summary carries each term's quadrature error estimate
    assert "    quadrature_error_delta0_volume: " in report
    assert "quadrature_error_lap_scalar" not in report
    assert "PASS" in out or "pass" in out


def test_run_rejects_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({"schema": SCHEMA_VERSION}), encoding="utf-8")
    code, _, err = _run(["run", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "chart" in err

    code, _, err = _run(["run", str(tmp_path / "none.json"),
                         "--out", str(tmp_path)], capsys)
    assert code == 2


@pytest.mark.parametrize("case, problem", [
    ("not-utf8", "<file>: cannot read"),
    ("deep-json", "<file>: JSON nested too deeply"),
    ("out-is-a-file", "argument --out: "),
    ("negative-seed", "argument --seed: expected a non-negative integer"),
])
def test_run_rejects_bad_input_before_any_task(tmp_path, case, problem):
    # each ends in a diagnostic or usage error with exit 2, in a fresh
    # process so a traceback would show on stderr, and no task writes a CSV
    out_dir = tmp_path / "out"
    config, extra = "flat-empty", []
    if case == "not-utf8":
        config = tmp_path / "bad.json"
        config.write_bytes(b"\xff\xfe{")
    elif case == "deep-json":
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000, encoding="utf-8")
    elif case == "out-is-a-file":
        out_dir = tmp_path / "report.txt"
        out_dir.write_text("", encoding="utf-8")
    else:
        extra = ["--seed", "-1"]
    src = os.path.dirname(os.path.dirname(geodyn.__file__))
    done = subprocess.run([sys.executable, "-m", "geodyn.cli", "run", str(config),
                           "--out", str(out_dir), *extra], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert problem in done.stderr
    assert "Traceback" not in done.stderr
    assert not any(path.suffix == ".csv" for path in tmp_path.rglob("*"))


def test_run_takes_a_seed_beyond_64_bits(tmp_path, capsys):
    code, _, _ = _run(["run", "flat-empty", "--seed", "99999999999999999999999",
                       "--out", str(tmp_path)], capsys)
    assert code == 0
    assert any(name.endswith(".csv") for name in os.listdir(tmp_path))


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = _run(["run", "sphere2", "--seed", "7",
                           "--out", str(out_dir)], capsys)
        assert code == 0
    for name in sorted(os.listdir(a)):
        if name.endswith(".csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_custom_config_runs_from_file(tmp_path, capsys):
    obj = {
        "schema": SCHEMA_VERSION,
        "chart": {"dimension": 2, "box": {"lo": [0.3, 0.0],
                                          "hi": [2.8, 6.0]}},
        "frame": {"builtin": "sphere2"},
        "tasks": [{"type": "curvature-at-points",
                   "points": [[1.2, 0.5], [0.8, 2.0]]}],
    }
    cfg = tmp_path / "sphere.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, _ = _run(["run", str(cfg), "--out", str(out_dir)], capsys)
    assert code == 0
    csvs = [n for n in os.listdir(out_dir) if n.endswith(".csv")]
    body = (out_dir / csvs[0]).read_text(encoding="utf-8")
    header = body.splitlines()[0]
    assert header.startswith("x0,x1") and "ricci_scalar" in header
    assert len(body.splitlines()) == 3


def _no_j_config(tmp_path):
    # an inline triple with no J, so no first-order residual is measured,
    # and first order left unclaimed
    obj = {
        "schema": SCHEMA_VERSION,
        "chart": {"dimension": 2, "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
        "frame": {"builtin": "flat", "parameters": {"dim": 2}},
        "finite_triple": {"dim": 2, "dirac": [[0, 1], [1, 0]],
                          "generators": [[[1, 0], [0, 0]]],
                          "first_order_claimed": False},
        "tasks": [{"type": "axioms", "fluctuations": False}],
    }
    cfg = tmp_path / "no-j.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    return cfg


def test_unclaimed_first_order_without_real_structure_runs(tmp_path, capsys):
    # no J means no first-order residual at all; leaving first_order unclaimed
    # must not add a row for the residual that was never measured
    out_dir = tmp_path / "out"
    code, _, err = _run(["run", str(_no_j_config(tmp_path)), "--out", str(out_dir)], capsys)
    assert code == 0 and "Traceback" not in err
    rows = [line.split(",") for line in
            (out_dir / "00-axioms.csv").read_text(encoding="utf-8").splitlines()]
    assert rows == [["axiom", "residual", "claimed"],
                    ["dirac_hermitian", "0", "true"]]


def test_unmeasured_first_order_residual_is_not_reported(tmp_path, capsys):
    # nor a summary entry for it: report.txt holds no None
    out_dir = tmp_path / "out"
    code, _, _ = _run(["run", str(_no_j_config(tmp_path)), "--out", str(out_dir)], capsys)
    assert code == 0
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    assert "first_order_claimed" in report
    assert "None" not in report and "first_order_unclaimed_residual" not in report


def _geodesic_config(tmp_path, diagonal, start):
    obj = {
        "schema": SCHEMA_VERSION,
        "chart": {"dimension": 2, "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
        "frame": {"diagonal": diagonal},
        "tasks": [{"type": "geodesic", "start": start, "velocity": [0.1, 0.0],
                   "steps": 10, "step_size": 0.01}],
    }
    cfg = tmp_path / "geodesic.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    return str(cfg)


def test_geodesic_failures_are_task_failures_not_tracebacks(tmp_path, capsys):
    cases = [(["1/x0", "1"], [0.0, 0.0], "message: float division by zero"),
             (["x0^0.5", "1"], [-0.5, 0.0], "message: complex metric value at (-0.5, 0.0)"),
             (["((-1)^0.5)^x0", "1"], [0.55, 0.55],
              "message: complex metric value at (0.55, 0.55)")]
    for diagonal, start, reason in cases:
        out_dir = tmp_path / "out"
        code, out, _ = _run(["run", _geodesic_config(tmp_path, diagonal, start),
                             "--out", str(out_dir)], capsys)
        assert code == 1
        assert "[geodesic] fail" in out and "status: singular" in out
        assert reason in out
        rows = (out_dir / "00-geodesic.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].endswith(",nan")


def _curvature_config(tmp_path, name, diagonal, point):
    obj = {
        "schema": SCHEMA_VERSION,
        "chart": {"dimension": 2, "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
        "frame": {"diagonal": diagonal},
        "tasks": [{"type": "curvature-at-points", "points": [point]}],
    }
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    return str(cfg)


def _reference_config(tmp_path, name, entry):
    from geodyn.scenarios import builtin_config
    obj = builtin_config("sphere2")
    obj["tasks"][2]["reference"]["matrix"][1][1] = entry
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    return str(cfg)


def _nan(coord):
    # inf - inf at run time; through a coordinate, as a constant NaN is a
    # parse-time diagnostic.  coord^0 keeps the derivatives at 0.
    return f"({coord}^0*1e308*1e308 - {coord}^0*1e308*1e308)"


def test_evaluation_errors_are_task_failures_not_tracebacks(tmp_path, capsys):
    cases = [
        (_curvature_config(tmp_path, "complex", ["x0^0.5 + 1", "x0"], [-0.5, 0.3]),
         "00-curvature-at-points.csv", "message: complex metric value at (-0.5, 0.3)"),
        (_curvature_config(tmp_path, "reciprocal", ["1/x0", "1"], [0.0, 0.3]),
         "00-curvature-at-points.csv", "message: float division by zero"),
        (_curvature_config(tmp_path, "complex-base", ["((-1)^0.5)^x0", "1"], [-0.5, 0.3]),
         "00-curvature-at-points.csv", "message: complex metric value at (-0.5, 0.3)"),
        (_reference_config(tmp_path, "complex-reference", "sin(theta)^2 + (0 - 1)^0.5"),
         "02-limit-check.csv", "message: complex metric value at (0.7, 0.3)"),
        # a NaN metric entry used to pass the singularity guard unnoticed
        (_curvature_config(tmp_path, "nan", ["1", f"1 + {_nan('x0')}"], [0.5, 0.3]),
         "00-curvature-at-points.csv", "message: matrix has a NaN or inf entry"),
        (_reference_config(tmp_path, "nan-reference", f"sin(theta)^2 + {_nan('theta')}"),
         "02-limit-check.csv", "message: matrix has a NaN or inf entry"),
    ]
    for cfg, failed_csv, reason in cases:
        out_dir = tmp_path / "out"
        code, _, _ = _run(["run", cfg, "--out", str(out_dir)], capsys)
        assert code == 1
        report = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert reason in report and "worst residual inf" in report
        assert not (out_dir / failed_csv).exists()
        for name in os.listdir(out_dir):
            os.remove(out_dir / name)


def test_nan_residual_fails_its_task(tmp_path, capsys):
    # a NaN gauge entry reaches only the Higgs covariant derivative, which no
    # matrix guard sees; the NaN residual it leaves must not fold away as a pass
    from geodyn.scenarios import builtin_config
    obj = builtin_config("sm-trace-check")
    obj["gauge"]["b"][0] = f"0.3*x + {_nan('x')}"
    cfg = tmp_path / "nan-gauge.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    assert _run(["validate", str(cfg)], capsys)[0] == 0
    out_dir = tmp_path / "out"
    code, _, _ = _run(["run", str(cfg), "--out", str(out_dir)], capsys)
    assert code == 1
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    assert "[field-equations] fail: worst residual nan" in report
    assert "message: non-finite value in column 'sm_fd_residual'" in report


def test_overflowing_frame_fails_each_point_task_without_a_warning(tmp_path, capsys):
    # 1e300*x0^3 overflows at x0 = 1e5: each point runner fails with the
    # reason, and no numpy warning escapes, even one that is made an error
    types = ("curvature-at-points", "limit-check", "field-equations")
    obj = {
        "schema": SCHEMA_VERSION,
        "chart": {"dimension": 2, "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
        "frame": {"diagonal": ["1 + 1e300*x0*x0*x0", "1"]},
        "tasks": [{"type": t, "points": [[1e5, 0.5]]} for t in types],
    }
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = _run(["run", str(cfg), "--out", str(out_dir)], capsys)
    assert code == 1
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    for i, t in enumerate(types):
        assert f"task {i} [{t}] fail: worst residual inf" in report
    assert report.count("message: non-finite metric value at (100000.0, 0.5)") == 3


def test_run_loads_no_quadrature_module(tmp_path):
    # cutoff moments are closed forms and a diagonal frame's geodesic stage
    # inverts no matrix, so no builtin run imports any scipy module, whose
    # import alone would cost most of start-up
    script = ("import sys\n"
              "from geodyn.cli import main\n"
              "from geodyn.scenarios import BUILTIN_SCENARIOS\n"
              "for name in BUILTIN_SCENARIOS:\n"
              f"    out = {str(tmp_path)!r} + '/' + name\n"
              "    assert main(['run', name, '--out', out]) == 0, name\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = os.path.dirname(os.path.dirname(geodyn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_zero_task_tolerance_keeps_each_own_tolerance(tmp_path, capsys):
    # the orbit and gamma residuals are held to their own tolerances; scaled
    # by tolerance / own tolerance onto the task's, a tolerance of 0 erased them
    from geodyn.scenarios import builtin_config
    orbit = builtin_config("schwarzschild-geodesic")
    orbit["tasks"] = [{**orbit["tasks"][1], "steps": 200, "tolerance": 0.0,
                       "orbit": {"mass": 2.0, "radius": 6.0}}]
    limit = {
        "schema": SCHEMA_VERSION,
        "chart": {"dimension": 2, "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
        "frame": {"builtin": "flat",
                  "parameters": {"dim": 2, "signature": "euclidean"}},
        "tasks": [{"type": "limit-check", "tolerance": 0.0,
                   "reference": {"matrix": [["2", "0"], ["0", "2"]]}}],
    }
    cases = [(orbit, "task 0 [geodesic] fail: worst residual inf",
              "message: orbit_rel_residual 5.000e-01 misses orbit_tolerance 1.0e-04"),
             (limit, "task 0 [limit-check] fail: worst residual inf",
              "message: gamma_vs_reference 1.000e+00 misses gamma_tolerance 1.0e-12")]
    for i, (obj, verdict, reason) in enumerate(cases):
        cfg = tmp_path / f"zero-tolerance-{i}.json"
        cfg.write_text(json.dumps(obj), encoding="utf-8")
        out_dir = tmp_path / f"out-{i}"
        code, _, _ = _run(["run", str(cfg), "--out", str(out_dir)], capsys)
        assert code == 1
        report = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert verdict in report and reason in report
