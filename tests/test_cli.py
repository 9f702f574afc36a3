"""Command line behavior: exit codes, artifacts, reproducible CSV output."""

import json
import os

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


def test_validate_builtin_and_bad_file(tmp_path, capsys):
    code, out, _ = _run(["validate", "flat-empty"], capsys)
    assert code == 0
    assert "0 diagnostics" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
    code, out, _ = _run(["validate", str(bad)], capsys)
    assert code == 1
    assert "schema" in out and "problem(s) found" in out

    code, out, _ = _run(["validate", str(tmp_path / "missing.json")], capsys)
    assert code == 1


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
             (["x0^0.5", "1"], [-0.5, 0.0], "message: complex metric value at (-0.5, 0.0)")]
    for diagonal, start, reason in cases:
        out_dir = tmp_path / "out"
        code, out, _ = _run(["run", _geodesic_config(tmp_path, diagonal, start),
                             "--out", str(out_dir)], capsys)
        assert code == 1
        assert "[geodesic] fail" in out and "status: singular" in out
        assert reason in out
        rows = (out_dir / "00-geodesic.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].endswith(",nan")
