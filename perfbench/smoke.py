"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced and traced, and asserts that
each run passes its output checks and prints every metric BENCHMARK.json
names, with its unit, plus the failed_frac line.  It also copies only
BENCHMARK.json and the benchmark directory into a scratch directory and
asserts that the benchmark there exits non-zero without a result line.
Exits 0 when everything holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(root: str, workload: str, trace: int, size: str = "tiny"):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--size", size],
        cwd=root, capture_output=True, text=True, timeout=180)


def _check_run(proc, expected: dict, label: str) -> list:
    problems = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{label}: checks failed: {proc.stderr}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, units "
                        f"{sorted(k for k in got if expected.get(k, got[k]) != got[k])}")
    if not any(line.startswith("failed_frac") and "fraction" in line
               for line in lines):
        problems.append(f"{label}: no failed_frac line")
    if not any(line.startswith("env ") for line in lines):
        problems.append(f"{label}: no environment record")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            problems += _check_run(_bench(ROOT, workload, trace),
                                   expected[trace], label)
            print(f"{label}: done", file=sys.stderr)

    work = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, bench["workloads"][0]["name"], 0, size="full")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark without sources did not fail cleanly")
    try:
        os.rmdir(work)
    except OSError:        # another benchmark run is using it
        pass

    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
