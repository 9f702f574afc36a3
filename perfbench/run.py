"""The geodyn benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload geodesic-orbit --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; geodyn is imported from its ``src/``.  The
load is a closed loop: one client in one process runs ``geodyn run`` back to
back through ``geodyn.cli.main``, with no engine threads (GEODYN_THREADS is
removed from the environment) and one BLAS thread.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall seconds of one run, after a warm-up run
  cpu_s        median process CPU seconds (user+sys) of the same runs
  setup_s      median over SETUP_SAMPLES fresh interpreters, taken before
               and after the timed runs, of ``import geodyn.cli`` plus load,
               validate and build of the config
  peak_rss_mb  peak RSS of a fresh process after running the workload once
The three times are scaled to a nominal host speed by hostspeed.py; the raw
medians are printed above the result line.
--trace 1 reports per-function calls and self seconds from traced runs,
the derived ratios and the tracing overhead (see tracer.py).

Every run's outputs are checked (checks.py).  ``attempted`` counts tasks
run, ``failed`` those that failed, so failed_frac = failed / attempted.  The
last stdout line is the JSON result; the exit code is 1 when any check
failed, 2 when the checkout has no geodyn sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0
SETUP_SAMPLES = 11         # fresh interpreters timed for setup_s
WORK_DIR = ".perfbench_tmp"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

DERIVED = {
    "geometry.jet_passes_per_rk4_step": "passes/step",
    "action.curvature_evals_per_grid_point": "evals/point",
    "action.jet_passes_per_grid_point": "passes/point",
    "geodesics.rk4_step_us": "us",
    "action.grid_point_us": "us",
    "connection.curvature.us_per_call": "us",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for name in tracer.traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _ratio(num: float, den: float) -> float:
    # every traced result must carry every per_layer metric of
    # BENCHMARK.json, so a ratio whose base this workload never has reads 0
    return num / den if den else 0.0


def _spawn(mode: str, job: dict, job_path: str, deadline: float) -> dict:
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ)
    env.pop("GEODYN_THREADS", None)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"no time left for the {mode} worker")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, job_path],
        env=env, cwd=job["root"], capture_output=True, text=True,
        timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _end_to_end(job: dict, tmp: str, deadline: float) -> tuple:
    def setup_sample(i: int) -> dict:
        job_i = dict(job, result=os.path.join(tmp, f"setup{i}.json"))
        return _spawn("setup", job_i, os.path.join(tmp, f"job{i}.json"),
                      deadline)["setup"]

    # half the set-up samples before the timed runs and half after, so a
    # spell of host load during one of them moves the median less
    before = (SETUP_SAMPLES - 1) // 2
    setups = [setup_sample(i) for i in range(before)]
    res = _spawn("measure", job, os.path.join(tmp, "job.json"), deadline)
    setups.append(res["setup"])
    setups += [setup_sample(i) for i in range(before, SETUP_SAMPLES - 1)]
    threads = max(t["max_threads"] for t in setups + res["runs"])
    if threads > 1:
        raise RuntimeError(f"{threads} Python threads ran during a timed "
                           "section; the host-speed correction needs one")
    runs = [r for r in res["runs"] if not r.get("warmup")]

    def median(samples: list, key: str) -> float:
        return statistics.median(s[key] for s in samples)

    metrics = {
        "wall_s": median(runs, "wall_s"),
        "cpu_s": median(runs, "cpu_s"),
        "setup_s": median(setups, "wall_s"),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"runs: {len(runs)}; scaled wall_s "
        + " ".join(f"{r['wall_s']:.4f}" for r in runs),
        "host slowdown of the runs "
        + " ".join(f"{r['slowdown']:.3f}" for r in runs),
        "setup_s samples " + " ".join(f"{s['wall_s']:.4f}" for s in setups),
        f"raw medians: wall {median(runs, 'raw_wall_s'):.4f} s, cpu "
        f"{median(runs, 'raw_cpu_s'):.4f} s, setup "
        f"{median(setups, 'raw_wall_s'):.4f} s",
    ]
    return metrics, END_TO_END, res["runs"], res["env"], notes


def _per_layer(job: dict, tmp: str, deadline: float, config: dict) -> tuple:
    res = _spawn("trace", job, os.path.join(tmp, "job.json"), deadline)
    traced = [r for r in res["runs"] if "stats" in r]
    notes = []
    counts = [{name: entry[0] for name, entry in run["stats"].items()}
              for run in traced]
    repeat_ok = all(c == counts[0] for c in counts)
    if not repeat_ok:
        diff = sorted(n for n in counts[0] if counts[0][n] != counts[1][n])
        notes.append("trace self-check failed: call counts differ for "
                     + ", ".join(diff))

    def mean_stat(name: str, col: int) -> float:
        return statistics.fmean(run["stats"][name][col] for run in traced)

    metrics = {}
    for name in tracer.traced_names():
        metrics[f"{name}.calls"] = counts[0][name]
        metrics[f"{name}.self_s"] = mean_stat(name, 2)
    calls = counts[0]
    steps = workloads.rk4_steps(config)
    points = workloads.fine_grid_points(config)
    curvature_calls = (calls["geometry.GeneralizedMetric.curvature"]
                       + calls["connection.curvature"])
    metrics.update({
        "geometry.jet_passes_per_rk4_step":
            _ratio(calls["fields.ChartField.jets"], steps),
        "action.curvature_evals_per_grid_point":
            _ratio(curvature_calls, points),
        "action.jet_passes_per_grid_point":
            _ratio(calls["fields.ChartField.jets"], points),
        "geodesics.rk4_step_us":
            1e6 * _ratio(mean_stat("geodesics.integrate_geodesic", 1), steps),
        "action.grid_point_us": 1e6 * _ratio(
            mean_stat("action.heat_kernel_coefficients", 1)
            + mean_stat("action.riemannian_limit_action", 1), points),
        "connection.curvature.us_per_call": 1e6 * _ratio(
            mean_stat("connection.curvature", 1),
            calls["connection.curvature"]),
        "trace.overhead_frac": statistics.median(res["overhead_pairs"]),
    })
    top = sorted(tracer.traced_names(), key=lambda n: -metrics[f"{n}.self_s"])
    notes.append("largest self time: " + ", ".join(
        f"{n} {metrics[n + '.self_s']:.3f}s" for n in top[:5]))
    notes.append(f"rk4 steps {steps}, fine-grid points {points}")
    notes.append("traced/untraced - 1 of the probe pairs: " + " ".join(
        f"{r:+.3f}" for r in res["overhead_pairs"]))
    return metrics, per_layer_units(), res["runs"], res["env"], notes, repeat_ok


def _references(workload: str, size: str, variant: int):
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    return data.get(workload, {}).get(size, {}).get(str(variant))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window of the timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny is for the smoke test only")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "geodyn", "cli.py")):
        print(f"no geodyn sources under {src}; run from the checkout root",
              file=sys.stderr)
        return 2
    # byte-compile once, so no set-up sample pays for compilation
    compileall.compile_dir(os.path.join(src, "geodyn"), quiet=2)

    variant = workloads.variant_of(args.workload, args.seed)
    references = _references(args.workload, args.size, variant)
    if references is None:
        print(f"no references for {args.workload} {args.size} variant "
              f"{variant}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=os.path.join(root, WORK_DIR)) as tmp:
            config_path = workloads.write_config(args.workload, args.seed,
                                                 args.size, tmp)
            job = {
                "root": root,
                "config": config_path,
                "probe_config": workloads.write_config(
                    args.workload, args.seed, "tiny", tmp),
                "variant": variant,
                "out_dir": os.path.join(tmp, "out"),
                "seconds": args.seconds,
                "result": os.path.join(tmp, "result.json"),
            }
            config = workloads.generate(args.workload, args.seed, args.size)
            trace_ok = True
            if args.trace:
                metrics, units, runs, env, notes, trace_ok = _per_layer(
                    job, tmp, deadline, config)
            else:
                metrics, units, runs, env, notes = _end_to_end(job, tmp,
                                                               deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    n_tasks = len(config["tasks"])
    reasons = checks.task_failures(runs, references, n_tasks)
    attempted = n_tasks * len(runs)
    failed = sum(len(r) for r in reasons)
    for i, run_reasons in enumerate(reasons):
        for why in run_reasons:
            print(f"run {i}: {why}", file=sys.stderr)
    correct = failed == 0 and trace_ok

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} variant {variant} "
          f"size {args.size} trace {args.trace}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:<60} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':<60} {failed / attempted:>16.6g} fraction "
          f"({failed}/{attempted} tasks)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
