"""One fresh interpreter of the geodyn benchmark; started by run.py.

    python3 perfbench/worker.py setup   JOB.json
    python3 perfbench/worker.py measure JOB.json
    python3 perfbench/worker.py trace   JOB.json

JOB.json names the checkout root, the config, a small probe config, an
output directory, the measuring window and the result file to write.

setup    times ``import geodyn.cli`` plus load_config, validate_config and
         build_scenario of the config, and nothing else.
measure  does the same set-up, checks the config with ``geodyn validate``,
         runs it once through ``geodyn.cli.main(["run", ...])`` as a
         warm-up, records the peak RSS after that run, then runs it back to
         back for the window (at least once), recording wall and CPU
         seconds of each run.
trace    after the same warm-up, does two traced runs (tracer.py) and
         records their per-function counts and times; then it times
         OVERHEAD_PAIRS untraced/traced pairs of the small probe config.

The set-up and the runs of ``measure`` are timed under a hostspeed.Sampler,
which reports them raw and scaled to a nominal host speed.  Traced and probe
runs are not sampled, so the kernel's time lands in no span.

Every run, the warm-up too, is returned for the output checks; the warm-up
carries ``"warmup": true`` and is left out of the timings.
"""

import contextlib
import json
import os
import sys
import time

from hostspeed import Sampler

OVERHEAD_PAIRS = 20


def _setup(root: str, config: str) -> dict:
    """Import and build cost of the config, in seconds (fresh interpreter)."""
    with Sampler() as sampler:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        import geodyn.cli  # noqa: F401
        from geodyn.config import build_scenario, load_config, validate_config
        obj, diags = load_config(config)
        diags = diags + validate_config(obj) if obj is not None else diags
        if not diags:
            build_scenario(obj)
        timing = sampler.scale(time.perf_counter() - wall0,
                               time.process_time() - cpu0)
    if diags:
        raise SystemExit(f"invalid config {config}: {diags}")
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(geodyn.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"geodyn imported from {geodyn.cli.__file__}, "
                         f"not from {src}")
    return timing


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, asked of the library."""
    import ctypes
    import glob

    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return int(fn())
    return None


def _git_rev(root: str):
    """HEAD of the checkout, or None when it is not a git work tree."""
    import subprocess
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment(root: str) -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(root),
        "geodyn_threads_unset": "GEODYN_THREADS" not in os.environ,
    }


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Runner:
    """Runs configs through the CLI, one output directory per run."""

    def __init__(self, job: dict):
        import io

        from geodyn import cli

        import checks
        self.job = job
        self.cli = cli
        self.checks = checks
        self.quiet = lambda: contextlib.redirect_stdout(io.StringIO())
        self.count = 0

    def validate(self, config: str) -> int:
        with self.quiet():
            return self.cli.main(["validate", config])

    def run(self, config: str, sample: bool = True) -> dict:
        out = os.path.join(self.job["out_dir"], f"run{self.count:03d}")
        self.count += 1
        argv = ["run", config, "--out", out, "--seed", str(self.job["variant"])]
        error = None
        rc = None
        with Sampler() if sample else contextlib.nullcontext() as sampler:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            try:
                with self.quiet():
                    rc = self.cli.main(argv)
            except Exception as exc:  # a raise fails every task of the run
                error = f"{type(exc).__name__}: {exc}"
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
        timing = (sampler.scale(wall, cpu) if sample
                  else {"wall_s": wall, "cpu_s": cpu})
        tasks = {}
        if error is None:
            try:
                tasks = self.checks.read_outputs(out)
            except (OSError, ValueError) as exc:
                error = f"unreadable outputs: {exc}"
        return dict(timing, rc=rc, error=error, tasks=tasks)


def _prepare(job: dict) -> tuple:
    """Set-up sample, environment record, validated config and warm-up run."""
    setup = _setup(job["root"], job["config"])
    runner = _Runner(job)
    if runner.validate(job["config"]) != 0:
        raise SystemExit(f"geodyn validate rejected {job['config']}")
    from geodyn.scenarios import builtin_config

    import workloads
    if workloads.generate("geodesic-orbit", 0) != builtin_config(
            "schwarzschild-geodesic"):
        raise SystemExit("geodesic-orbit seed 0 no longer equals the "
                         "builtin schwarzschild-geodesic scenario")
    warmup = dict(runner.run(job["config"]), warmup=True)
    return setup, _environment(job["root"]), runner, warmup


def measure(job: dict) -> dict:
    setup, env, runner, warmup = _prepare(job)
    peak = _peak_rss_mb()
    start = time.perf_counter()
    runs = [runner.run(job["config"])]
    # start another run only if it is expected to end inside the window
    while (time.perf_counter() - start + runs[-1]["raw_wall_s"]
           <= job["seconds"]):
        runs.append(runner.run(job["config"]))
    return {"setup": setup, "env": env, "peak_rss_mb": peak,
            "runs": [warmup] + runs}


def trace(job: dict) -> dict:
    from tracer import Tracer

    setup, env, runner, warmup = _prepare(job)
    tracer = Tracer()

    def traced_run(config: str) -> dict:
        tracer.reset()
        tracer.install()
        try:
            return runner.run(config, sample=False)
        finally:
            tracer.uninstall()

    runs = [warmup]
    for _ in range(2):
        run = traced_run(job["config"])
        run["stats"] = {name: list(entry)
                        for name, entry in tracer.stats.items()}
        runs.append(run)
    # The tracer adds a few per cent, less than the run-to-run noise of a
    # shared machine, so its overhead is read from many short untraced/traced
    # pairs of the probe config, run back to back, not from two long runs.
    probe = job["probe_config"]
    pairs = [runner.run(probe, sample=False)]     # warm-up of the probe
    for _ in range(OVERHEAD_PAIRS):
        pairs += [runner.run(probe, sample=False), traced_run(probe)]
    bad = [r["error"] or f"exit {r['rc']}" for r in pairs
           if r["error"] or r["rc"] != 0]
    if bad:
        raise SystemExit(f"probe run failed: {bad[0]}")
    ratios = [t["wall_s"] / u["wall_s"] - 1.0
              for u, t in zip(pairs[1::2], pairs[2::2])]
    return {"setup": setup, "env": env, "runs": runs,
            "overhead_pairs": ratios}


def main(argv) -> int:
    mode, job_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if mode == "setup":
        result = {"setup": _setup(job["root"], job["config"])}
    elif mode == "measure":
        result = measure(job)
    elif mode == "trace":
        result = trace(job)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
