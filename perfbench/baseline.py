"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1      # every workload once
    python3 perfbench/baseline.py --workloads action-quadrature --seeds 5

For every workload it runs ``run.py`` once per seed (0, 1, ...) with the
``run_seconds`` of BENCHMARK.json, keeps each result line, and reports per
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (Q3 - Q1) / median next to the metric's bound.  The written
file holds the environment record and every result line, so it can serve as
the baseline a later change is compared with.  It also prints failed_frac
per workload, and exits non-zero as soon as a run fails its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1]), env


def summarise(results: list, bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else None,
                     "bound": bounds.get(name),
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="JSON file to write")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, env = _run(workload, seed, bench["run_seconds"],
                               args.trace)
            report["env"] = env
            results.append(dict(result, seed=seed))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if not k.endswith((".calls", ".self_s"))), file=sys.stderr)
        summary = summarise(results, bounds)
        report["workloads"][workload] = {"summary": summary,
                                         "results": results}
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload:<18} {'failed_frac':<40} {failed / attempted:<19.6g}"
              f" fraction     ({failed}/{attempted} tasks)")
        for name, s in summary.items():
            if args.trace == 0 or not name.endswith((".calls", ".self_s")):
                spread = ("-" if s["spread"] is None
                          else f"{s['spread']:.4f}")
                print(f"{workload:<18} {name:<40} median {s['median']:<12.6g}"
                      f" {s['unit']:<12} spread {spread} bound {s['bound']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
