"""Record references.json: the checked values of every workload variant.

    python3 perfbench/record_references.py

Runs each variant of each workload once, at both sizes, through
``geodyn.cli.main`` and stores the values checks.py compares against
(omega_sq, action totals, heat-kernel a0/a2/a4, axiom residuals).  Rerun it
only when a change is meant to alter results, and say so with the change.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("GEODYN_THREADS", None)
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from geodyn import cli  # noqa: E402


def record(tmp: str) -> dict:
    refs: dict = {}
    for workload, (_, variants) in workloads.WORKLOADS.items():
        for size in workloads.SIZES:
            for variant in range(variants):
                path = workloads.write_config(workload, variant, size, tmp)
                out = os.path.join(tmp, f"out-{workload}-{size}-{variant}")
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["run", path, "--out", out,
                                   "--seed", str(variant)])
                if rc != 0:
                    raise SystemExit(f"{path}: geodyn run exited {rc}")
                tasks = checks.read_outputs(out)
                refs.setdefault(workload, {}).setdefault(size, {})[
                    str(variant)] = {idx: t["values"] for idx, t in tasks.items()
                                     if t["values"]}
                print(workload, size, variant, file=sys.stderr)
    return refs


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        refs = record(tmp)
    os.rmdir(work)
    with open(os.path.join(HERE, "references.json"), "w",
              encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
