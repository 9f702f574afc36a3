"""Output checks behind ``failed``: verdicts, byte-identical CSVs, references.

A task of one ``geodyn run`` counts as failed when any of these holds:

- its verdict in ``report.txt`` is not ``pass`` (or the run raised);
- its CSV bytes differ from the same task's CSV in the first run of the same
  config (reruns must be byte-identical);
- a checked summary value differs from the reference recorded in
  ``references.json``: ``omega_sq`` and the last trajectory sample of a
  geodesic (``omega_sq`` alone is blind to a rescaled parameter), ``total``
  of an action,
  the heat-kernel ``a0/a2/a4`` of a spectral action, the integral of every
  other action term, and every axiom residual.  The term integrals matter:
  the volume term dominates a Schwarzschild ``total`` by ~1e5, so ``total``
  alone would not see an error in the curvature terms.

Values match when ``|x - ref| <= RTOL * |ref| + ATOL``.  RTOL = 1e-9 sits
about three orders of magnitude above the rounding a reordered computation
can accumulate (reassociation changes single operations by ~1e-17, and the
10 000 RK4 steps of the orbit integrate that to at most ~1e-12 relative) and
far below the change any algorithmic slip makes (a skipped stage, a stale
Christoffel, a lost quadrature sample all move these values by 1e-6 or
more).  ATOL = 1e-12 is the axioms task's own tolerance; it covers values
whose reference is exactly 0 (axiom residuals, a2 without an endomorphism).
"""

from __future__ import annotations

import hashlib
import os
import re

RTOL = 1e-9
ATOL = 1e-12

_TASK_LINE = re.compile(r"^task (\d+) \[([^\]]+)\] (\w+):")
_SUMMARY_LINE = re.compile(r"^    (\w+): (\S+)$")
_SUMMARY_KEYS = ("omega_sq", "total")
_HEAT_KERNEL_ROWS = {"a0_volume": "a0", "a2_endomorphism": "a2",
                     "a4_curvature": "a4"}


def read_outputs(out_dir: str) -> dict:
    """{task index: {"type", "status", "digest", "values"}} of one run."""
    tasks: dict = {}
    current = None
    with open(os.path.join(out_dir, "report.txt"), encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            head = _TASK_LINE.match(line)
            if head:
                current = {"type": head.group(2), "status": head.group(3),
                           "digest": None, "values": {}}
                tasks[int(head.group(1))] = current
                continue
            item = _SUMMARY_LINE.match(line)
            if current is not None and item and item.group(1) in _SUMMARY_KEYS:
                current["values"][item.group(1)] = float(item.group(2))
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".csv"):
            continue
        task = tasks.setdefault(int(name.split("-", 1)[0]),
                                {"type": None, "status": "missing",
                                 "digest": None, "values": {}})
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        task["digest"] = hashlib.sha256(data).hexdigest()
        task["values"].update(_csv_values(data.decode("utf-8")))
    return {str(k): v for k, v in sorted(tasks.items())}


def _csv_values(text: str) -> dict:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if header == ["term", "coefficient", "integral", "value"]:
        return {_HEAT_KERNEL_ROWS.get(r[0], f"integral.{r[0]}"): float(r[2])
                for r in rows}
    if header[:2] == ["step", "t"]:       # geodesic: its last sample
        return {f"final.{name}": float(v)
                for name, v in zip(header[1:], rows[-1][1:])}
    if header == ["axiom", "residual", "claimed"]:
        return {f"axiom.{r[0]}": float(r[1]) for r in rows}
    return {}


def matches(value: float, ref: float) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def task_failures(runs: list, references: dict, n_tasks: int) -> list:
    """One list of reasons per run; an empty list means every task passed.

    ``runs`` holds the worker's run records ({"error", "tasks"}), in order;
    ``references`` maps task index -> {value name: reference}.
    """
    first_digests: dict = {}
    out = []
    for run in runs:
        reasons = []
        if run["error"]:
            out.append([f"run raised: {run['error']}"] * n_tasks)
            continue
        for idx in range(n_tasks):
            key = str(idx)
            task = run["tasks"].get(key)
            why = _task_problem(task, references.get(key, {}),
                                first_digests.setdefault(
                                    key, task["digest"] if task else None))
            if why:
                reasons.append(f"task {idx}: {why}")
        out.append(reasons)
    return out


def _task_problem(task, refs: dict, first_digest):
    if task is None:
        return "no verdict"
    if task["status"] != "pass":
        return f"status {task['status']}"
    if task["digest"] is None or task["digest"] != first_digest:
        return "CSV differs from the first run of this config"
    for name, ref in refs.items():
        if name not in task["values"]:
            return f"{name} missing"
        if not matches(task["values"][name], ref):
            return f"{name} = {task['values'][name]!r}, reference {ref!r}"
    return None
