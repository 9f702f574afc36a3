"""Seeded scenario generators for the geodyn benchmark (standard library only).

Each workload has a short table of variants; ``--seed`` picks one as
``seed % len(table)``, so the same seed always gives the same config and every
variant has references recorded in ``references.json``.  Variant 0 of
``geodesic-orbit`` is the builtin ``schwarzschild-geodesic`` scenario
exactly.  Every variant costs the same work (same step count, same grids), so
seeds move the inputs but not the amount of computation.

``size`` is "full" for measurement and "tiny" for the smoke test.
"""

from __future__ import annotations

import json
import math
import os

SIZES = ("full", "tiny")

# Stable circular orbits (r >= 6M) inside the chart box r in [4, 10].
_ORBIT_RADII = (6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5)

# (mass, cutoff scale_sq); the chart keeps r >= 4 > 2M for every mass.
_QUADRATURE = ((1.0, 1.0), (0.9, 1.0), (1.1, 0.5), (0.8, 2.0),
               (1.2, 1.0), (0.95, 0.5), (1.05, 2.0), (0.85, 1.5))

# (frame perturbation a, couplings (g1, g2, g3)); variant 0 keeps the
# couplings of the builtin sm-trace-check scenario.
_GAUGE = ((0.10, (0.8, 1.1, 1.3)), (0.05, (0.7, 1.0, 1.2)),
          (0.15, (0.9, 1.2, 1.4)), (0.08, (0.6, 0.9, 1.1)),
          (0.12, (1.0, 1.3, 1.5)), (0.03, (0.75, 1.05, 1.25)),
          (0.18, (0.85, 1.15, 1.35)), (0.07, (0.65, 0.95, 1.15)))

_HALF_PI = 1.5707963267948966
_TWO_PI = 6.283185307179586


def _geodesic_orbit(variant: int, size: str) -> dict:
    radius = _ORBIT_RADII[variant]
    mass = 1.0
    # circular orbit: u^t = 1/sqrt(1 - 3m/r), u^phi = u^t sqrt(m/r^3); this
    # grouping reproduces the builtin's literals bit for bit at r = 6m
    ut = math.sqrt(radius / (radius - 3.0 * mass))
    uphi = ut * math.sqrt(mass / radius) / radius
    return {
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 4, "signature": "lorentzian",
                  "coordinates": ["t", "r", "theta", "phi"],
                  "box": {"lo": [0.0, 4.0, 0.5, 0.0],
                          "hi": [10.0, 10.0, 2.6, _TWO_PI]},
                  "grid": [3, 5, 5, 5]},
        "frame": {"builtin": "schwarzschild", "parameters": {"mass": mass}},
        "tasks": [
            {"type": "curvature-at-points",
             "points": [[0.0, 5.0, 1.2, 0.3], [1.0, 7.5, 0.8, 2.0],
                        [2.0, 6.0, _HALF_PI, 4.0]],
             "expected_scalar": 0.0, "expect_vacuum": True,
             "tolerance": 1e-6},
            {"type": "geodesic",
             "start": [0.0, radius, _HALF_PI, 0.0],
             "velocity": [ut, 0.0, 0.0, uphi],
             "steps": 10000 if size == "full" else 200, "step_size": 0.01,
             "orbit": {"mass": mass, "radius": radius},
             "tolerance": 1e-6, "orbit_tolerance": 1e-4},
        ],
    }


def _action_quadrature(variant: int, size: str) -> dict:
    mass, scale_sq = _QUADRATURE[variant]
    return {
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 4, "signature": "lorentzian",
                  "coordinates": ["t", "r", "theta", "phi"],
                  "box": {"lo": [0.0, 4.0, 0.6, 0.0],
                          "hi": [1.0, 9.0, 2.5, _TWO_PI]},
                  "grid": [3, 9, 9, 9] if size == "full" else [3, 3, 3, 4],
                  "periodic": [False, False, False, True]},
        "frame": {"builtin": "schwarzschild", "parameters": {"mass": mass}},
        "cutoff": {"builtin": "exponential", "scale_sq": scale_sq},
        "tasks": [
            {"type": "action", "form": "riemannian-limit"},
            {"type": "action", "form": "spectral", "aa_mode": "metric"},
        ],
    }


def _gauge_sm(variant: int, size: str) -> dict:
    a, (g1, g2, g3) = _GAUGE[variant]
    return {
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 4, "signature": "lorentzian",
                  "coordinates": ["t", "x", "y", "z"],
                  "box": {"lo": [0, 0, 0, 0], "hi": [1, 1, 1, 1]},
                  "grid": [3, 7, 7, 7] if size == "full" else [2, 3, 3, 3]},
        # expression-valued diagonal frame, so the exprs evaluators and
        # frame_geometry carry the geometry instead of a library closure
        "frame": {"diagonal": [f"1 + {a}*x", f"1 + {a}*t*y",
                               f"1 + {a}*z^2", f"1 + {a}*x*y"]},
        # gauge and Higgs fields of the builtin sm-trace-check scenario
        "gauge": {
            "b": ["0.3*x", "0.1*y^2", "-0.2*t", "0.05*x*z"],
            "w": [["0", "0.2*y", "0", "0"],
                  ["0", "0", "-0.15*t", "0.1*x"],
                  ["0.05*z", "0", "0", "0.1*x^2"]],
            "g": [["0.1*z", "0", "0", "0"], ["0", "0.2*y", "0", "0"],
                  ["0", "0", "0", "0.1*t"], ["0", "0.15*x", "0", "0"],
                  ["0", "0", "0.05*y", "0"], ["0.1*x", "0", "0", "0"],
                  ["0", "0", "-0.1*t*x", "0"], ["0", "0", "0", "0.2*z"]],
            "couplings": {"g1": g1, "g2": g2, "g3": g3},
        },
        "higgs": {"x": "0.4 + 0.1*t", "y": "0.2*x", "c": 0.9, "alpha": 1.0},
        "finite_triple": {"builtin": "sm-yukawa"},
        "cutoff": {"builtin": "exponential", "scale_sq": 1.0},
        "tasks": [
            {"type": "trace-oracle",
             "points": [[0.3, 0.7, -0.2, 0.5], [0.0, 0.1, 0.2, 0.3],
                        [0.8, -0.4, 0.6, -0.1]],
             "tolerance": 1e-12},
            {"type": "field-equations", "sm": True,
             "points": [[0.3, 0.7, -0.2, 0.5]], "tolerance": 1e-6},
            {"type": "action", "form": "spectral", "aa_mode": "blocks"},
            {"type": "axioms", "fluctuations": True, "tolerance": 1e-12},
        ],
    }


WORKLOADS = {
    "geodesic-orbit": (_geodesic_orbit, len(_ORBIT_RADII)),
    "action-quadrature": (_action_quadrature, len(_QUADRATURE)),
    "gauge-sm": (_gauge_sm, len(_GAUGE)),
}


def variant_of(workload: str, seed: int) -> int:
    return seed % WORKLOADS[workload][1]


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """The config of ``workload`` for ``seed``."""
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}")
    make, _ = WORKLOADS[workload]
    return make(variant_of(workload, seed), size)


def fine_grid_points(config: dict) -> int:
    """Fine-grid points summed over the config's action tasks."""
    n = math.prod(config["chart"]["grid"])
    return n * sum(1 for t in config["tasks"] if t["type"] == "action")


def rk4_steps(config: dict) -> int:
    return sum(t["steps"] for t in config["tasks"] if t["type"] == "geodesic")


def write_config(workload: str, seed: int, size: str, directory: str) -> str:
    """Write the generated config (with its seed recorded) and return its path."""
    path = os.path.join(directory, f"{workload}-seed{seed}-{size}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(generate(workload, seed, size), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
