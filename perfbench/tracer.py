"""Span tracing of geodyn's public functions, installed from outside the package.

The tracer replaces each listed function (or method) with a wrapper that
counts calls and times the span.  Self time is the span minus the spans of
traced calls made inside it.  A module-level function is also replaced
wherever another geodyn module imported it by name (``from .x import y``),
so calls through those aliases are traced too.  ``uninstall`` restores every
original.  The tracer assumes one thread, which holds while GEODYN_THREADS is
unset.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> traced names; "Class.method" names wrap the method on the class
FUNCTIONS = {
    "scenarios": ("run_scenario", "format_csv"),
    "config": ("load_config", "validate_config", "build_scenario"),
    "exprs": ("compile_expression",),
    "action": ("moments", "heat_kernel_coefficients",
               "riemannian_limit_action", "spectral_action",
               "field_equation_residual"),
    "geodesics": ("integrate_geodesic", "velocity_norm"),
    "connection": ("curvature", "curvature_squared", "gauge_square_report",
                   "sm_lagrangian_normalized"),
    "triples": ("check_axioms", "fluctuation_space", "inner_fluctuations"),
    "geometry": ("GeneralizedMetric.gamma_jets", "GeneralizedMetric.value",
                 "GeneralizedMetric.christoffel",
                 "GeneralizedMetric.christoffel_with_derivative",
                 "GeneralizedMetric.curvature",
                 "GeneralizedMetric.volume_element", "Vielbein.jets",
                 "frame_geometry"),
    # self time here also covers the jets arithmetic, the library and exprs
    # evaluators and fields._collect, which are too short to wrap
    "fields": ("ChartField.jets",),
}


def traced_names() -> list:
    return [f"{mod}.{name}" for mod, names in FUNCTIONS.items()
            for name in names]


class Tracer:
    """Per-function [calls, inclusive seconds, self seconds] in ``stats``."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in traced_names()}
        self._children = []        # one child-time accumulator per open span
        self._patches = []         # (owner, attribute, original)

    def reset(self):
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]

    def _wrap(self, name: str, fn):
        entry = self.stats[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = children.pop()
                entry[0] += 1
                entry[1] += span
                entry[2] += span - inner
                if children:
                    children[-1] += span

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"geodyn.{mod}") for mod in FUNCTIONS]
        loaded = [m for key, m in sorted(sys.modules.items())
                  if m is not None and (key == "geodyn"
                                        or key.startswith("geodyn."))]
        for module, (mod_name, names) in zip(modules, FUNCTIONS.items()):
            for name in names:
                wrapped_name = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, meth,
                                self._wrap(wrapped_name, cls.__dict__[meth]))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(wrapped_name, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
