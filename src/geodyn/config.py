"""Scenario configuration: JSON schema "geodyn-config-v1".

A configuration describes a chart (dimension, signature, coordinate box,
grid), a frame (builtin or expression-valued), optional gauge and Higgs
sectors, an optional finite triple, a cutoff profile and a list of tasks.
Field entries are expression strings over the chart coordinates (see
exprs.py for the grammar); complex matrix entries are numbers or
{"re": x, "im": y} objects.

Checking a config and building it are one parse.  Each section parser checks
the JSON shape of its entries, builds its runtime object (compiling each
expression once, the reference metric of a limit-check task included),
records the constructor's own ValueError, TypeError or KeyError as a
diagnostic at the section's path, and moves on, so one pass reports every
problem it can find.  validate_config returns those diagnostics;
build_scenario returns the Scenario or raises ConfigError with all of them,
so a config builds exactly when it validates.  Numbers must be finite:
json.loads also reads the literals NaN and Infinity, and the parse rejects
them.  chart.signature, when given, must match a builtin frame's own
signature; when omitted, the builtin frame's signature stands and expression
frames are Euclidean.

The entries of each task type, and the constants, are stated once, in one
table each: name, kind and default.  The parse checks every given entry
against its table and converts it, fills in the defaults, and reports an
entry or constant the table lacks as a diagnostic.  So the tasks of a built
Scenario arrive complete and typed, and the runners only index into them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .action import CUTOFF_BUILTINS, CutoffFunction, GridSpec, Region
from .connection import (ConnectionConstants, ConnectionForm, HiggsField,
                         SMGaugeConfig, assemble_connection, checked_coupling)
from .exprs import compile_expression, default_coordinate_names
from .fields import ChartField
from .geometry import GeneralizedMetric, Vielbein
from .library import BUILTIN_FRAMES, diagonal_vielbein, make_builtin_frame
from .tensors import MAX_DIM, MinkowskiSignature, Point
from .triples import (FiniteTriple, YukawaData, build_sm_finite,
                      lepton_triple, two_point_triple)

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "Diagnostic",
    "Scenario",
    "load_config",
    "validate_config",
    "build_scenario",
    "TASK_TYPES",
]

SCHEMA_VERSION = "geodyn-config-v1"

TRIPLE_BUILTINS = ("two-point", "lepton-sector", "sm-yukawa")


@dataclass(frozen=True)
class Diagnostic:
    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


class ConfigError(ValueError):
    """A config that does not build; ``diagnostics`` lists every problem."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("invalid config:\n"
                         + "\n".join(str(d) for d in self.diagnostics))


@dataclass
class Scenario:
    """Runtime objects built from a valid configuration.

    ``tasks`` are dicts in config order, each holding its ``type`` and every
    entry of its type's table: given values converted (numbers to float,
    points to Points, a limit-check ``reference`` to its built
    GeneralizedMetric), missing ones at their defaults.  ``constants`` holds
    ``n_r``, ``n_h`` and ``f0`` as floats, defaults filled in.  Unknown task
    entries and constants are diagnostics, so neither holds anything else.
    """

    dim: int
    coordinates: tuple
    region: Region
    grid: GridSpec
    frame: Vielbein
    connection: ConnectionForm | None
    triple: FiniteTriple | None
    cutoff: CutoffFunction | None
    constants: dict
    tasks: list


def load_config(path: str):
    """Parse a config file.  Returns (config or None, diagnostics)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        return None, [Diagnostic("<file>", f"cannot read {path}: {e}")]
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        return None, [Diagnostic("<file>",
                                 f"JSON parse error at line {e.lineno}, "
                                 f"column {e.colno}: {e.msg}")]
    return obj, []


def validate_config(obj) -> list:
    """Every problem one parse of obj finds; an empty list means it builds."""
    return _parse(obj)[1]


def build_scenario(obj) -> Scenario:
    """The runtime objects of obj; raises ConfigError listing every problem."""
    scenario, diags = _parse(obj)
    if diags:
        raise ConfigError(diags)
    return scenario


# -- entry helpers ----------------------------------------------------------------


def _is_num(v) -> bool:
    """A finite JSON number; json.loads also reads NaN and +-Infinity."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _num_list(v, n=None) -> bool:
    if not isinstance(v, list) or not all(_is_num(x) for x in v):
        return False
    return n is None or len(v) == n


def _built(diags, path, make, *args, **kwargs):
    """make(*args, **kwargs), or None with its error as a diagnostic at path."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, KeyError) as e:
        # str() of a KeyError is the repr of its message
        diags.append(Diagnostic(path, str(e.args[0] if isinstance(e, KeyError)
                                          and e.args else e)))
        return None


def _known(diags, path, name, table) -> bool:
    if isinstance(name, str) and name in table:
        return True
    diags.append(Diagnostic(path, f"unknown builtin {name!r}; known: "
                                  f"{', '.join(sorted(table))}"))
    return False


def _complex(v):
    """A number or {re, im} object as a complex; None for anything else."""
    if _is_num(v):
        return complex(v)
    if (isinstance(v, dict) and set(v) <= {"re", "im"}
            and all(_is_num(x) for x in v.values())):
        return complex(v.get("re", 0.0), v.get("im", 0.0))
    return None


def _matrix(diags, rows, path, shape):
    """Complex matrix of the required shape (None: any), or None."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        diags.append(Diagnostic(path, "must be a list of rows"))
        return None
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        diags.append(Diagnostic(path, "rows have unequal lengths"))
        return None
    n = len(diags)
    out = [[_complex(x) for x in row] for row in rows]
    for i, row in enumerate(out):
        for j, entry in enumerate(row):
            if entry is None:
                diags.append(Diagnostic(f"{path}[{i}][{j}]",
                                        "entry must be a number or {re, im}"))
    got = (len(rows), next(iter(widths), 0))
    if shape is not None and got != shape:
        diags.append(Diagnostic(path, f"shape {got} != required {shape}"))
    return np.array(out) if len(diags) == n else None


def _compiled(diags, sources, shape, coords, path):
    """Object array of compiled expressions of the given shape, or None."""
    if not isinstance(sources, list) or len(sources) != shape[0]:
        what = (f"a list of {shape[0]} expressions" if len(shape) == 1
                else f"{shape[0]} rows of {shape[1]} expressions")
        diags.append(Diagnostic(path, f"must be {what}"))
        return None
    n = len(diags)
    out = np.empty(shape, dtype=object)
    for i, src in enumerate(sources):
        if len(shape) == 1:
            out[i] = _built(diags, f"{path}[{i}]", compile_expression, src, coords)
        else:
            out[i] = _compiled(diags, src, shape[1:], coords, f"{path}[{i}]")
    return out if len(diags) == n else None


def _expr_field(compiled) -> ChartField:
    """ChartField whose entries are the compiled expressions (object dtype);
    the last axis of every configured field runs over the chart dimension."""
    shape = compiled.shape

    def func(c):
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(*shape):
            out[idx] = compiled[idx](c)
        return out

    return ChartField(dim=shape[-1], shape=shape, func=func)


# -- the parse --------------------------------------------------------------------


def _parse(obj):
    """(Scenario or None, diagnostics) from one pass over every section."""
    if not isinstance(obj, dict):
        return None, [Diagnostic("<root>", "config must be a JSON object")]
    diags: list = []
    if obj.get("schema") != SCHEMA_VERSION:
        diags.append(Diagnostic("schema",
                                f"must be {SCHEMA_VERSION!r}, got {obj.get('schema')!r}"))
    known = {"schema", "chart", "frame", "gauge", "higgs", "finite_triple",
             "cutoff", "constants", "tasks"}
    for key in sorted(set(obj) - known):
        diags.append(Diagnostic(key, "unknown section"))

    dim, coords, signature, region, grid = _parse_chart(diags, obj.get("chart"))
    frame = _parse_frame(diags, obj.get("frame"), dim, coords, signature)
    gauge = _parse_gauge(diags, obj.get("gauge"), dim, coords)
    higgs, connection_constants = _parse_higgs(diags, obj.get("higgs"), dim, coords)
    triple = _parse_triple(diags, obj.get("finite_triple"))
    cutoff = _parse_cutoff(diags, obj.get("cutoff"))
    constants = _parse_constants(diags, obj.get("constants"))
    has = {key for key, value in obj.items() if isinstance(value, dict)}
    tasks = _parse_tasks(diags, obj.get("tasks"), _Chart(dim, coords, region), has)
    if diags:
        return None, diags

    connection = None
    if has & {"gauge", "higgs"}:
        connection = assemble_connection(frame, gauge or SMGaugeConfig.zero(dim),
                                         higgs or HiggsField.zero(dim),
                                         connection_constants)
    return Scenario(dim=dim, coordinates=coords, region=region, grid=grid,
                    frame=frame, connection=connection, triple=triple,
                    cutoff=cutoff, constants=constants, tasks=tasks), []


def _parse_chart(diags, chart):
    """(dim, coordinates, signature, region, grid); None marks a failed part
    or, for the signature, one that is not stated."""
    if not isinstance(chart, dict):
        diags.append(Diagnostic("chart", "required section missing or not an object"))
        return None, None, None, None, None
    dim = chart.get("dimension")
    if not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        diags.append(Diagnostic("chart.dimension",
                                f"must be an integer in 1..{MAX_DIM}"))
        dim = None
    sig = chart.get("signature")
    if "signature" in chart and sig not in ("euclidean", "lorentzian"):
        diags.append(Diagnostic("chart.signature",
                                "must be 'euclidean' or 'lorentzian'"))
    box = chart.get("box")
    if not isinstance(box, dict) or "lo" not in box or "hi" not in box:
        diags.append(Diagnostic("chart.box", "must be an object with lo and hi"))
        box = None
    if dim is None:
        return None, None, None, None, None

    signature = None
    if sig == "lorentzian":
        signature = MinkowskiSignature.lorentzian(dim)
    elif sig == "euclidean":
        signature = MinkowskiSignature.euclidean(dim)
    coords = chart.get("coordinates", list(default_coordinate_names(dim)))
    if (not isinstance(coords, list) or len(coords) != dim
            or not all(isinstance(c, str) and c.isidentifier() for c in coords)):
        diags.append(Diagnostic("chart.coordinates",
                                f"must be {dim} identifier strings"))
        coords = None
    elif len(set(coords)) != dim:
        diags.append(Diagnostic("chart.coordinates", "names must be distinct"))
        coords = None
    periodic = chart.get("periodic", [False] * dim)
    if (not isinstance(periodic, list) or len(periodic) != dim
            or not all(isinstance(b, bool) for b in periodic)):
        diags.append(Diagnostic("chart.periodic", f"must be {dim} booleans"))
        periodic = []
    region = None
    if box is not None:
        for key in ("lo", "hi"):
            if not _num_list(box[key], dim):
                diags.append(Diagnostic(f"chart.box.{key}", f"must be {dim} numbers"))
        if _num_list(box["lo"], dim) and _num_list(box["hi"], dim):
            region = _built(diags, "chart.box", Region, tuple(box["lo"]),
                            tuple(box["hi"]), tuple(periodic))
    grid = chart.get("grid", [5] * dim)
    if (not isinstance(grid, list) or len(grid) != dim
            or not all(isinstance(n, int) for n in grid)):
        diags.append(Diagnostic("chart.grid", f"must be {dim} integers"))
        grid = None
    else:
        grid = _built(diags, "chart.grid", GridSpec, tuple(grid))
    return dim, None if coords is None else tuple(coords), signature, region, grid


def _parse_frame(diags, frame, dim, coords, signature):
    if not isinstance(frame, dict):
        diags.append(Diagnostic("frame", "required section missing or not an object"))
        return None
    kinds = [k for k in ("builtin", "diagonal", "matrix") if k in frame]
    if len(kinds) != 1:
        diags.append(Diagnostic("frame",
                                "provide exactly one of builtin, diagonal, matrix"))
        return None
    kind = kinds[0]
    if kind == "builtin":
        built = _parse_builtin_frame(diags, frame)
        if built is not None and dim is not None and built.dim != dim:
            diags.append(Diagnostic("frame.builtin", f"frame dimension {built.dim} "
                                                     f"!= chart dimension {dim}"))
            return None
        if built is not None and signature not in (None, built.signature):
            diags.append(Diagnostic("chart.signature",
                                    f"signs {signature.signs} differ from the signs "
                                    f"{built.signature.signs} of builtin frame "
                                    f"{frame['builtin']!r}"))
            return None
        return built
    if coords is None:
        return None
    shape = (dim,) if kind == "diagonal" else (dim, dim)
    entries = _compiled(diags, frame[kind], shape, coords, f"frame.{kind}")
    if entries is None:
        return None
    signature = signature or MinkowskiSignature.euclidean(dim)
    if kind == "diagonal":
        return diagonal_vielbein(list(entries), signature, name="config-diagonal")
    return Vielbein(field=_expr_field(entries), signature=signature)


def _parse_builtin_frame(diags, frame):
    name, params = frame["builtin"], frame.get("parameters", {})
    if not _known(diags, "frame.builtin", name, BUILTIN_FRAMES):
        return None
    if not isinstance(params, dict):
        diags.append(Diagnostic("frame.parameters", "must be an object"))
        return None
    unknown = [key for key in params if key not in BUILTIN_FRAMES[name][1]]
    for key in unknown:
        diags.append(Diagnostic(f"frame.parameters.{key}",
                                f"builtin {name!r} takes no such parameter"))
    if unknown:
        return None
    return _built(diags, "frame.parameters", make_builtin_frame, name, params)


_GAUGE_FIELDS = {"b": ("g1", ()), "w": ("g2", (3,)), "g": ("g3", (8,))}


def _parse_gauge(diags, gauge, dim, coords):
    if gauge is None:
        return None
    if not isinstance(gauge, dict):
        diags.append(Diagnostic("gauge", "must be an object"))
        return None
    n = len(diags)
    couplings = gauge.get("couplings", {})
    if not isinstance(couplings, dict):
        diags.append(Diagnostic("gauge.couplings", "must be an object"))
        couplings = {}
    if not any(fld in gauge for fld in _GAUGE_FIELDS):
        diags.append(Diagnostic("gauge", "needs at least one of b, w, g"))
    values = {}
    for fld, (cname, _) in _GAUGE_FIELDS.items():
        path = f"gauge.couplings.{cname}"
        if cname not in couplings:
            if fld in gauge:
                diags.append(Diagnostic(path, f"required because gauge.{fld} is present"))
        elif _is_num(couplings[cname]):
            values[cname] = _built(diags, path, checked_coupling, cname, couplings[cname])
        else:
            diags.append(Diagnostic(path, "must be a number"))
    if coords is None:
        return None
    zero = SMGaugeConfig.zero(dim)
    fields = {}
    for fld, (_, rows) in _GAUGE_FIELDS.items():
        if fld in gauge:
            entries = _compiled(diags, gauge[fld], rows + (dim,), coords, f"gauge.{fld}")
            fields[fld] = None if entries is None else _expr_field(entries)
        else:
            fields[fld] = getattr(zero, fld)
    if len(diags) > n:
        return None
    return _built(diags, "gauge", SMGaugeConfig, **fields, **values)


def _parse_higgs(diags, higgs, dim, coords):
    """(HiggsField, ConnectionConstants); None marks a part that failed."""
    if higgs is None:
        return None, ConnectionConstants()
    if not isinstance(higgs, dict):
        diags.append(Diagnostic("higgs", "must be an object"))
        return None, None
    n = len(diags)
    xy = []
    for key in ("x", "y"):
        if key not in higgs:
            diags.append(Diagnostic(f"higgs.{key}", "component expression required"))
        elif coords is not None:
            xy.append(_built(diags, f"higgs.{key}", compile_expression,
                             higgs[key], coords))
    c, alpha = (_number(diags, f"higgs.{key}", higgs.get(key, 1.0), None)
                for key in ("c", "alpha"))
    constants = (None if alpha is None
                 else _built(diags, "higgs.alpha", ConnectionConstants, alpha=alpha))
    if len(diags) > n or coords is None:
        return None, constants
    return HiggsField.from_components(dim, *xy, c=c), constants


def _parse_triple(diags, trip):
    if trip is None:
        return None
    if not isinstance(trip, dict):
        diags.append(Diagnostic("finite_triple", "must be an object"))
        return None
    if "builtin" in trip:
        return _parse_builtin_triple(diags, trip)
    n = len(diags)
    dim = trip.get("dim")
    if not isinstance(dim, int) or not 1 <= dim <= 200:
        diags.append(Diagnostic("finite_triple.dim", "must be an integer in 1..200"))
        dim = None
    square = None if dim is None else (dim, dim)
    if "dirac" not in trip:
        diags.append(Diagnostic("finite_triple.dirac", "matrix required"))
    mats = {key: _matrix(diags, trip[key], f"finite_triple.{key}", square)
            for key in ("dirac", "grading", "real_structure") if key in trip}
    gens = trip.get("generators")
    if gens is None:
        diags.append(Diagnostic("finite_triple.generators",
                                "required for inline triples"))
    elif not isinstance(gens, list) or not gens:
        diags.append(Diagnostic("finite_triple.generators",
                                "must be a nonempty list of matrices"))
    else:
        gens = [_matrix(diags, g, f"finite_triple.generators[{i}]", square)
                for i, g in enumerate(gens)]
    signs = trip.get("epsilon_signs", [1, 1, 1])
    if (not isinstance(signs, list) or len(signs) != 3
            or any(s not in (-1, 1) for s in signs)):
        diags.append(Diagnostic("finite_triple.epsilon_signs",
                                "must be three entries from {-1, 1}"))
    if len(diags) > n:
        return None
    return _built(diags, "finite_triple", FiniteTriple, dim=dim,
                  algebra_generators=tuple(gens), d=mats["dirac"],
                  gamma=mats.get("grading"), k=mats.get("real_structure"),
                  epsilon_signs=tuple(signs),
                  first_order_claimed=bool(trip.get("first_order_claimed", True)),
                  dirac_hermitian_claimed=bool(trip.get("dirac_hermitian_claimed",
                                                        True)),
                  label=trip.get("label", "inline"))


def _parse_builtin_triple(diags, trip):
    name, params = trip["builtin"], trip.get("parameters", {})
    if not _known(diags, "finite_triple.builtin", name, TRIPLE_BUILTINS):
        return None
    if not isinstance(params, dict):
        diags.append(Diagnostic("finite_triple.parameters", "must be an object"))
        return None
    if name == "two-point":
        m = _number(diags, "finite_triple.parameters.m", params.get("m", 1.0), None)
        return None if m is None else _built(diags, "finite_triple", two_point_triple, m=m)
    n = len(diags)
    keys = ("k_e",) if name == "lepton-sector" else ("k_u", "k_d", "k_e")
    mats = {key: _matrix(diags, params[key], f"finite_triple.parameters.{key}",
                         (3, 3)) for key in keys if key in params}
    if len(diags) > n:
        return None
    if name == "lepton-sector":
        return _built(diags, "finite_triple", lepton_triple, **mats)
    yukawa = {"k_u": np.eye(3), "k_d": np.eye(3), "k_e": np.zeros((3, 3)), **mats}
    return _built(diags, "finite_triple",
                  lambda: build_sm_finite(YukawaData(**yukawa)))


def _parse_cutoff(diags, cut):
    if cut is None:
        return None
    if not isinstance(cut, dict):
        diags.append(Diagnostic("cutoff", "must be an object"))
        return None
    if ("builtin" in cut) == ("table" in cut):
        diags.append(Diagnostic("cutoff", "provide exactly one of builtin, table"))
        return None
    if "builtin" in cut:
        make = None
        if _known(diags, "cutoff.builtin", cut["builtin"], CUTOFF_BUILTINS):
            make = CUTOFF_BUILTINS[cut["builtin"]]
    else:
        make = _table_cutoff(diags, cut["table"])
    lam_sq = _number(diags, "cutoff.scale_sq", cut.get("scale_sq", 1.0), None)
    if make is None or lam_sq is None:
        return None
    return _built(diags, "cutoff.scale_sq", make, lam_sq)


def _table_cutoff(diags, table):
    """lam_sq -> CutoffFunction interpolating the table, or None."""
    if not (isinstance(table, dict) and _num_list(table.get("u"))
            and _num_list(table.get("f"))
            and len(table["u"]) == len(table["f"]) >= 2):
        diags.append(Diagnostic("cutoff.table",
                                "needs u and f number lists of equal length >= 2"))
        return None
    if table["u"] != sorted(table["u"]):
        diags.append(Diagnostic("cutoff.table.u", "must be increasing"))
        return None
    u = np.asarray(table["u"], dtype=float)
    f = np.asarray(table["f"], dtype=float)

    def make(lam_sq):
        return CutoffFunction(name="table",
                              func=lambda x: float(np.interp(x, u, f,
                                                             left=f[0], right=0.0)),
                              lam_sq=lam_sq, support=(float(u[0]), float(u[-1])))

    return make


# -- task entries and constants ----------------------------------------------------
#
# A kind converts one given entry, or records a diagnostic at path (and what it
# then returns is never used: a config with a diagnostic builds no Scenario).


class _Chart(NamedTuple):
    dim: int | None
    coords: tuple | None
    region: Region | None


_REQUIRED = object()  # the default of an entry that must be given


def _kind(test, message, convert):
    """The kind of the values that pass test, converted by convert."""
    def check(diags, path, value, chart):
        if test(value):
            return convert(value)
        diags.append(Diagnostic(path, message))
    return check


_number = _kind(_is_num, "must be a number", float)
_positive = _kind(lambda v: _is_num(v) and v > 0, "must be a positive number", float)
_nonzero = _kind(lambda v: _is_num(v) and v != 0, "must be a nonzero number", float)
_count = _kind(lambda v: type(v) is int and v >= 1, "must be a positive integer", int)
_boolean = _kind(lambda v: type(v) is bool, "must be true or false", bool)
_text = _kind(lambda v: isinstance(v, str), "must be a string", str)


def _choice(*options):
    return _kind(lambda v: isinstance(v, str) and v in options,
                 f"must be {' or '.join(map(repr, options))}", str)


def _vector(diags, path, value, chart):
    """dim numbers, as a tuple of floats."""
    if chart.dim is None:
        return None
    if _num_list(value, chart.dim):
        return tuple(float(x) for x in value)
    diags.append(Diagnostic(path, f"must be {chart.dim} numbers"))


def _points(diags, path, value, chart):
    if not isinstance(value, list) or not value:
        diags.append(Diagnostic(path, "must be a nonempty list of points"))
        return None
    coords = [_vector(diags, f"{path}[{j}]", p, chart) for j, p in enumerate(value)]
    return None if None in coords else tuple(map(Point, coords))


def _box_midpoint(chart):
    """The points of a task that gives none: the midpoint of the chart box."""
    if chart.region is None:
        return None
    lo, hi = chart.region.lo, chart.region.hi
    return (Point(tuple(0.5 * (l + h) for l, h in zip(lo, hi))),)


def _orbit(diags, path, value, chart):
    if not isinstance(value, dict):
        diags.append(Diagnostic(path, "must be an object with mass and radius"))
        return None
    return _entries(diags, path, value, _ORBIT_ENTRIES, chart,
                    "orbit takes no such entry")


def _reference(diags, path, value, chart):
    """The reference metric of a limit-check task."""
    if not isinstance(value, dict) or "matrix" not in value:
        diags.append(Diagnostic(path, "must be an object with a matrix"))
        return None
    if chart.coords is None:
        return None
    n = len(chart.coords)
    entries = _compiled(diags, value["matrix"], (n, n), chart.coords, f"{path}.matrix")
    if entries is None:
        return None
    return GeneralizedMetric(dim=n, gamma_field=_expr_field(entries))


_ORBIT_ENTRIES = {"mass": (_number, _REQUIRED), "radius": (_positive, _REQUIRED)}

_POINTS = (_points, _box_midpoint)

# task type -> entry -> (kind, default); a callable default is computed from
# the chart
_TASK_ENTRIES = {
    "curvature-at-points": {
        "tolerance": (_number, 1e-6),
        "points": _POINTS,
        "expected_scalar": (_number, None),
        "expect_vacuum": (_boolean, False),
    },
    "geodesic": {
        "tolerance": (_number, 1e-6),
        "start": (_vector, _REQUIRED),
        "velocity": (_vector, _REQUIRED),
        "steps": (_count, 1000),
        "step_size": (_positive, 0.01),
        "csv_samples": (_count, 100),
        "orbit": (_orbit, None),
        "orbit_tolerance": (_number, 1e-4),
    },
    "action": {
        "tolerance": (_number, 1e-10),
        "form": (_choice("spectral", "riemannian-limit"), "spectral"),
        "aa_mode": (_choice("metric", "blocks"), "metric"),
        "sigma_sq": (_number, None),
        "expect_only": (_text, None),  # the name of the one term expected nonzero
    },
    "field-equations": {
        "tolerance": (_number, 1e-6),
        "points": _POINTS,
        "sm": (_boolean, False),
        "kappa0": (_number, 1.0),
        "tau0": (_number, 0.0),
        "expect_zero_residual": (_boolean, False),
    },
    "axioms": {
        "tolerance": (_number, 1e-12),
        "fluctuations": (_boolean, True),
    },
    "limit-check": {
        "tolerance": (_number, 1e-8),
        "gamma_tolerance": (_number, 1e-12),
        "points": _POINTS,
        "reference": (_reference, None),
    },
    "trace-oracle": {
        "tolerance": (_number, 1e-12),
        "points": _POINTS,
    },
}

TASK_TYPES = tuple(_TASK_ENTRIES)

# the constants the task runners read
_CONSTANTS = {"n_r": (_nonzero, 1.0), "n_h": (_nonzero, 1.0), "f0": (_number, 1.0)}


def _entries(diags, path, given, table, chart, unknown):
    """The entries of the given object checked against table: each given one
    converted by its kind, each missing one set to its default, and each one
    the table lacks a diagnostic whose message starts with unknown."""
    for key in given:
        if key not in table:
            diags.append(Diagnostic(f"{path}.{key}", f"{unknown}; known: "
                                                     f"{', '.join(sorted(table))}"))
    out = {}
    for key, (kind, default) in table.items():
        if key in given:
            out[key] = kind(diags, f"{path}.{key}", given[key], chart)
        elif default is _REQUIRED:
            diags.append(Diagnostic(f"{path}.{key}", "required entry missing"))
        else:
            out[key] = default(chart) if callable(default) else default
    return out


def _parse_constants(diags, consts):
    if consts is not None and not isinstance(consts, dict):
        diags.append(Diagnostic("constants", "must be an object"))
        return None
    return _entries(diags, "constants", consts or {}, _CONSTANTS, None, "unknown constant")


def _parse_tasks(diags, tasks, chart, has):
    """The task list, each task a complete dict of converted entries, or None."""
    if not isinstance(tasks, list) or not tasks:
        diags.append(Diagnostic("tasks", "required nonempty list"))
        return None
    built = []
    for i, task in enumerate(tasks):
        path = f"tasks[{i}]"
        if not isinstance(task, dict) or "type" not in task:
            diags.append(Diagnostic(path, "must be an object with a type"))
            continue
        ttype = task["type"]
        if ttype not in TASK_TYPES:
            diags.append(Diagnostic(f"{path}.type",
                                    f"unknown type {ttype!r}; known: "
                                    f"{', '.join(TASK_TYPES)}"))
            continue
        unknown = f"task type {ttype!r} takes no such entry"
        given = {key: value for key, value in task.items() if key != "type"}
        task = {"type": ttype, **_entries(diags, path, given, _TASK_ENTRIES[ttype],
                                          chart, unknown)}
        diags.extend(Diagnostic(path, message) for message in _needs(task, has))
        built.append(task)
    return built


def _needs(task, has):
    """The message of each section rule the task breaks; has is the set of
    the config's sections."""
    ttype, sm = task["type"], {"gauge", "higgs"}
    if ttype == "action" and "cutoff" not in has:
        yield "action task needs a cutoff section"
    if ttype == "action" and task["aa_mode"] == "blocks" and not sm <= has:
        yield "blocks mode needs gauge and higgs sections"
    if ttype == "trace-oracle" and "gauge" not in has:
        yield "trace-oracle task needs a gauge section"
    if ttype == "field-equations" and task["sm"] and not sm <= has:
        yield "sm form needs gauge and higgs sections"
    if ttype == "axioms" and "finite_triple" not in has:
        yield "axioms task needs a finite_triple section"
