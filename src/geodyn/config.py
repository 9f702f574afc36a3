"""Scenario configuration: JSON schema "geodyn-config-v1".

A configuration describes a chart (dimension, signature, coordinate box,
grid), a frame (builtin or expression-valued), optional gauge and Higgs
sectors, an optional finite triple, a cutoff profile and a list of tasks.
Field entries are expression strings over the chart coordinates (see
exprs.py for the grammar); complex matrix entries are numbers or
{"re": x, "im": y} objects.

Checking a config and building it are one parse.  Every section, every
object inside one, the parameters of each builtin and each task type state
their entries once, in one table each: name, kind and default.  The parse
checks each given entry against its table and converts it (compiling each
expression once), fills in the defaults, reports an entry the table lacks
as a diagnostic that lists the known ones, records a constructor's own
ValueError, TypeError or KeyError as a diagnostic at the section's path, and
moves on, so one pass reports every problem it can find.  validate_config
returns those diagnostics; build_scenario returns the Scenario or raises
ConfigError with all of them, so a config builds exactly when it validates.
Numbers must be finite (json.loads also reads NaN and Infinity), and the
grid points and geodesic steps are capped.  chart.signature, when given,
must match a builtin frame's own signature; when omitted, the builtin
frame's signature stands and expression frames are Euclidean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .action import ACTION_TERMS, CUTOFF_BUILTINS, GridSpec, Moments, Region, moments
from .connection import ConnectionForm, HiggsField, SMGaugeConfig
from .exprs import compile_expression, default_coordinate_names
from .fields import entry_field
from .geometry import GeneralizedMetric, Vielbein
from .library import BUILTIN_FRAMES, diagonal_vielbein
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
    "BUILTIN_TRIPLES",
    "MAX_GRID_POINTS",
    "MAX_GEODESIC_STEPS",
]

SCHEMA_VERSION = "geodyn-config-v1"

# The action quadrature keeps one row of 8 + dim^2 floats per grid point
# (riemannian_limit_action's density), about 190 MB at 10^6 points in four
# dimensions; the builtins and benchmark workloads use at most 2 187.
MAX_GRID_POINTS = 10 ** 6

# integrate_geodesic keeps every step's state, about 0.5 kB a step in four
# dimensions (a traced 2 000-step Schwarzschild run), so 0.5 GB and minutes
# of stepping at 10^6 steps; the builtins and workloads take at most 10 000.
MAX_GEODESIC_STEPS = 10 ** 6


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
    cutoff: Moments | None
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


def _built(diags, path, make, *args, **kwargs):
    """make(*args, **kwargs), or None with its error as a diagnostic at path."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, KeyError) as e:
        # str() of a KeyError is the repr of its message
        diags.append(Diagnostic(path, str(e.args[0] if isinstance(e, KeyError)
                                          and e.args else e)))
        return None


def _complex(v):
    """A number or {re, im} object as a complex; None for anything else."""
    if _is_num(v):
        return complex(v)
    if (isinstance(v, dict) and set(v) <= {"re", "im"}
            and all(_is_num(x) for x in v.values())):
        return complex(v.get("re", 0.0), v.get("im", 0.0))
    return None


def _compiled(diags, sources, shape, coords, path):
    """The compiled expression, or the object array of them of the given
    shape, or None."""
    if not shape:
        return _built(diags, path, compile_expression, sources, coords)
    if not isinstance(sources, list) or len(sources) != shape[0]:
        what = "expressions" if len(shape) == 1 else f"rows of {shape[1]} expressions"
        diags.append(Diagnostic(path, f"must be a list of {shape[0]} {what}"))
        return None
    n = len(diags)
    out = np.empty(shape, dtype=object)
    for i, src in enumerate(sources):
        out[i] = _compiled(diags, src, shape[1:], coords, f"{path}[{i}]")
    return out if len(diags) == n else None


# -- kinds ------------------------------------------------------------------------
#
# A kind converts one given entry, or records a diagnostic at path and returns
# None (a config with a diagnostic builds no Scenario).  Its last argument is
# the context below.  A kind that needs a part of the context that failed to
# build returns None quietly: that part's own diagnostic already stands.


class _Context(NamedTuple):
    """What a kind reads besides its value: the size of the "dim" axes (the
    chart dimension, or an inline triple's Hilbert dimension), the chart's
    coordinate names, and its region; None marks a part that did not build."""

    dim: int | None = None
    coords: tuple | None = None
    region: Region | None = None


_REQUIRED = object()  # the default of an entry that must be given


def _kind(test, message, convert):
    """The kind of the values that pass test, converted by convert."""
    def check(diags, path, value, ctx):
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
# an object whose table depends on a sibling entry; its section checks it
_mapping = _kind(lambda v: isinstance(v, dict), "must be an object", dict)
_numbers = _kind(lambda v: isinstance(v, list) and all(map(_is_num, v)),
                 "must be a list of numbers", lambda v: tuple(map(float, v)))
_entry = _kind(lambda v: _complex(v) is not None, "entry must be a number or {re, im}",
               _complex)
_signs = _kind(lambda v: (isinstance(v, list) and len(v) == 3
                          and all(_is_num(s) and s in (-1, 1) for s in v)),
               "must be three entries from {-1, 1}", tuple)


def _integer(lo, hi):
    return _kind(lambda v: type(v) is int and lo <= v <= hi,
                 f"must be an integer in {lo}..{hi}", int)


def _choice(*options):
    return _kind(lambda v: isinstance(v, str) and v in options,
                 f"must be {' or '.join(map(repr, options))}", str)


def _per_axis(test, what, convert=tuple):
    """The kind of a list of dim values that pass test, converted by convert."""
    def check(diags, path, value, ctx):
        if ctx.dim is None:
            return None
        if isinstance(value, list) and len(value) == ctx.dim and all(map(test, value)):
            return convert(value)
        diags.append(Diagnostic(path, f"must be {ctx.dim} {what}"))
    return check


_vector = _per_axis(_is_num, "numbers", lambda v: tuple(map(float, v)))
_point = _per_axis(_is_num, "numbers", lambda v: Point(tuple(map(float, v))))


def _list_of(item, what):
    """The kind of a nonempty list of item values, as a tuple."""
    def check(diags, path, value, ctx):
        if not isinstance(value, list) or not value:
            diags.append(Diagnostic(path, f"must be a nonempty list of {what}"))
            return None
        return tuple(item(diags, f"{path}[{j}]", v, ctx) for j, v in enumerate(value))
    return check


def _shape(axes, ctx):
    """axes with each "dim" replaced by the context's size; None: unknown."""
    if "dim" in axes and ctx.dim is None:
        return None
    return tuple(ctx.dim if axis == "dim" else axis for axis in axes)


def _complex_matrix(*axes):
    """The kind of a complex matrix of the given axes (unknown: any shape)."""
    def check(diags, path, rows, ctx):
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            diags.append(Diagnostic(path, "must be a list of rows"))
            return None
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            diags.append(Diagnostic(path, "rows have unequal lengths"))
            return None
        n = len(diags)
        out = [[_entry(diags, f"{path}[{i}][{j}]", x, ctx) for j, x in enumerate(row)]
               for i, row in enumerate(rows)]
        got, shape = (len(rows), next(iter(widths), 0)), _shape(axes, ctx)
        if shape is not None and got != shape:
            diags.append(Diagnostic(path, f"shape {got} != required {shape}"))
        return np.array(out) if len(diags) == n else None
    return check


def _exprs(*axes):
    """The kind of an expression over the chart coordinates (no axes) or an
    array of them, compiled."""
    def check(diags, path, value, ctx):
        if ctx.coords is None:
            return None
        return _compiled(diags, value, _shape(axes, ctx), ctx.coords, path)
    return check


def _object(table, unknown="no such entry"):
    """The kind of an object whose entries table states: the dict _entries
    gives, or None if any entry fails."""
    required = [key for key, (_, default) in table.items() if default is _REQUIRED]
    message = "must be an object" + (f" with {', '.join(required)}" if required else "")

    def check(diags, path, value, ctx):
        if not isinstance(value, dict):
            diags.append(Diagnostic(path, message))
            return None
        n = len(diags)
        entries = _entries(diags, path, value, table, ctx, unknown)
        return entries if len(diags) == n else None
    return check


def _entries(diags, path, given, table, ctx, unknown="no such entry"):
    """The entries of the given object checked against table: each given one
    converted by its kind, each missing one set to its default (a callable
    default is computed from the context), and each one the table lacks a
    diagnostic whose message starts with unknown.  Every key of table is in
    the result; a required entry that is missing is None, as is one whose
    kind failed."""
    for key in given:
        if key not in table:
            diags.append(Diagnostic(f"{path}.{key}", f"{unknown}; known: "
                                                     f"{', '.join(sorted(table))}"))
    out = {}
    for key, (kind, default) in table.items():
        if key in given:
            out[key] = kind(diags, f"{path}.{key}", given[key], ctx)
        elif default is _REQUIRED:
            diags.append(Diagnostic(f"{path}.{key}", "required entry missing"))
            out[key] = None
        else:
            out[key] = default(ctx) if callable(default) else default
    return out


def _from_builtin(diags, path, given, registry, ctx, unknown):
    """What the builtin a section names makes from its parameters, each
    checked against the builtin's own table, or None.  registry maps each
    builtin name to (factory, parameter table)."""
    entries = _object({"builtin": (_choice(*registry), _REQUIRED),
                       "parameters": (_mapping, {})}, unknown)(diags, path, given, ctx)
    if entries is None:
        return None
    name = entries["builtin"]
    factory, table = registry[name]
    params = _object(table, f"builtin {name!r} takes no such parameter")(
        diags, f"{path}.parameters", entries["parameters"], ctx)
    return None if params is None else _built(diags, f"{path}.parameters", factory,
                                              **params)


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

    chart, signature, grid = _parse_chart(diags, obj.get("chart"))
    frame = _parse_frame(diags, obj.get("frame"), chart, signature)
    gauge = _parse_gauge(diags, obj.get("gauge"), chart)
    higgs, alpha = _parse_higgs(diags, obj.get("higgs"), chart)
    triple = _parse_triple(diags, obj.get("finite_triple"))
    cutoff = _parse_cutoff(diags, obj.get("cutoff"))
    consts = obj.get("constants")
    constants = _object(_CONSTANTS, "unknown constant")(
        diags, "constants", {} if consts is None else consts, _Context())
    has = {key for key, value in obj.items() if isinstance(value, dict)}
    tasks = _parse_tasks(diags, obj.get("tasks"), chart, has)
    if diags:
        return None, diags

    connection = None
    if has & {"gauge", "higgs"}:
        connection = ConnectionForm(frame, gauge or SMGaugeConfig.zero(chart.dim),
                                    higgs or HiggsField.zero(chart.dim), alpha)
    return Scenario(dim=chart.dim, coordinates=chart.coords, region=chart.region,
                    grid=grid, frame=frame, connection=connection, triple=triple,
                    cutoff=cutoff, constants=constants, tasks=tasks), []


def _grid(diags, path, value, ctx):
    """dim integers, as a GridSpec of at most MAX_GRID_POINTS points."""
    shape = _per_axis(lambda n: type(n) is int, "integers")(diags, path, value, ctx)
    grid = None if shape is None else _built(diags, path, GridSpec, shape)
    if grid is not None and math.prod(grid.shape) > MAX_GRID_POINTS:
        diags.append(Diagnostic(path, f"{math.prod(grid.shape)} points exceed "
                                      f"the cap of {MAX_GRID_POINTS}"))
    return grid


_DIMENSION = _integer(1, MAX_DIM)
_BOX_ENTRIES = {"lo": (_vector, _REQUIRED), "hi": (_vector, _REQUIRED)}
# the defaults read the dimension; without a valid one the chart builds nothing
_CHART_ENTRIES = {
    "dimension": (_DIMENSION, _REQUIRED),
    "signature": (_choice("euclidean", "lorentzian"), None),
    "coordinates": (_per_axis(lambda c: isinstance(c, str) and c.isidentifier(),
                              "identifier strings"),
                    lambda ctx: default_coordinate_names(ctx.dim or 0)),
    "periodic": (_per_axis(lambda b: type(b) is bool, "booleans"), ()),
    "box": (_object(_BOX_ENTRIES), _REQUIRED),
    "grid": (_grid, lambda ctx: GridSpec((5,) * (ctx.dim or 0))),
}


def _parse_chart(diags, chart):
    """(context, signature, grid); None marks a failed part or, for the
    signature, one that is not stated."""
    if not isinstance(chart, dict):
        diags.append(Diagnostic("chart", "required section missing or not an object"))
        return _Context(), None, None
    # the other entries' shapes read the dimension, so it is read first,
    # quietly: the table's own pass reports it
    dim = _DIMENSION([], "", chart.get("dimension"), None)
    entries = _entries(diags, "chart", chart, _CHART_ENTRIES, _Context(dim))
    if dim is None:
        return _Context(), None, None
    coords = entries["coordinates"]
    if coords is not None and len(set(coords)) != dim:
        diags.append(Diagnostic("chart.coordinates", "names must be distinct"))
        coords = None
    box, periodic = entries["box"], entries["periodic"]
    region = None
    if box is not None and periodic is not None:
        region = _built(diags, "chart.box", Region, box["lo"], box["hi"], periodic)
    sig = entries["signature"]
    # the choice names the MinkowskiSignature constructor
    signature = None if sig is None else getattr(MinkowskiSignature, sig)(dim)
    return _Context(dim, coords, region), signature, entries["grid"]


# a builtin frame parameter's kind follows its default: a number or a string,
# passed on as given, for the factory judges its value
_GIVEN_NUMBER = _kind(_is_num, "must be a number", lambda v: v)
_BUILTIN_FRAMES = {
    name: (factory, {key: (_text if isinstance(default, str) else _GIVEN_NUMBER, default)
                     for key, default in defaults.items()})
    for name, (factory, defaults) in BUILTIN_FRAMES.items()
}

# the expression frames' tables; a builtin frame's is _from_builtin's
_FRAME_ENTRIES = {
    "diagonal": {"diagonal": (_exprs("dim"), _REQUIRED)},
    "matrix": {"matrix": (_exprs("dim", "dim"), _REQUIRED)},
}


def _parse_frame(diags, frame, chart, signature):
    if not isinstance(frame, dict):
        diags.append(Diagnostic("frame", "required section missing or not an object"))
        return None
    forms = [k for k in ("builtin", *_FRAME_ENTRIES) if k in frame]
    if len(forms) != 1:
        diags.append(Diagnostic("frame",
                                "provide exactly one of builtin, diagonal, matrix"))
        return None
    form = forms[0]
    unknown = f"a {form} frame takes no such entry"
    if form == "builtin":
        built = _from_builtin(diags, "frame", frame, _BUILTIN_FRAMES, chart, unknown)
        if built is not None and chart.dim is not None and built.dim != chart.dim:
            diags.append(Diagnostic("frame.builtin", f"frame dimension {built.dim} "
                                                     f"!= chart dimension {chart.dim}"))
            return None
        if built is not None and signature not in (None, built.signature):
            diags.append(Diagnostic("chart.signature",
                                    f"signs {signature.signs} differ from the signs "
                                    f"{built.signature.signs} of builtin frame "
                                    f"{frame['builtin']!r}"))
            return None
        return built
    entries = _object(_FRAME_ENTRIES[form], unknown)(diags, "frame", frame, chart)
    if entries is None or chart.coords is None:
        return None
    signature = signature or MinkowskiSignature.euclidean(chart.dim)
    if form == "diagonal":
        return diagonal_vielbein(list(entries[form]), signature)
    return Vielbein(field=entry_field(entries[form]), signature=signature)


_GAUGE_ENTRIES = {
    "b": (_exprs("dim"), None),
    "w": (_exprs(3, "dim"), None),
    "g": (_exprs(8, "dim"), None),
    "couplings": (_mapping, {}),  # its table depends on the fields given
}
_COUPLING_OF = {"b": "g1", "w": "g2", "g": "g3"}


def _parse_gauge(diags, gauge, chart):
    if gauge is None:
        return None
    entries = _object(_GAUGE_ENTRIES)(diags, "gauge", gauge, chart)
    if entries is None:
        return None
    # the coupling of a given field must be given too
    couplings = _object({cname: (_positive, _REQUIRED if fld in gauge else 1.0)
                         for fld, cname in _COUPLING_OF.items()})(
        diags, "gauge.couplings", entries["couplings"], chart)
    if not any(fld in gauge for fld in _COUPLING_OF):
        diags.append(Diagnostic("gauge", "needs at least one of b, w, g"))
        return None
    if couplings is None or chart.coords is None:
        return None
    zero = SMGaugeConfig.zero(chart.dim)
    fields = {fld: getattr(zero, fld) if entries[fld] is None else entry_field(entries[fld])
              for fld in _COUPLING_OF}
    return _built(diags, "gauge", SMGaugeConfig, **fields, **couplings)


_HIGGS_ENTRIES = {
    "x": (_exprs(), _REQUIRED),
    "y": (_exprs(), _REQUIRED),
    "c": (_number, 1.0),
    "alpha": (_positive, 1.0),
}


def _parse_higgs(diags, higgs, chart):
    """(HiggsField, Higgs scale alpha); None marks a part that failed."""
    if higgs is None:
        return None, 1.0
    entries = _object(_HIGGS_ENTRIES)(diags, "higgs", higgs, chart)
    if entries is None or chart.coords is None:
        return None, None
    return (HiggsField.from_components(chart.dim, entries["x"], entries["y"],
                                       c=entries["c"]),
            entries["alpha"])


def _sm_yukawa(k_u, k_d, k_e):
    return build_sm_finite(YukawaData(k_u=k_u, k_d=k_d, k_e=k_e))


_YUKAWA = _complex_matrix(3, 3)

# builtin triple -> (factory, parameter table)
BUILTIN_TRIPLES = {
    "two-point": (two_point_triple, {"m": (_number, 1.0)}),
    "lepton-sector": (lepton_triple, {"k_e": (_YUKAWA, np.eye(3))}),
    "sm-yukawa": (_sm_yukawa, {"k_u": (_YUKAWA, np.eye(3)),
                               "k_d": (_YUKAWA, np.eye(3)),
                               "k_e": (_YUKAWA, np.zeros((3, 3)))}),
}

_TRIPLE_DIM = _integer(1, 200)
_SQUARE = _complex_matrix("dim", "dim")
# the "dim" axes of an inline triple's matrices are its own dim entry
_INLINE_TRIPLE_ENTRIES = {
    "dim": (_TRIPLE_DIM, _REQUIRED),
    "dirac": (_SQUARE, _REQUIRED),
    "grading": (_SQUARE, None),
    "real_structure": (_SQUARE, None),
    "generators": (_list_of(_SQUARE, "matrices"), _REQUIRED),
    "epsilon_signs": (_signs, (1, 1, 1)),
    "first_order_claimed": (_boolean, True),
    "dirac_hermitian_claimed": (_boolean, True),
    "label": (_text, "inline"),
}


def _parse_triple(diags, trip):
    if trip is None:
        return None
    if not isinstance(trip, dict):
        diags.append(Diagnostic("finite_triple", "must be an object"))
        return None
    if "builtin" in trip:
        return _from_builtin(diags, "finite_triple", trip, BUILTIN_TRIPLES, _Context(),
                             "a builtin triple takes no such entry")
    # read first, quietly, as the chart reads its dimension
    dim = _TRIPLE_DIM([], "", trip.get("dim"), None)
    entries = _object(_INLINE_TRIPLE_ENTRIES)(diags, "finite_triple", trip, _Context(dim))
    if entries is None:
        return None
    return _built(diags, "finite_triple", FiniteTriple, dim=dim,
                  algebra_generators=entries["generators"], d=entries["dirac"],
                  gamma=entries["grading"], k=entries["real_structure"],
                  epsilon_signs=entries["epsilon_signs"],
                  first_order_claimed=entries["first_order_claimed"],
                  dirac_hermitian_claimed=entries["dirac_hermitian_claimed"],
                  label=entries["label"])


_CUTOFF_TABLE_ENTRIES = {"u": (_numbers, _REQUIRED), "f": (_numbers, _REQUIRED)}
# a cutoff gives exactly one of builtin and table
_CUTOFF_ENTRIES = {
    "builtin": (_choice(*CUTOFF_BUILTINS), None),
    "table": (_object(_CUTOFF_TABLE_ENTRIES), None),
    "scale_sq": (_positive, 1.0),
}


def _parse_cutoff(diags, cut):
    if cut is None:
        return None
    entries = _object(_CUTOFF_ENTRIES)(diags, "cutoff", cut, _Context())
    if entries is None:
        return None
    if ("builtin" in cut) == ("table" in cut):
        diags.append(Diagnostic("cutoff", "provide exactly one of builtin, table"))
        return None
    if "builtin" in cut:
        return CUTOFF_BUILTINS[entries["builtin"]](entries["scale_sq"])
    return _table_cutoff(diags, entries["table"], entries["scale_sq"])


def _table_cutoff(diags, table, lam_sq):
    """The Moments of the piecewise-linear table, or None."""
    if not len(table["u"]) == len(table["f"]) >= 2:
        diags.append(Diagnostic("cutoff.table",
                                "needs u and f number lists of equal length >= 2"))
        return None
    u, f = table["u"], table["f"]
    if list(u) != sorted(u) or u[0] < 0:
        diags.append(Diagnostic("cutoff.table.u", "must be increasing, from u[0] >= 0"))
        return None
    if min(f) < 0:
        diags.append(Diagnostic("cutoff.table.f", "must be nonnegative, as a cutoff profile is"))
        return None
    try:
        return moments(u, f, lam_sq)
    except ValueError as e:  # a moment past the float range
        diags.append(Diagnostic("cutoff.table", str(e)))
        return None


# -- task entries and constants ----------------------------------------------------


def _box_midpoint(ctx):
    """The points of a task that gives none: the midpoint of the chart box."""
    if ctx.region is None:
        return None
    lo, hi = ctx.region.lo, ctx.region.hi
    return (Point(tuple(0.5 * (l + h) for l, h in zip(lo, hi))),)


_REFERENCE_ENTRIES = {"matrix": (_exprs("dim", "dim"), _REQUIRED)}


def _reference(diags, path, value, ctx):
    """The reference metric of a limit-check task."""
    entries = _object(_REFERENCE_ENTRIES)(diags, path, value, ctx)
    if entries is None or entries["matrix"] is None:  # None too without a chart
        return None
    matrix = entries["matrix"]
    return GeneralizedMetric(entry_field(matrix))


_ORBIT_ENTRIES = {"mass": (_positive, _REQUIRED), "radius": (_positive, _REQUIRED)}


def _orbit(diags, path, value, ctx):
    """The circular-orbit check of a geodesic task, which reads t and phi as
    the first and last of four chart coordinates."""
    if ctx.dim not in (None, 4):
        diags.append(Diagnostic(path, f"needs a 4-dimensional (t, r, theta, phi) "
                                      f"chart, not a {ctx.dim}-dimensional one"))
        return None
    return _object(_ORBIT_ENTRIES, "orbit takes no such entry")(diags, path, value, ctx)

_POINTS = (_list_of(_point, "points"), _box_midpoint)

# task type -> entry -> (kind, default)
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
        "steps": (_integer(1, MAX_GEODESIC_STEPS), 1000),
        "step_size": (_positive, 0.01),
        "csv_samples": (_count, 100),
        "orbit": (_orbit, None),
        "orbit_tolerance": (_positive, 1e-4),
    },
    "action": {
        "tolerance": (_number, 1e-10),
        "form": (_choice(*ACTION_TERMS), "spectral"),
        "aa_mode": (_choice("metric", "blocks"), "metric"),
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
        "gamma_tolerance": (_positive, 1e-12),
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
        diags.extend(Diagnostic(path, message) for message in _needs(task, has, chart.dim))
        built.append(task)
    return built


def _needs(task, has, dim):
    """The message of each section rule the task breaks; has is the set of
    the config's sections, dim the chart dimension (None if it failed)."""
    ttype, sm = task["type"], {"gauge", "higgs"}
    if ttype == "action" and "cutoff" not in has:
        yield "action task needs a cutoff section"
    if (ttype == "action" and task["form"] == "spectral" and task["aa_mode"] == "metric"
            and dim is not None and dim % 2):
        # sigma^2 comes from the Clifford algebra of the signature
        yield f"metric mode needs an even chart dimension, got {dim}"
    if ttype == "action" and task["aa_mode"] == "blocks" and not sm <= has:
        yield "blocks mode needs gauge and higgs sections"
    if ttype == "action" and None not in (task["form"], task["expect_only"]):
        terms = ACTION_TERMS[task["form"]]
        if task["expect_only"] not in terms:
            yield (f"expect_only {task['expect_only']!r} names no {task['form']} term; "
                   f"its terms: {', '.join(terms)}")
    if ttype == "trace-oracle" and "gauge" not in has:
        yield "trace-oracle task needs a gauge section"
    if ttype == "field-equations" and task["sm"] and not sm <= has:
        yield "sm form needs gauge and higgs sections"
    if ttype == "axioms" and "finite_triple" not in has:
        yield "axioms task needs a finite_triple section"
