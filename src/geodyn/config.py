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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .action import CUTOFF_BUILTINS, CutoffFunction, GridSpec, Region
from .connection import (ConnectionConstants, ConnectionForm, HiggsField,
                         SMGaugeConfig, assemble_connection, checked_coupling)
from .exprs import compile_expression, default_coordinate_names
from .fields import ChartField
from .geometry import GeneralizedMetric, Vielbein
from .library import BUILTIN_FRAMES, diagonal_vielbein, make_builtin_frame
from .tensors import MAX_DIM, MinkowskiSignature
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

TASK_TYPES = (
    "curvature-at-points",
    "geodesic",
    "action",
    "field-equations",
    "axioms",
    "limit-check",
    "trace-oracle",
)

# the numeric entries each task's runner reads; each one given must be a
# finite number, and a field of an object entry (orbit) must be given
_TASK_NUMBERS = {
    "curvature-at-points": ("tolerance", "expected_scalar"),
    "geodesic": ("tolerance", "orbit_tolerance", "orbit.mass", "orbit.radius"),
    "action": ("tolerance", "sigma_sq"),
    "field-equations": ("tolerance", "kappa0", "tau0"),
    "axioms": ("tolerance",),
    "limit-check": ("tolerance", "gamma_tolerance"),
    "trace-oracle": ("tolerance",),
}

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

    ``tasks`` are the task objects in config order, except that a limit-check
    task's ``reference`` holds its built GeneralizedMetric (None without one).
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
    raw: dict = field(repr=False, default_factory=dict)


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
    higgs, constants = _parse_higgs(diags, obj.get("higgs"), dim, coords)
    triple = _parse_triple(diags, obj.get("finite_triple"))
    cutoff = _parse_cutoff(diags, obj.get("cutoff"))
    _check_constants(diags, obj.get("constants"))
    has = {key: isinstance(obj.get(key), dict)
           for key in ("gauge", "higgs", "finite_triple", "cutoff")}
    tasks = _parse_tasks(diags, obj.get("tasks"), dim, coords,
                         has_gauge=has["gauge"], has_higgs=has["higgs"],
                         has_triple=has["finite_triple"], has_cutoff=has["cutoff"])
    if diags:
        return None, diags

    connection = None
    if has["gauge"] or has["higgs"]:
        connection = assemble_connection(frame, gauge or SMGaugeConfig.zero(dim),
                                         higgs or HiggsField.zero(dim), constants)
    return Scenario(dim=dim, coordinates=coords, region=region, grid=grid,
                    frame=frame, connection=connection, triple=triple,
                    cutoff=cutoff, constants=dict(obj.get("constants", {})),
                    tasks=tasks, raw=obj), []


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
    c, alpha = higgs.get("c", 1.0), higgs.get("alpha", 1.0)
    for key, value in (("c", c), ("alpha", alpha)):
        if not _is_num(value):
            diags.append(Diagnostic(f"higgs.{key}", "must be a number"))
    constants = None
    if _is_num(alpha):
        constants = _built(diags, "higgs.alpha", ConnectionConstants,
                           alpha=float(alpha))
    if len(diags) > n or coords is None:
        return None, constants
    return HiggsField.from_components(dim, *xy, c=float(c)), constants


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
        m = params.get("m", 1.0)
        if not _is_num(m):
            diags.append(Diagnostic("finite_triple.parameters.m", "must be a number"))
            return None
        return _built(diags, "finite_triple", two_point_triple, m=float(m))
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
    lam_sq = cut.get("scale_sq", 1.0)
    if not _is_num(lam_sq):
        diags.append(Diagnostic("cutoff.scale_sq", "must be a number"))
        return None
    if make is None:
        return None
    return _built(diags, "cutoff.scale_sq", make, float(lam_sq))


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


def _check_constants(diags, consts):
    if consts is None:
        return
    if not isinstance(consts, dict):
        diags.append(Diagnostic("constants", "must be an object"))
        return
    allowed = {"n_r", "n_b", "n_w", "n_g", "n_h", "f0", "f4"}
    for key, val in consts.items():
        if key not in allowed:
            diags.append(Diagnostic(f"constants.{key}", "unknown constant"))
        elif not _is_num(val):
            diags.append(Diagnostic(f"constants.{key}", "must be a number"))
        elif key.startswith("n_") and val == 0:
            diags.append(Diagnostic(f"constants.{key}", "must be nonzero"))


def _parse_tasks(diags, tasks, dim, coords, has_gauge, has_higgs, has_triple,
                 has_cutoff):
    """The task list with each limit-check reference built, or None."""
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
        _check_task_numbers(diags, task, path)
        if ttype in ("curvature-at-points", "field-equations", "limit-check",
                     "trace-oracle"):
            pts = task.get("points")
            if pts is not None:
                if not isinstance(pts, list) or not pts:
                    diags.append(Diagnostic(f"{path}.points",
                                            "must be a nonempty list of points"))
                elif dim is not None:
                    for j, p in enumerate(pts):
                        if not _num_list(p, dim):
                            diags.append(Diagnostic(f"{path}.points[{j}]",
                                                    f"must be {dim} numbers"))
        if ttype == "geodesic":
            for key in ("start", "velocity"):
                if not (dim is None or _num_list(task.get(key), dim)):
                    diags.append(Diagnostic(f"{path}.{key}",
                                            f"must be {dim} numbers"))
            for key in ("steps", "csv_samples"):
                count = task.get(key, 1)
                if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                    diags.append(Diagnostic(f"{path}.{key}", "must be a positive integer"))
            if "step_size" in task and not (_is_num(task["step_size"])
                                            and task["step_size"] > 0):
                diags.append(Diagnostic(f"{path}.step_size", "must be positive"))
            orbit = task.get("orbit", {})
            if not isinstance(orbit, dict):
                diags.append(Diagnostic(f"{path}.orbit",
                                        "must be an object with mass and radius"))
            elif _is_num(orbit.get("radius")) and orbit["radius"] <= 0:
                diags.append(Diagnostic(f"{path}.orbit.radius", "must be positive"))
        if ttype == "action":
            if not has_cutoff:
                diags.append(Diagnostic(path, "action task needs a cutoff section"))
            mode = task.get("aa_mode", "metric")
            if mode not in ("metric", "blocks"):
                diags.append(Diagnostic(f"{path}.aa_mode",
                                        "must be 'metric' or 'blocks'"))
            elif mode == "blocks" and not (has_gauge and has_higgs):
                diags.append(Diagnostic(path,
                                        "blocks mode needs gauge and higgs sections"))
        if ttype == "trace-oracle" and not has_gauge:
            diags.append(Diagnostic(path, "trace-oracle task needs a gauge section"))
        if ttype == "field-equations" and "sm" in task and task["sm"]:
            if not (has_gauge and has_higgs):
                diags.append(Diagnostic(path,
                                        "sm form needs gauge and higgs sections"))
        if ttype == "axioms" and not has_triple:
            diags.append(Diagnostic(path, "axioms task needs a finite_triple section"))
        if ttype == "limit-check":
            ref = None
            if "reference" in task:
                ref = _parse_reference(diags, task["reference"], coords,
                                       f"{path}.reference")
            task = {**task, "reference": ref}
        built.append(task)
    return built


def _check_task_numbers(diags, task, path):
    for key in _TASK_NUMBERS[task["type"]]:
        head, _, leaf = key.partition(".")
        value = task.get(head)
        if leaf and isinstance(value, dict):
            value = value.get(leaf)  # the fields of an object entry are required
        elif leaf or head not in task:
            continue
        if not _is_num(value):
            diags.append(Diagnostic(f"{path}.{key}", "must be a number"))


def _parse_reference(diags, ref, coords, path):
    """The reference metric of a limit-check task, or None."""
    if not isinstance(ref, dict) or "matrix" not in ref:
        diags.append(Diagnostic(path, "must be an object with a matrix"))
        return None
    if coords is None:
        return None
    n = len(coords)
    entries = _compiled(diags, ref["matrix"], (n, n), coords, f"{path}.matrix")
    if entries is None:
        return None
    return GeneralizedMetric(dim=n, gamma_field=_expr_field(entries))
