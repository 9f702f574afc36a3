"""Cutoff moments, heat kernel coefficients and the assembled bosonic action.

The truncated action is M4 L^4 a0 + M2 L^2 a2 + M0 a4 with L^2 the energy
scale.  Moment names are fixed by the pairing, not by any label: M4 is the
first moment of the cutoff (it multiplies the volume term), M2 the zeroth
moment, M0 the value at zero.  Every derived constant is produced from these
three in one table so the mapping stays auditable.

Region integrals use trapezoidal quadrature on uniform grids; periodic axes
use equal weights over [lo, hi).  The error estimate comes from recomputing
at roughly half resolution and scaling the difference by the trapezoid
order; when every coarse axis point is also a fine one (odd points on open
axes, even on periodic ones, as the coordinates compare), the coarse values
are read from the fine grid instead of evaluated again.  Densities are
evaluated on blocks of BLOCK_POINTS grid points at a time: a density takes
an (N, dim) coordinate block and returns one row of values per point, so the
geometry, the gauge fields and the Higgs field each run as one vectorised
jet pass per block.
The weighted sum then runs over the whole grid in index order, so a fixed
grid always reproduces identical bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as _scipy_integrate

from .connection import (
    ConnectionForm,
    ReparamConstants,
    curvature,
    curvature_squared,
    lambda0_constant,
    sm_lagrangian_normalized,
)
from .fields import ChartField
from .geometry import GeneralizedMetric, Vielbein, sigma_squared
from .tensors import Point, checked_det

__all__ = [
    "CutoffFunction",
    "Moments",
    "Region",
    "GridSpec",
    "HeatKernelData",
    "HeatKernelCoefficients",
    "ActionReport",
    "FieldEquationInput",
    "FieldEquationResidual",
    "exponential_cutoff",
    "sharp_cutoff",
    "gaussian_cutoff",
    "make_cutoff",
    "CUTOFF_BUILTINS",
    "moments",
    "integrate_scalar",
    "heat_kernel_coefficients",
    "spectral_action",
    "universal_action_form",
    "field_equation_residual",
    "riemannian_limit_action",
    "unification_scale",
]

PI2 = float(np.pi ** 2)


# -- cutoff functions and moments ----------------------------------------------


@dataclass(frozen=True)
class CutoffFunction:
    """A nonnegative cutoff profile f on [0, inf) plus the energy scale L^2."""

    name: str
    func: object
    lam_sq: float = 1.0
    support: tuple | None = None    # finite integration window, if any

    def __post_init__(self):
        if self.lam_sq <= 0:
            raise ValueError("energy scale must be positive")

    def __call__(self, u: float) -> float:
        return float(self.func(u))


def exponential_cutoff(lam_sq: float = 1.0) -> CutoffFunction:
    return CutoffFunction(name="exponential", func=lambda u: np.exp(-u),
                          lam_sq=lam_sq)


def sharp_cutoff(lam_sq: float = 1.0) -> CutoffFunction:
    return CutoffFunction(name="sharp-cutoff",
                          func=lambda u: 1.0 if u <= 1.0 else 0.0,
                          lam_sq=lam_sq, support=(0.0, 1.0))


def gaussian_cutoff(lam_sq: float = 1.0) -> CutoffFunction:
    return CutoffFunction(name="gaussian", func=lambda u: np.exp(-u * u),
                          lam_sq=lam_sq)


CUTOFF_BUILTINS = {
    "exponential": exponential_cutoff,
    "sharp-cutoff": sharp_cutoff,
    "gaussian": gaussian_cutoff,
}


def make_cutoff(name: str, lam_sq: float = 1.0) -> CutoffFunction:
    if name not in CUTOFF_BUILTINS:
        raise KeyError(f"unknown cutoff '{name}'; builtins: {sorted(CUTOFF_BUILTINS)}")
    return CUTOFF_BUILTINS[name](lam_sq)


@dataclass(frozen=True)
class Moments:
    """The three cutoff moments used by the truncated action.

    m4 multiplies L^4 a0, m2 multiplies L^2 a2, m0 multiplies a4.
    """

    m4: float
    m2: float
    m0: float
    lam_sq: float = 1.0
    m4_err: float = 0.0
    m2_err: float = 0.0

    def __post_init__(self):
        vals = (self.m4, self.m2, self.m0, self.lam_sq)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("moments must be finite")


def moments(f: CutoffFunction, rel_tol: float = 1e-8) -> Moments:
    """First moment, zeroth moment and value at zero of the cutoff."""
    lo, hi = f.support if f.support is not None else (0.0, np.inf)
    m4, e4 = _scipy_integrate.quad(lambda u: f(u) * u, lo, hi)
    m2, e2 = _scipy_integrate.quad(f, lo, hi)
    for val, err, label in ((m4, e4, "first"), (m2, e2, "zeroth")):
        if not np.isfinite(val):
            raise ValueError(f"{label} moment diverges")
        if abs(val) > 0 and err / abs(val) > rel_tol:
            raise ValueError(f"{label} moment quadrature error {err:.2e} "
                             f"exceeds relative tolerance {rel_tol:.1e}")
    m0 = f(0.0)
    return Moments(m4=float(m4), m2=float(m2), m0=float(m0), lam_sq=f.lam_sq,
                   m4_err=float(e4), m2_err=float(e2))


# -- region quadrature ----------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """A coordinate box, with optional periodic identification per axis."""

    lo: tuple
    hi: tuple
    periodic: tuple = ()

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi):
            raise ValueError("lo and hi must have the same length")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("each hi must exceed the matching lo")
        per = tuple(bool(b) for b in self.periodic) or (False,) * len(lo)
        if len(per) != len(lo):
            raise ValueError("periodic flags must match the dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "periodic", per)

    @property
    def dim(self) -> int:
        return len(self.lo)


@dataclass(frozen=True)
class GridSpec:
    """Points per axis; at least 2 everywhere."""

    shape: tuple

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if any(n < 2 for n in shape):
            raise ValueError("grid needs at least 2 points per axis")
        object.__setattr__(self, "shape", shape)

    def coarser(self) -> "GridSpec":
        return GridSpec(tuple(max(2, (n + 1) // 2) for n in self.shape))


def _axis_rule(lo: float, hi: float, n: int, periodic: bool):
    if periodic:
        h = (hi - lo) / n
        pts = lo + h * np.arange(n)
        wts = np.full(n, h)
    else:
        h = (hi - lo) / (n - 1)
        pts = lo + h * np.arange(n)
        wts = np.full(n, h)
        wts[0] = wts[-1] = h / 2.0
    return pts, wts


# Points per density evaluation: larger blocks cut per-pass Python overhead
# but raise peak memory; at 64 both stay near their floor (measured).
BLOCK_POINTS = 64


def _grid_points(region: Region, grid: GridSpec) -> tuple:
    """(coords (P, dim), weights (P,)) in index order (C order over the axes)."""
    axes = [_axis_rule(region.lo[i], region.hi[i], grid.shape[i],
                       region.periodic[i]) for i in range(region.dim)]
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    weights = np.ones(coords.shape[0])
    for w in wmesh:
        weights = weights * w.ravel()
    return coords, weights


def _grid_eval(density, region: Region, grid: GridSpec) -> tuple:
    """(values (P, k), weights (P,)); ValueError names a non-finite grid point."""
    coords, weights = _grid_points(region, grid)
    values = np.concatenate([np.asarray(density(coords[i:i + BLOCK_POINTS]), dtype=float)
                             for i in range(0, len(coords), BLOCK_POINTS)])
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        point = tuple(coords[np.argmax(bad)].tolist())
        raise ValueError(f"non-finite density at grid point {point}")
    return values, weights


def _subgrid_rows(region: Region, grid: GridSpec, coarse: GridSpec):
    """Fine-grid row of each coarse-grid point, in index order, or None.

    None unless every coarse axis point equals a fine axis point exactly;
    the comparison is of the coordinates themselves, so rounding decides.
    """
    index = []
    for i in range(region.dim):
        f, c = (_axis_rule(region.lo[i], region.hi[i], n, region.periodic[i])[0]
                for n in (grid.shape[i], coarse.shape[i]))
        hits = c[:, None] == f
        if not hits.any(axis=1).all():
            return None
        index.append(hits.argmax(axis=1))
    return np.ravel_multi_index(np.meshgrid(*index, indexing="ij"), grid.shape).ravel()


def _integrate_many(density, region: Region, grid: GridSpec) -> tuple:
    """Trapezoid integrals of a vector density with error estimates.

    ``density(block (N, dim)) -> (N, k)``.  Returns (value (k,),
    error_estimate (k,), meta, fine-grid values (P, k)).  The estimate
    recomputes the integral at roughly half resolution; for the second-order
    trapezoid rule |I - I_fine| is about |I_fine - I_coarse| / 3.  When the
    coarse grid is a subset of the fine one, its values are the fine-grid
    values at those points; otherwise the density is evaluated on it.
    """
    vals, wts = _grid_eval(density, region, grid)
    fine = wts @ vals
    coarse_grid = grid.coarser()
    rows = _subgrid_rows(region, grid, coarse_grid)
    if rows is None:
        cvals, cwts = _grid_eval(density, region, coarse_grid)
    else:
        cvals, cwts = vals[rows], _grid_points(region, coarse_grid)[1]
    coarse = cwts @ cvals
    err = np.abs(fine - coarse) / 3.0
    meta = {"grid": grid.shape, "coarse_grid": coarse_grid.shape,
            "points": int(vals.shape[0])}
    return fine, err, meta, vals


def integrate_scalar(fn, region: Region, grid: GridSpec) -> tuple:
    """(value, error_estimate, meta) of a per-point ``fn(coords) -> float``."""
    fine, err, meta, _ = _integrate_many(
        lambda block: [[fn(tuple(x))] for x in block.tolist()], region, grid)
    return float(fine[0]), float(err[0]), meta


# -- heat kernel coefficients ----------------------------------------------------


@dataclass
class HeatKernelData:
    """What the squared operator is made of on the sampled region.

    aa_mode picks how the curvature-squared scalar is formed: "blocks" squares
    the assembled connection blockwise (gravity, gauge, Higgs, with the
    reparametrization constants), "metric" uses sigma^2 times the squared
    Riemann tensor of the generalized metric, which is the form the compact
    universal action assumes.  In blocks mode the volume comes from the
    connection's own frame, which should be the one metric is built from;
    metric then serves only the E term.
    """

    metric: GeneralizedMetric
    connection: ConnectionForm | None = None
    e_term: ChartField | None = None
    aa_mode: str = "blocks"
    reparam: ReparamConstants | None = None
    sigma_sq: float | None = None

    def __post_init__(self):
        if self.aa_mode not in ("blocks", "metric"):
            raise ValueError("aa_mode must be 'blocks' or 'metric'")
        if self.aa_mode == "blocks" and self.connection is None:
            raise ValueError("blocks mode needs an assembled connection")

    def resolved_sigma_sq(self) -> float:
        if self.sigma_sq is not None:
            return float(self.sigma_sq)
        sig = (self.connection.vielbein.signature if self.connection is not None
               else getattr(self.metric.vielbein, "signature", None))
        if sig is None:
            raise ValueError("sigma_sq not supplied and no vielbein to infer it from")
        return sigma_squared(sig)[0]


@dataclass
class HeatKernelCoefficients:
    a0: float
    a2: float
    a4: float
    errors: dict
    meta: dict

    def __post_init__(self):
        if self.a0 <= 0:
            raise ValueError("a0 must be positive for a nondegenerate metric")


def _laplacian_of_scalar(metric: GeneralizedMetric, f: ChartField, block: np.ndarray):
    """(f, g^{mn} (d_m d_n f - Gamma^l_mn d_l f)) over a coordinate block."""
    val, d1, d2 = f.jets(block, order=2)
    chris = metric.christoffel(block)
    lap = np.einsum("...mn,...mn->...", chris.gamma_inv, d2)
    lap -= np.einsum("...l,...l->...", np.einsum("...mn,...lmn->...l", chris.gamma_inv,
                                                 chris.values), d1)
    return val, lap


def heat_kernel_coefficients(data: HeatKernelData, region: Region,
                             grid: GridSpec) -> HeatKernelCoefficients:
    """a0, a2, a4 integrated over the region.

    a0 = (1/16 pi^2) int vol; a2 = (1/16 pi^2) int E vol;
    a4 = (1/192 pi^2) int (6 E^2 + 2 lap E + AA) vol.
    """
    sig_sq = data.resolved_sigma_sq() if data.aa_mode == "metric" else None

    def density(block):
        if data.aa_mode == "blocks":
            ct = curvature(data.connection, block)
            aa = curvature_squared(ct, data.reparam).total
        else:
            ct = data.metric.curvature(block)
            aa = sig_sq * ct.riemann_squared()
        # the curvature pass's gamma gives the volume; no second jet pass
        vol = np.sqrt(np.abs(checked_det(ct.gamma)))
        if data.e_term is not None:
            e_val, e_lap = _laplacian_of_scalar(data.metric, data.e_term, block)
        else:
            e_val, e_lap = 0.0, 0.0
        return np.stack([vol, e_val * vol,
                         (6.0 * e_val ** 2 + 2.0 * e_lap + aa) * vol], axis=-1)

    fine, err, meta, _ = _integrate_many(density, region, grid)
    a0 = fine[0] / (16.0 * PI2)
    a2 = fine[1] / (16.0 * PI2)
    a4 = fine[2] / (192.0 * PI2)
    errors = {"a0": err[0] / (16.0 * PI2), "a2": err[1] / (16.0 * PI2),
              "a4": err[2] / (192.0 * PI2)}
    return HeatKernelCoefficients(a0=a0, a2=a2, a4=a4, errors=errors, meta=meta)


# -- assembled action -------------------------------------------------------------


@dataclass
class ActionReport:
    """Per-term breakdown of an assembled action.

    terms maps name -> (coefficient, integral, value) with value the product;
    total is the exact sum of the values.
    """

    terms: dict
    total: float
    constants: dict = field(default_factory=dict)
    moment_table: tuple = ()
    quadrature: dict = field(default_factory=dict)
    notes: tuple = ()

    def term_value(self, name: str) -> float:
        return self.terms[name][2]

    def sum_residual(self) -> float:
        return abs(self.total - sum(v[2] for v in self.terms.values()))

    def csv_rows(self) -> list:
        rows = ["name,coefficient,integral,value"]
        for name in sorted(self.terms):
            c, i, v = self.terms[name]
            rows.append(",".join([name] + ["%.17g" % x for x in (c, i, v)]))
        return rows

    def to_text(self) -> str:
        lines = ["action terms:"]
        for name in sorted(self.terms):
            c, i, v = self.terms[name]
            lines.append(f"  {name}: coefficient={c:.12g} integral={i:.12g} "
                         f"value={v:.12g}")
        lines.append(f"total: {self.total:.12g}")
        if self.moment_table:
            lines.append("moment mapping:")
            for row in self.moment_table:
                lines.append("  " + " | ".join(str(x) for x in row))
        for note in self.notes:
            lines.append("note: " + note)
        return "\n".join(lines)


def derived_constants(m: Moments, sigma_sq: float | None = None,
                      connection_constants=None, higgs_c: float | None = None,
                      reparam: ReparamConstants | None = None) -> dict:
    """Every named constant of the action, mapped onto the three moments."""
    rp = reparam or ReparamConstants()
    out = {
        "tau0": m.m4 * m.lam_sq ** 2 / (16.0 * PI2),
        "alpha0": m.m0 / (192.0 * PI2 * rp.n_r ** 2),
        "mu0": (192.0 * PI2 / m.m0) if m.m0 != 0 else np.inf,
        "beta0": m.m0 / (2880.0 * PI2),
        "eta0": m.m0 / (480.0 * PI2),
        "zeta0": m.m0 / (1152.0 * PI2),
    }
    if sigma_sq:
        out["kappa0"] = 96.0 * PI2 / (sigma_sq * m.m0)
    lam0 = 0.0
    if connection_constants is not None and higgs_c is not None:
        lam0 = lambda0_constant(connection_constants, higgs_c, rp.n_h)
        kappa_sq = (connection_constants.eta * m.m0
                    / (192.0 * PI2 * connection_constants.alpha ** 2 * rp.n_h ** 2))
        out["z"] = float(np.sqrt(kappa_sq)) * higgs_c
    out["lambda0"] = lam0
    out["delta0"] = (12.0 * m.m4 * m.lam_sq ** 2 + m.m0 * lam0) / (192.0 * PI2)
    return out


def spectral_action(m: Moments, coeffs: HeatKernelCoefficients,
                    sigma_sq: float | None = None, connection_constants=None,
                    higgs_c: float | None = None,
                    reparam: ReparamConstants | None = None) -> ActionReport:
    """Three-term truncated action M4 L^4 a0 + M2 L^2 a2 + M0 a4."""
    lam_sq = m.lam_sq
    terms = {
        "a0_volume": (m.m4 * lam_sq ** 2, coeffs.a0, m.m4 * lam_sq ** 2 * coeffs.a0),
        "a2_endomorphism": (m.m2 * lam_sq, coeffs.a2, m.m2 * lam_sq * coeffs.a2),
        "a4_curvature": (m.m0, coeffs.a4, m.m0 * coeffs.a4),
    }
    total = float(sum(v[2] for v in terms.values()))
    consts = derived_constants(m, sigma_sq=sigma_sq,
                               connection_constants=connection_constants,
                               higgs_c=higgs_c, reparam=reparam)
    table = (
        ("term", "moment", "value", "scale power"),
        ("a0_volume", "M4 (first moment)", m.m4, "L^4"),
        ("a2_endomorphism", "M2 (zeroth moment)", m.m2, "L^2"),
        ("a4_curvature", "M0 (value at 0)", m.m0, "L^0"),
    )
    notes = ("volume term carries the highest moment; the pairing is fixed by "
             "the heat kernel expansion, whatever the moments are called",)
    return ActionReport(terms=terms, total=total, constants=consts,
                        moment_table=table,
                        quadrature={"errors": coeffs.errors, **coeffs.meta},
                        notes=notes)


def universal_action_form(report: ActionReport, m: Moments,
                          vol_integral: float, riemann_sq_integral: float,
                          sigma_sq: float) -> dict:
    """Compact form tau0 * vol + (1/2 kappa0) * int R.R.

    Consistent with the three-term total when a2 = 0 and the a4 scalar is the
    metric-mode sigma^2 R.R density.
    """
    if sigma_sq == 0:
        raise ValueError("sigma_sq must be nonzero")
    tau0 = m.m4 * m.lam_sq ** 2 / (16.0 * PI2)
    kappa0 = 96.0 * PI2 / (sigma_sq * m.m0)
    compact = tau0 * vol_integral + riemann_sq_integral / (2.0 * kappa0)
    return {
        "tau0": tau0,
        "kappa0": kappa0,
        "compact_total": compact,
        "residual_vs_total": abs(compact - report.total),
    }


# -- field equations ---------------------------------------------------------------


@dataclass
class FieldEquationInput:
    """Geometry, optional SM sector, stress tensor and constants at a point."""

    metric: GeneralizedMetric
    connection: ConnectionForm | None = None
    stress: ChartField | None = None     # covariant T_mn
    kappa0: float = 1.0
    tau0: float = 0.0
    f0: float = 1.0
    n_r: float = 1.0
    n_h: float = 1.0


@dataclass
class FieldEquationResidual:
    point: Point
    lhs_display: np.ndarray
    lhs_variational: np.ndarray
    rhs: np.ndarray
    residual_display: np.ndarray
    residual_variational: np.ndarray
    symmetry_residual: float
    fd_report: dict
    sm: dict | None = None


def _stress_at(inp: FieldEquationInput, p: Point, n: int) -> np.ndarray:
    if inp.stress is None:
        return np.zeros((n, n))
    t = np.asarray(inp.stress.numeric(p.coords), dtype=float)
    if t.shape != (n, n):
        raise ValueError(f"stress tensor must be ({n}, {n})")
    return t


def _fd_directional(dens, m0: np.ndarray, direction: np.ndarray,
                    step: float) -> float:
    return (dens(m0 + step * direction) - dens(m0 - step * direction)) / (2 * step)


def _fd_variation(dens, ginv: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """delta dens / delta g^{mu nu} by symmetric finite differences.

    Off-diagonal directions perturb the symmetric pair, so the directional
    derivative equals twice the (mu, nu) component.
    """
    n = ginv.shape[0]
    out = np.zeros((n, n))
    for mu in range(n):
        for nu in range(mu, n):
            direction = np.zeros((n, n))
            direction[mu, nu] = 1.0
            direction[nu, mu] = 1.0
            d = _fd_directional(dens, ginv, direction, step)
            out[mu, nu] = out[nu, mu] = d / (2.0 if mu != nu else 1.0)
    return out


def field_equation_residual(inp: FieldEquationInput, p: Point,
                            fd_step: float = 1e-6) -> FieldEquationResidual:
    """Hamilton's-principle residuals at p, with a finite-difference oracle.

    The general form uses the squared-Riemann Lagrangian: the quoted
    variation is 4 R_mu^{srl} R_{nu srl} + (1/2) gamma_mn R.R, while the
    actual derivative of the density carries -(1/2) from the volume factor;
    both are assembled and compared against the stress side
    kappa0 T_mn - gamma_mn kappa0 tau0.

    The finite-difference oracle perturbs the inverse metric while holding
    every all-covariant curvature component frozen, which isolates exactly
    the algebraic part of the variation the displayed equations contain; the
    derivative-of-curvature terms are outside its scope by construction.
    """
    ct = inp.metric.curvature(p)
    n = ct.gamma.shape[0]
    gamma = ct.gamma
    ginv = ct.gamma_inv
    rd = ct.riemann_down()           # R_{mu nu rho la}, all covariant
    rr = ct.riemann_squared()

    # 4 R_mu^{s r l} R_{nu s r l}
    r_mu = np.einsum("sa,rb,lc,msrl,nabc->mn", ginv, ginv, ginv, rd, rd)
    four_rr = 4.0 * r_mu
    lhs_display = four_rr + 0.5 * gamma * rr
    lhs_variational = four_rr - 0.5 * gamma * rr
    t_mn = _stress_at(inp, p, n)
    rhs = inp.kappa0 * t_mn - gamma * inp.kappa0 * inp.tau0

    det_sign = np.sign(np.linalg.det(gamma))

    def vol_of(minv: np.ndarray) -> float:
        d = np.linalg.det(minv)
        return 1.0 / np.sqrt(abs(d))

    def rr_of(minv: np.ndarray) -> float:
        # raise the four indices of R_{mnrl} with minv one at a time
        ru = np.einsum("mnrl,ld->mnrd", rd, minv)
        ru = np.einsum("mnrd,rc->mncd", ru, minv)
        ru = np.einsum("mncd,nb->mbcd", ru, minv)
        ru = np.einsum("mbcd,ma->abcd", ru, minv)
        return float(np.einsum("abcd,abcd->", ru, rd))

    vol0 = vol_of(ginv)
    fd_rr = _fd_variation(lambda m: rr_of(m) * vol0, ginv, fd_step) / vol0
    fd_vol = _fd_variation(lambda m: rr * vol_of(m), ginv, fd_step) / vol0
    fd_full = _fd_variation(lambda m: rr_of(m) * vol_of(m), ginv, fd_step) / vol0
    fd_report = {
        "rr_frozen_vol": float(np.abs(fd_rr - four_rr).max()),
        "vol_frozen_rr": float(np.abs(fd_vol + 0.5 * gamma * rr).max()),
        "full_vs_variational": float(np.abs(fd_full - lhs_variational).max()),
        "full_vs_display": float(np.abs(fd_full - lhs_display).max()),
        "det_sign": float(det_sign),
        "note": "covariant curvature components frozen; algebraic part only",
    }

    sym = float(np.abs(lhs_display - lhs_display.T).max())

    sm = None
    if inp.connection is not None:
        sm = _sm_field_equation(inp, p, fd_step)

    return FieldEquationResidual(
        point=p,
        lhs_display=lhs_display,
        lhs_variational=lhs_variational,
        rhs=rhs,
        residual_display=lhs_display - rhs,
        residual_variational=lhs_variational - rhs,
        symmetry_residual=sym,
        fd_report=fd_report,
        sm=sm,
    )


def _sm_field_equation(inp: FieldEquationInput, p: Point, fd_step: float) -> dict:
    """N_mn - (1/2) gamma_mn L_B = (1/2) T_mn with the canonical SM sector."""
    f = curvature(inp.connection, p)
    norm = sm_lagrangian_normalized(f, f0=inp.f0, n_r=inp.n_r, n_h=inp.n_h)
    gamma = f.gamma
    ginv = f.gamma_inv
    n = gamma.shape[0]
    alpha0 = norm.constants["alpha0"]
    kappa_sq = norm.constants["kappa"] ** 2

    ricci = f.ricci
    n_grav = 2.0 * alpha0 * np.einsum("ma,na->mn",
                                      np.einsum("ab,mb->ma", ginv, ricci), ricci)

    def gauge_n(comp: np.ndarray) -> np.ndarray:
        up = np.einsum("ab,cnb->cna", ginv, comp)
        return -0.5 * np.einsum("cma,cna->mn", comp, up)

    n_gauge = (gauge_n(f.b_components) + gauge_n(f.w_f) + gauge_n(f.g_f))
    higgs_t = kappa_sq * f.higgs_kinetic_tensor()
    n_mn = n_grav + n_gauge + higgs_t

    lag = norm.total
    lhs = n_mn - 0.5 * gamma * lag
    t_mn = _stress_at(inp, p, n)
    rhs = 0.5 * t_mn

    # finite-difference oracle with frozen covariant blocks
    ricci_d = ricci.copy()
    comps = [f.b_components.copy(), f.w_f.copy(), f.g_f.copy()]
    kin = f.higgs_kinetic_tensor().copy()
    const_part = (norm.terms["higgs_potential"] + norm.terms["delta0"])

    def lag_of(minv: np.ndarray) -> float:
        val = alpha0 * np.einsum("ma,nb,mn,ab->", minv, minv, ricci_d, ricci_d)
        for comp in comps:
            val -= 0.25 * np.einsum("ma,nb,cmn,cab->", minv, minv, comp, comp)
        return float(val)

    def dens(minv: np.ndarray) -> float:
        d = np.linalg.det(minv)
        vol = 1.0 / np.sqrt(abs(d))
        kin_term = kappa_sq * np.einsum("mn,mn->", minv, kin)
        return (lag_of(minv) + kin_term + const_part) * vol

    vol0 = 1.0 / np.sqrt(abs(np.linalg.det(ginv)))
    fd = _fd_variation(dens, ginv, fd_step) / vol0
    fd_res = float(np.abs(fd - (n_mn - 0.5 * gamma * lag)).max())

    return {
        "n_mn": n_mn,
        "lagrangian": lag,
        "lhs": lhs,
        "rhs": rhs,
        "residual": lhs - rhs,
        "fd_vs_algebraic": fd_res,
        "symmetry_residual": float(np.abs(lhs - lhs.T).max()),
    }


# -- Riemannian limit ---------------------------------------------------------------


def _divergence_integral(scalar_grid: np.ndarray, vol_grid: np.ndarray,
                         ginv_grid: np.ndarray, region: Region,
                         grid: GridSpec) -> float:
    """int d_m (vol g^{mn} d_n s) via grid finite differences.

    Periodic axes difference with wraparound; open axes use one-sided stencils
    at the boundary.  On fully periodic grids the sum telescopes to zero up to
    roundoff.
    """
    dim = region.dim
    steps = []
    for i in range(dim):
        n = grid.shape[i]
        if region.periodic[i]:
            steps.append((region.hi[i] - region.lo[i]) / n)
        else:
            steps.append((region.hi[i] - region.lo[i]) / (n - 1))

    def axis_gradient(arr, axis):
        h = steps[axis]
        if region.periodic[axis]:
            return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2 * h)
        return np.gradient(arr, h, axis=axis)

    grads = np.stack([axis_gradient(scalar_grid, i) for i in range(dim)], axis=0)
    flux = np.einsum("...mn,n...->m...", ginv_grid, grads) * vol_grid[None]
    div = np.zeros_like(scalar_grid)
    for i in range(dim):
        div += axis_gradient(flux[i], i)

    w = _grid_points(region, grid)[1].reshape(grid.shape)
    return float(np.sum(w * div))


def riemannian_limit_action(frame: Vielbein, region: Region, grid: GridSpec,
                            m: Moments, connection: ConnectionForm | None = None,
                            n_r: float = 1.0, n_h: float = 1.0) -> ActionReport:
    """The expanded action when the connection is the Riemannian one.

    Terms: delta0 volume, Einstein-Hilbert with coefficient M2 L^2 / 64 pi^2,
    the SM sector in canonical normalization, the total-derivative term
    eta0 * int lap R, zeta0 * int R^2 and -beta0 * int (Ricci^2 + Riemann^2).
    A connection, if given, should live on frame: the volume and curvature
    terms come from frame, the gauge and Higgs sectors from the connection.
    Comparing a frame with a reference metric is the limit-check task's job.
    """
    gm = frame.metric()
    if connection is not None:
        consts = connection.constants
        higgs_c = connection.higgs.c
    else:
        consts = None
        higgs_c = None

    dconsts = derived_constants(m, connection_constants=consts, higgs_c=higgs_c,
                                reparam=ReparamConstants(n_r=n_r, n_h=n_h))
    alpha0 = dconsts["alpha0"]
    beta0 = dconsts["beta0"]
    eta0 = dconsts["eta0"]
    zeta0 = dconsts["zeta0"]
    delta0 = dconsts.get("delta0", 0.0)
    eh_coeff = m.m2 * m.lam_sq / (64.0 * PI2)

    def density(block):
        ct = gm.curvature(block)
        vol = np.sqrt(np.abs(checked_det(ct.gamma)))
        gauge = higgs = 0.0
        if connection is not None:
            norm = sm_lagrangian_normalized(curvature(connection, block), f0=m.m0, f4=m.m4,
                                            lam_sq=m.lam_sq, n_r=n_r, n_h=n_h)
            gauge = norm.terms["gauge_b"] + norm.terms["gauge_w"] + norm.terms["gauge_g"]
            higgs = norm.terms["higgs_kinetic"] + norm.terms["higgs_potential"]
        scalar = ct.scalar
        # the last columns carry the grids of the total-derivative term
        return np.column_stack([
            vol,
            scalar * vol,
            scalar ** 2 * vol,
            ct.ricci_squared() * vol,
            ct.riemann_squared() * vol,
            gauge * vol,
            higgs * vol,
            scalar,
            ct.gamma_inv.reshape(len(block), -1),
        ])

    fine, err, meta, vals = _integrate_many(density, region, grid)
    vol_i, r_i, r2_i, ric2_i, riem2_i, gauge_i, higgs_i = fine[:7]
    err = err[:7]

    shape = grid.shape
    lap_r_integral = _divergence_integral(
        vals[:, 7].reshape(shape), vals[:, 0].reshape(shape),
        vals[:, 8:].reshape(shape + (region.dim, region.dim)), region, grid)

    terms = {
        "delta0_volume": (delta0, vol_i, delta0 * vol_i),
        "einstein_hilbert": (eh_coeff, r_i, eh_coeff * r_i),
        "ricci_sq": (alpha0, ric2_i, alpha0 * ric2_i),
        "gauge_sector": (1.0, gauge_i, gauge_i),
        "higgs_sector": (1.0, higgs_i, higgs_i),
        "lap_scalar": (eta0, lap_r_integral, eta0 * lap_r_integral),
        "scalar_sq": (zeta0, r2_i, zeta0 * r2_i),
        "ricci_riemann_sq": (-beta0, ric2_i + riem2_i, -beta0 * (ric2_i + riem2_i)),
    }
    total = float(sum(v[2] for v in terms.values()))
    notes = ("total-derivative term integrates d_m(vol g^{mn} d_n R) from grid "
             "finite differences; it telescopes to zero on periodic axes",
             "beta0/zeta0 = 1152/2880 = 0.4 exactly")
    consts_out = {"beta0": beta0, "eta0": eta0, "zeta0": zeta0,
                  "delta0": delta0, "alpha0": alpha0, "eh_coeff": eh_coeff}
    return ActionReport(terms=terms, total=total, constants=consts_out,
                        quadrature={"errors": dict(zip(
                            ("vol", "scalar", "scalar_sq", "ricci_sq",
                             "riemann_sq", "gauge", "higgs"), err.tolist())),
                            **meta},
                        notes=notes)


def unification_scale(m: Moments, c: float = 1.0) -> float:
    """Energy scale from matching the Einstein-Hilbert coefficient: 4 pi c^4 / M2."""
    if m.m2 == 0:
        raise ValueError("the zeroth moment must be nonzero")
    return 4.0 * np.pi * c ** 4 / m.m2
