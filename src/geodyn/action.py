"""Cutoff moments, heat kernel coefficients and the assembled bosonic action.

The truncated action is M4 L^4 a0 + M2 L^2 a2 + M0 a4 with L^2 the energy
scale.  Moment names are fixed by the pairing, not by any label: M4 is the
first moment of the cutoff (it multiplies the volume term), M2 the zeroth
moment, M0 the value at zero; all three are exact.  Every derived constant is
formed once, from these three, in derived_constants, whose normalized-form
entries are connection.sm_constants (the SM normalization reads the same
function), so the mapping stays auditable.

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

Each action function takes one source, and its mode follows from the
source's type: a frame (or, for the field equations, a metric) gives the
metric form, a ConnectionForm, which carries its frame, the connection's.
The densities that read the frame metric's own curvature pass (the
Riemannian limit and the heat kernel of a frame) share it: the volume,
R, Ric.Ric, R.R and gamma^-1 of a block (4 + n^2 floats a point, not the
curvature tensors) are memoised on the metric's Vielbein, keyed by the
block's coordinates, and live as long as that frame, which a scenario run
builds afresh.  Each pass enters the memo as it returns, so a failed sweep
leaves the blocks it finished.  A connection's pass builds the same numbers
and is not shared.  The quadrature meta counts the blocks a sweep passed
itself and those it read, so a run's report charges each pass to the first
task that made it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import (
    PI2,
    ConnectionForm,
    CurvatureForm,
    curvature,
    curvature_squared,
    field_strength_square,
    higgs_kinetic_square,
    sm_constants,
    sm_lagrangian_normalized,
)
from .fields import ChartField
from .geometry import GeneralizedMetric, Vielbein, ricci_square, riemann_square, sigma_squared
from .tensors import Point

__all__ = [
    "Moments",
    "Region",
    "GridSpec",
    "HeatKernelCoefficients",
    "ActionReport",
    "FieldEquationInput",
    "FieldEquationResidual",
    "exponential_cutoff",
    "sharp_cutoff",
    "gaussian_cutoff",
    "CUTOFF_BUILTINS",
    "ACTION_TERMS",
    "moments",
    "integrate_scalar",
    "heat_kernel_coefficients",
    "spectral_action",
    "field_equation_residual",
    "riemannian_limit_action",
]

# -- cutoff functions and moments ----------------------------------------------


@dataclass(frozen=True)
class Moments:
    """A nonnegative cutoff profile f on [0, inf) as the truncated action reads
    it: m4 = int u f du multiplies L^4 a0, m2 = int f du multiplies L^2 a2 and
    m0 = f(0) multiplies a4, with lam_sq the energy scale L^2."""

    m4: float
    m2: float
    m0: float
    lam_sq: float = 1.0

    def __post_init__(self):
        vals = (self.m4, self.m2, self.m0, self.lam_sq)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("a moment is not finite: M4 = {}, M2 = {}, M0 = {}, "
                             "L^2 = {}".format(*vals))
        if self.lam_sq <= 0:
            raise ValueError("energy scale must be positive")


def exponential_cutoff(lam_sq: float = 1.0) -> Moments:
    """f(u) = exp(-u)."""
    return Moments(m4=1.0, m2=1.0, m0=1.0, lam_sq=lam_sq)


def sharp_cutoff(lam_sq: float = 1.0) -> Moments:
    """f(u) = 1 for u <= 1, else 0."""
    return Moments(m4=0.5, m2=1.0, m0=1.0, lam_sq=lam_sq)


def gaussian_cutoff(lam_sq: float = 1.0) -> Moments:
    """f(u) = exp(-u^2)."""
    return Moments(m4=0.5, m2=float(np.sqrt(np.pi)) / 2.0, m0=1.0, lam_sq=lam_sq)


CUTOFF_BUILTINS = {
    "exponential": exponential_cutoff,
    "sharp-cutoff": sharp_cutoff,
    "gaussian": gaussian_cutoff,
}


def moments(u: tuple, f: tuple, lam_sq: float = 1.0) -> Moments:
    """The exact Moments of the piecewise-linear profile on the knots (u, f):
    f[0] on [0, u[0]), linear between knots, 0 past u[-1], for u increasing
    from u[0] >= 0.  ValueError where a moment leaves the float range."""
    knots = list(zip((0.0,) + u, f[:1] + f))
    m4 = m2 = 0.0
    for (u0, f0), (u1, f1) in zip(knots, knots[1:]):
        m4 += (u1 - u0) * (u0 * (2 * f0 + f1) + u1 * (f0 + 2 * f1)) / 6
        m2 += (u1 - u0) * (f0 + f1) / 2
    # f(0) is the value right of 0, so of the last knot at u = 0 if any
    return Moments(m4=m4, m2=m2, m0=float(np.interp(0.0, u, f)), lam_sq=lam_sq)


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
    """(points, trapezoid weights, step) of one axis."""
    h = (hi - lo) / (n if periodic else n - 1)
    wts = np.full(n, h)
    if not periodic:
        wts[0] = wts[-1] = h / 2.0
    return lo + h * np.arange(n), wts, h


def _axes(region: Region, grid: GridSpec) -> list:
    """The _axis_rule of every axis of the grid."""
    return [_axis_rule(region.lo[i], region.hi[i], grid.shape[i], region.periodic[i])
            for i in range(region.dim)]


# Points per density evaluation: larger blocks cut per-pass Python overhead
# but raise peak memory; at 64 both stay near their floor (measured).
BLOCK_POINTS = 64


def _grid_points(region: Region, grid: GridSpec) -> tuple:
    """(coords (P, dim), weights (P,)) in index order (C order over the axes)."""
    axes = _axes(region, grid)
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
    for (f, _, _), (c, _, _) in zip(_axes(region, grid), _axes(region, coarse)):
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


def _invariants(ct) -> tuple:
    """(sqrt|det gamma|, R, Ric.Ric, R.R, gamma^-1) of a curvature pass over a
    block: all that the action densities read of it."""
    return ct.volume(), ct.scalar, ct.ricci_squared(), ct.riemann_squared(), ct.gamma_inv


class _Passes:
    """The curvature passes of one quadrature, and how many it made itself.

    invariants(block) is the _invariants of the frame metric's pass over the
    block: read from its vielbein's memo, else passed here and memoised as it
    returns, so every entry is a finished pass and a block whose pass raised
    has none.  integrate puts "blocks_passed" and "blocks_read" in the meta.
    A density that passes a connection's curvature instead counts those
    passes as its own.
    """

    def __init__(self, metric: GeneralizedMetric):
        self.metric = metric
        self.memo = metric.vielbein.invariants
        self.blocks = self.read = 0

    def invariants(self, block: np.ndarray) -> tuple:
        key = block.tobytes()
        if key in self.memo:
            self.read += 1
        else:
            passed = _invariants(self.metric.curvature(block))
            # later quadratures of the frame are handed these same arrays
            for array in passed:
                array.flags.writeable = False
            self.memo[key] = passed
        return self.memo[key]

    def integrate(self, density, region: Region, grid: GridSpec) -> tuple:
        def counted(block):
            self.blocks += 1
            return density(block)

        fine, err, meta, vals = _integrate_many(counted, region, grid)
        meta.update(blocks_passed=self.blocks - self.read, blocks_read=self.read)
        return fine, err, meta, vals


def integrate_scalar(fn, region: Region, grid: GridSpec) -> tuple:
    """(value, error_estimate, meta) of a per-point ``fn(coords) -> float``."""
    fine, err, meta, _ = _integrate_many(
        lambda block: [[fn(tuple(x))] for x in block.tolist()], region, grid)
    return float(fine[0]), float(err[0]), meta


# -- heat kernel coefficients ----------------------------------------------------


@dataclass
class HeatKernelCoefficients:
    """a0, a2, a4 with their quadrature errors; sigma_sq is the sigma^2 that
    a4 used, None when a connection's blocks gave its curvature square."""

    a0: float
    a2: float
    a4: float
    sigma_sq: float | None
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


def heat_kernel_coefficients(source: Vielbein | ConnectionForm, region: Region,
                             grid: GridSpec, e_term: ChartField | None = None
                             ) -> HeatKernelCoefficients:
    """a0, a2, a4 integrated over the region.

    a0 = (1/16 pi^2) int vol; a2 = (1/16 pi^2) int E vol;
    a4 = (1/192 pi^2) int (6 E^2 + 2 lap E + AA) vol.

    A frame gives AA = sigma^2 R.R, the form the compact universal action
    assumes, with sigma^2 = n(n-1) from its signature and R.R from its
    metric's shared pass.  A connection gives AA as its assembled curvature
    squared blockwise (gravity, gauge, Higgs, with unit reparametrization
    constants), and its own curvature pass gives the volume.  E, if given,
    is a scalar field, its Laplacian taken with the frame's metric.
    """
    connection = source if isinstance(source, ConnectionForm) else None
    frame = source.vielbein if connection is not None else source
    sig_sq = sigma_squared(frame.signature)[0] if connection is None else None
    passes = _Passes(frame.metric())

    def density(block):
        # the curvature pass's guarded determinant gives the volume; no
        # second jet pass or guard
        if connection is not None:
            ct = curvature(connection, block)
            aa = curvature_squared(ct).total
            vol = ct.volume()
        else:
            vol, _, _, riem_sq, _ = passes.invariants(block)
            aa = sig_sq * riem_sq
        if e_term is not None:
            e_val, e_lap = _laplacian_of_scalar(passes.metric, e_term, block)
        else:
            e_val, e_lap = 0.0, 0.0
        return np.stack([vol, e_val * vol,
                         (6.0 * e_val ** 2 + 2.0 * e_lap + aa) * vol], axis=-1)

    fine, err, meta, _ = passes.integrate(density, region, grid)
    a0 = fine[0] / (16.0 * PI2)
    a2 = fine[1] / (16.0 * PI2)
    a4 = fine[2] / (192.0 * PI2)
    errors = {"a0": err[0] / (16.0 * PI2), "a2": err[1] / (16.0 * PI2),
              "a4": err[2] / (192.0 * PI2)}
    return HeatKernelCoefficients(a0=a0, a2=a2, a4=a4, sigma_sq=sig_sq, errors=errors,
                                  meta=meta)


# -- assembled action -------------------------------------------------------------


@dataclass
class ActionReport:
    """Per-term breakdown of an assembled action.

    terms maps name -> (coefficient, integral, value) with value the product;
    total is the exact sum of the values.  quadrature["errors"] maps a term
    to the Richardson estimate of its integral's quadrature error.
    """

    terms: dict
    total: float
    constants: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)


# the terms of each action form's report, keyed by the form's config name, in
# the order the report sums them
ACTION_TERMS = {
    "spectral": ("a0_volume", "a2_endomorphism", "a4_curvature"),
    "riemannian-limit": ("delta0_volume", "einstein_hilbert", "ricci_sq", "gauge_sector",
                         "higgs_sector", "lap_scalar", "scalar_sq", "ricci_riemann_sq"),
}


def derived_constants(m: Moments, sigma_sq: float | None = None,
                      connection: ConnectionForm | None = None,
                      n_r: float = 1.0, n_h: float = 1.0) -> dict:
    """Every named constant of the action, mapped onto the three moments.

    The normalized-form constants (tau0, alpha0, mu0, kappa_sq, z, lambda0,
    delta0) are connection.sm_constants, read with the connection's Higgs
    scale alpha and vacuum constant c; without a connection lambda0 is 0 and
    kappa_sq and z are absent.  kappa0 needs sigma_sq; like mu0 it is inf
    when the cutoff vanishes at zero.
    """
    alpha, higgs_c = ((connection.alpha, connection.higgs.c) if connection is not None
                      else (None, None))
    out = sm_constants(m.m0, m.m4, m.lam_sq, n_r, n_h, alpha, higgs_c)
    out.update(beta0=m.m0 / (2880.0 * PI2), eta0=m.m0 / (480.0 * PI2),
               zeta0=m.m0 / (1152.0 * PI2))
    if sigma_sq:
        out["kappa0"] = 96.0 * PI2 / (sigma_sq * m.m0) if m.m0 != 0 else np.inf
    return out


def spectral_action(m: Moments, coeffs: HeatKernelCoefficients,
                    connection: ConnectionForm | None = None) -> ActionReport:
    """Three-term truncated action M4 L^4 a0 + M2 L^2 a2 + M0 a4.

    Its constants are read with the sigma^2 of coeffs and, if given, the
    connection's Higgs block.
    """
    lam_sq = m.lam_sq
    # (coefficient, integral, quadrature error) of each term
    parts = ((m.m4 * lam_sq ** 2, coeffs.a0, coeffs.errors["a0"]),
             (m.m2 * lam_sq, coeffs.a2, coeffs.errors["a2"]),
             (m.m0, coeffs.a4, coeffs.errors["a4"]))
    names = ACTION_TERMS["spectral"]
    terms = {name: (c, i, c * i) for name, (c, i, _) in zip(names, parts)}
    errors = {name: e for name, (_, _, e) in zip(names, parts)}
    total = float(sum(v[2] for v in terms.values()))
    consts = derived_constants(m, sigma_sq=coeffs.sigma_sq, connection=connection)
    return ActionReport(terms=terms, total=total, constants=consts,
                        quadrature={"errors": errors, **coeffs.meta})


# -- field equations ---------------------------------------------------------------


@dataclass
class FieldEquationInput:
    """Geometry, stress tensor and constants at a point.

    source is a metric, or a connection, whose curvature pass also gives the
    SM sector, so one pass serves both sectors.
    """

    source: GeneralizedMetric | ConnectionForm
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


# the central-difference step of the field-equation oracle
FD_STEP = 1e-6


def _volume_of_inverse(minv: np.ndarray):
    """sqrt|det gamma| = 1/sqrt|det gamma^-1|, leading batch axes allowed."""
    return 1.0 / np.sqrt(np.abs(np.linalg.det(minv)))


def _fd_variation(dens, ginv: np.ndarray) -> np.ndarray:
    """delta dens / delta g^{mu nu} by symmetric finite differences.

    ``dens`` takes a stack of inverse metrics [..., n, n] and returns one
    value per metric; every + and - perturbation goes to it in one call.
    Off-diagonal directions perturb the symmetric pair, so their difference
    quotient is twice the (mu, nu) component.
    """
    n = ginv.shape[0]
    mu, nu = np.triu_indices(n)
    k = np.arange(len(mu))
    directions = np.zeros((len(mu), n, n))
    directions[k, mu, nu] = directions[k, nu, mu] = 1.0
    plus, minus = dens(np.stack([ginv + FD_STEP * directions, ginv - FD_STEP * directions]))
    out = np.zeros((n, n))
    out[mu, nu] = out[nu, mu] = (plus - minus) / (2 * FD_STEP) / np.where(mu == nu, 1.0, 2.0)
    return out


def field_equation_residual(inp: FieldEquationInput, p: Point) -> FieldEquationResidual:
    """Hamilton's-principle residuals at p, with a finite-difference oracle.

    The general form uses the squared-Riemann Lagrangian: the quoted
    variation is 4 R_mu^{srl} R_{nu srl} + (1/2) gamma_mn R.R, while the
    actual derivative of the density carries -(1/2) from the volume factor;
    both are assembled and compared against the stress side
    kappa0 T_mn - gamma_mn kappa0 tau0.

    The finite-difference oracle perturbs the inverse metric while holding
    every all-covariant curvature component frozen, which isolates exactly
    the algebraic part of the variation the displayed equations contain; the
    derivative-of-curvature terms are outside its scope by construction.  Its
    densities are the curvature objects' own squares (riemann_square and the
    connection's) taken with the perturbed inverse metric.  A connection
    source adds the SM sector; its one curvature(connection, p) pass serves
    both sectors.
    """
    sm_form = isinstance(inp.source, ConnectionForm)
    ct = curvature(inp.source, p) if sm_form else inp.source.curvature(p)
    gamma, ginv = ct.gamma, ct.gamma_inv
    n = gamma.shape[0]
    rd = ct.riemann_down()           # R_{mu nu rho la}, all covariant
    rr = ct.riemann_squared()

    # 4 R_mu^{s r l} R_{nu s r l}
    four_rr = 4.0 * np.einsum("sa,rb,lc,msrl,nabc->mn", ginv, ginv, ginv, rd, rd)
    lhs_display = four_rr + 0.5 * gamma * rr
    lhs_variational = four_rr - 0.5 * gamma * rr
    t_mn = _stress_at(inp, p, n)
    rhs = inp.kappa0 * t_mn - gamma * inp.kappa0 * inp.tau0

    vol0 = _volume_of_inverse(ginv)
    fd_rr = _fd_variation(lambda m: riemann_square(rd, m) * vol0, ginv) / vol0
    fd_vol = _fd_variation(lambda m: rr * _volume_of_inverse(m), ginv) / vol0
    fd_full = _fd_variation(lambda m: riemann_square(rd, m) * _volume_of_inverse(m),
                            ginv) / vol0
    fd_report = {
        "rr_frozen_vol": float(np.abs(fd_rr - four_rr).max()),
        "vol_frozen_rr": float(np.abs(fd_vol + 0.5 * gamma * rr).max()),
        "full_vs_variational": float(np.abs(fd_full - lhs_variational).max()),
        "full_vs_display": float(np.abs(fd_full - lhs_display).max()),
        "det_sign": float(np.sign(np.linalg.det(gamma))),
        "note": "covariant curvature components frozen; algebraic part only",
    }

    sym = float(np.abs(lhs_display - lhs_display.T).max())
    sm = _sm_field_equation(inp, ct, t_mn) if sm_form else None
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


def _sm_field_equation(inp: FieldEquationInput, f: CurvatureForm, t_mn: np.ndarray) -> dict:
    """N_mn - (1/2) gamma_mn L_B = (1/2) T_mn with the canonical SM sector,
    at the point of f."""
    norm = sm_lagrangian_normalized(f, f0=inp.f0, n_r=inp.n_r, n_h=inp.n_h)
    gamma, ginv, ricci = f.gamma, f.gamma_inv, f.ricci
    alpha0 = norm.constants["alpha0"]
    kappa_sq = norm.constants["kappa_sq"]

    n_grav = 2.0 * alpha0 * np.einsum("ma,na->mn",
                                      np.einsum("ab,mb->ma", ginv, ricci), ricci)

    def gauge_n(comp: np.ndarray) -> np.ndarray:
        up = np.einsum("ab,cnb->cna", ginv, comp)
        return -0.5 * np.einsum("cma,cna->mn", comp, up)

    comps = (f.b_components, f.w_f, f.g_f)
    kin = f.higgs_kinetic_trace()
    # Re kin is the (m, n) symmetrization: swapping m and n conjugates kin
    n_mn = n_grav + sum(gauge_n(comp) for comp in comps) + kappa_sq * np.real(kin)
    lag = norm.total
    lhs = n_mn - 0.5 * gamma * lag
    rhs = 0.5 * t_mn

    # finite-difference oracle: the terms of norm with the covariant blocks
    # frozen, squared with the perturbed inverse metric
    const_part = norm.terms["higgs_potential"] + norm.terms["delta0"]

    def dens(minv: np.ndarray):
        val = alpha0 * ricci_square(ricci, minv)
        for comp in comps:
            val = val - 0.25 * field_strength_square(comp, minv)
        val = val + kappa_sq * higgs_kinetic_square(kin, minv) + const_part
        return val * _volume_of_inverse(minv)

    fd = _fd_variation(dens, ginv) / _volume_of_inverse(ginv)
    fd_res = float(np.abs(fd - lhs).max())

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
    steps = [h for _, _, h in _axes(region, grid)]

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


def riemannian_limit_action(source: Vielbein | ConnectionForm, region: Region,
                            grid: GridSpec, m: Moments, n_r: float = 1.0,
                            n_h: float = 1.0) -> ActionReport:
    """The expanded action when the connection is the Riemannian one.

    Terms: delta0 volume, Einstein-Hilbert with coefficient M2 L^2 / 64 pi^2,
    the SM sector in canonical normalization, the total-derivative term
    eta0 * int lap R, zeta0 * int R^2 and -beta0 * int (Ricci^2 + Riemann^2).
    A frame source leaves the gauge and Higgs sectors zero, and its metric
    passes are shared with its other quadratures (module docstring).  A
    connection's one curvature pass per block gives the volume and curvature
    terms, as its frame's own would, and the gauge and Higgs sectors.
    Comparing a frame with a reference metric is the limit-check task's job.
    """
    connection = source if isinstance(source, ConnectionForm) else None
    frame = source.vielbein if connection is not None else source
    dconsts = derived_constants(m, connection=connection, n_r=n_r, n_h=n_h)
    alpha0 = dconsts["alpha0"]
    beta0 = dconsts["beta0"]
    eta0 = dconsts["eta0"]
    zeta0 = dconsts["zeta0"]
    delta0 = dconsts["delta0"]
    eh_coeff = m.m2 * m.lam_sq / (64.0 * PI2)

    passes = _Passes(frame.metric())

    def density(block):
        gauge = higgs = 0.0
        if connection is None:
            vol, scalar, ricci_sq, riem_sq, ginv = passes.invariants(block)
        else:
            ct = curvature(connection, block)
            vol, scalar, ricci_sq, riem_sq, ginv = _invariants(ct)
            norm = sm_lagrangian_normalized(ct, f0=m.m0, f4=m.m4,
                                            lam_sq=m.lam_sq, n_r=n_r, n_h=n_h)
            gauge = norm.terms["gauge_b"] + norm.terms["gauge_w"] + norm.terms["gauge_g"]
            higgs = norm.terms["higgs_kinetic"] + norm.terms["higgs_potential"]
        # the last columns carry the grids of the total-derivative term
        return np.column_stack([
            vol,
            scalar * vol,
            scalar ** 2 * vol,
            ricci_sq * vol,
            riem_sq * vol,
            gauge * vol,
            higgs * vol,
            scalar,
            ginv.reshape(len(block), -1),
        ])

    fine, err, meta, vals = passes.integrate(density, region, grid)
    vol_i, r_i, r2_i, ric2_i, riem2_i, gauge_i, higgs_i = fine[:7]
    e_vol, e_r, e_r2, e_ric2, e_riem2, e_gauge, e_higgs = err[:7].tolist()

    shape = grid.shape
    lap_r_integral = _divergence_integral(
        vals[:, 7].reshape(shape), vals[:, 0].reshape(shape),
        vals[:, 8:].reshape(shape + (region.dim, region.dim)), region, grid)

    # (coefficient, integral, quadrature error) of each term; lap_scalar's
    # integral comes from grid finite differences, with no estimate
    parts = ((delta0, vol_i, e_vol), (eh_coeff, r_i, e_r), (alpha0, ric2_i, e_ric2),
             (1.0, gauge_i, e_gauge), (1.0, higgs_i, e_higgs),
             (eta0, lap_r_integral, None), (zeta0, r2_i, e_r2),
             (-beta0, ric2_i + riem2_i, e_ric2 + e_riem2))
    names = ACTION_TERMS["riemannian-limit"]
    terms = {name: (c, i, c * i) for name, (c, i, _) in zip(names, parts)}
    errors = {name: e for name, (_, _, e) in zip(names, parts) if e is not None}
    total = float(sum(v[2] for v in terms.values()))
    consts_out = {"beta0": beta0, "eta0": eta0, "zeta0": zeta0,
                  "delta0": delta0, "alpha0": alpha0, "eh_coeff": eh_coeff}
    return ActionReport(terms=terms, total=total, constants=consts_out,
                        quadrature={"errors": errors, **meta})
