"""Gauge and Higgs blocks of the generalized covariant derivative.

The connection is block diagonal: a gravity block (sigma-contracted spin
connection of the vielbein), a gauge block diag(Lambda, Q, V) built from
hypercharge/su(2)/su(3) potentials, and a Higgs block.  Anti-Hermitian
generator conventions:

    Lambda_m = (i g1 / 2) B_m
    Q_m      = -(i g2 / 2) sigma_a W^a_m
    V'_m     = -(i g3 / 2) T_a G^a_m      (Gell-Mann, Tr(T_a T_b) = 2 delta_ab)
    V_m      = -V'_m - (1/3) Lambda_m I_3

so the assembled 6x6 gauge block is traceless by construction.  Component
field strengths are kept algebraically consistent with the matrix curvature
of each block (the V block's gluon field strength carries the orientation
of -V', i.e. the structure-constant term enters with a minus sign).

``curvature`` evaluates what the squared curvature reads: the metric
curvature of the vielbein (gamma, its inverse, Ricci, Riemann), the component
field strengths of the gauge block and the Higgs data.  The square reads the
gravity block only through the Ricci tensor, so that block is not assembled;
the gauge block's matrix two-forms are derived from the components when read.
``curvature`` also takes an (N, dim) coordinate block, which adds a leading
point axis to every result, so a quadrature density makes one jet pass per
field per block.  Its independent self-check is ``gauge_route_check``; the
frame's own check is ``geometry.frame_curvature_check``.  Tests and the
limit-check task run them, not every quadrature point.

The Higgs block's scale alpha (``ConnectionForm.alpha``) is the connection's
one settable constant.  The paper fixes the rest: the Higgs coupling matrix
chi = sigma_1, which enters only through ETA = Tr(chi^dagger chi) = 2, and the
size N_SPINOR = 4 of the gravity block's spinor leg.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import ChartField
from .geometry import CurvatureTensors, Vielbein, _unbatched
from .tensors import Point

__all__ = [
    "PAULI",
    "GELL_MANN",
    "su3_structure_constants",
    "SMGaugeConfig",
    "HiggsField",
    "ETA",
    "N_SPINOR",
    "ConnectionForm",
    "CurvatureForm",
    "ReparamConstants",
    "LagrangianBreakdown",
    "GaugeTraceReport",
    "SECTOR_MULTIPLICITIES",
    "curvature",
    "gauge_route_check",
    "curvature_of_potential",
    "transform_potential",
    "bianchi_residual",
    "curvature_squared",
    "field_strength_square",
    "higgs_kinetic_square",
    "lambda0_constant",
    "gauge_square_report",
    "higgs_covariant_derivative",
    "sm_constants",
    "sm_lagrangian_normalized",
]

PAULI = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)

_L = np.zeros((8, 3, 3), dtype=complex)
_L[0, 0, 1] = _L[0, 1, 0] = 1.0
_L[1, 0, 1] = -1.0j
_L[1, 1, 0] = 1.0j
_L[2, 0, 0] = 1.0
_L[2, 1, 1] = -1.0
_L[3, 0, 2] = _L[3, 2, 0] = 1.0
_L[4, 0, 2] = -1.0j
_L[4, 2, 0] = 1.0j
_L[5, 1, 2] = _L[5, 2, 1] = 1.0
_L[6, 1, 2] = -1.0j
_L[6, 2, 1] = 1.0j
_L[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
GELL_MANN = _L


def su3_structure_constants() -> np.ndarray:
    """f_abc with [T_a, T_b] = 2i f_abc T_c, from the Gell-Mann basis."""
    comm = (np.einsum("aij,bjk->abik", GELL_MANN, GELL_MANN)
            - np.einsum("bij,ajk->abik", GELL_MANN, GELL_MANN))
    # project on T_c using Tr(T_c T_d) = 2 delta_cd
    f = np.einsum("abik,cki->abc", comm, GELL_MANN) / (4.0j)
    return np.real(f)


_F_SU3 = su3_structure_constants()
_EPS3 = np.zeros((3, 3, 3))
_EPS3[0, 1, 2] = _EPS3[1, 2, 0] = _EPS3[2, 0, 1] = 1.0
_EPS3[0, 2, 1] = _EPS3[2, 1, 0] = _EPS3[1, 0, 2] = -1.0


@dataclass
class SMGaugeConfig:
    """Component gauge potentials B_m, W^a_m, G^a_m with their couplings."""

    b: ChartField          # shape (n,)
    w: ChartField          # shape (3, n)
    g: ChartField          # shape (8, n)
    g1: float = 1.0
    g2: float = 1.0
    g3: float = 1.0

    def __post_init__(self):
        n = self.b.dim
        if self.b.shape != (n,):
            raise ValueError("B potential must have shape (dim,)")
        if self.w.shape != (3, n) or self.w.dim != n:
            raise ValueError("W potential must have shape (3, dim)")
        if self.g.shape != (8, n) or self.g.dim != n:
            raise ValueError("G potential must have shape (8, dim)")
        for name in ("g1", "g2", "g3"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"coupling {name} must be positive, got {value!r}")

    @property
    def dim(self) -> int:
        return self.b.dim

    @classmethod
    def zero(cls, dim: int, g1: float = 1.0, g2: float = 1.0, g3: float = 1.0):
        return cls(b=ChartField(dim=dim, shape=(dim,), func=lambda c: np.zeros(dim)),
                   w=ChartField(dim=dim, shape=(3, dim), func=lambda c: np.zeros((3, dim))),
                   g=ChartField(dim=dim, shape=(8, dim), func=lambda c: np.zeros((8, dim))),
                   g1=g1, g2=g2, g3=g3)


def _gauge_blocks(b, w, g, g1, g2, g3) -> dict:
    """The blocks of diag(Lambda, Q, V) from the components b[...], w[..., a]
    and g[..., a], component axis last: [m] on the potentials, [..., m, n] on
    the field strengths.  Each block gains trailing matrix axes."""
    lam = 0.5j * g1 * b
    q = -0.5j * g2 * np.einsum("aij,...a->...ij", PAULI, w)
    v = (0.5j * g3 * np.einsum("aij,...a->...ij", GELL_MANN, g)
         - (lam / 3.0)[..., None, None] * np.eye(3))
    full = np.zeros(lam.shape + (6, 6), dtype=complex)
    full[..., 0, 0] = lam
    full[..., 1:3, 1:3] = q
    full[..., 3:6, 3:6] = v
    return {"lam": lam, "q": q, "v": v, "full": full}


@dataclass
class HiggsField:
    """Quaternion-valued Higgs, stored as the 2x2 matrix [[x, y], [-y*, x*]]."""

    h: ChartField          # shape (2, 2), complex
    c: float = 1.0

    def __post_init__(self):
        if self.h.shape != (2, 2):
            raise ValueError("Higgs field must be a 2x2 matrix field")

    @property
    def dim(self) -> int:
        return self.h.dim

    @classmethod
    def zero(cls, dim: int, c: float = 1.0):
        return cls(h=ChartField(dim=dim, shape=(2, 2),
                                func=lambda coords: np.zeros((2, 2), dtype=complex)),
                   c=c)

    @classmethod
    def from_components(cls, dim: int, x_func, y_func, c: float = 1.0):
        """H from complex component functions x(coords), y(coords)."""
        from .jets import conjugate

        def func(coords):
            x = x_func(coords)
            y = y_func(coords)
            out = np.empty((2, 2), dtype=object)
            out[0, 0] = x
            out[0, 1] = y
            out[1, 0] = -conjugate(y)
            out[1, 1] = conjugate(x)
            return out

        return cls(h=ChartField(dim=dim, shape=(2, 2), func=func), c=c)


PI2 = float(np.pi ** 2)
ETA = 2.0          # <chi, chi> = Tr(chi^dagger chi) for chi = sigma_1
N_SPINOR = 4       # identity-factor size of the gravity block's spinor leg


@dataclass
class ConnectionForm:
    """Generalized covariant derivative: gravity + gauge + Higgs blocks,
    with alpha the scale of the Higgs block."""

    vielbein: Vielbein
    sm: SMGaugeConfig
    higgs: HiggsField
    alpha: float = 1.0

    def __post_init__(self):
        n = self.vielbein.dim
        if self.sm.dim != n or self.higgs.dim != n:
            raise ValueError("all fields must share the chart dimension")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


# -- curvature ---------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureForm(CurvatureTensors):
    """F = dA + A^A at a point as its square reads it: the metric curvature
    of the vielbein (the CurvatureTensors fields), the component field
    strengths of the gauge block, stored [a, m, n] antisymmetric in (m, n),
    and the Higgs data.  The gauge block's matrix two-forms, stored
    [m, n, i, j], are derived from the components when first read.  Evaluated
    on an (N, dim) block, every array gains a leading point axis,
    higgs_potential and the scalar methods give (N,) arrays, and point is the
    block."""

    b_f: np.ndarray             # (n, n) abelian field strength
    w_f: np.ndarray             # (3, n, n)
    g_f: np.ndarray             # (8, n, n), V-block orientation
    higgs_kinetic: np.ndarray   # (n, 2, 2): D_m H
    higgs_value: np.ndarray     # (2, 2)
    higgs_potential: float      # |H|^2 - c^2
    higgs_c: float              # vacuum constant c
    couplings: tuple            # (g1, g2, g3)
    alpha: float                # the connection's Higgs scale

    @cached_property
    def _gauge_forms(self) -> dict:
        return _gauge_blocks(self.b_f, np.moveaxis(self.w_f, -3, -1),
                             np.moveaxis(self.g_f, -3, -1), *self.couplings)

    lam_f = property(lambda self: self._gauge_forms["lam"])        # (n, n) complex
    q_f = property(lambda self: self._gauge_forms["q"])            # (n, n, 2, 2)
    v_f = property(lambda self: self._gauge_forms["v"])            # (n, n, 3, 3)
    gauge_full = property(lambda self: self._gauge_forms["full"])  # (n, n, 6, 6)

    @property
    def b_components(self) -> np.ndarray:
        """b_f with a one-entry component axis, laid out like w_f and g_f."""
        return self.b_f[..., None, :, :]

    def square_scalar(self, two_form: np.ndarray) -> complex:
        """tr(F_mn F^mn) for a matrix two-form stored [m, n, i, j]."""
        ginv = self.gamma_inv
        n = ginv.shape[-1]
        # raise m on the rows (b, i, j), then n on the rows (i, j) of each m
        up = (ginv @ two_form.reshape(two_form.shape[:-4] + (n, -1))).reshape(
            two_form.shape[:-4] + (n, n, -1))
        up = (ginv[..., None, :, :] @ up).reshape(two_form.shape)
        return _unbatched(np.einsum("...mnij,...mnji->...", two_form, up))

    def component_square(self, comp: np.ndarray) -> float:
        """sum_a F^a_mn F^{a mn} for component field strengths [a, m, n]."""
        return field_strength_square(comp, self.gamma_inv)

    def higgs_kinetic_scalar(self) -> float:
        """|DH|^2 = (1/2) Tr(D_m H (D_n H)^dagger) gamma^{mn}."""
        return higgs_kinetic_square(self.higgs_kinetic_trace(), self.gamma_inv)

    def higgs_kinetic_trace(self) -> np.ndarray:
        """(1/2) Tr(D_m H (D_n H)^dagger), Hermitian in (m, n)."""
        return 0.5 * np.einsum("...mij,...nij->...mn", self.higgs_kinetic,
                               np.conj(self.higgs_kinetic))


def field_strength_square(comp: np.ndarray, ginv: np.ndarray):
    """sum_a F^a_mn F^{a mn} of components [..., a, m, n] raised by ginv,
    batched as geometry.riemann_square."""
    g = ginv[..., None, :, :]
    up = g @ comp @ g.swapaxes(-1, -2)
    return _unbatched(np.real(np.einsum("...cmn,...cmn->...", comp, up)))


def higgs_kinetic_square(kin: np.ndarray, ginv: np.ndarray):
    """|DH|^2 = Re kin_mn g^{mn} of the kinetic trace kin, batched alike."""
    return _unbatched(np.real(np.einsum("...mn,...mn->...", ginv, kin)))


def curvature_of_potential(a_vals: np.ndarray, a_d1: np.ndarray) -> np.ndarray:
    """F[m, n] = d_m A_n - d_n A_m + [A_m, A_n] for matrix potentials.

    a_vals[m, i, j]; a_d1[m, i, j, s] = d_s A_m.
    """
    da = np.einsum("nijm->mnij", a_d1) - np.einsum("mijn->mnij", a_d1)
    comm = (np.einsum("mij,njk->mnik", a_vals, a_vals)
            - np.einsum("nij,mjk->mnik", a_vals, a_vals))
    return da + comm


def transform_potential(a_vals, a_d1, u_vals, u_d1, u_d2):
    """Gauge-transformed potential A' = u A u^-1 + u d(u^-1) with derivatives.

    u is unitary pointwise, so u^-1 = u^dagger.  u_d1[i, j, s] = d_s u_ij and
    u_d2[i, j, s, t] = d_t d_s u_ij.  Returns (a'_vals, a'_d1).
    """
    uh = np.conj(u_vals.T)
    duh = np.conj(np.einsum("ijs->jis", u_d1))
    dduh = np.conj(np.einsum("ijst->jist", u_d2))
    a_new = (np.einsum("ik,mkl,lj->mij", u_vals, a_vals, uh)
             + np.einsum("ik,kjm->mij", u_vals, duh))
    da_new = (np.einsum("iks,mkl,lj->mijs", u_d1, a_vals, uh)
              + np.einsum("ik,mkls,lj->mijs", u_vals, a_d1, uh)
              + np.einsum("ik,mkl,ljs->mijs", u_vals, a_vals, duh)
              + np.einsum("iks,kjm->mijs", u_d1, duh)
              + np.einsum("ik,kjms->mijs", u_vals, dduh))
    return a_new, da_new


def bianchi_residual(a_vals: np.ndarray, a_d1: np.ndarray, a_d2: np.ndarray) -> float:
    """Max residual of the cyclic gauge identity D_[l F_mn] = 0.

    a_d2[m, i, j, s, t] = d_t d_s A_m.
    """
    f = curvature_of_potential(a_vals, a_d1)
    # df[m, n, i, j, s] = d_s F_mn
    df = (np.einsum("nijms->mnijs", a_d2)
          - np.einsum("mijns->mnijs", a_d2)
          + np.einsum("mijs,njk->mniks", a_d1, a_vals)
          + np.einsum("mij,njks->mniks", a_vals, a_d1)
          - np.einsum("nijs,mjk->mniks", a_d1, a_vals)
          - np.einsum("nij,mjks->mniks", a_vals, a_d1))
    cov = (np.einsum("mnijl->lmnij", df)
           + np.einsum("lij,mnjk->lmnik", a_vals, f)
           - np.einsum("mnij,ljk->lmnik", f, a_vals))
    cyc = (cov
           + np.einsum("mnlij->lmnij", cov)
           + np.einsum("nlmij->lmnij", cov))
    return float(np.abs(cyc).max())


def _real_components(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        worst = float(np.abs(arr.imag).max()) if arr.size else 0.0
        if worst > 1e-12:
            raise ValueError(f"{what} must be real-valued (anti-Hermitian blocks); "
                             f"imaginary part up to {worst:.3e}")
        arr = arr.real
    return np.asarray(arr, dtype=float)


def _gauge_jets(sm: SMGaugeConfig, p) -> tuple:
    """(value, derivative) of B, W and G at p, checked real."""
    return tuple((_real_components(v, f"{name} components"),
                  _real_components(d, f"{name} derivatives"))
                 for name, (v, d, _) in zip("BWG", (f.jets(p, order=1)
                                                    for f in (sm.b, sm.w, sm.g))))


def curvature(a: ConnectionForm, p) -> CurvatureForm:
    """Evaluate F = dA + A^A at p as its square reads it.

    ``p`` is a Point or an (N, dim) block: one order-2 jet pass over the
    frame for the metric curvature and one order-1 pass each over B, W, G
    and H.
    """
    ct = a.vielbein.metric().curvature(p)
    (bv, bd), (wv, wd), (gv, gd) = _gauge_jets(a.sm, p)
    g1, g2, g3 = a.sm.g1, a.sm.g2, a.sm.g3

    # component field strengths; bd[m, s] = d_s B_m etc.
    b_f = bd.swapaxes(-1, -2) - bd
    w_f = wd.swapaxes(-1, -2) - wd + g2 * _structure_product(_EPS3, wv)
    g_f = gd.swapaxes(-1, -2) - gd - g3 * _structure_product(_F_SU3, gv)

    hv, hd, _ = a.higgs.h.jets(p, order=1)
    hv = np.asarray(hv, dtype=complex)
    dh = np.moveaxis(np.asarray(hd, dtype=complex), -1, -3)
    dh = dh - 0.5j * g1 * bv[..., None, None] * hv[..., None, :, :]
    wmat = np.einsum("aij,...am->...mij", PAULI, wv)
    dh = dh - 0.5j * g2 * (wmat @ hv[..., None, :, :])

    # |H|^2 = Tr(H^dagger H) / 2
    pot = np.real(np.einsum("...ij,...ij->...", hv.conj(), hv)) / 2.0 - a.higgs.c ** 2

    return CurvatureForm(
        **vars(ct),
        b_f=b_f,
        w_f=w_f,
        g_f=g_f,
        higgs_kinetic=dh,
        higgs_value=hv,
        higgs_potential=_unbatched(pot),
        higgs_c=a.higgs.c,
        couplings=(g1, g2, g3),
        alpha=a.alpha,
    )


def _structure_product(f_abc: np.ndarray, v: np.ndarray) -> np.ndarray:
    """f_abc v^b_m v^c_n as [..., a, m, n]."""
    return np.einsum("...acm,...cn->...amn", np.einsum("abc,...bm->...acm", f_abc, v), v)


def gauge_route_check(a: ConnectionForm, p: Point) -> float:
    """The su(2) and su(3) blocks of curvature(a, p), built from the
    structure constants, against curvature_of_potential of the matrix
    potentials, built from the commutator."""
    f = curvature(a, p)
    (bv, bd), (wv, wd), (gv, gd) = _gauge_jets(a.sm, p)
    pot = _gauge_blocks(bv, wv.T, gv.T, *f.couplings)
    # the map is linear, so it also takes d_s A_m to the matrices, [m, s, i, j]
    dpot = _gauge_blocks(bd, np.moveaxis(wd, 0, -1), np.moveaxis(gd, 0, -1),
                         *f.couplings)
    return max(float(np.abs(curvature_of_potential(pot[k], np.moveaxis(dpot[k], 1, -1))
                            - form).max())
               for k, form in (("q", f.q_f), ("v", f.v_f)))


def higgs_covariant_derivative(sm: SMGaugeConfig, higgs: HiggsField,
                               p: Point) -> np.ndarray:
    """D_m H = (d_m - (i g1/2) B_m - (i g2/2) sigma_a W^a_m) H as out[m, i, j].

    m is the covariant chart index; (i, j) are the 2x2 quaternion slots of H.

    Deliberately written with explicit matrix products rather than one einsum
    so it stays an independent check against the curvature() evaluation.
    """
    hv, hd, _ = higgs.h.jets(p, order=1)
    hv = np.asarray(hv, dtype=complex)
    bv = _real_components(sm.b.numeric(p.coords), "B components")
    wv = _real_components(sm.w.numeric(p.coords), "W components")
    n = sm.dim
    out = np.zeros((n, 2, 2), dtype=complex)
    for m in range(n):
        wmat = sum(wv[a, m] * PAULI[a] for a in range(3))
        out[m] = (np.asarray(hd, dtype=complex)[:, :, m]
                  - 0.5j * sm.g1 * bv[m] * hv
                  - 0.5j * sm.g2 * (wmat @ hv))
    return out


# -- squared curvature and its reparametrizations -----------------------------


@dataclass(frozen=True)
class ReparamConstants:
    """The five reparametrization constants of the squared-curvature action."""

    n_r: float = 1.0
    n_b: float = 1.0
    n_w: float = 1.0
    n_g: float = 1.0
    n_h: float = 1.0

    def __post_init__(self):
        for name in ("n_r", "n_b", "n_w", "n_g", "n_h"):
            if getattr(self, name) == 0:
                raise ValueError(f"reparametrization constant {name} must be nonzero")


@dataclass
class LagrangianBreakdown:
    """Named scalar terms of a Lagrangian density at a point, or (N,) arrays
    of them over a coordinate block, with the constants that scale them."""

    point: Point | np.ndarray
    terms: dict
    total: float
    constants: dict = field(default_factory=dict)


def _total(terms: dict):
    """The sum of the terms: a float at a point, an (N,) array over a block."""
    total = sum(terms.values())
    return float(total) if np.ndim(total) == 0 else total


def lambda0_constant(alpha: float, c: float, n_h: float = 1.0) -> float:
    """The constant shift (eta^2/alpha^4)(1 + 1/n_h^4) c^4."""
    return (ETA ** 2 / alpha ** 4) * (1.0 + 1.0 / n_h ** 4) * c ** 4


def curvature_squared(f: CurvatureForm,
                      reparam: ReparamConstants | None = None) -> LagrangianBreakdown:
    """Scalar terms of the reparametrized squared curvature at f.point.

    Terms: Ricci^2 with coefficient N_SPINOR/(4 n_r^2); gauge terms
    -(3 g1^2/4 n_b^2) B^2, -(g2^2/4 n_w^2) W^2, -(3 g3^2/4 n_g^2) G^2;
    Higgs kinetic (eta/alpha^2 n_h^2)|DH|^2; Higgs potential
    -(eta^2/alpha^4 n_h^4)(|H|^2 - c^2)^2; and the constant lambda0 that
    keeps the zero-field value of the reparametrized form equal to the
    plain squared curvature.
    """
    rp = reparam or ReparamConstants()
    g1, g2, g3 = f.couplings
    eta = ETA
    alpha = f.alpha
    pot = f.higgs_potential
    terms = {
        "ricci_sq": N_SPINOR / (4.0 * rp.n_r ** 2) * f.ricci_squared(),
        "gauge_b": -(3.0 * g1 ** 2 / (4.0 * rp.n_b ** 2)) * f.component_square(f.b_components),
        "gauge_w": -(g2 ** 2 / (4.0 * rp.n_w ** 2)) * f.component_square(f.w_f),
        "gauge_g": -(3.0 * g3 ** 2 / (4.0 * rp.n_g ** 2)) * f.component_square(f.g_f),
        "higgs_kinetic": (eta / (alpha ** 2 * rp.n_h ** 2)) * f.higgs_kinetic_scalar(),
        "higgs_potential": -(eta ** 2 / (alpha ** 4 * rp.n_h ** 4)) * pot ** 2,
        "lambda0": lambda0_constant(alpha, f.higgs_c, rp.n_h),
    }
    return LagrangianBreakdown(point=f.point, terms=terms, total=_total(terms))


# -- trace oracle over the U(1) + SU(2) + U(3) block ---------------------------


@dataclass
class GaugeTraceReport:
    """Brute-force traces of the gauge curvature blocks and the identities
    they do or do not satisfy."""

    raw_lambda: float           # tr(Lam_mn Lam^mn), 1x1 block
    raw_q: float                # tr_2(Q_mn Q^mn)
    raw_v: float                # tr_3(V_mn V^mn)
    s_lambda: float             # -raw/2 scalar map
    s_q: float
    s_v: float
    b_sq: float                 # B_mn B^mn
    w_sq: float                 # sum_a W^a_mn W^{a mn}
    g_sq: float                 # sum_a G^a_mn G^{a mn}
    su3_matrix_sq: float        # tr_3((T_a G^a)_mn (T_b G^b)^mn) = 2 g_sq
    q_identity_residual: float
    v_display_residual: float   # vs -(g3^2/4) su3_matrix_sq - (g1^2/12) b_sq
    v_component_residual: float  # vs -(g3^2/2) g_sq - (g1^2/12) b_sq
    weighted_total: float
    display_total: float        # (3/4)g1^2 B^2 + (1/4)g2^2 W^2 + (3/4)g3^2 G^2
    display_residual: float
    trace_max: float            # max |tr gauge_full_mn|
    trace_imag_max: float


# weights of the (lambda, q, v) sectors in the combined total: the unique
# choice reproducing the display coefficients (3/4, 1/4, 3/4)
SECTOR_MULTIPLICITIES = (5.0, 1.0, 3.0)


def gauge_square_report(f: CurvatureForm) -> GaugeTraceReport:
    """Evaluate every gauge-sector trace identity by brute force.

    The scalar map is s(F) = -tr(F_mn F^mn)/2, which is positive for
    anti-Hermitian F with Euclidean index raising; the Gell-Mann matrices
    are normalised by Tr(T_a T_b) = 2 delta_ab.  With A = T_a G^a,
    tr_3(V V^up) = -(g3^2/4) tr_3(A A^up) - (g1^2/12) B^2, and
    tr_3(A A^up) = 2 sum_a G^a G^a, so the gluon coefficient is g3^2/2 per
    unit component square.
    """
    g1, g2, g3 = f.couplings
    raws = [f.square_scalar(blk) for blk in (f.lam_f[..., None, None], f.q_f, f.v_f)]
    imag_worst = max(abs(v.imag) for v in raws)
    raw_lambda, raw_q, raw_v = (float(v.real) for v in raws)
    s_lambda, s_q, s_v = (-0.5 * v for v in (raw_lambda, raw_q, raw_v))
    b_sq = f.component_square(f.b_components)
    w_sq = f.component_square(f.w_f)
    g_sq = f.component_square(f.g_f)
    su3_mat = np.einsum("aij,amn->mnij", GELL_MANN, f.g_f.astype(complex))
    su3_matrix_sq = float(np.real(f.square_scalar(su3_mat)))
    m_l, m_q, m_v = SECTOR_MULTIPLICITIES
    weighted = m_l * s_lambda + m_q * s_q + m_v * s_v
    display = 0.75 * g1 ** 2 * b_sq + 0.25 * g2 ** 2 * w_sq + 0.75 * g3 ** 2 * g_sq
    trace = np.einsum("mnii->mn", f.gauge_full)
    return GaugeTraceReport(
        raw_lambda=raw_lambda, raw_q=raw_q, raw_v=raw_v,
        s_lambda=s_lambda, s_q=s_q, s_v=s_v,
        b_sq=b_sq, w_sq=w_sq, g_sq=g_sq,
        su3_matrix_sq=su3_matrix_sq,
        q_identity_residual=abs(s_q - 0.25 * g2 ** 2 * w_sq),
        v_display_residual=abs(raw_v - (-(g3 ** 2 / 4.0) * su3_matrix_sq
                                        - (g1 ** 2 / 12.0) * b_sq)),
        v_component_residual=abs(raw_v - (-(g3 ** 2 / 2.0) * g_sq
                                          - (g1 ** 2 / 12.0) * b_sq)),
        weighted_total=weighted,
        display_total=display,
        display_residual=abs(weighted - display),
        trace_max=float(np.abs(trace).max()),
        trace_imag_max=imag_worst,
    )


# -- normalized Standard Model form -------------------------------------------


def sm_constants(f0: float, f4: float, lam_sq: float, n_r: float, n_h: float,
                 alpha: float | None, c: float | None) -> dict:
    """The constants of the normalized form, from the cutoff's value at zero
    f0 and first moment f4, the energy scale lam_sq, n_r, n_h and the Higgs
    block's alpha and c; the one place each is formed.

    tau0 = f4 lam_sq^2/(16 pi^2), alpha0 = N_SPINOR f0/(768 pi^2 n_r^2),
    mu0 = 192 pi^2/f0 (inf at f0 = 0), kappa^2 = eta f0/(192 pi^2 alpha^2
    n_h^2), z = kappa c, lambda0 = lambda0_constant(alpha, c, n_h) and
    delta0 = (12 f4 lam_sq^2 + f0 lambda0)/(192 pi^2).  Without a Higgs block
    (alpha or c None) lambda0 is 0 and kappa_sq and z are absent.
    """
    out = {"tau0": f4 * lam_sq ** 2 / (16.0 * PI2),
           "alpha0": N_SPINOR * f0 / (768.0 * PI2 * n_r ** 2),
           "mu0": 192.0 * PI2 / f0 if f0 != 0 else np.inf}
    lam0 = 0.0
    if alpha is not None and c is not None:
        lam0 = lambda0_constant(alpha, c, n_h)
        out["kappa_sq"] = ETA * f0 / (192.0 * PI2 * alpha ** 2 * n_h ** 2)
        out["z"] = float(np.sqrt(out["kappa_sq"])) * c
    out["lambda0"] = lam0
    out["delta0"] = (12.0 * f4 * lam_sq ** 2 + f0 * lam0) / (192.0 * PI2)
    return out


def sm_lagrangian_normalized(f: CurvatureForm, f0: float, f4: float = 0.0,
                             lam_sq: float = 0.0, n_r: float = 1.0,
                             n_h: float = 1.0) -> LagrangianBreakdown:
    """Rescale the squared-curvature SM sector to canonical normalization.

    The gauge reparametrization constants are fixed by
    3 f0 g1^2/(768 pi^2 N_B^2) = f0 g2^2/(768 pi^2 N_W^2)
    = 3 f0 g3^2/(768 pi^2 N_G^2) = 1/4, the Higgs is rescaled by kappa, and
    the output density is

        alpha0 R.R - (1/4)B^2 - (1/4)W^2 - (1/4)G^2 + |D H'|^2
        - mu0 (|H'|^2 - z^2)^2 + delta0

    with the constants of sm_constants.  f4 and lam_sq feed the cosmological
    constant delta0; they default to zero.
    """
    if f0 == 0:
        raise ValueError("the quartic moment f0 must be nonzero")
    if f0 < 0:
        raise ValueError("the quartic moment f0 must be positive")
    g1, g2, g3 = f.couplings
    consts = sm_constants(f0, f4, lam_sq, n_r, n_h, f.alpha, f.higgs_c)
    kappa_sq = consts["kappa_sq"]
    # |H'|^2 - z^2 with |H'|^2 = kappa^2 |H|^2 and z^2 = kappa^2 c^2
    c_sq = f.higgs_c ** 2
    shifted = kappa_sq * (f.higgs_potential + c_sq) - kappa_sq * c_sq

    terms = {
        "ricci_sq": consts["alpha0"] * f.ricci_squared(),
        "gauge_b": -0.25 * f.component_square(f.b_components),
        "gauge_w": -0.25 * f.component_square(f.w_f),
        "gauge_g": -0.25 * f.component_square(f.g_f),
        "higgs_kinetic": kappa_sq * f.higgs_kinetic_scalar(),
        "higgs_potential": -consts["mu0"] * shifted ** 2,
        "delta0": consts["delta0"],
    }
    n_b_sq = f0 * g1 ** 2 / (64.0 * PI2)
    n_w_sq = f0 * g2 ** 2 / (192.0 * PI2)
    n_g_sq = f0 * g3 ** 2 / (64.0 * PI2)
    consts.update(n_b_sq=n_b_sq, n_w_sq=n_w_sq, n_g_sq=n_g_sq)
    out = LagrangianBreakdown(point=f.point, terms=terms, total=_total(terms),
                              constants=consts)
    # consistency with the unnormalized breakdown under the substitution map
    rp = ReparamConstants(n_r=n_r, n_b=float(np.sqrt(n_b_sq)),
                          n_w=float(np.sqrt(n_w_sq)), n_g=float(np.sqrt(n_g_sq)),
                          n_h=n_h)
    base = curvature_squared(f, rp)
    expected = f0 / (192.0 * PI2) * base.total + consts["tau0"]
    consts["substitution_residual"] = abs(out.total - expected)
    return out
