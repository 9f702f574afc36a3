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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import ChartField
from .geometry import CurvatureTensors, Vielbein, frame_geometry, sigma_matrices
from .tensors import COORD, DOWN, FRAME, Point, TensorValue, UP

__all__ = [
    "PAULI",
    "GELL_MANN",
    "su3_structure_constants",
    "SMGaugeConfig",
    "HiggsField",
    "ConnectionConstants",
    "ConnectionForm",
    "CurvatureForm",
    "ReparamConstants",
    "LagrangianBreakdown",
    "NormalizedLagrangian",
    "GaugeTraceReport",
    "assemble_connection",
    "curvature",
    "curvature_of_potential",
    "transform_potential",
    "bianchi_residual",
    "curvature_squared",
    "lambda0_constant",
    "lambda0_check",
    "gauge_square_report",
    "higgs_covariant_derivative",
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
        if min(self.g1, self.g2, self.g3) <= 0:
            raise ValueError("couplings must be positive")

    @property
    def dim(self) -> int:
        return self.b.dim

    @classmethod
    def zero(cls, dim: int, g1: float = 1.0, g2: float = 1.0, g3: float = 1.0):
        return cls(b=ChartField(dim=dim, shape=(dim,), func=lambda c: np.zeros(dim)),
                   w=ChartField(dim=dim, shape=(3, dim), func=lambda c: np.zeros((3, dim))),
                   g=ChartField(dim=dim, shape=(8, dim), func=lambda c: np.zeros((8, dim))),
                   g1=g1, g2=g2, g3=g3)

    def component_jets(self, p: Point, order: int = 1):
        bv, bd, bdd = self.b.jets(p, order=order)
        wv, wd, wdd = self.w.jets(p, order=order)
        gv, gd, gdd = self.g.jets(p, order=order)
        return (bv, bd, bdd), (wv, wd, wdd), (gv, gd, gdd)

    def blocks(self, p: Point) -> dict:
        """Pointwise matrix blocks of the assembled gauge connection."""
        bv = np.asarray(self.b.numeric(p.coords), dtype=float)
        wv = np.asarray(self.w.numeric(p.coords), dtype=float)
        gv = np.asarray(self.g.numeric(p.coords), dtype=float)
        return _gauge_blocks(bv, wv, gv, self.g1, self.g2, self.g3)


def _gauge_blocks(bv, wv, gv, g1, g2, g3) -> dict:
    n = bv.shape[0]
    lam = 0.5j * g1 * bv                                   # scalar per m
    q = -0.5j * g2 * np.einsum("aij,am->mij", PAULI, wv)
    vprime = -0.5j * g3 * np.einsum("aij,am->mij", GELL_MANN, gv)
    v = -vprime - np.einsum("m,ij->mij", lam / 3.0, np.eye(3, dtype=complex))
    full = np.zeros((n, 6, 6), dtype=complex)
    full[:, 0, 0] = lam
    full[:, 1:3, 1:3] = q
    full[:, 3:6, 3:6] = v
    return {"lam": lam, "q": q, "vprime": vprime, "v": v, "full": full}


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

        return cls(h=ChartField(dim=dim, shape=(2, 2), func=func, name="higgs"), c=c)

    def value(self, p: Point) -> np.ndarray:
        return np.asarray(self.h.numeric(p.coords), dtype=complex)

    def quaternion_residual(self, p: Point) -> float:
        h = self.value(p)
        return float(max(abs(h[1, 0] + np.conj(h[0, 1])), abs(h[1, 1] - np.conj(h[0, 0]))))

    def norm_squared(self, p: Point) -> float:
        h = self.value(p)
        return float(np.real(np.trace(h.conj().T @ h)) / 2.0)


@dataclass(frozen=True)
class ConnectionConstants:
    """alpha scales the Higgs block; N and D are the identity-factor sizes of
    the gravity and gauge tensor legs; chi is the fixed Higgs coupling matrix."""

    alpha: float = 1.0
    n_spinor: int = 4
    d_gauge: int = 1
    chi: np.ndarray = field(default_factory=lambda: PAULI[0].copy())

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.n_spinor < 1 or self.d_gauge < 1:
            raise ValueError("identity-factor sizes must be positive integers")

    @property
    def eta(self) -> float:
        """<chi, chi> = Tr(chi^dagger chi)."""
        return float(np.real(np.trace(self.chi.conj().T @ self.chi)))


@dataclass
class ConnectionForm:
    """Generalized covariant derivative: gravity + gauge + Higgs blocks."""

    vielbein: Vielbein
    sm: SMGaugeConfig
    higgs: HiggsField
    constants: ConnectionConstants = field(default_factory=ConnectionConstants)

    def __post_init__(self):
        n = self.vielbein.dim
        if self.sm.dim != n or self.higgs.dim != n:
            raise ValueError("all fields must share the chart dimension")

    @property
    def dim(self) -> int:
        return self.vielbein.dim

    def gauge_block(self, p: Point) -> np.ndarray:
        return self.sm.blocks(p)["full"]

    def gauge_trace_max(self, p: Point) -> float:
        return float(np.abs(np.einsum("mii->m", self.gauge_block(p))).max())

    def anti_hermiticity_residual(self, p: Point) -> float:
        a = self.gauge_block(p)
        return float(np.abs(a + np.conj(np.einsum("mij->mji", a))).max())

    def omega_block(self, p: Point) -> np.ndarray:
        """Half the sigma-contracted spin connection, (n, s, s)."""
        fg = frame_geometry(self.vielbein, p)
        sig = sigma_matrices(self.vielbein.signature)
        return 0.5 * np.einsum("abij,abm->mij", sig, fg.omega)

    def higgs_block(self, p: Point) -> np.ndarray:
        """Phi = [[i c I, H], [H^dagger, i c I]] scaled by 1/alpha."""
        h = self.higgs.value(p)
        c = self.higgs.c
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = 1.0j * c * np.eye(2)
        out[2:, 2:] = 1.0j * c * np.eye(2)
        out[:2, 2:] = h
        out[2:, :2] = h.conj().T
        return out / self.constants.alpha


def assemble_connection(vielbein: Vielbein, sm: SMGaugeConfig, higgs: HiggsField,
                        constants: ConnectionConstants | None = None) -> ConnectionForm:
    form = ConnectionForm(vielbein=vielbein, sm=sm, higgs=higgs,
                          constants=constants or ConnectionConstants())
    return form


# -- curvature ---------------------------------------------------------------


@dataclass
class CurvatureForm:
    """All blocks of F = dA + A^A at a point, plus the metric data needed to
    square them.  Two-form blocks are stored [m, n, ...] antisymmetric in
    (m, n); component field strengths are stored [a, m, n]."""

    point: Point
    gamma: np.ndarray
    gamma_inv: np.ndarray
    ricci: np.ndarray
    riemann: np.ndarray
    grav: np.ndarray            # (n, n, s, s): 1/2 sigma_ab Rf^{ab}_{mn}
    frame_check: float          # |Rf - E e R| conversion residual
    route_check: float          # component vs matrix field-strength residual
    b_f: np.ndarray             # (n, n) abelian field strength
    w_f: np.ndarray             # (3, n, n)
    g_f: np.ndarray             # (8, n, n), V-block orientation
    lam_f: np.ndarray           # (n, n) complex
    q_f: np.ndarray             # (n, n, 2, 2)
    v_f: np.ndarray             # (n, n, 3, 3)
    gauge_full: np.ndarray      # (n, n, 6, 6)
    higgs_kinetic: np.ndarray   # (n, 2, 2): D_m H
    higgs_value: np.ndarray     # (2, 2)
    higgs_potential: float      # |H|^2 - c^2
    higgs_c: float              # vacuum constant c
    couplings: tuple            # (g1, g2, g3)
    constants: ConnectionConstants = field(default_factory=ConnectionConstants)

    def antisymmetry_residual(self) -> float:
        worst = 0.0
        for blk in (self.grav, self.gauge_full):
            worst = max(worst, float(np.abs(blk + np.einsum("mn...->nm...", blk)).max()))
        for comp in (self.b_f[None], self.w_f, self.g_f):
            worst = max(worst, float(np.abs(comp + np.einsum("amn->anm", comp)).max()))
        return worst

    def square_scalar(self, two_form: np.ndarray) -> complex:
        """tr(F_mn F^mn) for a matrix two-form stored [m, n, i, j]."""
        up = np.einsum("ma,nb,abij->mnij", self.gamma_inv, self.gamma_inv, two_form)
        return complex(np.einsum("mnij,mnji->", two_form, up))

    def component_square(self, comp: np.ndarray) -> float:
        """sum_a F^a_mn F^{a mn} for component field strengths [a, m, n]."""
        up = np.einsum("ma,nb,cab->cmn", self.gamma_inv, self.gamma_inv, comp)
        return float(np.real(np.einsum("cmn,cmn->", comp, up)))

    ricci_squared = CurvatureTensors.ricci_squared

    def higgs_kinetic_scalar(self) -> float:
        """|DH|^2 = (1/2) Tr(D_m H (D_n H)^dagger) gamma^{mn}."""
        tr = 0.5 * np.einsum("mij,nij->mn", self.higgs_kinetic,
                             np.conj(self.higgs_kinetic))
        return float(np.real(np.einsum("mn,mn->", self.gamma_inv, tr)))

    def higgs_kinetic_tensor(self) -> np.ndarray:
        """(1/2) Re Tr(D_m H (D_n H)^dagger); the real part is the (m, n)
        symmetrization since swapping m and n conjugates the trace."""
        tr = 0.5 * np.einsum("mij,nij->mn", self.higgs_kinetic,
                             np.conj(self.higgs_kinetic))
        return np.real(tr)


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


def curvature(a: ConnectionForm, p: Point) -> CurvatureForm:
    """Evaluate every block of F = dA + A^A at p.

    The gravity block is half the sigma-contracted frame curvature; the
    residual of that tensor against the coordinate Riemann tensor pushed to
    frame indices is reported as frame_check.  The su(2) and su(3) blocks are
    computed twice, from component field strengths and from the matrix
    potential via curvature_of_potential; route_check is the worst
    disagreement between the two.
    """
    e = a.vielbein
    n = a.dim
    fg = frame_geometry(e, p)
    sig = sigma_matrices(e.signature)
    eta = e.signature.matrix

    grav = 0.5 * np.einsum("abij,abmn->mnij", sig, fg.frame_curvature.astype(complex))
    eup = np.linalg.inv(fg.e) @ eta
    rf_ref = np.einsum("ar,sb,rsmn->abmn", fg.e, eup, fg.riemann)
    frame_check = float(np.abs(fg.frame_curvature - rf_ref).max())

    (bv, bd, _), (wv, wd, _), (gv, gd, _) = a.sm.component_jets(p, order=1)
    bv = _real_components(bv, "B components")
    bd = _real_components(bd, "B derivatives")
    wv = _real_components(wv, "W components")
    wd = _real_components(wd, "W derivatives")
    gv = _real_components(gv, "G components")
    gd = _real_components(gd, "G derivatives")
    g1, g2, g3 = a.sm.g1, a.sm.g2, a.sm.g3

    # component field strengths; bd[m, s] = d_s B_m etc.
    b_f = bd.T - bd
    w_f = (np.einsum("ans->asn", wd) - wd
           + g2 * np.einsum("abc,bm,cn->amn", _EPS3, wv, wv))
    g_f = (np.einsum("ans->asn", gd) - gd
           - g3 * np.einsum("abc,bm,cn->amn", _F_SU3, gv, gv))

    eye3 = np.eye(3, dtype=complex)
    lam_f = 0.5j * g1 * b_f.astype(complex)
    q_f = -0.5j * g2 * np.einsum("aij,amn->mnij", PAULI, w_f.astype(complex))
    v_f = (0.5j * g3 * np.einsum("aij,amn->mnij", GELL_MANN, g_f.astype(complex))
           - np.einsum("mn,ij->mnij", lam_f / 3.0, eye3))

    # dual route: matrix potentials differentiated directly
    blocks = _gauge_blocks(bv, wv, gv, g1, g2, g3)
    dq = -0.5j * g2 * np.einsum("aij,ams->mijs", PAULI, wd)
    dvprime = -0.5j * g3 * np.einsum("aij,ams->mijs", GELL_MANN, gd)
    dlam = 0.5j * g1 * bd
    dv = -dvprime - np.einsum("ms,ij->mijs", dlam / 3.0, eye3)
    q_direct = curvature_of_potential(blocks["q"], dq)
    v_direct = curvature_of_potential(blocks["v"], dv)
    route_check = max(float(np.abs(q_direct - q_f).max()),
                      float(np.abs(v_direct - v_f).max()))

    gauge_full = np.zeros((n, n, 6, 6), dtype=complex)
    gauge_full[:, :, 0, 0] = lam_f
    gauge_full[:, :, 1:3, 1:3] = q_f
    gauge_full[:, :, 3:6, 3:6] = v_f

    hv, hd, _ = a.higgs.h.jets(p, order=1)
    hv = np.asarray(hv, dtype=complex)
    dh = np.einsum("ijm->mij", np.asarray(hd, dtype=complex))
    dh = dh - 0.5j * g1 * np.einsum("m,ij->mij", bv, hv)
    dh = dh - 0.5j * g2 * np.einsum("aij,am,jk->mik", PAULI, wv, hv)

    pot = a.higgs.norm_squared(p) - a.higgs.c ** 2

    return CurvatureForm(
        point=p,
        gamma=fg.gamma,
        gamma_inv=fg.gamma_inv,
        ricci=fg.ricci,
        riemann=fg.riemann,
        grav=grav,
        frame_check=frame_check,
        route_check=route_check,
        b_f=b_f,
        w_f=w_f,
        g_f=g_f,
        lam_f=lam_f,
        q_f=q_f,
        v_f=v_f,
        gauge_full=gauge_full,
        higgs_kinetic=dh,
        higgs_value=hv,
        higgs_potential=pot,
        higgs_c=a.higgs.c,
        couplings=(g1, g2, g3),
        constants=a.constants,
    )


def higgs_covariant_derivative(sm: SMGaugeConfig, higgs: HiggsField,
                               p: Point) -> TensorValue:
    """D_m H = (d_m - (i g1/2) B_m - (i g2/2) sigma_a W^a_m) H, shape (n, 2, 2).

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
    return TensorValue(out, (DOWN, UP, DOWN), (COORD, FRAME, FRAME))


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
    """Named scalar terms of a Lagrangian density at a point."""

    point: Point
    terms: dict
    total: float
    constants: dict = field(default_factory=dict)

    def term(self, name: str) -> float:
        return self.terms[name]

    def sum_residual(self) -> float:
        return abs(self.total - sum(self.terms.values()))


def lambda0_constant(constants: ConnectionConstants, c: float,
                     n_h: float = 1.0) -> float:
    """The constant shift (eta^2/alpha^4)(1 + 1/n_h^4) c^4."""
    eta = constants.eta
    alpha = constants.alpha
    return (eta ** 2 / alpha ** 4) * (1.0 + 1.0 / n_h ** 4) * c ** 4


def curvature_squared(f: CurvatureForm,
                      reparam: ReparamConstants | None = None) -> LagrangianBreakdown:
    """Scalar terms of the reparametrized squared curvature at f.point.

    Terms: Ricci^2 with coefficient n_spinor/(4 n_r^2); gauge terms
    -(3 g1^2/4 n_b^2) B^2, -(g2^2/4 n_w^2) W^2, -(3 g3^2/4 n_g^2) G^2;
    Higgs kinetic (eta/alpha^2 n_h^2)|DH|^2; Higgs potential
    -(eta^2/alpha^4 n_h^4)(|H|^2 - c^2)^2; and the constant lambda0 that
    keeps the zero-field value of the reparametrized form equal to the
    plain squared curvature.
    """
    rp = reparam or ReparamConstants()
    g1, g2, g3 = f.couplings
    consts = f.constants
    eta = consts.eta
    alpha = consts.alpha
    pot = f.higgs_potential
    terms = {
        "ricci_sq": consts.n_spinor / (4.0 * rp.n_r ** 2) * f.ricci_squared(),
        "gauge_b": -(3.0 * g1 ** 2 / (4.0 * rp.n_b ** 2)) * f.component_square(f.b_f[None]),
        "gauge_w": -(g2 ** 2 / (4.0 * rp.n_w ** 2)) * f.component_square(f.w_f),
        "gauge_g": -(3.0 * g3 ** 2 / (4.0 * rp.n_g ** 2)) * f.component_square(f.g_f),
        "higgs_kinetic": (eta / (alpha ** 2 * rp.n_h ** 2)) * f.higgs_kinetic_scalar(),
        "higgs_potential": -(eta ** 2 / (alpha ** 4 * rp.n_h ** 4)) * pot ** 2,
        "lambda0": lambda0_constant(consts, f.higgs_c, rp.n_h),
    }
    return LagrangianBreakdown(point=f.point, terms=terms,
                               total=float(sum(terms.values())),
                               constants={"eta": eta, "alpha": alpha,
                                          "n_spinor": consts.n_spinor})


def lambda0_check(f: CurvatureForm, n_h: float = 1.0) -> dict:
    """Compare the reparametrized form against the plain squared curvature.

    The plain form carries +(eta^2/alpha^4)(|H|^2 - c^2)^2; the reparametrized
    form carries the opposite-signed potential plus the constant lambda0.  The
    two agree term by term away from the potential, and agree on the potential
    sector at the zero-field reference H = 0.  Pointwise with H != 0 the
    potential sectors differ; the returned dict reports both residuals so the
    caller can see exactly where the constant does and does not absorb the
    discrepancy.
    """
    eta = f.constants.eta
    alpha = f.constants.alpha
    c = f.higgs_c
    pot = f.higgs_potential
    rp = ReparamConstants(n_h=n_h)
    breakdown = curvature_squared(f, rp)
    plain = {
        "ricci_sq": f.constants.n_spinor / 4.0 * f.ricci_squared(),
        "gauge_b": -(3.0 * f.couplings[0] ** 2 / 4.0) * f.component_square(f.b_f[None]),
        "gauge_w": -(f.couplings[1] ** 2 / 4.0) * f.component_square(f.w_f),
        "gauge_g": -(3.0 * f.couplings[2] ** 2 / 4.0) * f.component_square(f.g_f),
        "higgs_kinetic": (eta / alpha ** 2) * f.higgs_kinetic_scalar(),
    }
    nonpot = 0.0
    if n_h == 1.0:
        nonpot = max(abs(breakdown.terms[k] - plain[k]) for k in plain)
    lam0 = lambda0_constant(f.constants, c, n_h)
    # zero-field reference: pot -> -c^2 in both potential sectors
    plain_ref = (eta ** 2 / alpha ** 4) * c ** 4
    repar_ref = -(eta ** 2 / (alpha ** 4 * n_h ** 4)) * c ** 4 + lam0
    pointwise_pot_gap = abs((eta ** 2 / alpha ** 4) * pot ** 2
                            - (breakdown.terms["higgs_potential"]
                               + breakdown.terms["lambda0"]))
    return {
        "lambda0": lam0,
        "nonpotential_max_diff": nonpot,
        "reference_residual": abs(plain_ref - repar_ref),
        "pointwise_potential_gap": pointwise_pot_gap,
        "potential_sign_flipped": True,
    }


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
    multiplicities: tuple
    weighted_total: float
    display_total: float        # (3/4)g1^2 B^2 + (1/4)g2^2 W^2 + (3/4)g3^2 G^2
    display_residual: float
    trace_max: float            # max |tr gauge_full_mn|
    trace_imag_max: float
    notes: tuple


def gauge_square_report(f: CurvatureForm,
                        multiplicities: tuple = (5.0, 1.0, 3.0)) -> GaugeTraceReport:
    """Evaluate every gauge-sector trace identity by brute force.

    The scalar map is s(F) = -tr(F_mn F^mn)/2, which is positive for
    anti-Hermitian F with Euclidean index raising.  multiplicities weights
    (lambda, q, v) sectors in the combined total; the default (5, 1, 3) is
    the unique choice reproducing the display coefficients (3/4, 1/4, 3/4).
    """
    g1, g2, g3 = f.couplings
    raws = []
    for blk in (f.lam_f[:, :, None, None], f.q_f, f.v_f):
        val = f.square_scalar(blk)
        raws.append(val)
    imag_worst = max(abs(v.imag) for v in raws)
    raw_lambda, raw_q, raw_v = (float(v.real) for v in raws)
    s_lambda, s_q, s_v = (-0.5 * v for v in (raw_lambda, raw_q, raw_v))
    b_sq = f.component_square(f.b_f[None])
    w_sq = f.component_square(f.w_f)
    g_sq = f.component_square(f.g_f)
    su3_mat = np.einsum("aij,amn->mnij", GELL_MANN, f.g_f.astype(complex))
    su3_matrix_sq = float(np.real(f.square_scalar(su3_mat)))
    m_l, m_q, m_v = multiplicities
    weighted = m_l * s_lambda + m_q * s_q + m_v * s_v
    display = 0.75 * g1 ** 2 * b_sq + 0.25 * g2 ** 2 * w_sq + 0.75 * g3 ** 2 * g_sq
    trace = np.einsum("mnii->mn", f.gauge_full)
    notes = (
        "s(F) = -tr(F F^up)/2; Gell-Mann normalization Tr(T_a T_b) = 2 delta_ab",
        "tr_3(V V^up) = -(g3^2/4) tr_3(A A^up) - (g1^2/12) B^2 with A = T_a G^a",
        "component form uses tr_3(A A^up) = 2 sum_a G^a G^a, so the gluon"
        " coefficient is g3^2/2 per unit component square",
    )
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
        multiplicities=tuple(multiplicities),
        weighted_total=weighted,
        display_total=display,
        display_residual=abs(weighted - display),
        trace_max=float(np.abs(trace).max()),
        trace_imag_max=imag_worst,
        notes=notes,
    )


# -- normalized Standard Model form -------------------------------------------


@dataclass
class NormalizedLagrangian:
    """The canonically normalized SM-sector Lagrangian density at a point."""

    point: Point
    terms: dict
    total: float
    constants: dict
    substitutions: dict

    def term(self, name: str) -> float:
        return self.terms[name]


def sm_lagrangian_normalized(f: CurvatureForm, f0: float, f4: float = 0.0,
                             lam_sq: float = 0.0, n_r: float = 1.0,
                             n_h: float = 1.0) -> NormalizedLagrangian:
    """Rescale the squared-curvature SM sector to canonical normalization.

    The gauge reparametrization constants are fixed by
    3 f0 g1^2/(768 pi^2 N_B^2) = f0 g2^2/(768 pi^2 N_W^2)
    = 3 f0 g3^2/(768 pi^2 N_G^2) = 1/4, the Higgs is rescaled by kappa with
    kappa^2 = eta f0/(192 pi^2 alpha^2 n_h^2), and the output density is

        alpha0 R.R - (1/4)B^2 - (1/4)W^2 - (1/4)G^2 + |D H'|^2
        - mu0 (|H'|^2 - z^2)^2 + delta0

    with mu0 = 192 pi^2/f0.  f4 and lam_sq feed the cosmological constant
    delta0 = (12 f4 lam_sq^2 + f0 lambda0)/(192 pi^2); they default to zero.
    """
    if f0 == 0:
        raise ValueError("the quartic moment f0 must be nonzero")
    if f0 < 0:
        raise ValueError("the quartic moment f0 must be positive")
    g1, g2, g3 = f.couplings
    eta = f.constants.eta
    alpha = f.constants.alpha
    pi2 = np.pi ** 2
    n_b_sq = f0 * g1 ** 2 / (64.0 * pi2)
    n_w_sq = f0 * g2 ** 2 / (192.0 * pi2)
    n_g_sq = f0 * g3 ** 2 / (64.0 * pi2)
    kappa_sq = eta * f0 / (192.0 * pi2 * alpha ** 2 * n_h ** 2)
    mu0 = 192.0 * pi2 / f0
    alpha0 = f.constants.n_spinor * f0 / (768.0 * pi2 * n_r ** 2)
    lam0 = lambda0_constant(f.constants, f.higgs_c, n_h)
    delta0 = (12.0 * f4 * lam_sq ** 2 + f0 * lam0) / (192.0 * pi2)
    z_sq = kappa_sq * f.higgs_c ** 2
    h_norm_sq = kappa_sq * (f.higgs_potential + f.higgs_c ** 2)

    terms = {
        "ricci_sq": alpha0 * f.ricci_squared(),
        "gauge_b": -0.25 * f.component_square(f.b_f[None]),
        "gauge_w": -0.25 * f.component_square(f.w_f),
        "gauge_g": -0.25 * f.component_square(f.g_f),
        "higgs_kinetic": kappa_sq * f.higgs_kinetic_scalar(),
        "higgs_potential": -mu0 * (h_norm_sq - z_sq) ** 2,
        "delta0": delta0,
    }
    consts = {
        "alpha0": alpha0, "mu0": mu0, "delta0": delta0, "lambda0": lam0,
        "kappa": float(np.sqrt(kappa_sq)), "z": float(np.sqrt(z_sq)),
        "n_b_sq": n_b_sq, "n_w_sq": n_w_sq, "n_g_sq": n_g_sq,
    }
    subs = {"n_r": n_r, "n_h": n_h, "f0": f0, "f4": f4, "lam_sq": lam_sq}
    out = NormalizedLagrangian(point=f.point, terms=terms,
                               total=float(sum(terms.values())),
                               constants=consts, substitutions=subs)
    # consistency with the unnormalized breakdown under the substitution map
    rp = ReparamConstants(n_r=n_r, n_b=float(np.sqrt(n_b_sq)),
                          n_w=float(np.sqrt(n_w_sq)), n_g=float(np.sqrt(n_g_sq)),
                          n_h=n_h)
    base = curvature_squared(f, rp)
    expected = f0 / (192.0 * pi2) * base.total + f4 * lam_sq ** 2 / (16.0 * pi2)
    out.constants["substitution_residual"] = abs(out.total - expected)
    return out
