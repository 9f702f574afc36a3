"""Generalized metric geometry built from vielbeins.

The metric gamma_mn = E^a_m E^b_n eta_ab is assembled from a frame field E
(which may carry non-Riemannian content), and all curvature quantities are
derived from gamma by the usual torsion-free formulas.  Derivatives come
from order-2 jet evaluation of the underlying fields; every contraction
afterwards is plain einsum or matmul on numeric arrays.

The metric methods also take an (N, dim) coordinate block, which adds a
leading point axis to every result, so each quantity has one formula.

Index layout conventions used throughout:

* ``E[a, m]`` frame index first, ``einv[m, a]``;
* ``dgamma[m, n, r] = d_r gamma_mn``, second derivatives trail likewise;
* ``Gamma[m, a, b]`` for Gamma^m_ab, ``dGamma[m, a, b, s] = d_s Gamma^m_ab``;
* ``riemann[r, m, n, l]`` with the two-form pair in the last two slots;
* ``omega[a, b, m]`` for the frame connection, derivative index last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .fields import ChartField
from .tensors import MinkowskiSignature, Point, checked_det, checked_inverse

__all__ = [
    "Vielbein",
    "GeneralizedMetric",
    "ChristoffelSymbols",
    "CurvatureTensors",
    "riemann_square",
    "ricci_square",
    "SpinConnection",
    "FrameGeometry",
    "frame_geometry",
    "frame_curvature_check",
    "DiracMatrices",
    "VolumeElement",
    "CompatibilityResidual",
    "spin_connection",
    "flat_gamma_matrices",
    "sigma_matrices",
    "sigma_squared",
    "dirac_matrices",
    "compatibility_residual",
]


@dataclass(frozen=True)
class VolumeElement:
    value: float
    mode: str  # "euclidean" (det > 0) or "lorentzian" (det < 0)
    det: float


@dataclass
class Vielbein:
    """Frame field E^a_m together with the flat frame metric eta.

    The field holds the n x n entries over an n-dimensional chart; a
    diagonal frame holds zeros off its diagonal (library.diagonal_vielbein),
    which the geodesic stage finds in its expressions.
    """

    field: ChartField
    signature: MinkowskiSignature

    def __post_init__(self):
        n = self.signature.dim
        if self.field.shape != (n, n) or self.field.dim != n:
            raise ValueError(f"vielbein field of shape {self.field.shape} over {self.field.dim} "
                             f"coordinates, expected ({n}, {n}) over {n}")

    @property
    def dim(self) -> int:
        return self.signature.dim

    def value(self, p: Point) -> np.ndarray:
        # a complex entry of an object array (entry_field) fails the float conversion
        return np.asarray(self.field.raw(p.coords), dtype=float)

    def jets(self, p, order: int = 2):
        return self.field.jets(p, order=order)

    def metric(self) -> "GeneralizedMetric":
        return GeneralizedMetric(dim=self.dim, vielbein=self)


@dataclass(frozen=True)
class ChristoffelSymbols:
    point: Point
    values: np.ndarray  # Gamma[m, a, b]
    gamma: np.ndarray
    gamma_inv: np.ndarray


@dataclass(frozen=True)
class CurvatureTensors:
    point: Point
    riemann: np.ndarray  # R[r, m, n, l], antisymmetric in (n, l)
    ricci: np.ndarray
    scalar: float
    gamma: np.ndarray
    gamma_inv: np.ndarray

    def riemann_down(self) -> np.ndarray:
        return np.einsum("...rs,...smnl->...rmnl", self.gamma, self.riemann)

    def riemann_squared(self):
        """R_{rmnl} R^{rmnl}; a float at a point, an (N,) array over a block."""
        return riemann_square(self.riemann_down(), self.gamma_inv)

    def ricci_squared(self):
        return ricci_square(self.ricci, self.gamma_inv)


def riemann_square(rd: np.ndarray, ginv: np.ndarray):
    """R_{rmnl} R^{rmnl} of the covariant rd raised by ginv: a float at a
    point, an array when either argument has leading batch axes."""
    # raise the four indices of R_{mnop} one at a time
    ru = np.einsum("...mnop,...dp->...mnod", rd, ginv)
    ru = np.einsum("...mnod,...co->...mncd", ru, ginv)
    ru = np.einsum("...mncd,...bn->...mbcd", ru, ginv)
    ru = np.einsum("...mbcd,...am->...abcd", ru, ginv)
    return _unbatched(np.real(np.einsum("...abcd,...abcd->...", rd, ru)))


def ricci_square(ricci: np.ndarray, ginv: np.ndarray):
    """R_{ml} R^{ml} of the covariant ricci raised by ginv, batched alike."""
    up = ginv @ ricci @ ginv.swapaxes(-1, -2)
    return _unbatched(np.real(np.einsum("...ab,...ab->...", ricci, up)))


class GeneralizedMetric:
    """Symmetric rank-2 metric, backed by a vielbein or a direct field."""

    def __init__(self, dim: int, vielbein: Vielbein | None = None,
                 gamma_field: ChartField | None = None):
        if (vielbein is None) == (gamma_field is None):
            raise ValueError("provide exactly one of vielbein or gamma_field")
        source = vielbein.field if gamma_field is None else gamma_field
        if source.shape != (dim, dim) or source.dim != dim:
            raise ValueError(f"{'vielbein' if gamma_field is None else 'gamma'} field of shape "
                             f"{source.shape} over {source.dim} coordinates, expected "
                             f"({dim}, {dim}) over {dim}")
        self.dim = dim
        self.vielbein = vielbein
        self.gamma_field = gamma_field

    # -- raw jets ---------------------------------------------------------

    def gamma_jets(self, p, order: int = 2):
        """(gamma, dgamma, ddgamma) with derivative indices trailing."""
        if self.gamma_field is not None:
            return _real_metric(p, self.gamma_field.jets(p, order=order))
        e, de, dde = self.vielbein.jets(p, order=order)
        return _frame_metric(p, e, de, dde, self.vielbein.signature.matrix)

    # -- point (or block) evaluations ----------------------------------------

    def value(self, p) -> np.ndarray:
        g, _, _ = self.gamma_jets(p, order=1)
        return g

    def det(self, p):
        return checked_det(self.value(p))

    def volume_element(self, p) -> VolumeElement:
        det = self.det(p)
        mode = np.where(det < 0, "lorentzian", "euclidean")
        return VolumeElement(value=_unbatched(np.sqrt(np.abs(det))), mode=_unbatched(mode),
                             det=_unbatched(det))

    def christoffel(self, p) -> ChristoffelSymbols:
        g, dg, _ = self.gamma_jets(p, order=1)
        ginv = checked_inverse(g)
        gam = _christoffel_from(ginv, dg)
        return ChristoffelSymbols(point=p, values=gam, gamma=g, gamma_inv=ginv)

    def christoffel_with_derivative(self, p):
        return _christoffel_jets(*self.gamma_jets(p, order=2))

    def curvature(self, p) -> CurvatureTensors:
        g, ginv, gam, dgam = self.christoffel_with_derivative(p)
        riem, ricci, scalar = _riemann_from(ginv, gam, dgam)
        return CurvatureTensors(point=p, riemann=riem, ricci=ricci, scalar=scalar,
                                gamma=g, gamma_inv=ginv)


def _unbatched(x):
    """A Python scalar for one point; the array itself for a block."""
    return x.item() if np.ndim(x) == 0 else x


def _real_metric(p, jets):
    """The metric jets at p, a Point or an (N, dim) block; ValueError if they
    are complex (the jets share one dtype), naming the first complex point."""
    if jets[0].dtype.kind != "c":
        return jets
    pts = [p.coords] if isinstance(p, Point) else np.asarray(p, dtype=float).tolist()
    bad = np.iscomplex(jets[0]).reshape(len(pts), -1).any(axis=1)
    raise ValueError(f"complex metric value at {tuple(pts[np.argmax(bad)])}")


def _frame_metric(p, e, de, dde, eta):
    """_metric_jets at p, a Point or an (N, dim) block, under _real_metric's
    check; ValueError names the first point whose metric jets overflow."""
    try:
        jets = _flagged_metric_jets(e, de, dde, eta)
    except FloatingPointError:
        # numpy flags an overflow (or an inf frame entry times 0) at no cost;
        # only then are the points searched for the first non-finite one
        jets = _quiet_metric_jets(e, de, dde, eta)
        n = 1 if isinstance(p, Point) else len(p)
        finite = np.logical_and.reduce([np.isfinite(a).reshape(n, -1).all(axis=1)
                                        for a in jets if a is not None])
        pts = [p.coords] if isinstance(p, Point) else np.asarray(p, dtype=float).tolist()
        raise ValueError(f"non-finite metric value at {tuple(pts[np.argmin(finite)])}") from None
    return _real_metric(p, jets)


def _metric_jets(e, de, dde, eta):
    """gamma = E^T eta E and its first (and second) derivatives from frame jets."""
    e_eta = e.swapaxes(-1, -2) @ eta
    g = e_eta @ e
    # half[m, n, r] = E^a_m eta_ab d_r E^b_n; the other half is its (m, n) swap
    half = (e_eta @ de.reshape(de.shape[:-2] + (-1,))).reshape(de.shape)
    dg = half + half.swapaxes(-3, -2)
    ddg = None
    if dde is not None:
        # d_r d_s gamma_mn adds dd[m, n, r, s] = E^a_m eta_ab d_r d_s E^b_n and
        # cross[m, n, r, s] = d_s E^a_m eta_ab d_r E^b_n to their (m, n) swaps
        dd = np.einsum("...mb,...bnrs->...mnrs", e_eta, dde)
        cross = np.einsum("...ams,...anr->...mnrs", de, np.einsum("ab,...bnr->...anr", eta, de))
        ddg = dd.swapaxes(-4, -3) + cross.swapaxes(-2, -1) + cross + dd
    return g, dg, ddg


# the first raises FloatingPointError where numpy would warn of an overflow;
# the second leaves inf and NaN in place for the search by point
_flagged_metric_jets = np.errstate(over="raise", invalid="raise")(_metric_jets)
_quiet_metric_jets = np.errstate(all="ignore")(_metric_jets)


def _christoffel_from(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    # Gamma^m_ab = 1/2 g^{ml} (d_b g_la + d_a g_lb - d_l g_ab)
    return 0.5 * (ginv @ _symmetrized_dg(dg).reshape(dg.shape[:-2] + (-1,))).reshape(dg.shape)


def _christoffel_jets(g, dg, ddg):
    """(gamma, gamma^-1, Gamma, dGamma) from the metric and its derivatives."""
    ginv = checked_inverse(g)
    gam = _christoffel_from(ginv, dg)
    # d_r g^{mn} = -g^{ma} d_r g_ab g^{bn}
    dginv = -np.einsum("...mbr,...bn->...mnr",
                       np.einsum("...ma,...abr->...mbr", ginv, dg), ginv)
    dgam = 0.5 * (np.einsum("...mlr,...lab->...mabr", dginv, _symmetrized_dg(dg))
                  + np.einsum("...ml,...labr->...mabr", ginv, _symmetrized_ddg(ddg)))
    return g, ginv, gam, dgam


def _riemann_from(ginv, gam, dgam):
    """Riemann R^r_{mnl}, Ricci R_ml and the scalar from the Christoffel jets."""
    # R^r_mnl = d_n G^r_lm - d_l G^r_nm + G^r_ns G^s_lm - G^r_ls G^s_nm
    # with gg[r, n, l, m] = G^r_ns G^s_lm
    gg = np.einsum("...rns,...slm->...rnlm", gam, gam)
    riem = (np.einsum("...rlmn->...rmnl", dgam) - np.einsum("...rnml->...rmnl", dgam)
            + np.einsum("...rnlm->...rmnl", gg) - np.einsum("...rlnm->...rmnl", gg))
    ricci = np.einsum("...rmrl->...ml", riem)
    scalar = _unbatched(np.einsum("...ml,...ml->...", ginv, ricci))
    return riem, ricci, scalar


def _symmetrized_dg(dg: np.ndarray) -> np.ndarray:
    # t[l, a, b] = d_b g_la + d_a g_lb - d_l g_ab
    return dg + dg.swapaxes(-1, -2) - dg.swapaxes(-3, -1).swapaxes(-2, -1)


def _symmetrized_ddg(ddg: np.ndarray) -> np.ndarray:
    # t[l, a, b, r] = d_r (d_b g_la + d_a g_lb - d_l g_ab)
    return ddg + ddg.swapaxes(-3, -2) - ddg.swapaxes(-4, -2).swapaxes(-3, -2)


# -- spin connection ---------------------------------------------------------


@dataclass(frozen=True)
class SpinConnection:
    point: Point
    omega: np.ndarray          # omega[a, b, m], antisymmetric in (a, b)
    matrix: np.ndarray         # matrix[m] = sigma_ab omega^{ab}_m  (s x s)
    tetrad_residual: float     # max |d_n E^a_m - Gamma^l_mn E^a_l + omega^a_{b n} E^b_m|
    antisymmetry_residual: float


def _spin_connection_arrays(e_val, de, gam, eta):
    """(einv, eup, e^-1 dE, deinv, deup, u, omega), leading batch axes allowed.

    omega^{ab}_m = e^a_n (deup + u)^{nb}_m with u[n, b, m] = e^{lb} Gamma^n_{lm}.
    """
    einv = checked_inverse(e_val)
    eup = einv @ eta  # e^{m b} = e^m_c eta^{cb}; eta is its own inverse
    # einv_de[m, r, s] = e^m_c d_s E^c_r
    einv_de = (einv @ de.reshape(de.shape[:-2] + (-1,))).reshape(de.shape)
    deinv = -np.einsum("...mrs,...rb->...mbs", einv_de, einv)
    deup = np.einsum("...mbs,bc->...mcs", deinv, eta)
    u = np.einsum("...lb,...nlm->...nbm", eup, gam)
    omega = np.einsum("...an,...nbm->...abm", e_val, deup + u)
    return einv, eup, einv_de, deinv, deup, u, omega


def spin_connection(e: Vielbein, p: Point) -> SpinConnection:
    """Torsion-free frame connection of the metric built from ``e``.

    omega^{ab}_m = e^a_n d_m e^{nb} + e^a_n e^{lb} Gamma^n_{lm}; the tetrad
    residual d_n e^a_m - Gamma^l_{mn} e^a_l + omega^a_{b n} e^b_m is the
    authoritative compatibility measure and is reported alongside.
    """
    eta = e.signature.matrix
    e_val, de, _ = e.jets(p, order=1)
    g = e.metric()
    gam = g.christoffel(p).values
    omega = _spin_connection_arrays(e_val, de, gam, eta)[-1]
    anti = float(np.abs(omega + np.einsum("abm->bam", omega)).max())
    # tetrad postulate residual
    cov = de - np.einsum("lmn,al->amn", gam, e_val)
    mixed = np.einsum("abm,bc->acm", omega, eta)
    tet = cov + np.einsum("acn,cm->amn", mixed, e_val)
    sig = sigma_matrices(e.signature)
    mat = np.einsum("abij,abm->mij", sig, omega)
    return SpinConnection(point=p, omega=omega, matrix=mat,
                          tetrad_residual=float(np.abs(tet).max()),
                          antisymmetry_residual=anti)


@dataclass(frozen=True)
class FrameGeometry:
    """Everything derivable from one order-2 jet pass over a vielbein."""

    point: Point
    e: np.ndarray
    e_inv: np.ndarray
    gamma: np.ndarray
    gamma_inv: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    omega: np.ndarray
    domega: np.ndarray
    frame_curvature: np.ndarray


def frame_geometry(e: Vielbein, p) -> FrameGeometry:
    """Metric, curvature and frame connection from one order-2 pass over E.

    ``p`` is a Point or an (N, dim) block; a block adds a leading point axis
    to every array, and ``scalar`` becomes an (N,) array.
    """
    eta = e.signature.matrix
    e_val, de, dde = e.jets(p, order=2)
    gm, ginv, gam, dgam = _christoffel_jets(*_frame_metric(p, e_val, de, dde, eta))
    riem, ricci, scalar = _riemann_from(ginv, gam, dgam)
    einv, eup, einv_de, deinv, deup, u, omega = _spin_connection_arrays(e_val, de, gam, eta)
    # d_s d_t e^m_b = -(d_s e^m_c d_t E^c_r + e^m_c d_s d_t E^c_r) e^r_b
    #                 - e^m_c d_t E^c_r d_s e^r_b
    ddeinv = -(np.einsum("...mrts,...rb->...mbts",
                         np.einsum("...mcs,...crt->...mrts", deinv, de)
                         + np.einsum("...mc,...crts->...mrts", einv, dde), einv)
               + np.einsum("...mrt,...rbs->...mbts", einv_de, deinv))
    ddeup = np.einsum("...mbts,bc->...mcts", ddeinv, eta)
    # d_s omega^{ab}_m = d_s E^a_n (deup + u)^{nb}_m + E^a_n d_s (deup + u)^{nb}_m
    du = (np.einsum("...lbs,...nlm->...nbms", deup, gam)
          + np.einsum("...lb,...nlms->...nbms", eup, dgam))
    domega = (np.einsum("...ans,...nbm->...abms", de, deup + u)
              + np.einsum("...an,...nbms->...abms", e_val, ddeup + du))
    quad = np.einsum("...adm,...dbn->...abmn", np.einsum("...acm,cd->...adm", omega, eta),
                     omega)
    frame_curv = (domega.swapaxes(-1, -2) - domega + quad - quad.swapaxes(-1, -2))
    return FrameGeometry(point=p, e=e_val, e_inv=einv, gamma=gm, gamma_inv=ginv,
                         christoffel=gam, riemann=riem,
                         ricci=ricci, scalar=scalar, omega=omega, domega=domega,
                         frame_curvature=frame_curv)


def frame_curvature_check(e: Vielbein, p: Point) -> float:
    """Max |frame curvature - Riemann tensor pushed to frame indices| at p:
    the frame connection's route to the curvature against the metric's."""
    fg = frame_geometry(e, p)
    eup = fg.e_inv @ e.signature.matrix
    rf_ref = np.einsum("ar,sb,rsmn->abmn", fg.e, eup, fg.riemann)
    return float(np.abs(fg.frame_curvature - rf_ref).max())


# -- Dirac matrices ----------------------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _euclidean_cliffords(n: int) -> list:
    """Hermitian generators with {G_a, G_b} = 2 delta_ab, dim 2^(n/2)."""
    if n % 2 != 0:
        raise ValueError(f"dimension must be even for the Clifford construction, got {n}")
    if n == 2:
        return [_SX.copy(), _SY.copy()]
    prev = _euclidean_cliffords(n - 2)
    eye = np.eye(prev[0].shape[0], dtype=complex)
    out = [np.kron(g, _SZ) for g in prev]
    out.append(np.kron(eye, _SX))
    out.append(np.kron(eye, _SY))
    return out


def flat_gamma_matrices(signature: MinkowskiSignature) -> np.ndarray:
    """Flat gamma^a with {gamma^a, gamma^b} = 2 eta^{ab} (fixed chiral basis)."""
    gs = _euclidean_cliffords(signature.dim)
    out = []
    for s, g in zip(signature.signs, gs):
        out.append(g if s == 1 else 1j * g)
    return np.array(out)


@cache
def sigma_matrices(signature: MinkowskiSignature) -> np.ndarray:
    """sigma_ab = (i/2)[gamma_a, gamma_b] with frame indices lowered by eta.

    Built once per signature, as every connection curvature reads it;
    shared, so read-only.
    """
    gup = flat_gamma_matrices(signature)
    signs = np.array(signature.signs, dtype=float)
    glow = np.einsum("a,aij->aij", signs, gup)
    comm = np.einsum("aij,bjk->abik", glow, glow) - np.einsum("bij,ajk->abik", glow, glow)
    sig = 0.5j * comm
    sig.setflags(write=False)
    return sig


def sigma_squared(signature: MinkowskiSignature) -> tuple:
    """Scalar sigma^2 = sigma^ab sigma_ab via direct matrix summation.

    Returns (scalar, matrix): the full matrix sum and its normalized trace;
    for any diagonal signature in dimension n the scalar is n(n-1).
    """
    sig = sigma_matrices(signature)
    signs = np.array(signature.signs, dtype=float)
    up = np.einsum("a,b,abij->abij", signs, signs, sig)
    total = np.einsum("abij,abjk->ik", up, sig)
    s = total.shape[0]
    scalar = float(np.real(np.trace(total)) / s)
    return scalar, total


@dataclass(frozen=True)
class DiracMatrices:
    point: Point
    gammas: np.ndarray        # Gamma^m = E^m_a gamma^a
    gamma_metric: np.ndarray  # gamma^{mn} at the point


def dirac_matrices(e: Vielbein, p: Point) -> DiracMatrices:
    """Curved-space Dirac matrices Gamma^m = E^m_a gamma^a."""
    flat = flat_gamma_matrices(e.signature)
    einv = checked_inverse(e.value(p))
    gam = np.einsum("ma,aij->mij", einv, flat)
    eta = e.signature.matrix  # self-inverse for diagonal +-1 entries
    g_up = np.einsum("ma,ab,nb->mn", einv, eta, einv)
    return DiracMatrices(point=p, gammas=gam, gamma_metric=g_up)


# -- compatibility between a vielbein and a matrix connection ----------------


@dataclass(frozen=True)
class CompatibilityResidual:
    """Residuals measuring whether E is a frame of the matrix connection A.

    ``display``: sigma_ab (d_n E^a_m - Gamma^l_{mn} E^a_l) - eta_bc A_n E^c_m,
    indexed [b, m, n, i, j] with (i, j) the spinor matrix slots.
    ``tetrad``: the frame-valued residual of the covariance condition with
    the antisymmetric part of A extracted by least squares on the sigma
    basis; this is the authoritative zero test.
    """

    point: Point
    display: np.ndarray
    tetrad: np.ndarray
    projection_defect: float


def _sigma_basis_matrix(sig: np.ndarray) -> np.ndarray:
    """Design matrix columns: vectorized sigma_ab (a < b), doubled for the
    full antisymmetric contraction sigma_ab w^{ab} = 2 sum_{a<b} sigma_ab w^{ab}."""
    n = sig.shape[0]
    cols = []
    for a in range(n):
        for b in range(a + 1, n):
            cols.append(2.0 * sig[a, b].ravel())
    return np.array(cols).T


def sigma_project(sig: np.ndarray, mat: np.ndarray) -> tuple:
    """Least-squares antisymmetric coefficients w with sigma_ab w^{ab} ~ mat."""
    n = sig.shape[0]
    design = _sigma_basis_matrix(sig)
    coef, *_ = np.linalg.lstsq(design, mat.ravel(), rcond=None)
    w = np.zeros((n, n), dtype=complex)
    k = 0
    for a in range(n):
        for b in range(a + 1, n):
            w[a, b] = coef[k]
            w[b, a] = -coef[k]
            k += 1
    recon = np.einsum("ab,abij->ij", w, sig)
    defect = float(np.abs(recon - mat).max())
    return w, defect


def compatibility_residual(e: Vielbein, a_field: ChartField, p: Point) -> CompatibilityResidual:
    """Evaluate the frame-compatibility residuals of E against A at p.

    ``a_field`` is a matrix-valued one-form (shape (n, s, s)) acting on the
    spinor space of the chart dimension.
    """
    n = e.dim
    sig = sigma_matrices(e.signature)
    s = sig.shape[-1]
    if a_field.shape != (n, s, s):
        raise ValueError(f"connection field shape {a_field.shape} != ({n}, {s}, {s})")
    eta = e.signature.matrix
    e_val, de, _ = e.jets(p, order=1)
    gam = e.metric().christoffel(p).values
    a_val = np.asarray(a_field.raw(p.coords), dtype=complex)

    cov = de - np.einsum("lmn,al->amn", gam, e_val)  # d_n E^a_m - Gamma^l_mn E^a_l
    display = (np.einsum("abij,amn->bmnij", sig, cov.astype(complex))
               - np.einsum("bc,nij,cm->bmnij", eta, a_val, e_val.astype(complex)))

    w = np.zeros((n, n, n), dtype=complex)  # w[a, b, nu]
    defect = 0.0
    for nu in range(n):
        w_nu, d_nu = sigma_project(sig, a_val[nu])
        w[:, :, nu] = w_nu
        defect = max(defect, d_nu)
    mixed = np.einsum("abn,bc->acn", w, eta)
    tetrad = cov + np.real_if_close(np.einsum("acn,cm->amn", mixed, e_val))
    return CompatibilityResidual(point=p, display=display, tetrad=np.asarray(tetrad),
                                 projection_defect=defect)
