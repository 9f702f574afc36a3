"""Generalized metric geometry built from vielbeins.

The metric gamma_mn = E^a_m E^b_n eta_ab is assembled from a frame field E
(which may carry non-Riemannian content), and all curvature quantities are
derived from gamma by the usual torsion-free formulas.  Derivatives come
from order-2 jet evaluation of the underlying fields.  The contractions of
the order-2 curvature pass (metric jets, Christoffel jets, Riemann, its
lowering and R.R) are batched matmuls on index groups reshaped to rows and
columns, which numpy hands to BLAS; einsum is left for index permutations,
traces, the final contraction of two tensors to a scalar, and the frame
connection (spin connection and frame curvature).

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

import dataclasses
from dataclasses import dataclass

import numpy as np

from .fields import ChartField
from .tensors import (MinkowskiSignature, Point, checked_det, checked_inverse,
                      checked_inverse_and_det)

__all__ = [
    "Vielbein",
    "GeneralizedMetric",
    "ChristoffelSymbols",
    "CurvatureTensors",
    "riemann_square",
    "ricci_square",
    "FrameGeometry",
    "frame_geometry",
    "frame_curvature_check",
    "VolumeElement",
    "flat_gamma_matrices",
    "sigma_matrices",
    "sigma_squared",
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

    invariants is the action densities' memo of this frame's metric passes
    over quadrature blocks (action._Passes); it lives as long as the frame.
    """

    field: ChartField
    signature: MinkowskiSignature
    invariants: dict = dataclasses.field(default_factory=dict, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        n = self.signature.dim
        if self.field.shape != (n, n) or self.field.dim != n:
            raise ValueError(f"vielbein field of shape {self.field.shape} over {self.field.dim} "
                             f"coordinates, expected ({n}, {n}) over {n}")

    @property
    def dim(self) -> int:
        return self.signature.dim

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
    det: float | None  # from gamma_inv's singularity guard; None outside the float range

    def volume(self):
        """sqrt|det gamma|, from the guard's determinant: no second guard.
        ArithmeticError where the determinant left the float range, as in
        checked_det."""
        if self.det is None:
            raise ArithmeticError("determinant outside the float range")
        return np.sqrt(np.abs(self.det))

    def riemann_down(self) -> np.ndarray:
        n = self.gamma.shape[-1]
        return (self.gamma @ self.riemann.reshape(self.riemann.shape[:-3] + (n ** 3,))
                ).reshape(self.riemann.shape)

    def riemann_squared(self):
        """R_{rmnl} R^{rmnl}; a float at a point, an (N,) array over a block."""
        return riemann_square(self.riemann_down(), self.gamma_inv)

    def ricci_squared(self):
        return ricci_square(self.ricci, self.gamma_inv)


def riemann_square(rd: np.ndarray, ginv: np.ndarray):
    """R_{rmnl} R^{rmnl} of the covariant rd raised by ginv: a float at a
    point, an array when either argument has leading batch axes."""
    # raise the four indices of R_{mnop} one at a time, each as a batched
    # product with ginv: p on the rows (m, n, o), then o, n and m.  With a
    # diagonal ginv every entry is scaled in that order, which keeps the bits
    # of the test's einsum reference (a ginv (x) ginv Kronecker form does not)
    n = ginv.shape[-1]
    g = ginv[..., None, :, :]
    ru = rd.reshape(rd.shape[:-4] + (n ** 3, n)) @ ginv.swapaxes(-1, -2)   # [mno, d]
    ru = g @ ru.reshape(ru.shape[:-2] + (n * n, n, n))                      # [mn, c, d]
    ru = g @ ru.reshape(ru.shape[:-3] + (n, n, n * n))                      # [m, b, cd]
    ru = ginv @ ru.reshape(ru.shape[:-3] + (n, n ** 3))                     # [a, bcd]
    # both as (mn, op) matrices: a 4-index einsum here raised the peak RSS
    # of an action run by 0.4 MB
    m = rd.reshape(rd.shape[:-4] + (n * n, n * n))
    ru = ru.reshape(ru.shape[:-2] + (n * n, n * n))
    return _unbatched(np.real(np.einsum("...ab,...ab->...", m, ru)))


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
        gam = _christoffel_from(ginv, _symmetrized_dg(dg))
        return ChristoffelSymbols(point=p, values=gam, gamma=g, gamma_inv=ginv)

    def christoffel_with_derivative(self, p):
        return _christoffel_jets(*self.gamma_jets(p, order=2))

    def curvature(self, p) -> CurvatureTensors:
        g, ginv, gam, dgam, det = self.christoffel_with_derivative(p)
        riem, ricci, scalar = _riemann_from(ginv, gam, dgam)
        return CurvatureTensors(point=p, riemann=riem, ricci=ricci, scalar=scalar,
                                gamma=g, gamma_inv=ginv, det=det)


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
        n = e.shape[-1]
        dd = (e_eta @ dde.reshape(dde.shape[:-3] + (n ** 3,))).reshape(dde.shape)
        # cross as the (ms, nr) matrix de[a, ms]^T eta de[a, nr], then (m, n, r, s)
        rows = de.reshape(de.shape[:-3] + (n, n * n))
        cross = np.moveaxis((rows.swapaxes(-1, -2) @ (eta @ rows)).reshape(
            de.shape[:-3] + (n, n, n, n)), -3, -1)
        ddg = dd.swapaxes(-4, -3) + cross.swapaxes(-2, -1) + cross + dd
    return g, dg, ddg


# the first raises FloatingPointError where numpy would warn of an overflow;
# the second leaves inf and NaN in place for the search by point
_flagged_metric_jets = np.errstate(over="raise", invalid="raise")(_metric_jets)
_quiet_metric_jets = np.errstate(all="ignore")(_metric_jets)


def _christoffel_from(ginv: np.ndarray, sym: np.ndarray) -> np.ndarray:
    # Gamma^m_ab = 1/2 g^{ml} sym[l, a, b], sym = _symmetrized_dg(d gamma)
    return 0.5 * (ginv @ sym.reshape(sym.shape[:-2] + (-1,))).reshape(sym.shape)


def _christoffel_jets(g, dg, ddg):
    """(gamma, gamma^-1, Gamma, dGamma, det gamma) from the metric and its
    derivatives; the determinant is the singularity guard's (None where it
    leaves the float range)."""
    ginv, det = checked_inverse_and_det(g)
    sym = _symmetrized_dg(dg)
    gam = _christoffel_from(ginv, sym)
    n = g.shape[-1]
    lead = g.shape[:-2]
    # d_r g^{mn} = -g^{ma} d_r g_ab g^{bn}, as ([m, r, b] @ g^{bn}) with r, n swapped
    ginv_dg = (ginv @ dg.reshape(lead + (n, n * n))).reshape(dg.shape)
    dginv = -(ginv_dg.swapaxes(-1, -2) @ ginv[..., None, :, :]).swapaxes(-1, -2)
    # dGamma[m, ab, r] = dginv[m, l, r] sym[l, ab] + g^{ml} ssym[l, abr]
    sym = sym.reshape(lead + (1, n, n * n))
    dgam = 0.5 * ((sym.swapaxes(-1, -2) @ dginv).reshape(ddg.shape)
                  + (ginv @ _symmetrized_ddg(ddg).reshape(lead + (n, n ** 3))).reshape(ddg.shape))
    return g, ginv, gam, dgam, det


def _riemann_from(ginv, gam, dgam):
    """Riemann R^r_{mnl}, Ricci R_ml and the scalar from the Christoffel jets."""
    # R^r_mnl = d_n G^r_lm - d_l G^r_nm + G^r_ns G^s_lm - G^r_ls G^s_nm
    # with gg[r, n, l, m] = G^r_ns G^s_lm
    n = gam.shape[-1]
    gg = (gam @ gam.reshape(gam.shape[:-3] + (1, n, n * n))).reshape(gam.shape + (n,))
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
    gm, ginv, gam, dgam, _ = _christoffel_jets(*_frame_metric(p, e_val, de, dde, eta))
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


def sigma_matrices(signature: MinkowskiSignature) -> np.ndarray:
    """sigma_ab = (i/2)[gamma_a, gamma_b] with frame indices lowered by eta."""
    gup = flat_gamma_matrices(signature)
    signs = np.array(signature.signs, dtype=float)
    glow = np.einsum("a,aij->aij", signs, gup)
    comm = np.einsum("aij,bjk->abik", glow, glow) - np.einsum("bij,ajk->abik", glow, glow)
    return 0.5j * comm


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
