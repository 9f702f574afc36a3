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

import numpy as np

from .fields import ChartField
from .tensors import (
    COORD,
    DOWN,
    FRAME,
    UP,
    MinkowskiSignature,
    Point,
    SingularMetricError,
    TensorValue,
    checked_det,
    checked_inverse,
)

__all__ = [
    "Vielbein",
    "GeneralizedMetric",
    "ChristoffelSymbols",
    "CurvatureTensors",
    "SpinConnection",
    "FrameGeometry",
    "frame_geometry",
    "DiracMatrices",
    "VolumeElement",
    "CompatibilityResidual",
    "CoordinateConditionError",
    "spin_connection",
    "flat_gamma_matrices",
    "sigma_matrices",
    "sigma_squared",
    "dirac_matrices",
    "compatibility_residual",
    "solve_vielbein_along_line",
]


class CoordinateConditionError(RuntimeError):
    """A coordinate-condition precondition failed at the evaluation point."""


@dataclass(frozen=True)
class VolumeElement:
    value: float
    mode: str  # "euclidean" (det > 0) or "lorentzian" (det < 0)
    det: float


@dataclass
class Vielbein:
    """Frame field E^a_m together with the flat frame metric eta."""

    field: ChartField
    signature: MinkowskiSignature

    def __post_init__(self):
        n = self.signature.dim
        if self.field.shape != (n, n):
            raise ValueError(f"vielbein field shape {self.field.shape} != ({n}, {n})")

    @property
    def dim(self) -> int:
        return self.signature.dim

    def value(self, p: Point) -> np.ndarray:
        return np.asarray(self.field.raw(p.coords), dtype=float)

    def tensor(self, p: Point) -> TensorValue:
        return TensorValue(self.value(p), (UP, DOWN), (FRAME, COORD))

    def inverse(self, p: Point) -> np.ndarray:
        """Inverse frame e^m_a, with the determinant guard."""
        return checked_inverse(self.value(p))

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

    def tensor(self) -> TensorValue:
        # Christoffel symbols are connection coefficients, not a tensor;
        # the variance tags record only how indices contract.
        return TensorValue(self.values, (UP, DOWN, DOWN))

    def contracted(self) -> np.ndarray:
        """Gamma^b_{ba}; vanishes exactly in unit-volume coordinates."""
        return np.einsum("bba->a", self.values)


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
        gi = self.gamma_inv
        rd = self.riemann_down()
        # raise the four indices of R_{mnop} one at a time
        ru = np.einsum("...mnop,...dp->...mnod", rd, gi)
        ru = np.einsum("...mnod,...co->...mncd", ru, gi)
        ru = np.einsum("...mncd,...bn->...mbcd", ru, gi)
        ru = np.einsum("...mbcd,...am->...abcd", ru, gi)
        return _unbatched(np.real(np.einsum("...abcd,...abcd->...", rd, ru)))

    def ricci_squared(self):
        up = self.gamma_inv @ self.ricci @ self.gamma_inv.swapaxes(-1, -2)
        return _unbatched(np.real(np.einsum("...ab,...ab->...", self.ricci, up)))


class GeneralizedMetric:
    """Symmetric rank-2 metric, backed by a vielbein or a direct field."""

    def __init__(self, dim: int, vielbein: Vielbein | None = None,
                 gamma_field: ChartField | None = None):
        if (vielbein is None) == (gamma_field is None):
            raise ValueError("provide exactly one of vielbein or gamma_field")
        if gamma_field is not None and gamma_field.shape != (dim, dim):
            raise ValueError("gamma field must be square rank 2")
        self.dim = dim
        self.vielbein = vielbein
        self.gamma_field = gamma_field

    # -- raw jets ---------------------------------------------------------

    def gamma_jets(self, p, order: int = 2):
        """(gamma, dgamma, ddgamma) with derivative indices trailing."""
        if self.gamma_field is not None:
            g, dg, ddg = self.gamma_field.jets(p, order=order)
            return np.real(g), np.real(dg), (None if ddg is None else np.real(ddg))
        e, de, dde = self.vielbein.jets(p, order=order)
        return _metric_jets(e, de, dde, self.vielbein.signature.matrix)

    # -- point (or block) evaluations ----------------------------------------

    def value(self, p) -> np.ndarray:
        g, _, _ = self.gamma_jets(p, order=1)
        return g

    def tensor(self, p: Point) -> TensorValue:
        return TensorValue(self.value(p), (DOWN, DOWN), (COORD, COORD))

    def inverse(self, p: Point) -> np.ndarray:
        return checked_inverse(self.value(p))

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

    def ricci_simplified(self, p: Point, tol: float = 1e-10) -> np.ndarray:
        """Ricci tensor in unit-volume coordinates.

        Valid only where sqrt|det gamma| = 1 and the contracted Christoffel
        symbols vanish; under those conditions it agrees with the full
        curvature pipeline.
        """
        g, ginv, gam, dgam = self.christoffel_with_derivative(p)
        vol = np.sqrt(abs(np.linalg.det(g)))
        if abs(vol - 1.0) > tol:
            raise CoordinateConditionError(
                f"sqrt|det gamma| = {vol:.12g} is not 1 within {tol:g}")
        contracted = np.einsum("bba->a", gam)
        worst = float(np.abs(contracted).max())
        if worst > tol:
            raise CoordinateConditionError(
                f"contracted Christoffel max |Gamma^b_ba| = {worst:.3e} exceeds {tol:g}")
        return np.einsum("amna->mn", dgam) - np.einsum("bma,anb->mn", gam, gam)


def _unbatched(x):
    """A Python scalar for one point; the array itself for a block."""
    return x.item() if np.ndim(x) == 0 else x


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
    scalar = _unbatched(np.real(np.einsum("...ml,...ml->...", ginv, ricci)))
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
    einv = checked_inverse(e_val)
    eup = einv @ eta  # e^{m b} = e^m_c eta^{cb}; eta is its own inverse
    deinv = -np.einsum("mc,crs,rb->mbs", einv, de, einv)
    deup = np.einsum("mbs,bc->mcs", deinv, eta)
    omega = (np.einsum("an,nbm->abm", e_val, deup)
             + np.einsum("an,lb,nlm->abm", e_val, eup, gam))
    return einv, eup, deinv, deup, omega


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
    _, _, _, _, omega = _spin_connection_arrays(e_val, de, gam, eta)
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
    gamma: np.ndarray
    gamma_inv: np.ndarray
    christoffel: np.ndarray
    dchristoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    omega: np.ndarray
    domega: np.ndarray
    frame_curvature: np.ndarray
    volume: float


def frame_geometry(e: Vielbein, p: Point) -> FrameGeometry:
    eta = e.signature.matrix
    e_val, de, dde = e.jets(p, order=2)
    gm, ginv, gam, dgam = _christoffel_jets(*_metric_jets(e_val, de, dde, eta))
    riem, ricci, scalar = _riemann_from(ginv, gam, dgam)
    einv, eup, deinv, deup, omega = _spin_connection_arrays(e_val, de, gam, eta)
    ddeinv = -(np.einsum("mcs,crt,rb->mbts", deinv, de, einv)
               + np.einsum("mc,crts,rb->mbts", einv, dde, einv)
               + np.einsum("mc,crt,rbs->mbts", einv, de, deinv))
    ddeup = np.einsum("mbts,bc->mcts", ddeinv, eta)
    domega = (np.einsum("ans,nbm->abms", de, deup)
              + np.einsum("an,nbms->abms", e_val, ddeup)
              + np.einsum("ans,lb,nlm->abms", de, eup, gam)
              + np.einsum("an,lbs,nlm->abms", e_val, deup, gam)
              + np.einsum("an,lb,nlms->abms", e_val, eup, dgam))
    quad = np.einsum("acm,cd,dbn->abmn", omega, eta, omega)
    frame_curv = (np.einsum("abnm->abmn", domega) - domega
                  + quad - np.einsum("abmn->abnm", quad))
    vol = float(np.sqrt(abs(np.linalg.det(gm))))
    return FrameGeometry(point=p, e=e_val, gamma=gm, gamma_inv=ginv,
                         christoffel=gam, dchristoffel=dgam, riemann=riem,
                         ricci=ricci, scalar=scalar, omega=omega, domega=domega,
                         frame_curvature=frame_curv, volume=vol)


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


@dataclass(frozen=True)
class DiracMatrices:
    point: Point
    gammas: np.ndarray        # Gamma^m = E^m_a gamma^a
    flat_gammas: np.ndarray
    gamma_metric: np.ndarray  # gamma^{mn} at the point

    def anticommutator_residuals(self) -> dict:
        """Max residuals against both normalizations of the Clifford relation.

        ``doubled`` checks {Gamma^m, Gamma^n} = 2 gamma^{mn} I (the relation
        the construction satisfies); ``plain`` checks the same with the
        factor 2 dropped, reported for comparison.
        """
        s = self.gammas.shape[-1]
        eye = np.eye(s)
        anti = (np.einsum("mij,njk->mnik", self.gammas, self.gammas)
                + np.einsum("nij,mjk->mnik", self.gammas, self.gammas))
        doubled = anti - 2.0 * np.einsum("mn,ik->mnik", self.gamma_metric, eye)
        plain = anti - np.einsum("mn,ik->mnik", self.gamma_metric, eye)
        return {
            "doubled": float(np.abs(doubled).max()),
            "plain": float(np.abs(plain).max()),
        }


def dirac_matrices(e: Vielbein, p: Point) -> DiracMatrices:
    """Curved-space Dirac matrices Gamma^m = E^m_a gamma^a."""
    flat = flat_gamma_matrices(e.signature)
    einv = e.inverse(p)
    gam = np.einsum("ma,aij->mij", einv, flat)
    eta = e.signature.matrix  # self-inverse for diagonal +-1 entries
    g_up = np.einsum("ma,ab,nb->mn", einv, eta, einv)
    return DiracMatrices(point=p, gammas=gam, flat_gammas=flat, gamma_metric=g_up)


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
    projected_omega: np.ndarray
    projection_defect: float

    @property
    def display_max(self) -> float:
        return float(np.abs(self.display).max())

    @property
    def tetrad_max(self) -> float:
        return float(np.abs(self.tetrad).max())


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
                                 projected_omega=w, projection_defect=defect)


@dataclass(frozen=True)
class LineSolveResult:
    ts: np.ndarray
    frames: np.ndarray         # E samples along the line, shape (len(ts), n, n)
    resubstitution: float      # max FD-vs-right-hand-side defect (interior points)


def solve_vielbein_along_line(a_field: ChartField, e0: np.ndarray, x0: Point,
                              direction, signature: MinkowskiSignature,
                              t_max: float, steps: int) -> LineSolveResult:
    """Integrate the frame transport sigma_ab (d_t E)^a_m = eta_bc (A.d) E^c_m.

    The compatibility condition only constrains the sigma-contracted part of
    the directional derivative, so the velocity is recovered per step by
    least squares on the free (b, i, j) slots.  Integration is classical RK4
    along the straight line x0 + t*direction; the re-substitution defect of
    the solved samples under an independent central-difference time
    derivative is reported.
    """
    n = signature.dim
    sig = sigma_matrices(signature)
    eta = signature.matrix.astype(complex)
    d = np.asarray(direction, dtype=float)
    # rows (b, i, j), columns a: maps a velocity v^a to sigma_ab v^a
    design = np.transpose(sig, (1, 2, 3, 0)).reshape(-1, n)

    def rhs(t: float, e_mat: np.ndarray) -> np.ndarray:
        coords = tuple(np.asarray(x0.coords, dtype=float) + t * d)
        a_val = np.asarray(a_field.raw(coords), dtype=complex)
        a_dir = np.einsum("n,nij->ij", d, a_val)
        target = np.einsum("bc,ij,cm->bijm", eta, a_dir, e_mat.astype(complex))
        v, *_ = np.linalg.lstsq(design, target.reshape(-1, n), rcond=None)
        return np.real(v)

    ts = np.linspace(0.0, t_max, steps + 1)
    h = t_max / steps
    frames = np.zeros((steps + 1, n, n))
    e_cur = np.array(e0, dtype=float)
    frames[0] = e_cur
    for k in range(steps):
        t = ts[k]
        k1 = rhs(t, e_cur)
        k2 = rhs(t + 0.5 * h, e_cur + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, e_cur + 0.5 * h * k2)
        k4 = rhs(t + h, e_cur + h * k3)
        e_cur = e_cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        frames[k + 1] = e_cur
    defect = 0.0
    for k in range(1, steps):
        fd = (frames[k + 1] - frames[k - 1]) / (2.0 * h)
        defect = max(defect, float(np.abs(fd - rhs(ts[k], frames[k])).max()))
    return LineSolveResult(ts=ts, frames=frames, resubstitution=defect)
