"""Finite-dimensional real spectral triples.

A triple bundles an algebra representation (a list of generator matrices on
the Hilbert space), a Dirac matrix, an optional grading, and an optional real
structure J = K o conj with sign table (eps, eps', eps'').  check_axioms
measures every defining identity; nothing is assumed beyond shapes.

The antilinear J acts as v -> K conj(v), so conjugation by J on operators is
J M J^-1 = K conj(M) K^dagger, independent of eps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "FiniteTriple",
    "AxiomReport",
    "YukawaData",
    "check_axioms",
    "inner_fluctuations",
    "fluctuation_space",
    "fluctuate",
    "hermitian_part",
    "unimodular_projection",
    "build_sm_finite",
    "two_point_triple",
    "lepton_triple",
]


def _as_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FiniteTriple:
    """Algebra generators, Dirac matrix, grading and real structure."""

    dim: int
    algebra_generators: tuple
    d: np.ndarray
    gamma: np.ndarray | None = None
    k: np.ndarray | None = None
    epsilon_signs: tuple = (1, 1, 1)
    first_order_claimed: bool = True
    dirac_hermitian_claimed: bool = True
    label: str = ""

    def __post_init__(self):
        d = _as_matrix(self.d, "D")
        if d.shape[0] != self.dim:
            raise ValueError(f"D is {d.shape[0]}x{d.shape[0]} but dim = {self.dim}")
        gens = tuple(_as_matrix(a, "algebra generator") for a in self.algebra_generators)
        if any(a.shape[0] != self.dim for a in gens):
            raise ValueError("algebra generators must match the Hilbert dimension")
        gamma = None if self.gamma is None else _as_matrix(self.gamma, "gamma")
        if gamma is not None and gamma.shape[0] != self.dim:
            raise ValueError("grading must match the Hilbert dimension")
        k = None if self.k is None else _as_matrix(self.k, "K")
        if k is not None and k.shape[0] != self.dim:
            raise ValueError("K must match the Hilbert dimension")
        if any(s not in (-1, 1) for s in self.epsilon_signs) or len(self.epsilon_signs) != 3:
            raise ValueError("epsilon signs must be a triple of +-1")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "algebra_generators", gens)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "k", k)

    def conjugate_by_j(self, m: np.ndarray) -> np.ndarray:
        """J M J^-1 for a matrix M."""
        if self.k is None:
            raise ValueError("triple has no real structure")
        return self.k @ np.conj(m) @ self.k.conj().T


@dataclass
class AxiomReport:
    """Residuals of the defining identities; None marks absent structure."""

    dirac_hermitian: float
    grading_hermitian: float | None
    grading_squares: float | None
    grading_commutes_algebra: float | None
    grading_anticommutes_dirac: float | None
    j_squares: float | None
    j_dirac: float | None
    j_grading: float | None
    order_zero: float | None
    first_order: float | None
    first_order_claimed: bool
    dirac_hermitian_claimed: bool

    def items(self):
        """(name, residual, claimed) for every identity measured, in field order."""
        claimed = {"first_order": self.first_order_claimed,
                   "dirac_hermitian": self.dirac_hermitian_claimed}
        for name, val in self.__dict__.items():
            if name.endswith("_claimed") or val is None:
                continue
            yield name, val, claimed.get(name, True)

    def residual_items(self):
        """(name, residual) for the claimed identities."""
        return ((name, val) for name, val, claimed in self.items() if claimed)


def _max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max()) if m.size else 0.0


def check_axioms(t: FiniteTriple) -> AxiomReport:
    """Measure every identity whose structure the triple has.

    Boundedness of [D, a] is automatic in finite dimension and not measured.
    """
    d = t.d
    eye = np.eye(t.dim)
    dirac_h = _max_abs(d - d.conj().T)
    g_h = g_sq = g_comm = g_anti = None
    if t.gamma is not None:
        g = t.gamma
        g_h = _max_abs(g - g.conj().T)
        g_sq = _max_abs(g @ g - eye)
        g_comm = max((_max_abs(g @ a - a @ g) for a in t.algebra_generators),
                     default=0.0)
        g_anti = _max_abs(g @ d + d @ g)
    j_sq = j_d = j_g = order_zero = first_order = None
    if t.k is not None:
        eps, eps_p, eps_pp = t.epsilon_signs
        k = t.k
        j_sq = _max_abs(k @ np.conj(k) - eps * eye)
        j_d = _max_abs(k @ np.conj(d) - eps_p * d @ k)
        if t.gamma is not None:
            j_g = _max_abs(k @ np.conj(t.gamma) - eps_pp * t.gamma @ k)
        order_zero = 0.0
        first_order = 0.0
        opposites = [t.conjugate_by_j(b) for b in t.algebra_generators]
        for a in t.algebra_generators:
            da = d @ a - a @ d
            for bo in opposites:
                order_zero = max(order_zero, _max_abs(a @ bo - bo @ a))
                first_order = max(first_order, _max_abs(da @ bo - bo @ da))
    return AxiomReport(
        dirac_hermitian=dirac_h,
        grading_hermitian=g_h,
        grading_squares=g_sq,
        grading_commutes_algebra=g_comm,
        grading_anticommutes_dirac=g_anti,
        j_squares=j_sq,
        j_dirac=j_d,
        j_grading=j_g,
        order_zero=order_zero,
        first_order=first_order,
        first_order_claimed=t.first_order_claimed,
        dirac_hermitian_claimed=t.dirac_hermitian_claimed,
    )


# -- inner fluctuations --------------------------------------------------------


def inner_fluctuations(t: FiniteTriple, pairs) -> np.ndarray:
    """The gauge potential A = sum_i a_i [D, b_i] for a list of matrix pairs
    (a_i, b_i)."""
    pairs = tuple((_as_matrix(a, "a_i"), _as_matrix(b, "b_i")) for a, b in pairs)
    if not pairs:
        raise ValueError("at least one (a, b) pair required")
    acc = np.zeros((t.dim, t.dim), dtype=complex)
    for a, b in pairs:
        acc += a @ (t.d @ b - b @ t.d)
    return acc


# singular values below this fraction of the largest do not count to the span
SPAN_RCOND = 1e-10


def fluctuation_space(t: FiniteTriple):
    """Span of {a_i [D, b_j]} over the generator list.

    Returns (dimension, orthonormal basis) with basis rows the vectorized
    span elements from an SVD of the generator sweep.
    """
    rows = []
    for a in t.algebra_generators:
        for b in t.algebra_generators:
            rows.append((a @ (t.d @ b - b @ t.d)).ravel())
    if not rows:
        return 0, np.zeros((0, t.dim * t.dim), dtype=complex)
    mat = np.array(rows)
    if not np.abs(mat).max():
        return 0, np.zeros((0, t.dim * t.dim), dtype=complex)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    keep = s > SPAN_RCOND * s[0]
    return int(keep.sum()), vh[keep]


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger)/2."""
    return 0.5 * (a + a.conj().T)


def fluctuate(t: FiniteTriple, a: np.ndarray) -> FiniteTriple:
    """Perturbed triple with D' = D + A + J A J^-1.

    A is first replaced by its Hermitian part (A + A^dagger)/2, which keeps
    D' Hermitian.  The first-order and grading residuals of the result are
    available via check_axioms.
    """
    if t.k is None:
        raise ValueError("fluctuation needs a real structure J")
    mat = hermitian_part(a)
    return replace(t, d=t.d + mat + t.conjugate_by_j(mat))


def unimodular_projection(a: np.ndarray) -> np.ndarray:
    """Remove the trace part: A -> A - (Tr A / dim) I."""
    dim = a.shape[0]
    return a - (np.trace(a) / dim) * np.eye(dim)


# -- built-in triples ----------------------------------------------------------


def two_point_triple(m: complex = 1.0) -> FiniteTriple:
    """The two-point space: H = C^2, D = [[0, m], [m*, 0]], gamma = diag(1,-1).

    J is the swap composed with conjugation; sign table (1, 1, -1).  The
    first-order condition fails for this triple whenever m != 0, so it is
    not claimed.
    """
    d = np.array([[0.0, m], [np.conj(m), 0.0]], dtype=complex)
    gamma = np.diag([1.0, -1.0]).astype(complex)
    k = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    gens = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    return FiniteTriple(dim=2, algebra_generators=gens, d=d, gamma=gamma, k=k,
                        epsilon_signs=(1, 1, -1), first_order_claimed=False,
                        label="two-point")


def _sector_block(y: np.ndarray) -> np.ndarray:
    """[[0, Y], [Y^dagger, 0]], Hermitian for every Y."""
    m, n = y.shape
    return np.block([[np.zeros((m, m)), y], [y.conj().T, np.zeros((n, n))]])


def _doubled_triple(s: np.ndarray, chirality, slots, label: str) -> FiniteTriple:
    """The real triple on H + conj(H) built from a particle block S on H.

    D = S + conj(S), the grading is the chirality signs on both halves, and
    J swaps the halves and conjugates, with sign table (1, 1, 1).  The
    algebra is spanned by the projectors on the given slots of the particle
    half plus the scalar projector on the conjugate half; J b J^-1 is then
    scalar wherever [D, a] lives, so the order-zero and first-order
    conditions hold exactly.
    """
    n = s.shape[0]
    z = np.zeros((n, n))
    d = np.block([[s, z], [z, np.conj(s)]])
    gamma = np.diag(np.concatenate([chirality, chirality])).astype(complex)
    k = np.block([[z, np.eye(n)], [np.eye(n), z]]).astype(complex)
    gens = []
    for idx in [*slots, np.arange(n, 2 * n)]:
        p = np.zeros((2 * n, 2 * n), dtype=complex)
        p[idx, idx] = 1.0
        gens.append(p)
    return FiniteTriple(dim=2 * n, algebra_generators=tuple(gens), d=d, gamma=gamma,
                        k=k, epsilon_signs=(1, 1, 1), label=label)


def lepton_triple(k_e: np.ndarray | None = None) -> FiniteTriple:
    """A lepton-sector triple on C^12 = (a, b, abar, bbar) with 3 generations.

    D couples a <-> b through k_e, grading +1 on a and -1 on b; the algebra
    acts as (x, y) on the particle slots and as a single scalar z on all
    conjugate slots (see _doubled_triple).
    """
    ke = np.eye(3, dtype=complex) if k_e is None else _as_matrix(k_e, "k_e")
    if ke.shape != (3, 3):
        raise ValueError("k_e must be 3x3")
    return _doubled_triple(_sector_block(ke), np.repeat([1.0, -1.0], 3),
                           (np.arange(3), np.arange(3, 6)), "lepton")


# -- Standard Model Yukawa sector ----------------------------------------------


E_DOWN = np.array([0.0, 1.0], dtype=complex)            # doublet slot hit by k^d, k^e
E_UP = np.array([1.0, 0.0], dtype=complex)              # i sigma_2 applied to E_DOWN


@dataclass(frozen=True)
class YukawaData:
    """Yukawa matrices in generation space and their assembled blocks.

    Basis order: quark sector (Q_L doublet x 3 generations, d_R, u_R) with
    color multiplicity 3, then lepton sector (l_L doublet x 3, e_R).  Each
    sector block is [[0, Y], [Y^dagger, 0]] with Y the left-to-right Yukawa
    coupling, so it is Hermitian for every input.
    """

    k_u: np.ndarray
    k_d: np.ndarray
    k_e: np.ndarray

    def __post_init__(self):
        for name in ("k_u", "k_d", "k_e"):
            mat = _as_matrix(getattr(self, name), name)
            if mat.shape != (3, 3):
                raise ValueError(f"{name} must be 3x3 (three generations)")
            object.__setattr__(self, name, mat)

    def y_quark(self) -> np.ndarray:
        """12x12 block on (Q_L(6), d_R(3), u_R(3))."""
        return _sector_block(np.hstack([np.kron(E_DOWN[:, None], self.k_d),
                                        np.kron(E_UP[:, None], self.k_u)]))

    def y_lepton(self) -> np.ndarray:
        """9x9 block on (l_L(6), e_R(3))."""
        return _sector_block(np.kron(E_DOWN[:, None], self.k_e))

    def y_total(self) -> np.ndarray:
        """45x45: color-tripled quark block direct-summed with the leptons."""
        yq = np.kron(self.y_quark(), np.eye(3))
        yl = self.y_lepton()
        out = np.zeros((45, 45), dtype=complex)
        out[:36, :36] = yq
        out[36:, 36:] = yl
        return out


def build_sm_finite(yukawa: YukawaData) -> FiniteTriple:
    """Assemble the 90-dimensional Yukawa-sector triple.

    The particle block is YukawaData.y_total; the grading is -1 on
    left-handed and +1 on right-handed slots.  The algebra representation on
    this space is not forced by the axioms, so the generator list is the
    diagonal sector-projector algebra: the quark and lepton chiral sectors
    on the particle half plus the scalar projector on the conjugate half
    (see _doubled_triple).  D is Hermitian for every Yukawa input, and every
    identity is claimed.
    """
    quark_left = np.repeat([True] * 6 + [False] * 6, 3)
    lepton_left = np.array([True] * 6 + [False] * 3)
    chirality = np.where(np.concatenate([quark_left, lepton_left]), -1.0, 1.0)
    slots = (np.flatnonzero(quark_left), np.flatnonzero(~quark_left),
             36 + np.flatnonzero(lepton_left), 36 + np.flatnonzero(~lepton_left))
    return _doubled_triple(yukawa.y_total(), chirality, slots, "sm-yukawa")
