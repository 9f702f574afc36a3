"""Gauge-sector assembly, curvature routes, and trace identities."""

import numpy as np
import pytest

from geodyn.connection import (
    ETA,
    GELL_MANN,
    PAULI,
    ConnectionForm,
    HiggsField,
    ReparamConstants,
    SMGaugeConfig,
    _gauge_blocks,
    bianchi_residual,
    curvature,
    curvature_of_potential,
    curvature_squared,
    field_strength_square,
    gauge_route_check,
    gauge_square_report,
    higgs_covariant_derivative,
    higgs_kinetic_square,
    sm_lagrangian_normalized,
    su3_structure_constants,
    transform_potential,
)
from geodyn.fields import ChartField, fd_jets
from geodyn.geometry import frame_curvature_check, frame_geometry, ricci_square, riemann_square
from geodyn.jets import cos, sin
from geodyn.library import flat, sphere2_cross_flat2
from geodyn.tensors import Point


def _smooth_potential_field(rng, dim, comps):
    # comps  components, linear plus one sine so second derivatives are nonzero
    c0 = rng.standard_normal((comps, dim))
    c1 = 0.5 * rng.standard_normal((comps, dim, dim))
    c2 = 0.5 * rng.standard_normal((comps, dim))
    freq = rng.uniform(0.5, 1.5, size=dim)

    def func(coords):
        phase = sum(f * c for f, c in zip(freq, coords))
        s = sin(phase)
        out = np.empty((comps, dim), dtype=object)
        for a in range(comps):
            for m in range(dim):
                out[a, m] = (c0[a, m] + sum(c1[a, m, k] * coords[k] for k in range(dim))
                             + c2[a, m] * s)
        return out

    return ChartField(dim=dim, shape=(comps, dim), func=func)


def _scalar_potential_field(rng, dim):
    vec = _smooth_potential_field(rng, dim, 1)
    return ChartField(dim=dim, shape=(dim,), func=lambda c: np.asarray(vec.func(c))[0])


def _random_sm(rng, dim=4, g1=0.8, g2=1.1, g3=1.3):
    return SMGaugeConfig(b=_scalar_potential_field(rng, dim),
                         w=_smooth_potential_field(rng, dim, 3),
                         g=_smooth_potential_field(rng, dim, 8),
                         g1=g1, g2=g2, g3=g3)


def _antisymmetry(f):
    """Largest |F_mn + F_nm| over the gauge block and its components."""
    worst = float(np.abs(f.gauge_full + f.gauge_full.swapaxes(-4, -3)).max())
    for comp in (f.b_components, f.w_f, f.g_f):
        worst = max(worst, float(np.abs(comp + comp.swapaxes(-1, -2)).max()))
    return worst


def _random_higgs(rng, dim=4, c=0.9):
    cx = rng.standard_normal(dim)
    cy = rng.standard_normal(dim)

    def x_func(coords):
        return 0.4 + sum(a * c_ for a, c_ in zip(cx, coords))

    def y_func(coords):
        return 0.2 * sum(a * c_ for a, c_ in zip(cy, coords))

    return HiggsField.from_components(dim, x_func, y_func, c=c)


def test_su3_structure_constants():
    f = su3_structure_constants()
    assert np.abs(f + np.einsum("abc->bac", f)).max() < 1e-13
    assert abs(f[0, 1, 2] - 1.0) < 1e-13
    assert abs(f[3, 4, 7] - np.sqrt(3.0) / 2.0) < 1e-13
    assert abs(f[0, 3, 6] - 0.5) < 1e-13


def test_gell_mann_normalization():
    tr = np.einsum("aij,bji->ab", GELL_MANN, GELL_MANN)
    assert np.abs(tr - 2.0 * np.eye(8)).max() < 1e-13


def test_gauge_block_traceless_and_antihermitian():
    rng = np.random.default_rng(51)
    sm = _random_sm(rng)
    for _ in range(5):
        p = Point(tuple(rng.uniform(-1.0, 1.0, size=4)))
        b, w, g = (np.asarray(fld.numeric(p.coords), dtype=float)
                   for fld in (sm.b, sm.w, sm.g))
        a = _gauge_blocks(b, w.T, g.T, sm.g1, sm.g2, sm.g3)["full"]
        assert np.abs(np.einsum("mii->m", a)).max() < 1e-12
        assert np.abs(a + np.conj(np.einsum("mij->mji", a))).max() < 1e-12


def test_curvature_internal_consistency_checks():
    rng = np.random.default_rng(53)
    form = ConnectionForm(flat(4), _random_sm(rng), _random_higgs(rng))
    for _ in range(3):
        p = Point(tuple(rng.uniform(-1.0, 1.0, size=4)))
        f = curvature(form, p)
        assert _antisymmetry(f) < 1e-11
        assert gauge_route_check(form, p) < 1e-10
        fg = frame_geometry(form.vielbein, p)
        assert frame_curvature_check(fg, form.vielbein.signature) < 1e-10


def test_constant_abelian_potential_is_flat():
    dim = 4
    const = ChartField(dim=dim, shape=(dim,), func=lambda c: np.arange(1.0, 5.0))
    sm = SMGaugeConfig(b=const,
                       w=ChartField(dim=dim, shape=(3, dim),
                                    func=lambda c: np.zeros((3, dim))),
                       g=ChartField(dim=dim, shape=(8, dim),
                                    func=lambda c: np.zeros((8, dim))))
    f = curvature(ConnectionForm(flat(4), sm, HiggsField.zero(4)),
                  Point((0.1, 0.2, 0.3, 0.4)))
    assert np.abs(f.b_f).max() == 0.0
    assert np.abs(f.gauge_full).max() == 0.0


def test_constant_nonabelian_potential_keeps_commutator_term():
    dim = 4
    wv = np.zeros((3, dim))
    wv[0, 1] = 1.0
    wv[1, 2] = 1.0  # [sigma_1, sigma_2] feeds the a = 3 component
    sm = SMGaugeConfig(b=ChartField(dim=dim, shape=(dim,), func=lambda c: np.zeros(dim)),
                       w=ChartField(dim=dim, shape=(3, dim), func=lambda c: wv),
                       g=ChartField(dim=dim, shape=(8, dim),
                                    func=lambda c: np.zeros((8, dim))),
                       g2=1.1)
    f = curvature(ConnectionForm(flat(4), sm, HiggsField.zero(4)),
                  Point((0.0, 0.0, 0.0, 0.0)))
    expected = np.zeros((3, dim, dim))
    expected[2, 1, 2] = 1.1
    expected[2, 2, 1] = -1.1
    assert np.abs(f.w_f - expected).max() < 1e-14


def test_field_strength_matches_brute_force_matrix_route():
    # independent route: assemble Q_m as a matrix field, differentiate by
    # central differences, and apply F = dQ + [Q, Q] directly
    rng = np.random.default_rng(59)
    sm = _random_sm(rng)
    form = ConnectionForm(flat(4), sm, HiggsField.zero(4))
    p = Point((0.3, -0.5, 0.2, 0.7))

    def q_func(coords):
        wv = np.asarray(sm.w.func(coords))
        out = np.empty((4, 2, 2), dtype=object)
        for m in range(4):
            mat = -0.5j * sm.g2 * sum(wv[a, m] * PAULI[a] for a in range(3))
            for i in range(2):
                for j in range(2):
                    out[m, i, j] = mat[i, j]
        return out

    q_field = ChartField(dim=4, shape=(4, 2, 2), func=q_func)
    q_vals = q_field.numeric(p.coords)
    _, dq, _ = fd_jets(q_field, p, 1)
    f_direct = curvature_of_potential(q_vals, dq)
    f = curvature(form, p)
    assert np.abs(f_direct - f.q_f).max() < 1e-7


def test_bianchi_identity_for_smooth_potential():
    rng = np.random.default_rng(61)
    c = rng.standard_normal((3, 4))
    freq = rng.uniform(0.5, 1.0, size=4)

    def a_func(coords):
        phase = sum(f * x for f, x in zip(freq, coords))
        s = sin(phase)
        out = np.empty((4, 2, 2), dtype=object)
        for m in range(4):
            mat = -1.0j * sum(c[a, m] * PAULI[a] for a in range(3))
            for i in range(2):
                for j in range(2):
                    out[m, i, j] = mat[i, j] * s
        return out

    field = ChartField(dim=4, shape=(4, 2, 2), func=a_func)
    p = Point((0.4, 0.1, -0.3, 0.6))
    a_vals, a_d1, a_d2 = field.jets(p, order=2)
    assert bianchi_residual(np.asarray(a_vals, dtype=complex),
                            np.asarray(a_d1, dtype=complex),
                            np.asarray(a_d2, dtype=complex)) < 1e-8


def _su2_unitary_field(rng):
    # fixed-axis unitary u = cos(t/2) I + i sin(t/2) n.sigma with t(x) smooth
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    coef = rng.standard_normal(4)
    nsig = sum(axis[a] * PAULI[a] for a in range(3))

    def func(coords):
        t = 0.3 * sum(cc * x for cc, x in zip(coef, coords))
        ch, sh = cos(0.5 * t), sin(0.5 * t)
        out = np.empty((2, 2), dtype=object)
        for i in range(2):
            for j in range(2):
                out[i, j] = ch * (1.0 if i == j else 0.0) + 1.0j * sh * nsig[i, j]
        return out

    return ChartField(dim=4, shape=(2, 2), func=func)


def test_gauge_transformation_covariance():
    rng = np.random.default_rng(67)
    c = rng.standard_normal((3, 4, 5))

    def a_func(coords):
        out = np.empty((4, 2, 2), dtype=object)
        for m in range(4):
            mat = [[0.0, 0.0], [0.0, 0.0]]
            for a in range(3):
                poly = c[a, m, 0] + sum(c[a, m, 1 + k] * coords[k] for k in range(4))
                for i in range(2):
                    for j in range(2):
                        mat[i][j] = mat[i][j] + (-1.0j) * poly * PAULI[a, i, j]
            for i in range(2):
                for j in range(2):
                    out[m, i, j] = mat[i][j]
        return out

    a_field = ChartField(dim=4, shape=(4, 2, 2), func=a_func)
    u_field = _su2_unitary_field(rng)
    p = Point((0.2, -0.4, 0.5, 0.1))
    a_vals, a_d1, _ = a_field.jets(p, order=1)
    u_vals, u_d1, u_d2 = u_field.jets(p, order=2)
    a_vals = np.asarray(a_vals, dtype=complex)
    a_d1 = np.asarray(a_d1, dtype=complex)
    u_vals = np.asarray(u_vals, dtype=complex)

    assert np.abs(u_vals @ u_vals.conj().T - np.eye(2)).max() < 1e-13

    a_new, da_new = transform_potential(a_vals, a_d1, u_vals,
                                        np.asarray(u_d1, dtype=complex),
                                        np.asarray(u_d2, dtype=complex))
    assert np.abs(a_new - a_vals).max() > 1e-3  # the transformation acted

    f_old = curvature_of_potential(a_vals, a_d1)
    f_new = curvature_of_potential(a_new, da_new)
    conj = np.einsum("ik,mnkl,lj->mnij", u_vals, f_old, u_vals.conj().T)
    assert np.abs(f_new - conj).max() < 1e-10

    # trace scalars are gauge invariant
    s_old = np.einsum("mnij,mnji->", f_old, f_old)
    s_new = np.einsum("mnij,mnji->", f_new, f_new)
    assert abs(s_old - s_new) < 1e-10 * max(1.0, abs(s_old))


def test_higgs_covariant_derivative_routes_agree():
    rng = np.random.default_rng(71)
    sm = _random_sm(rng)
    higgs = _random_higgs(rng)
    form = ConnectionForm(flat(4), sm, higgs)
    for _ in range(3):
        p = Point(tuple(rng.uniform(-1.0, 1.0, size=4)))
        f = curvature(form, p)
        dh = higgs_covariant_derivative(sm, higgs, p)
        assert np.abs(dh - f.higgs_kinetic).max() < 1e-12


def test_higgs_quaternion_structure():
    h = HiggsField.from_components(2, lambda c: 0.3 + 0.1j + c[0],
                                   lambda c: 0.2j * c[1], c=1.2)
    hv = np.asarray(h.h.numeric((0.5, 0.7)), dtype=complex)
    assert max(abs(hv[1, 0] + np.conj(hv[0, 1])), abs(hv[1, 1] - np.conj(hv[0, 0]))) < 1e-15
    x = 0.3 + 0.1j + 0.5
    y = 0.2j * 0.7
    norm_sq = np.real(np.trace(hv.conj().T @ hv)) / 2.0
    assert abs(norm_sq - (abs(x) ** 2 + abs(y) ** 2)) < 1e-14


def test_lambda0_restores_zero_field_reference():
    # the plain square carries +(eta^2/alpha^4)(|H|^2 - c^2)^2; the
    # reparametrized one flips that sign and adds lambda0, which restores the
    # plain value at the zero-field reference H = 0
    rng = np.random.default_rng(73)
    form = ConnectionForm(flat(4), _random_sm(rng), HiggsField.zero(4, c=0.9))
    f = curvature(form, Point((0.1, 0.2, 0.3, 0.4)))
    terms = curvature_squared(f).terms
    plain = (ETA ** 2 / f.alpha ** 4) * f.higgs_potential ** 2
    assert abs(terms["higgs_potential"] + terms["lambda0"] - plain) < 1e-14
    # with H away from the vacuum reference the gap is real, not an error
    form2 = ConnectionForm(flat(4), _random_sm(rng), _random_higgs(rng))
    f2 = curvature(form2, Point((0.8, 0.1, -0.2, 0.5)))
    terms2 = curvature_squared(f2).terms
    plain2 = (ETA ** 2 / f2.alpha ** 4) * f2.higgs_potential ** 2
    assert abs(terms2["higgs_potential"] + terms2["lambda0"] - plain2) > 1e-6


def test_gauge_square_report_identities():
    rng = np.random.default_rng(79)
    form = ConnectionForm(flat(4), _random_sm(rng), HiggsField.zero(4))
    for _ in range(3):
        p = Point(tuple(rng.uniform(-1.0, 1.0, size=4)))
        rep = gauge_square_report(curvature(form, p))
        scale = max(1.0, abs(rep.weighted_total))
        assert rep.q_identity_residual < 1e-12 * scale
        assert rep.v_display_residual < 1e-12 * scale
        assert rep.v_component_residual < 1e-12 * scale
        assert rep.display_residual < 1e-12 * scale
        assert rep.trace_max < 1e-12
        assert rep.trace_imag_max < 1e-12
        assert abs(rep.su3_matrix_sq - 2.0 * rep.g_sq) < 1e-12 * scale
        # 1x1 block: s(Lam) = -(i g1 B/2)^2 / 2 = (g1^2/8) B^2
        assert abs(rep.s_lambda - 0.8 ** 2 / 8.0 * rep.b_sq) < 1e-12 * scale


def _substitution_residual(f, norm, f0, n_r=1.0, n_h=1.0):
    """|total - (f0/192 pi^2) curvature_squared(f, rp).total - tau0| of a
    normalized Lagrangian, with rp the reparametrization constants it
    reports: the normalized form is the unnormalized one under that map."""
    c = norm.constants
    rp = ReparamConstants(n_r=n_r, n_b=float(np.sqrt(c["n_b_sq"])),
                          n_w=float(np.sqrt(c["n_w_sq"])), n_g=float(np.sqrt(c["n_g_sq"])),
                          n_h=n_h)
    expected = f0 / (192.0 * np.pi ** 2) * curvature_squared(f, rp).total + c["tau0"]
    return np.abs(norm.total - expected)


def test_normalized_lagrangian_constants_and_substitution():
    rng = np.random.default_rng(83)
    form = ConnectionForm(flat(4), _random_sm(rng), _random_higgs(rng))
    f = curvature(form, Point((0.2, 0.4, -0.1, 0.3)))
    f0, f4, lam_sq = 7.0, 0.3, 2.0
    out = sm_lagrangian_normalized(f, f0=f0, f4=f4, lam_sq=lam_sq, n_r=1.2, n_h=0.9)
    pi2 = np.pi ** 2
    assert abs(out.constants["mu0"] - 192.0 * pi2 / f0) < 1e-12
    assert abs(out.constants["n_b_sq"] - f0 * 0.8 ** 2 / (64.0 * pi2)) < 1e-15
    assert abs(out.constants["n_w_sq"] - f0 * 1.1 ** 2 / (192.0 * pi2)) < 1e-15
    assert abs(out.constants["n_g_sq"] - f0 * 1.3 ** 2 / (64.0 * pi2)) < 1e-15
    alpha0 = 4.0 * f0 / (768.0 * pi2 * 1.2 ** 2)
    assert abs(out.constants["alpha0"] - alpha0) < 1e-15
    lam0 = out.constants["lambda0"]
    assert abs(out.constants["delta0"]
               - (12.0 * f4 * lam_sq ** 2 + f0 * lam0) / (192.0 * pi2)) < 1e-15
    # canonical gauge normalization: exactly -1/4 of each component square
    assert abs(out.terms["gauge_w"] + 0.25 * f.component_square(f.w_f)) < 1e-12
    assert _substitution_residual(f, out, f0, n_r=1.2, n_h=0.9) < 1e-10


def test_validation_of_inputs():
    with pytest.raises(ValueError):
        ReparamConstants(n_w=0.0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        ConnectionForm(flat(4), SMGaugeConfig.zero(4), HiggsField.zero(4), alpha=0.0)
    with pytest.raises(ValueError):
        SMGaugeConfig.zero(4, g2=-1.0)
    with pytest.raises(ValueError):
        HiggsField(h=ChartField(dim=2, shape=(3, 3),
                                func=lambda c: np.zeros((3, 3))))
    with pytest.raises(ValueError):
        sm_lagrangian_normalized(
            curvature(ConnectionForm(flat(4), SMGaugeConfig.zero(4), HiggsField.zero(4)),
                      Point((0.0, 0.0, 0.0, 0.0))), f0=0.0)


def test_curvature_squared_uses_reparam_constants():
    rng = np.random.default_rng(89)
    form = ConnectionForm(flat(4), _random_sm(rng), _random_higgs(rng))
    f = curvature(form, Point((0.5, -0.2, 0.1, 0.4)))
    base = curvature_squared(f)
    halved = curvature_squared(f, ReparamConstants(n_w=2.0))
    assert abs(halved.terms["gauge_w"] - base.terms["gauge_w"] / 4.0) < 1e-12
    assert abs(base.total - sum(base.terms.values())) < 1e-12


@pytest.mark.parametrize("where", [Point((1.1, 0.4, 0.2, -0.3)),
                                   np.array([[1.1, 0.4, 0.2, -0.3], [0.7, 2.0, -0.5, 0.1]])])
def test_shared_squares_are_the_curvature_methods(where):
    rng = np.random.default_rng(11)
    conn = ConnectionForm(sphere2_cross_flat2(), _random_sm(rng), _random_higgs(rng))
    f = curvature(conn, where)
    gi = f.gamma_inv
    pairs = [(riemann_square(f.riemann_down(), gi), f.riemann_squared()),
             (ricci_square(f.ricci, gi), f.ricci_squared()),
             (higgs_kinetic_square(f.higgs_kinetic_trace(), gi), f.higgs_kinetic_scalar())]
    pairs += [(field_strength_square(comp, gi), f.component_square(comp))
              for comp in (f.b_components, f.w_f, f.g_f)]
    for shared, method in pairs:
        assert np.array_equal(shared, method)
    assert np.all(np.abs(pairs[1][1]) > 0.1)   # the frame is curved
    # a stack of inverse metrics broadcasts: doubling g^{mn} scales a square
    # by 2 per inverse metric it carries
    stack = np.stack([gi, 2.0 * gi])
    for square, tensor, power in ((riemann_square, f.riemann_down(), 4),
                                  (ricci_square, f.ricci, 2),
                                  (field_strength_square, f.w_f, 2),
                                  (higgs_kinetic_square, f.higgs_kinetic_trace(), 1)):
        one = square(tensor, gi)
        np.testing.assert_allclose(square(tensor, stack), [one, 2.0 ** power * one],
                                   rtol=1e-14, atol=0.0)


def _einsum_field_strength_square(comp, ginv):
    up = np.einsum("...nb,...cmb->...cmn", ginv,
                   np.einsum("...ma,...cab->...cmb", ginv, comp))
    return np.real(np.einsum("...cmn,...cmn->...", comp, up))


def _einsum_square_scalar(ginv, two_form):
    up = np.einsum("...nb,...mbij->...mnij", ginv,
                   np.einsum("...ma,...abij->...mbij", ginv, two_form))
    return np.einsum("...mnij,...mnji->...", two_form, up)


@pytest.mark.parametrize("batch", [(), (64,)], ids=["point", "block"])
def test_gauge_squares_match_their_einsum_forms(batch):
    # the matmul raises against the contractions they replaced, on dense
    # inverse metrics; the worst relative deviation measured over 3 x 400
    # such draws is 7.0e-16
    rng = np.random.default_rng(17 + len(batch))
    conn = ConnectionForm(sphere2_cross_flat2(), _random_sm(rng), _random_higgs(rng))
    where = rng.uniform(0.5, 1.5, size=batch + (4,))
    f = curvature(conn, Point(tuple(where)) if not batch else where)
    # not symmetric, so that every index's place counts
    a = np.eye(4) + 0.2 * rng.standard_normal(batch + (4, 4))
    ginv = a @ a.swapaxes(-1, -2) + 0.1 * rng.standard_normal(batch + (4, 4))
    f = f.replace(gamma_inv=ginv)

    def close(got, want):
        assert np.shape(got) == np.shape(want)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    for comp in (f.b_components, f.w_f, f.g_f):
        close(field_strength_square(comp, ginv), _einsum_field_strength_square(comp, ginv))
    # one component form against a stack of inverses, as the field equations'
    # finite differences raise it
    comp = f.w_f if not batch else f.w_f[0]
    stack = (ginv if not batch else ginv[0]) + 1e-3 * rng.standard_normal((2, 3, 4, 4))
    close(field_strength_square(comp, stack), _einsum_field_strength_square(comp, stack))
    for form in (f.lam_f[..., None, None], f.q_f, f.v_f, f.gauge_full):
        close(f.square_scalar(form), _einsum_square_scalar(ginv, form))
