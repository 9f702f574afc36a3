"""Cutoff moments, heat kernel coefficients, assembled actions, field equations."""

import numpy as np
import pytest

from geodyn import action
from geodyn.action import (
    FieldEquationInput,
    GridSpec,
    HeatKernelData,
    Moments,
    Region,
    derived_constants,
    exponential_cutoff,
    field_equation_residual,
    gaussian_cutoff,
    heat_kernel_coefficients,
    _integrate_many,
    integrate_scalar,
    riemannian_limit_action,
    sharp_cutoff,
    spectral_action,
)
from geodyn.config import build_scenario
from geodyn.connection import (
    ConnectionForm,
    HiggsField,
    ReparamConstants,
    SMGaugeConfig,
    curvature,
    curvature_squared,
    sm_lagrangian_normalized,
)
from geodyn.fields import ChartField
from geodyn.geometry import GeneralizedMetric, Vielbein, riemann_square
from geodyn.library import diagonal_vielbein, flat, sphere2
from geodyn.scenarios import builtin_config, run_scenario
from geodyn.tensors import MinkowskiSignature, Point

PI = np.pi

SPHERE_REGION = Region(lo=(0.2, 0.0), hi=(PI - 0.2, 2.0 * PI),
                       periodic=(False, True))
SPHERE_VOL = 4.0 * PI * np.cos(0.2)


def test_cutoff_moments_closed_forms():
    exp_m = exponential_cutoff()
    assert exp_m.m4 == 1.0
    assert exp_m.m2 == 1.0
    assert exp_m.m0 == 1.0

    sharp = sharp_cutoff()
    assert sharp.m4 == 0.5
    assert sharp.m2 == 1.0
    assert sharp.m0 == 1.0

    gauss = gaussian_cutoff(lam_sq=3.0)
    assert gauss.m4 == 0.5
    assert gauss.m2 == np.sqrt(PI) / 2.0
    assert gauss.m0 == 1.0
    assert gauss.lam_sq == 3.0


def _table_moments(u, f):
    obj = builtin_config("flat-empty")
    obj["cutoff"] = {"table": {"u": u, "f": f}}
    return build_scenario(obj).cutoff


def test_table_cutoff_moments_count_the_flat_start():
    # the profile is f[0] on [0, u[0]): 1 on [0, 0.5), then 2(1 - u) to u = 1
    m = _table_moments([0.5, 1.0], [1.0, 0.0])
    assert m.m2 == 0.75
    assert abs(m.m4 - 7.0 / 24.0) < 1e-15
    assert m.m0 == 1.0
    # a step at u = 0: f(0) is the value right of it, that of the last knot there
    assert _table_moments([0.0, 0.0, 1.0], [2.0, 1.0, 0.0]).m0 == 1.0


def test_table_cutoff_moments_match_trapezoid_of_the_interpolant():
    u = np.linspace(0.0, 40.0, 4001)
    f = np.exp(-u)
    m = _table_moments(u.tolist(), f.tolist())
    assert abs(m.m2 - np.trapezoid(f, u)) < 1e-13
    # u f(u) is quadratic on each segment, where the Richardson step from the
    # trapezoid on the knots to the one on the halved grid (Simpson) is exact
    half = np.linspace(0.0, 40.0, 8001)
    coarse = np.trapezoid(u * f, u)
    fine = np.trapezoid(half * np.interp(half, u, f), half)
    assert abs(m.m4 - (4.0 * fine - coarse) / 3.0) < 1e-13
    # and the interpolant is within O(h^2) of exp(-u)'s moments (1, 1)
    assert abs(m.m2 - 1.0) < 1e-5 and abs(m.m4 - 1.0) < 1e-5


def test_cutoff_construction_guards():
    with pytest.raises(ValueError, match="energy scale must be positive"):
        Moments(m4=1.0, m2=1.0, m0=1.0, lam_sq=0.0)
    with pytest.raises(ValueError, match="not finite"):
        Moments(m4=np.inf, m2=1.0, m0=1.0)


def test_integrate_scalar_exact_for_linear():
    region = Region(lo=(0.0, 0.0), hi=(1.0, 1.0))
    val, err, meta = integrate_scalar(lambda c: c[0] + 2.0 * c[1],
                                      region, GridSpec((9, 9)))
    assert abs(val - 1.5) < 1e-14
    assert meta["points"] == 81


def test_integrate_scalar_periodic_trig_is_spectrally_exact():
    region = Region(lo=(0.0,), hi=(2.0 * PI,), periodic=(True,))
    val, err, _ = integrate_scalar(lambda c: np.sin(c[0]) ** 2,
                                   region, GridSpec((16,)))
    assert abs(val - PI) < 1e-12


def test_richardson_estimate_brackets_the_error():
    region = Region(lo=(0.0,), hi=(PI,))
    val, err, _ = integrate_scalar(lambda c: np.sin(c[0]), region, GridSpec((81,)))
    actual = abs(val - 2.0)
    assert actual < 5e-4
    assert err >= actual / 3.0
    assert err <= 10.0 * actual + 1e-12


def test_grid_and_region_validation():
    with pytest.raises(ValueError):
        GridSpec((1, 4))
    assert GridSpec((9, 5)).coarser().shape == (5, 3)
    assert GridSpec((2, 2)).coarser().shape == (2, 2)
    with pytest.raises(ValueError):
        Region(lo=(0.0,), hi=(0.0,))
    with pytest.raises(ValueError):
        Region(lo=(0.0, 0.0), hi=(1.0,))
    with pytest.raises(ValueError):
        Region(lo=(0.0,), hi=(1.0,), periodic=(True, False))


def test_batched_integral_equals_per_point_integral():
    # the per-point adapter and a block density share one driver and one sum
    region = Region(lo=(0.0, 0.0), hi=(1.0, 3.0), periodic=(False, True))
    grid = GridSpec((31, 17))

    def fn(c):
        return c[0] * c[0] * c[1] + 3.0 * c[0] - c[1] * c[1] * c[1]

    def density(block):
        x, y = block[:, 0], block[:, 1]
        return (x * x * y + 3.0 * x - y * y * y)[:, None]

    value, err, meta = integrate_scalar(fn, region, grid)
    fine, ferr, fmeta, vals = _integrate_many(density, region, grid)
    assert value == fine[0] and err == ferr[0]
    assert meta == fmeta and vals.shape == (31 * 17, 1)


def test_flat_box_heat_kernel_closed_forms():
    g = flat(4).metric()
    region = Region(lo=(0.0,) * 4, hi=(1.0,) * 4)
    grid = GridSpec((5,) * 4)
    data = HeatKernelData(metric=g, aa_mode="metric")
    out = heat_kernel_coefficients(data, region, grid)
    assert abs(out.a0 - 1.0 / (16.0 * PI ** 2)) < 1e-15
    assert abs(out.a2) < 1e-15
    assert abs(out.a4) < 1e-15

    e0 = 0.7
    data_e = HeatKernelData(metric=g, aa_mode="metric",
                            e_term=ChartField(dim=4, shape=(), func=lambda c: e0))
    out_e = heat_kernel_coefficients(data_e, region, grid)
    assert abs(out_e.a2 - e0 / (16.0 * PI ** 2)) < 1e-15
    assert abs(out_e.a4 - 6.0 * e0 ** 2 / (192.0 * PI ** 2)) < 1e-15


def test_sphere_heat_kernel_ratio_and_volume():
    g = sphere2().metric()
    data = HeatKernelData(metric=g, aa_mode="metric")
    out = heat_kernel_coefficients(data, SPHERE_REGION, GridSpec((81, 16)))
    assert abs(out.a0 - SPHERE_VOL / (16.0 * PI ** 2)) < 1e-3 * out.a0
    # sigma^2 = 2 in dimension 2 and the unit-sphere Riemann square is 4,
    # so the a4 density is exactly 8 and the ratio is grid-independent
    assert abs(out.a4 / out.a0 - 8.0 * 16.0 / 192.0) < 1e-12


def test_blocks_mode_constant_abelian_field_strength():
    # B = (0, f01 * t, 0, 0) gives the single component B_01 = f01
    f01, g1 = 0.5, 0.8
    b = ChartField(dim=4, shape=(4,),
                   func=lambda c: np.array([0.0 * c[0], f01 * c[0],
                                            0.0 * c[0], 0.0 * c[0]],
                                           dtype=object))
    sm = SMGaugeConfig(b=b,
                       w=ChartField(dim=4, shape=(3, 4),
                                    func=lambda c: np.zeros((3, 4))),
                       g=ChartField(dim=4, shape=(8, 4),
                                    func=lambda c: np.zeros((8, 4))),
                       g1=g1)
    conn = ConnectionForm(flat(4), sm, HiggsField.zero(4, c=0.0))
    region = Region(lo=(0.0,) * 4, hi=(1.0,) * 4)
    out = heat_kernel_coefficients(HeatKernelData(metric=conn.vielbein.metric(),
                                                  connection=conn),
                                   region, GridSpec((4,) * 4))
    # lorentzian raising: B_mn B^mn = -2 f01^2, so AA = +(3/2) g1^2 f01^2
    aa = 1.5 * g1 ** 2 * f01 ** 2
    assert abs(out.a4 - aa / (192.0 * PI ** 2)) < 1e-15
    p = Point((0.3, 0.3, 0.3, 0.3))
    assert abs(curvature_squared(curvature(conn, p)).total - aa) < 1e-14


def test_spectral_action_flat_total_and_scaling():
    g = flat(4).metric()
    region = Region(lo=(0.0,) * 4, hi=(1.0,) * 4)
    grid = GridSpec((4,) * 4)
    coeffs = heat_kernel_coefficients(HeatKernelData(metric=g, aa_mode="metric"),
                                      region, grid)
    m = exponential_cutoff(lam_sq=2.0)
    report = spectral_action(m, coeffs, sigma_sq=12.0)
    assert abs(report.total - 4.0 / (16.0 * PI ** 2)) < 1e-15

    # term homogeneity in the energy scale: powers 2, 1, 0 in lam_sq
    m2x = exponential_cutoff(lam_sq=4.0)
    r2 = spectral_action(m2x, coeffs, sigma_sq=12.0)
    assert abs(r2.terms["a0_volume"][2] - 4.0 * report.terms["a0_volume"][2]) < 1e-15
    assert r2.terms["a2_endomorphism"][0] == 2.0 * report.terms["a2_endomorphism"][0]
    assert r2.terms["a4_curvature"][0] == report.terms["a4_curvature"][0]


def test_universal_form_matches_three_term_total_on_sphere():
    g = sphere2().metric()
    grid = GridSpec((41, 12))
    coeffs = heat_kernel_coefficients(HeatKernelData(metric=g, aa_mode="metric"),
                                      SPHERE_REGION, grid)
    m = exponential_cutoff(lam_sq=1.7)
    report = spectral_action(m, coeffs, sigma_sq=2.0)
    vol_i, _, _ = integrate_scalar(
        lambda c: g.volume_element(Point(c)).value, SPHERE_REGION, grid)
    rr_i, _, _ = integrate_scalar(
        lambda c: (lambda ct: ct.riemann_squared()
                   * g.volume_element(Point(c)).value)(g.curvature(Point(c))),
        SPHERE_REGION, grid)
    # the compact form tau0 * vol + int R.R / (2 kappa0), constants from the table
    consts = derived_constants(m, sigma_sq=2.0)
    assert abs(consts["kappa0"] - 96.0 * PI ** 2 / (2.0 * m.m0)) < 1e-12
    compact = consts["tau0"] * vol_i + rr_i / (2.0 * consts["kappa0"])
    assert abs(compact - report.total) < 1e-14 * max(1.0, abs(report.total))


def test_derived_constants_table():
    m = exponential_cutoff(lam_sq=2.5)
    out = derived_constants(m, sigma_sq=12.0)
    assert abs(out["tau0"] - 2.5 ** 2 / (16.0 * PI ** 2)) < 1e-15
    assert abs(out["kappa0"] - 96.0 * PI ** 2 / 12.0) < 1e-12
    assert abs(out["beta0"] / out["zeta0"] - 0.4) < 1e-15
    assert abs(out["eta0"] - 1.0 / (480.0 * PI ** 2)) < 1e-15
    # no SM sector: the volume constant keeps only the moment part
    assert abs(out["delta0"] - 12.0 * 2.5 ** 2 / (192.0 * PI ** 2)) < 1e-15
    assert out["lambda0"] == 0.0


def test_cutoff_vanishing_at_zero_makes_the_inverse_constants_infinite():
    # f(0) = 0: mu0 and kappa0 divide by it and are inf; the action is finite
    obj = builtin_config("flat-empty")
    obj["cutoff"] = {"table": {"u": [0, 1, 2], "f": [0, 1, 0]}}
    obj["tasks"] = [{"type": "action", "form": "spectral", "aa_mode": "metric"}]
    result = run_scenario(obj).results[0]
    assert result.status == "pass", result.summary
    assert result.summary["mu0"] == result.summary["kappa0"] == np.inf
    assert np.isfinite(result.summary["total"]) and result.summary["total"] > 0
    # the compact form follows the table: 1/kappa0 = 0 drops the R.R term
    consts = derived_constants(Moments(m4=1.0, m2=1.0, m0=0.0), sigma_sq=12.0)
    assert consts["kappa0"] == np.inf
    assert consts["tau0"] * 1.0 + 5.0 / (2.0 * consts["kappa0"]) == consts["tau0"]


def test_derived_constants_and_the_sm_normalization_share_one_table():
    f0, f4, lam_sq, n_r, n_h = 7.0, 0.3, 2.0, 1.2, 0.9
    conn = _random_sm_setup(np.random.default_rng(139))
    table = derived_constants(Moments(m4=f4, m2=1.0, m0=f0, lam_sq=lam_sq),
                              alpha=conn.alpha, higgs_c=conn.higgs.c,
                              reparam=ReparamConstants(n_r=n_r, n_h=n_h))
    norm = sm_lagrangian_normalized(curvature(conn, Point((0.2, -0.3, 0.4, 0.1))), f0=f0,
                                    f4=f4, lam_sq=lam_sq, n_r=n_r, n_h=n_h).constants
    shared = set(table) & set(norm)
    assert shared == {"tau0", "alpha0", "mu0", "kappa_sq", "z", "lambda0", "delta0"}
    assert {k: table[k] for k in shared} == {k: norm[k] for k in shared}
    assert table["lambda0"] != 0.0 and table["z"] != 0.0


def test_flat_field_equation_is_exact():
    g = flat(4).metric()
    p = Point((0.1, 0.2, 0.3, 0.4))
    out = field_equation_residual(FieldEquationInput(metric=g, kappa0=2.0), p)
    assert np.abs(out.residual_display).max() == 0.0
    assert np.abs(out.residual_variational).max() == 0.0
    assert out.symmetry_residual == 0.0

    out_tau = field_equation_residual(
        FieldEquationInput(metric=g, kappa0=2.0, tau0=0.3), p)
    gamma = g.value(p)
    assert np.abs(out_tau.residual_display - 2.0 * 0.3 * gamma).max() < 1e-15


def test_sphere_field_equation_fd_oracle():
    g = sphere2().metric()
    p = Point((1.1, 0.4))
    out = field_equation_residual(FieldEquationInput(metric=g), p)
    gamma = g.value(p)
    # unit sphere: 4 R_mu.. R_nu.. = 8 gamma and R.R = 4
    assert np.abs(out.lhs_display - 10.0 * gamma).max() < 1e-12
    assert np.abs(out.lhs_variational - 6.0 * gamma).max() < 1e-12
    rep = out.fd_report
    assert rep["rr_frozen_vol"] < 1e-7
    assert rep["vol_frozen_rr"] < 1e-7
    assert rep["full_vs_variational"] < 1e-7
    # the displayed sign differs from the derivative by exactly gamma * R.R
    expected_gap = np.abs(gamma * 4.0).max()
    assert abs(rep["full_vs_display"] - expected_gap) < 1e-6


def _random_sm_setup(rng):
    dim = 4
    c1 = 0.4 * rng.standard_normal((3, dim, dim))
    c8 = 0.4 * rng.standard_normal((8, dim, dim))
    cb = 0.4 * rng.standard_normal((dim, dim))

    def wf(c):
        out = np.empty((3, dim), dtype=object)
        for a in range(3):
            for m_ in range(dim):
                out[a, m_] = sum(c1[a, m_, k] * c[k] for k in range(dim))
        return out

    def gf(c):
        out = np.empty((8, dim), dtype=object)
        for a in range(8):
            for m_ in range(dim):
                out[a, m_] = sum(c8[a, m_, k] * c[k] for k in range(dim))
        return out

    def bf(c):
        return np.array([sum(cb[m_, k] * c[k] for k in range(dim))
                         for m_ in range(dim)], dtype=object)

    sm = SMGaugeConfig(b=ChartField(dim=dim, shape=(dim,), func=bf),
                       w=ChartField(dim=dim, shape=(3, dim), func=wf),
                       g=ChartField(dim=dim, shape=(8, dim), func=gf),
                       g1=0.8, g2=1.1, g3=1.3)
    higgs = HiggsField.from_components(
        dim, lambda c: 0.4 + 0.1 * c[0], lambda c: 0.2 * c[1], c=0.9)
    return ConnectionForm(flat(4), sm, higgs)


def test_sm_field_equation_matches_its_fd_oracle():
    rng = np.random.default_rng(139)
    conn = _random_sm_setup(rng)
    g = conn.vielbein.metric()
    p = Point((0.2, -0.3, 0.4, 0.1))
    out = field_equation_residual(
        FieldEquationInput(metric=g, connection=conn, f0=7.0), p)
    assert out.sm is not None
    assert out.sm["fd_vs_algebraic"] < 1e-9
    assert out.sm["symmetry_residual"] < 1e-12
    # supplying exactly 2 * lhs as the stress closes the equation
    lhs = out.sm["lhs"]
    stress = ChartField(dim=4, shape=(4, 4), func=lambda c: 2.0 * lhs)
    closed = field_equation_residual(
        FieldEquationInput(metric=g, connection=conn, stress=stress, f0=7.0), p)
    assert np.abs(closed.sm["residual"]).max() < 1e-12


def test_field_equation_input_rejects_a_metric_of_another_frame():
    conn = _random_sm_setup(np.random.default_rng(139))
    with pytest.raises(ValueError, match="connection's vielbein"):
        FieldEquationInput(metric=flat(4).metric(), connection=conn)


def test_sm_field_equation_point_makes_one_frame_pass(monkeypatch):
    calls = []
    original = GeneralizedMetric.curvature

    def counting(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(GeneralizedMetric, "curvature", counting)
    conn = _random_sm_setup(np.random.default_rng(139))
    out = field_equation_residual(
        FieldEquationInput(metric=conn.vielbein.metric(), connection=conn, f0=7.0),
        Point((0.2, -0.3, 0.4, 0.1)))
    assert out.sm is not None
    # one pass serves the gravity part and the SM part
    assert len(calls) == 1


def test_action_inputs_reject_a_connection_of_another_frame():
    conn = _random_sm_setup(np.random.default_rng(139))
    other = flat(4)
    for aa_mode in ("blocks", "metric"):
        with pytest.raises(ValueError, match="connection's vielbein"):
            HeatKernelData(metric=other.metric(), connection=conn, aa_mode=aa_mode)
    with pytest.raises(ValueError, match="connection's vielbein"):
        riemannian_limit_action(other, Region(lo=(0.0,) * 4, hi=(1.0,) * 4), GridSpec((2,) * 4),
                                exponential_cutoff(), connection=conn)


def test_fd_variation_makes_one_density_call_with_the_loops_bits():
    ct = sphere2().metric().curvature(Point((1.1, 0.4)))
    rd, ginv = ct.riemann_down(), ct.gamma_inv
    shapes = []

    def dens(minv):
        shapes.append(minv.shape)
        return riemann_square(rd, minv) * action._volume_of_inverse(minv)

    out = action._fd_variation(dens, ginv)
    # + and - over the three directions (0, 0), (0, 1), (1, 1)
    assert shapes == [(2, 3, 2, 2)]
    h = action.FD_STEP
    for mu, nu in ((0, 0), (0, 1), (1, 1)):
        e = np.zeros((2, 2))
        e[mu, nu] = e[nu, mu] = 1.0
        quotient = (dens(ginv + h * e) - dens(ginv - h * e)) / (2 * h)
        assert out[mu, nu] == out[nu, mu] == quotient / (1.0 if mu == nu else 2.0)


def _bumpy_torus_frame():
    # ds^2 = dx^2 + g(x)^2 dy^2 on the unit torus; curved but fully periodic
    return diagonal_vielbein(["1.0", "1.0 + 0.2 * sin(2.0 * pi * x0)"],
                             MinkowskiSignature.euclidean(2))


def test_riemannian_limit_flat_torus_keeps_only_the_volume_term():
    frame = flat(2, "euclidean")
    region = Region(lo=(0.0, 0.0), hi=(1.0, 1.0), periodic=(True, True))
    m = exponential_cutoff()
    report = riemannian_limit_action(frame, region, GridSpec((8, 8)), m)
    delta0 = 12.0 / (192.0 * PI ** 2)
    assert abs(report.terms["delta0_volume"][2] - delta0) < 1e-15
    for name in ("einstein_hilbert", "ricci_sq", "lap_scalar", "scalar_sq",
                 "ricci_riemann_sq", "gauge_sector", "higgs_sector"):
        assert abs(report.terms[name][2]) < 1e-12
    assert abs(report.total - delta0) < 1e-12


def test_riemannian_limit_periodic_telescoping_and_gauss_bonnet():
    frame = _bumpy_torus_frame()
    region = Region(lo=(0.0, 0.0), hi=(1.0, 1.0), periodic=(True, True))
    m = exponential_cutoff()
    report = riemannian_limit_action(frame, region, GridSpec((48, 4)), m)
    # total derivative telescopes on the torus; int R vol vanishes as well
    # because the scalar density is a second derivative of a periodic function
    assert abs(report.terms["lap_scalar"][2]) < 1e-9
    assert abs(report.terms["einstein_hilbert"][1]) < 1e-10
    assert report.terms["scalar_sq"][2] > 0.0
    assert abs(report.constants["beta0"] / report.constants["zeta0"] - 0.4) < 1e-14


def test_action_reports_carry_each_terms_quadrature_error():
    # the Richardson estimate of a term's integral is |I_fine - I_coarse| / 3
    m = exponential_cutoff()
    grid = GridSpec((17, 8))
    fine = riemannian_limit_action(sphere2(), SPHERE_REGION, grid, m)
    coarse = riemannian_limit_action(sphere2(), SPHERE_REGION, grid.coarser(), m)
    errors = fine.quadrature["errors"]
    assert set(errors) == set(fine.terms) - {"lap_scalar"}
    for term in ("delta0_volume", "einstein_hilbert", "ricci_sq", "scalar_sq"):
        expected = abs(fine.terms[term][1] - coarse.terms[term][1]) / 3.0
        assert expected > 1e-6
        assert abs(errors[term] - expected) <= 1e-10 * expected
    # the sum of the two parts' estimates bounds the combined term's
    combined = abs(fine.terms["ricci_riemann_sq"][1]
                   - coarse.terms["ricci_riemann_sq"][1]) / 3.0
    assert errors["ricci_riemann_sq"] >= combined * (1.0 - 1e-10)

    coeffs = heat_kernel_coefficients(HeatKernelData(metric=sphere2().metric(),
                                                     aa_mode="metric"),
                                      SPHERE_REGION, grid)
    report = spectral_action(m, coeffs, sigma_sq=2.0)
    assert report.quadrature["errors"] == {
        "a0_volume": coeffs.errors["a0"], "a2_endomorphism": coeffs.errors["a2"],
        "a4_curvature": coeffs.errors["a4"]}


# a patch of the unit S^4 in hyperspherical coordinates; S^4 is homogeneous,
# so every density is constant and a box integral over the box volume is the
# density itself, which scales to the whole sphere by Vol(S^4) / box volume
S4_CONFIG = {
    "schema": "geodyn-config-v1",
    "chart": {"dimension": 4, "signature": "euclidean",
              "coordinates": ["chi", "th", "ph", "psi"],
              "box": {"lo": [0.6, 0.7, 0.8, 0.0], "hi": [2.4, 2.3, 2.2, 2.0 * PI]},
              "grid": [9, 9, 9, 8], "periodic": [False, False, False, True]},
    "frame": {"diagonal": ["1", "sin(chi)", "sin(chi)*sin(th)",
                           "sin(chi)*sin(th)*sin(ph)"]},
    "cutoff": {"builtin": "exponential", "scale_sq": 1.0},
    "tasks": [{"type": "action", "form": "riemannian-limit"},
              {"type": "action", "form": "spectral", "aa_mode": "metric"}],
}


def test_action_orders_on_the_whole_unit_four_sphere():
    """The two action forms on S^4, order by order, with no fitted constant.

    Per unit volume the unit S^4 has R = 12, R^2 = 144, Ric^2 = 36 and
    Riem^2 = 24.  Over Vol(S^4) = 8 pi^2/3, with the exponential cutoff at
    L^2 = 1, the engine gives these (L^4, L^2, L^0) coefficients:
    ``riemannian-limit`` (1/6, 1/2, 7/9) and metric-mode ``spectral``
    (a0, a2, a4) = (1/6, 0, 4).  The Dirac operator's exact heat trace on S^4
    (eigenvalues +-k for k >= 2 with multiplicity (4/3)(k^3 - k)) gives
    (2/3, -2/3, 11/90).  Which operator the limit recovers, and so whether
    this gap is a convention or an error, is open (ROADMAP.md, exact-spectrum
    oracles); the test pins the engine's numbers, not the Dirac ones.
    """
    limit, spectral = (
        {row[0]: row[1:] for row in r.rows} for r in run_scenario(S4_CONFIG).results)
    box = limit["delta0_volume"][1]
    per_volume = {"einstein_hilbert": 12.0, "scalar_sq": 144.0, "ricci_sq": 36.0,
                  "ricci_riemann_sq": 60.0}
    for term, want in per_volume.items():
        assert abs(limit[term][1] / box - want) <= 1e-12 * want, term
    scale = 8.0 * PI ** 2 / 3.0 / box
    lam4, lam2 = limit["delta0_volume"][2], limit["einstein_hilbert"][2]
    lam0 = sum(value for term, (_, _, value) in limit.items()
               if term not in ("delta0_volume", "einstein_hilbert"))
    got = {"limit": (lam4 * scale, lam2 * scale, lam0 * scale),
           "spectral": tuple(spectral[term][2] * scale
                             for term in ("a0_volume", "a2_endomorphism", "a4_curvature"))}
    want = {"limit": (1.0 / 6.0, 0.5, 7.0 / 9.0), "spectral": (1.0 / 6.0, 0.0, 4.0)}
    for form in got:
        for g, w in zip(got[form], want[form]):
            assert abs(g - w) <= 1e-12 * max(abs(w), 1.0), form


def _sphere2_limit_check(matrix, points, **tolerances):
    obj = builtin_config("sphere2")
    obj["tasks"] = [{"type": "limit-check", "points": points,
                     "reference": {"matrix": matrix}, "tolerance": 1e-8,
                     "gamma_tolerance": 1e-12, **tolerances}]
    return run_scenario(obj).results[0]


def test_spectral_task_takes_sigma_squared_from_the_signature():
    # sigma^2 = n(n-1) = 2 on sphere2; a metric-mode report lists its kappa0
    obj = builtin_config("sphere2")
    obj["tasks"] = [{"type": "action", "form": "spectral", "aa_mode": "metric"}]
    res = run_scenario(obj).results[0]
    m0 = exponential_cutoff().m0
    assert res.status == "pass"
    assert res.summary["kappa0"] == 96.0 * PI ** 2 / (2.0 * m0)


def test_riemannian_limit_reference_checks():
    # rows: theta, phi, gamma_vs_reference, riemann_vs_reference, spin route
    flat_ref = [["1", "0"], ["0", "1"]]
    res = _sphere2_limit_check(flat_ref, [[1.0, 1.0]])
    assert res.status == "fail" and res.rows[0][2] > 1e-12
    # loosening the metric check leaves the curvature residual to fail it
    res = _sphere2_limit_check(flat_ref, [[1.0, 1.0]], gamma_tolerance=10.0)
    assert res.status == "fail"
    assert res.worst_residual == res.rows[0][3] > 1e-8

    ok = _sphere2_limit_check([["1", "0"], ["0", "sin(theta)^2"]],
                              [[0.9, 0.5], [2.0, 3.0]])
    assert ok.status == "pass"
    assert max(row[2] for row in ok.rows) < 1e-12
    assert max(row[3] for row in ok.rows) < 1e-8


def test_unification_scale_closes_the_einstein_hilbert_match():
    # scale^2 = 4 pi c^4 / m2 matches m2 scale^2 / (64 pi^2) to c^4 / (16 pi)
    m = exponential_cutoff()
    scale_sq = 4.0 * PI * 1.0 ** 4 / m.m2
    assert abs(scale_sq - 4.0 * PI) < 1e-12
    eh_coeff = m.m2 * scale_sq / (64.0 * PI ** 2)
    assert abs(eh_coeff - 1.0 / (16.0 * PI)) < 1e-15
