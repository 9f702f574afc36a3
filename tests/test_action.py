"""Cutoff moments, heat kernel coefficients, assembled actions, field equations."""

import numpy as np
import pytest

from geodyn.action import (
    CutoffFunction,
    FieldEquationInput,
    GridSpec,
    HeatKernelData,
    LimitModeError,
    Moments,
    Region,
    derived_constants,
    exponential_cutoff,
    field_equation_residual,
    gaussian_cutoff,
    heat_kernel_coefficients,
    _integrate_many,
    integrate_scalar,
    make_cutoff,
    moments,
    riemannian_limit_action,
    sharp_cutoff,
    spectral_action,
    unification_scale,
    universal_action_form,
)
from geodyn.connection import (
    HiggsField,
    SMGaugeConfig,
    assemble_connection,
    curvature,
    curvature_squared,
)
from geodyn.fields import ChartField, constant_field, scalar_field
from geodyn.geometry import GeneralizedMetric, Vielbein
from geodyn.jets import sin
from geodyn.library import diagonal_vielbein, flat, sphere2
from geodyn.tensors import MinkowskiSignature, Point

PI = np.pi

SPHERE_REGION = Region(lo=(0.2, 0.0), hi=(PI - 0.2, 2.0 * PI),
                       periodic=(False, True))
SPHERE_VOL = 4.0 * PI * np.cos(0.2)


def test_cutoff_moments_closed_forms():
    exp_m = moments(exponential_cutoff())
    assert abs(exp_m.m4 - 1.0) < 1e-12
    assert abs(exp_m.m2 - 1.0) < 1e-12
    assert exp_m.m0 == 1.0

    sharp = moments(sharp_cutoff())
    assert abs(sharp.m4 - 0.5) < 1e-13
    assert abs(sharp.m2 - 1.0) < 1e-13
    assert sharp.m0 == 1.0

    gauss = moments(gaussian_cutoff(lam_sq=3.0))
    assert abs(gauss.m4 - 0.5) < 1e-12
    assert abs(gauss.m2 - np.sqrt(PI) / 2.0) < 1e-12
    assert gauss.m0 == 1.0
    assert gauss.lam_sq == 3.0


def test_cutoff_construction_guards():
    with pytest.raises(KeyError):
        make_cutoff("lorentzian-window")
    with pytest.raises(ValueError):
        CutoffFunction(name="x", func=lambda u: 1.0, lam_sq=0.0)


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
                            e_term=constant_field(4, e0))
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
    conn = assemble_connection(flat(4), sm, HiggsField.zero(4, c=0.0))
    region = Region(lo=(0.0,) * 4, hi=(1.0,) * 4)
    out = heat_kernel_coefficients(HeatKernelData(metric=flat(4).metric(),
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
    m = moments(exponential_cutoff(lam_sq=2.0))
    report = spectral_action(m, coeffs, sigma_sq=12.0)
    assert abs(report.total - 4.0 / (16.0 * PI ** 2)) < 1e-15
    assert report.sum_residual() == 0.0

    # term homogeneity in the energy scale: powers 2, 1, 0 in lam_sq
    m2x = moments(exponential_cutoff(lam_sq=4.0))
    r2 = spectral_action(m2x, coeffs, sigma_sq=12.0)
    assert abs(r2.term_value("a0_volume") - 4.0 * report.term_value("a0_volume")) < 1e-15
    assert r2.terms["a2_endomorphism"][0] == 2.0 * report.terms["a2_endomorphism"][0]
    assert r2.terms["a4_curvature"][0] == report.terms["a4_curvature"][0]

    rows = report.csv_rows()
    assert rows[0] == "name,coefficient,integral,value"
    assert len(rows) == 4
    assert "moment mapping" in report.to_text()


def test_universal_form_matches_three_term_total_on_sphere():
    g = sphere2().metric()
    grid = GridSpec((41, 12))
    coeffs = heat_kernel_coefficients(HeatKernelData(metric=g, aa_mode="metric"),
                                      SPHERE_REGION, grid)
    m = moments(exponential_cutoff(lam_sq=1.7))
    report = spectral_action(m, coeffs, sigma_sq=2.0)
    vol_i, _, _ = integrate_scalar(
        lambda c: g.volume_element(Point(c)).value, SPHERE_REGION, grid)
    rr_i, _, _ = integrate_scalar(
        lambda c: (lambda ct: ct.riemann_squared()
                   * g.volume_element(Point(c)).value)(g.curvature(Point(c))),
        SPHERE_REGION, grid)
    out = universal_action_form(report, m, vol_i, rr_i, sigma_sq=2.0)
    assert abs(out["kappa0"] - 96.0 * PI ** 2 / (2.0 * m.m0)) < 1e-12
    assert out["residual_vs_total"] < 1e-14 * max(1.0, abs(report.total))


def test_derived_constants_table():
    m = moments(exponential_cutoff(lam_sq=2.5))
    out = derived_constants(m, sigma_sq=12.0)
    assert abs(out["tau0"] - 2.5 ** 2 / (16.0 * PI ** 2)) < 1e-15
    assert abs(out["kappa0"] - 96.0 * PI ** 2 / 12.0) < 1e-12
    assert abs(out["beta0"] / out["zeta0"] - 0.4) < 1e-15
    assert abs(out["eta0"] - 1.0 / (480.0 * PI ** 2)) < 1e-15
    # no SM sector: the volume constant keeps only the moment part
    assert abs(out["delta0"] - 12.0 * 2.5 ** 2 / (192.0 * PI ** 2)) < 1e-15
    assert out["lambda0"] == 0.0


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
    return assemble_connection(flat(4), sm, higgs)


def test_sm_field_equation_matches_its_fd_oracle():
    rng = np.random.default_rng(139)
    conn = _random_sm_setup(rng)
    g = flat(4).metric()
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


def _bumpy_torus_frame():
    # ds^2 = dx^2 + g(x)^2 dy^2 on the unit torus; curved but fully periodic
    return diagonal_vielbein(
        [lambda c: 1.0, lambda c: 1.0 + 0.2 * sin(2.0 * PI * c[0])],
        MinkowskiSignature.euclidean(2), name="bumpy-torus")


def test_riemannian_limit_flat_torus_keeps_only_the_volume_term():
    frame = flat(2, "euclidean")
    region = Region(lo=(0.0, 0.0), hi=(1.0, 1.0), periodic=(True, True))
    m = moments(exponential_cutoff())
    report = riemannian_limit_action(frame, region, GridSpec((8, 8)), m)
    delta0 = 12.0 / (192.0 * PI ** 2)
    assert abs(report.term_value("delta0_volume") - delta0) < 1e-15
    for name in ("einstein_hilbert", "ricci_sq", "lap_scalar", "scalar_sq",
                 "ricci_riemann_sq", "gauge_sector", "higgs_sector"):
        assert abs(report.term_value(name)) < 1e-12
    assert abs(report.total - delta0) < 1e-12


def test_riemannian_limit_periodic_telescoping_and_gauss_bonnet():
    frame = _bumpy_torus_frame()
    region = Region(lo=(0.0, 0.0), hi=(1.0, 1.0), periodic=(True, True))
    m = moments(exponential_cutoff())
    report = riemannian_limit_action(frame, region, GridSpec((48, 4)), m)
    # total derivative telescopes on the torus; int R vol vanishes as well
    # because the scalar density is a second derivative of a periodic function
    assert abs(report.term_value("lap_scalar")) < 1e-9
    assert abs(report.terms["einstein_hilbert"][1]) < 1e-10
    assert report.term_value("scalar_sq") > 0.0
    assert abs(report.constants["beta0"] / report.constants["zeta0"] - 0.4) < 1e-14


def test_riemannian_limit_reference_checks():
    frame = sphere2()
    m = moments(exponential_cutoff())
    flat_ref = ChartField(dim=2, shape=(2, 2), func=lambda c: np.eye(2))
    with pytest.raises(LimitModeError):
        riemannian_limit_action(frame, SPHERE_REGION, GridSpec((9, 6)), m,
                                reference_metric=flat_ref,
                                check_points=(Point((1.0, 1.0)),))
    # loosening the metric check exposes the curvature branch
    with pytest.raises(LimitModeError):
        riemannian_limit_action(frame, SPHERE_REGION, GridSpec((9, 6)), m,
                                reference_metric=flat_ref,
                                check_points=(Point((1.0, 1.0)),),
                                metric_tol=10.0)

    def sphere_ref(c):
        out = np.empty((2, 2), dtype=object)
        out[0, 0] = 1.0
        out[1, 1] = sin(c[0]) ** 2
        out[0, 1] = out[1, 0] = 0.0
        return out

    ok = riemannian_limit_action(
        frame, SPHERE_REGION, GridSpec((21, 8)), m,
        reference_metric=ChartField(dim=2, shape=(2, 2), func=sphere_ref),
        check_points=(Point((0.9, 0.5)), Point((2.0, 3.0))))
    assert ok.constants["gamma_max"] < 1e-12
    assert ok.constants["riemann_max"] < 1e-8


def test_unification_scale_closes_the_einstein_hilbert_match():
    m = moments(exponential_cutoff())
    scale_sq = unification_scale(m, c=1.0)
    assert abs(scale_sq - 4.0 * PI) < 1e-12
    eh_coeff = m.m2 * scale_sq / (64.0 * PI ** 2)
    assert abs(eh_coeff - 1.0 / (16.0 * PI)) < 1e-15
    with pytest.raises(ValueError):
        unification_scale(Moments(m4=1.0, m2=0.0, m0=1.0))
