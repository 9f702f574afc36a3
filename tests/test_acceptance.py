"""End-to-end acceptance checks.

One test per criterion; each prints a single "ACCEPTANCE nn <label> PASS/FAIL"
line (run pytest with -s to see the lines, or execute this file directly).
"""

import os
import time
from dataclasses import replace

import numpy as np

from geodyn.action import (
    FieldEquationInput,
    GridSpec,
    Region,
    exponential_cutoff,
    field_equation_residual,
    heat_kernel_coefficients,
    integrate_scalar,
    spectral_action,
)
from geodyn.cli import main as cli_main
from geodyn.connection import (
    PAULI,
    ConnectionForm,
    HiggsField,
    SMGaugeConfig,
    bianchi_residual,
    curvature,
    curvature_of_potential,
    gauge_square_report,
    transform_potential,
)
from geodyn.fields import ChartField
from geodyn.geodesics import integrate_geodesic, velocity_norm
from geodyn.geometry import GeneralizedMetric, frame_curvature_check, frame_geometry
from geodyn.jets import cos, sin
from geodyn.library import flat, polar, schwarzschild, sphere2
from geodyn.scenarios import BUILTIN_SCENARIOS
from geodyn.tensors import Point
from geodyn.triples import (
    check_axioms,
    fluctuate,
    fluctuation_space,
    inner_fluctuations,
    lepton_triple,
    two_point_triple,
)

PI = np.pi


def _verdict(num: int, label: str, body) -> None:
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label} FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label} PASS ({time.perf_counter() - t0:.2f}s)")


def _random_sm_connection(rng):
    dim = 4
    c1 = 0.4 * rng.standard_normal((3, dim, dim))
    c8 = 0.4 * rng.standard_normal((8, dim, dim))
    cb = 0.4 * rng.standard_normal((dim, dim))

    def wf(c):
        out = np.empty((3, dim), dtype=object)
        for a in range(3):
            for m in range(dim):
                out[a, m] = sum(c1[a, m, k] * c[k] for k in range(dim))
        return out

    def gf(c):
        out = np.empty((8, dim), dtype=object)
        for a in range(8):
            for m in range(dim):
                out[a, m] = sum(c8[a, m, k] * c[k] for k in range(dim))
        return out

    def bf(c):
        return np.array([sum(cb[m, k] * c[k] for k in range(dim))
                         for m in range(dim)], dtype=object)

    sm = SMGaugeConfig(b=ChartField(dim=dim, shape=(dim,), func=bf),
                       w=ChartField(dim=dim, shape=(3, dim), func=wf),
                       g=ChartField(dim=dim, shape=(8, dim), func=gf),
                       g1=0.8, g2=1.1, g3=1.3)
    higgs = HiggsField.from_components(
        dim, lambda c: 0.4 + 0.1 * c[0], lambda c: 0.2 * c[1], c=0.9)
    return ConnectionForm(flat(4), sm, higgs)


def test_criterion_01_riemannian_recovery():
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(2026)

        def schw_ref(p):
            _, r, th, _ = p.coords
            f = 1.0 - 2.0 / r
            return np.diag([-f, 1.0 / f, r ** 2, (r * np.sin(th)) ** 2])

        cases = [
            ("flat", flat(4), 4,
             lambda p: np.diag([-1.0, 1.0, 1.0, 1.0]),
             lambda: np.array([rng.uniform(-1, 1, size=4) for _ in range(4)])),
            ("polar", polar(), 2,
             lambda p: np.diag([1.0, p.coords[0] ** 2]),
             lambda: np.column_stack([rng.uniform(0.5, 2.0, 4),
                                      rng.uniform(0.1, 6.0, 4)])),
            ("sphere2", sphere2(), 2,
             lambda p: np.diag([1.0, np.sin(p.coords[0]) ** 2]),
             lambda: np.column_stack([rng.uniform(0.4, 2.7, 4),
                                      rng.uniform(0.0, 6.2, 4)])),
            ("schwarzschild", schwarzschild(), 4, schw_ref,
             lambda: np.column_stack([rng.uniform(0, 1, 4),
                                      rng.uniform(3.0, 8.0, 4),
                                      rng.uniform(0.4, 2.7, 4),
                                      rng.uniform(0.0, 6.2, 4)])),
        ]
        for name, frame, dim, ref, sample in cases:
            gm = frame.metric()
            for row in sample():
                p = Point(tuple(float(x) for x in row))
                assert np.abs(gm.value(p) - ref(p)).max() < 1e-12, name
                fg = frame_geometry(frame, p)
                assert frame_curvature_check(fg, frame.signature) < 1e-8, name
        assert time.perf_counter() - start < 10.0

    _verdict(1, "riemannian-recovery", body)


def test_criterion_02_curvature_oracles():
    def body():
        start = time.perf_counter()
        gm = sphere2().metric()
        for th in (0.5, 1.1, 1.9, 2.6):
            assert abs(gm.curvature(Point((th, 0.8))).scalar - 2.0) < 1e-6
        rng = np.random.default_rng(2027)
        gs = schwarzschild().metric()
        for _ in range(20):
            p = Point((float(rng.uniform(0, 1)), float(rng.uniform(3, 9)),
                       float(rng.uniform(0.4, 2.7)), float(rng.uniform(0, 6.2))))
            assert np.abs(gs.curvature(p).ricci).max() < 1e-6
        assert time.perf_counter() - start < 10.0

    _verdict(2, "curvature-oracles", body)


def test_criterion_03_geodesic_conservation():
    def norm(g, x, v):
        return velocity_norm(g.value(Point(tuple(x))), v)

    def body():
        steps = 10 ** 4
        g = sphere2().metric()
        traj = integrate_geodesic(g, (PI / 2, 0.0), (0.0, 1.0),
                                  t_max=2.0 * PI, steps=steps)
        n0 = norm(g, traj.xs[0], traj.vs[0])
        drift = max(abs(norm(g, x, v) - n0)
                    for x, v in zip(traj.xs[::20], traj.vs[::20]))
        assert drift < 1e-6

        gs = schwarzschild().metric()
        u_phi = np.sqrt(1.0 / 216.0) * np.sqrt(2.0)  # Omega * u^t
        traj = integrate_geodesic(gs, (0.0, 6.0, PI / 2, 0.0),
                                  (np.sqrt(2.0), 0.0, 0.0, u_phi),
                                  t_max=200.0, steps=steps)
        n0 = norm(gs, traj.xs[0], traj.vs[0])
        drift = max(abs(norm(gs, x, v) - n0)
                    for x, v in zip(traj.xs[::20], traj.vs[::20]))
        assert drift < 1e-6
        omega = ((traj.xs[-1][3] - traj.xs[0][3])
                 / (traj.xs[-1][0] - traj.xs[0][0]))
        assert abs(omega ** 2 - 1.0 / 216.0) < 1e-4
        assert abs(traj.xs[-1][1] - 6.0) < 1e-6  # the orbit stayed circular

    _verdict(3, "geodesic-conservation", body)


def test_criterion_04_gauge_trace_identities():
    def body():
        rng = np.random.default_rng(2028)
        conn = _random_sm_connection(rng)
        agree = 0.0
        for _ in range(4):
            p = Point(tuple(float(x) for x in rng.uniform(-0.5, 0.5, size=4)))
            rep = gauge_square_report(curvature(conn, p))
            assert rep.q_identity_residual < 1e-12
            assert rep.trace_max < 1e-12
            agree = max(agree, rep.v_display_residual, rep.display_residual)
        assert agree < 1e-10, "published V-sector display disagrees"
        print(f"  (V-sector display agrees with matrix traces, "
              f"max gap {agree:.2e})")

    _verdict(4, "gauge-trace-identities", body)


def test_criterion_05_curvature_form_properties():
    def body():
        # constant abelian potential: exactly zero field strength
        dim = 4
        const_b = ChartField(dim=dim, shape=(dim,),
                             func=lambda c: np.array([0.3, -0.2, 0.5, 0.1])
                             + 0.0 * c[0])
        sm = SMGaugeConfig(b=const_b, w=ChartField(dim=dim, shape=(3, dim),
                                                   func=lambda c: np.zeros((3, dim))),
                           g=ChartField(dim=dim, shape=(8, dim),
                                        func=lambda c: np.zeros((8, dim))),
                           g1=0.7)
        f = curvature(ConnectionForm(flat(4), sm, HiggsField.zero(dim, c=0.0)),
                      Point((0.2, 0.1, -0.3, 0.4)))
        assert np.abs(f.b_f).max() == 0.0

        # constant non-abelian potential: pure commutator, vs brute force
        rng = np.random.default_rng(2029)
        wconst = rng.standard_normal((3, dim))
        g2 = 1.1
        sm = SMGaugeConfig(b=ChartField(dim=dim, shape=(dim,),
                                        func=lambda c: np.zeros(dim)),
                           w=ChartField(dim=dim, shape=(3, dim),
                                        func=lambda c: wconst + 0.0 * c[0]),
                           g=ChartField(dim=dim, shape=(8, dim),
                                        func=lambda c: np.zeros((8, dim))),
                           g2=g2)
        f = curvature(ConnectionForm(flat(4), sm, HiggsField.zero(dim, c=0.0)),
                      Point((0.0, 0.0, 0.0, 0.0)))
        a_m = np.einsum("aij,am->mij", -0.5j * g2 * PAULI, wconst)
        hand = np.einsum("mik,nkj->mnij", a_m, a_m)
        hand = hand - np.einsum("mnij->nmij", hand)
        assert np.abs(f.q_f - hand).max() < 1e-12

        # Bianchi identity for a smooth su(2) potential
        coef = rng.standard_normal((3, dim))
        freq = rng.uniform(0.5, 1.0, size=dim)

        def a_func(coords):
            phase = sum(fq * x for fq, x in zip(freq, coords))
            s = sin(phase)
            out = np.empty((dim, 2, 2), dtype=object)
            for m in range(dim):
                mat = -1.0j * sum(coef[a, m] * PAULI[a] for a in range(3))
                for i in range(2):
                    for j in range(2):
                        out[m, i, j] = mat[i, j] * s
            return out

        field = ChartField(dim=dim, shape=(dim, 2, 2), func=a_func)
        a0, a1, a2 = field.jets(Point((0.4, 0.1, -0.3, 0.6)), order=2)
        assert bianchi_residual(np.asarray(a0, dtype=complex),
                                np.asarray(a1, dtype=complex),
                                np.asarray(a2, dtype=complex)) < 1e-8

        # gauge invariance of the trace scalar under random unitaries
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        ucoef = rng.standard_normal(dim)
        nsig = sum(axis[a] * PAULI[a] for a in range(3))

        def u_func(coords):
            t = 0.3 * sum(cc * x for cc, x in zip(ucoef, coords))
            ch, sh = cos(0.5 * t), sin(0.5 * t)
            out = np.empty((2, 2), dtype=object)
            for i in range(2):
                for j in range(2):
                    out[i, j] = ch * (1.0 if i == j else 0.0) + 1.0j * sh * nsig[i, j]
            return out

        u_field = ChartField(dim=dim, shape=(2, 2), func=u_func)
        p = Point((0.2, -0.4, 0.5, 0.1))
        a0, a1, _ = field.jets(p, order=1)
        u0, u1, u2 = u_field.jets(p, order=2)
        a_new, da_new = transform_potential(
            np.asarray(a0, dtype=complex), np.asarray(a1, dtype=complex),
            np.asarray(u0, dtype=complex), np.asarray(u1, dtype=complex),
            np.asarray(u2, dtype=complex))
        f_old = curvature_of_potential(np.asarray(a0, dtype=complex),
                                       np.asarray(a1, dtype=complex))
        f_new = curvature_of_potential(a_new, da_new)
        s_old = np.einsum("mnij,mnji->", f_old, f_old)
        s_new = np.einsum("mnij,mnji->", f_new, f_new)
        assert abs(s_old - s_new) < 1e-8 * max(1.0, abs(s_old))

    _verdict(5, "curvature-form-properties", body)


def test_criterion_06_triple_axioms():
    def body():
        m = 1.3
        t = two_point_triple(m=m)
        assert max(v for _, v in check_axioms(t).residual_items()) < 1e-12
        rng = np.random.default_rng(2030)
        k_e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lepton = check_axioms(lepton_triple(k_e=k_e))
        assert max(v for _, v in lepton.residual_items()) < 1e-12

        broken = replace(t, d=t.d + np.diag([m, 0.0]))
        res = check_axioms(broken).grading_anticommutes_dirac
        assert abs(res - 2.0 * abs(m)) < 1e-12

    _verdict(6, "spectral-triple-axioms", body)


def test_criterion_07_fluctuation_algebra():
    def body():
        t2 = two_point_triple(m=0.9)
        dim, _ = fluctuation_space(t2)
        assert dim == 2

        rng = np.random.default_rng(2031)

        def rnd(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        t = lepton_triple(k_e=rnd((3, 3)))
        fl = inner_fluctuations(t, [(rnd((12, 12)), rnd((12, 12)))])
        d2 = fluctuate(t, fl).d
        assert np.abs(d2 - d2.conj().T).max() < 1e-12

        g1, g2, ga = t.algebra_generators
        phases = rng.uniform(0, 2 * PI, size=3)
        u = (np.exp(1j * phases[0]) * g1 + np.exp(1j * phases[1]) * g2
             + np.exp(1j * phases[2]) * ga)
        coef = rnd((2, 3))
        a_el = coef[0, 0] * g1 + coef[0, 1] * g2 + coef[0, 2] * ga
        b_el = coef[1, 0] * g1 + coef[1, 1] * g2 + coef[1, 2] * ga
        a = a_el @ (t.d @ b_el - b_el @ t.d)
        big_u = u @ t.conjugate_by_j(u)
        lhs = big_u @ (t.d + a + t.conjugate_by_j(a)) @ big_u.conj().T
        uh = u.conj().T
        a_u = u @ a @ uh + u @ (t.d @ uh - uh @ t.d)
        rhs = t.d + a_u + t.conjugate_by_j(a_u)
        assert np.abs(lhs - rhs).max() < 1e-10

    _verdict(7, "fluctuation-algebra", body)


def test_criterion_08_spectral_action():
    def body():
        m = exponential_cutoff()
        assert abs(m.m4 - 1.0) < 1e-10
        assert abs(m.m2 - 1.0) < 1e-10
        assert abs(m.m0 - 1.0) < 1e-10

        region = Region(lo=(0.0,) * 4, hi=(1.0,) * 4)
        grid = GridSpec((4,) * 4)
        lam_sq = 2.0
        empty = heat_kernel_coefficients(flat(4), region, grid)
        total = spectral_action(exponential_cutoff(lam_sq=lam_sq), empty).total
        assert abs(total - lam_sq ** 2 / (16.0 * PI ** 2)) < 1e-14

        # homogeneity degrees (4, 2, 0) in the scale
        e0 = 0.7
        coeffs = heat_kernel_coefficients(
            flat(4), region, grid, e_term=ChartField(dim=4, shape=(), func=lambda c: e0))
        assert abs(coeffs.a4 - 6.0 * e0 ** 2 / (192.0 * PI ** 2)) < 1e-8
        r1 = spectral_action(exponential_cutoff(lam_sq=1.0), coeffs)
        r2 = spectral_action(exponential_cutoff(lam_sq=2.0), coeffs)
        assert r2.terms["a0_volume"][2] == 4.0 * r1.terms["a0_volume"][2]
        assert r2.terms["a2_endomorphism"][2] == 2.0 * r1.terms["a2_endomorphism"][2]
        assert r2.terms["a4_curvature"][2] == r1.terms["a4_curvature"][2]

        # grid doubling stays within the Richardson estimate
        gm = sphere2().metric()
        reg = Region(lo=(0.2, 0.0), hi=(PI - 0.2, 2.0 * PI),
                     periodic=(False, True))

        def volfun(c):
            return gm.volume_element(Point(c)).value

        coarse, err, _ = integrate_scalar(volfun, reg, GridSpec((21, 8)))
        fine, _, _ = integrate_scalar(volfun, reg, GridSpec((41, 8)))
        assert abs(fine - coarse) <= 3.0 * err + 1e-15

    _verdict(8, "spectral-action", body)


def test_criterion_09_field_equation_variation():
    def body():
        rng = np.random.default_rng(2032)
        dim = 2
        amp = 0.3 * rng.standard_normal((dim, dim))
        amp = amp + amp.T
        freq = rng.uniform(0.5, 1.5, size=dim)

        def gfun(coords):
            phase = sum(f * c for f, c in zip(freq, coords))
            out = np.empty((dim, dim), dtype=object)
            for a in range(dim):
                for b in range(dim):
                    out[a, b] = 2.0 * (1.0 if a == b else 0.0) + amp[a, b] * sin(phase)
            return out

        bumpy = GeneralizedMetric(ChartField(dim=dim, shape=(dim, dim), func=gfun))
        out = field_equation_residual(FieldEquationInput(bumpy),
                                      Point((0.3, -0.2)))
        rep = out.fd_report
        assert rep["rr_frozen_vol"] < 1e-6
        assert rep["vol_frozen_rr"] < 1e-6
        assert rep["full_vs_variational"] < 1e-6

        conn = _random_sm_connection(rng)
        sm_out = field_equation_residual(
            FieldEquationInput(conn, f0=5.0),
            Point((0.2, -0.3, 0.4, 0.1)))
        assert sm_out.sm["fd_vs_algebraic"] < 1e-6

        zero = field_equation_residual(
            FieldEquationInput(flat(4).metric(), tau0=0.0),
            Point((0.1, 0.2, 0.3, 0.4)))
        assert np.abs(zero.residual_display).max() == 0.0
        assert np.abs(zero.residual_variational).max() == 0.0

    _verdict(9, "field-equation-variation", body)


def test_criterion_10_unification_scale():
    def body():
        # matching the Einstein-Hilbert coefficient m2 scale^2 / (64 pi^2)
        # to c^4 / (16 pi) gives the scale: scale^2 = 4 pi c^4 / m2
        m = exponential_cutoff()
        scale_sq = 4.0 * PI / m.m2
        assert abs(scale_sq - 4.0 * PI) < 1e-12
        assert abs(m.m2 * scale_sq / (64.0 * PI ** 2) - 1.0 / (16.0 * PI)) < 1e-15
        c = 1.3
        scale_sq = 4.0 * PI * c ** 4 / m.m2
        assert abs(m.m2 * scale_sq / (64.0 * PI ** 2) - c ** 4 / (16.0 * PI)) < 1e-12

    _verdict(10, "unification-scale", body)


def test_criterion_11_reproducibility(tmp_path=None):
    def body():
        start = time.perf_counter()
        import tempfile
        base = tempfile.mkdtemp(prefix="geodyn-accept-")
        for name in sorted(BUILTIN_SCENARIOS):
            out_a = os.path.join(base, name, "a")
            out_b = os.path.join(base, name, "b")
            for out in (out_a, out_b):
                code = cli_main(["run", name, "--seed", "11", "--out", out])
                assert code == 0, f"{name} run failed"
            for fname in sorted(os.listdir(out_a)):
                if not fname.endswith(".csv"):
                    continue
                with open(os.path.join(out_a, fname), "rb") as fh:
                    blob_a = fh.read()
                with open(os.path.join(out_b, fname), "rb") as fh:
                    blob_b = fh.read()
                assert blob_a == blob_b, f"{name}/{fname} differs between runs"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0

    _verdict(11, "reproducibility", body)


if __name__ == "__main__":
    for fn_name in sorted(k for k in dir() if k.startswith("test_criterion")):
        globals()[fn_name]()
