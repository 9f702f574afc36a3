"""Curvature pipeline, frame connection, and Clifford algebra checks."""

import re

import numpy as np
import pytest

from geodyn.config import build_scenario
from geodyn.exprs import compile_expression
from geodyn.fields import ChartField, entry_field, fd_jets
from geodyn.geometry import (
    CompatibilityResidual,
    CurvatureTensors,
    GeneralizedMetric,
    Vielbein,
    _christoffel_jets,
    _metric_jets,
    _riemann_from,
    compatibility_residual,
    dirac_matrices,
    flat_gamma_matrices,
    frame_geometry,
    riemann_square,
    sigma_matrices,
    sigma_squared,
    spin_connection,
)
from geodyn.jets import cos, sin
from geodyn.library import BUILTIN_FRAMES, diagonal_vielbein, flat, polar, schwarzschild, sphere2
from geodyn.tensors import MinkowskiSignature, Point


def _random_metric_field(rng, dim):
    # SPD by construction: 2I plus a small smooth symmetric perturbation
    amp = 0.3 * rng.standard_normal((dim, dim))
    amp = amp + amp.T
    freq = rng.uniform(0.5, 1.5, size=dim)

    def func(coords):
        phase = sum(f * c for f, c in zip(freq, coords))
        out = np.empty((dim, dim), dtype=object)
        for m in range(dim):
            for n in range(dim):
                out[m, n] = 2.0 * (1.0 if m == n else 0.0) + amp[m, n] * sin(phase)
        return out

    return ChartField(dim=dim, shape=(dim, dim), func=func)


def test_flat_frame_has_no_curvature():
    g = flat(4).metric()
    p = Point((0.3, -1.2, 0.7, 2.0))
    assert np.allclose(g.christoffel(p).values, 0.0)
    assert np.allclose(g.curvature(p).riemann, 0.0)


def test_polar_plane_is_flat_with_curved_coordinates():
    g = polar().metric()
    p = Point((1.7, 0.4))
    ch = g.christoffel(p).values
    # Gamma^r_pp = -r, Gamma^p_rp = 1/r: curvilinear but flat
    assert abs(ch[0, 1, 1] + 1.7) < 1e-12
    assert abs(ch[1, 0, 1] - 1.0 / 1.7) < 1e-12
    assert np.abs(g.curvature(p).riemann).max() < 1e-11


def test_sphere_scalar_curvature():
    for radius, expected in ((1.0, 2.0), (3.0, 2.0 / 9.0)):
        g = sphere2(radius).metric()
        for theta in (0.4, 1.0, 2.3):
            cur = g.curvature(Point((theta, 0.9)))
            assert abs(cur.scalar - expected) < 1e-12


def test_christoffel_matches_finite_difference_route():
    rng = np.random.default_rng(31)
    for _ in range(4):
        field = _random_metric_field(rng, 3)
        g = GeneralizedMetric(3, gamma_field=field)
        p = Point(tuple(rng.uniform(-1.0, 1.0, size=3)))
        gam = g.christoffel(p).values
        gv = field.numeric(p.coords)
        dg = np.real(fd_jets(field, p, 1)[1])
        ginv = np.linalg.inv(gv)
        sym = (np.einsum("lab->lab", dg) + np.einsum("lba->lab", dg)
               - np.einsum("abl->lab", dg))
        gam_fd = 0.5 * np.einsum("ml,lab->mab", ginv, sym)
        assert np.abs(gam - gam_fd).max() < 1e-7


def test_dense_frame_metric_jets_match_index_formulas():
    # the matrix-product assembly agrees with the contractions it replaces
    amp = 0.3 * np.random.default_rng(41).standard_normal((4, 4, 4))

    def func(c):
        return [[float(a == m) + sum(amp[a, m, r] * sin(c[r]) for r in range(4))
                 for m in range(4)] for a in range(4)]

    e = Vielbein(ChartField(dim=4, shape=(4, 4), func=func), MinkowskiSignature.lorentzian(4))
    p = Point((0.3, -0.7, 1.1, 0.4))
    ev, de, _ = e.jets(p, order=1)
    eta = e.signature.matrix
    g, dg, _ = e.metric().gamma_jets(p, order=1)
    assert np.abs(g - np.einsum("am,ab,bn->mn", ev, eta, ev)).max() < 1e-14
    dg_ref = (np.einsum("amr,ab,bn->mnr", de, eta, ev)
              + np.einsum("am,ab,bnr->mnr", ev, eta, de))
    assert np.abs(dg - dg_ref).max() < 1e-14
    sym = (np.einsum("lab->lab", dg) + np.einsum("lba->lab", dg)
           - np.einsum("abl->lab", dg))
    gam_ref = 0.5 * np.einsum("ml,lab->mab", np.linalg.inv(g), sym)
    assert np.abs(e.metric().christoffel(p).values - gam_ref).max() < 1e-13


def test_riemann_identities_random_metric():
    rng = np.random.default_rng(37)
    for _ in range(3):
        field = _random_metric_field(rng, 3)
        g = GeneralizedMetric(3, gamma_field=field)
        p = Point(tuple(rng.uniform(-1.0, 1.0, size=3)))
        cur = g.curvature(p)
        riem = cur.riemann
        scale = max(1.0, np.abs(riem).max())
        anti = riem + np.einsum("rmnl->rmln", riem)
        cyc = (riem + np.einsum("rmnl->rnlm", riem) + np.einsum("rmnl->rlmn", riem))
        assert np.abs(anti).max() < 1e-11 * scale
        assert np.abs(cyc).max() < 1e-11 * scale
        assert np.abs(cur.ricci - cur.ricci.T).max() < 1e-11 * scale
        down = cur.riemann_down()
        pair = down - np.einsum("abcd->cdab", down)
        assert np.abs(pair).max() < 1e-11 * scale


def test_schwarzschild_is_vacuum_with_known_kretschmann():
    g = schwarzschild(mass=1.0).metric()
    rng = np.random.default_rng(41)
    for _ in range(6):
        r = rng.uniform(3.0, 10.0)
        theta = rng.uniform(0.3, np.pi - 0.3)
        cur = g.curvature(Point((rng.uniform(-1, 1), r, theta, rng.uniform(0, 2))))
        assert np.abs(cur.ricci).max() < 1e-9
        assert abs(cur.riemann_squared() - 48.0 / r ** 6) < 1e-9


def test_ricci_simplified_matches_full_pipeline_in_unit_volume():
    # det gamma = 1 identically, so the contracted symbols vanish
    def func(coords):
        x, y = coords
        f = 0.3 * sin(x + 0.7 * y)
        from geodyn.jets import exp
        out = np.empty((2, 2), dtype=object)
        out[0, 0] = exp(f)
        out[1, 1] = exp(-1.0 * f)
        out[0, 1] = out[1, 0] = 0.0
        return out

    g = GeneralizedMetric(2, gamma_field=ChartField(dim=2, shape=(2, 2), func=func))
    p = Point((0.4, -0.8))
    _, _, gam, dgam, _ = g.christoffel_with_derivative(p)
    # with Gamma^b_ba = 0, R_mn = d_a Gamma^a_mn - Gamma^b_ma Gamma^a_nb
    assert np.abs(np.einsum("bba->a", gam)).max() < 1e-10
    simplified = np.einsum("amna->mn", dgam) - np.einsum("bma,anb->mn", gam, gam)
    full = g.curvature(p).ricci
    assert np.abs(simplified - full).max() < 1e-10


def test_generalized_metric_requires_one_backing():
    with pytest.raises(ValueError):
        GeneralizedMetric(2)
    e = sphere2()
    with pytest.raises(ValueError):
        GeneralizedMetric(2, vielbein=e, gamma_field=e.field)


def test_generalized_metric_rejects_a_source_of_another_dimension():
    # a 4-dim frame under a 3-dim metric once ended in an IndexError in the
    # geodesic stage; now construction names the mismatch
    with pytest.raises(ValueError, match=r"vielbein field of shape \(4, 4\) over 4 "
                                         r"coordinates, expected \(3, 3\) over 3"):
        GeneralizedMetric(3, vielbein=flat(4))
    names = ("x", "y", "z")
    off_chart = entry_field([[compile_expression("1.0" if a == m else "0.0", names)
                              for m in range(2)] for a in range(2)])
    with pytest.raises(ValueError, match=r"gamma field of shape \(2, 2\) over 3 "):
        GeneralizedMetric(2, gamma_field=off_chart)


def test_metric_field_route_matches_vielbein_route():
    e = sphere2()

    def func(coords):
        out = np.empty((2, 2), dtype=object)
        out[0, 0] = 1.0
        out[1, 1] = sin(coords[0]) ** 2
        out[0, 1] = out[1, 0] = 0.0
        return out

    g2 = GeneralizedMetric(2, gamma_field=ChartField(dim=2, shape=(2, 2), func=func))
    g1 = e.metric()
    for theta in (0.5, 1.2, 2.6):
        p = Point((theta, 1.0))
        assert np.abs(g1.value(p) - g2.value(p)).max() < 1e-14
        c1, c2 = g1.curvature(p), g2.curvature(p)
        assert np.abs(c1.riemann - c2.riemann).max() < 1e-11
        assert abs(c1.scalar - c2.scalar) < 1e-11


def test_complex_metric_values_are_errors_on_every_route():
    # (x0 + 0j)^(1/2) has a nonzero imaginary part where x0 < 0
    def func(c):
        return [[(c[0] + 0j) ** 0.5 + 1.0, 0.0], [0.0, 1.0]]

    field = ChartField(dim=2, shape=(2, 2), func=func)
    e = Vielbein(field, MinkowskiSignature.euclidean(2))
    message = r"complex metric value at \(-0\.5, 0\.3\)"
    for p in (Point((-0.5, 0.3)), np.array([[0.5, 0.3], [-0.5, 0.3]])):
        for g in (e.metric(), GeneralizedMetric(2, gamma_field=field)):
            with pytest.raises(ValueError, match=message):
                g.curvature(p)
        with pytest.raises(ValueError, match=message):
            frame_geometry(e, p)


def test_overflowing_metric_values_are_errors_on_frame_routes():
    # finite frame jets whose squares pass the float range where x0 != 0
    def func(c):
        return [[1.0 + 1e200 * c[0] ** 2, 0.0], [0.0, 1.0]]

    e = Vielbein(ChartField(dim=2, shape=(2, 2), func=func), MinkowskiSignature.euclidean(2))
    message = r"non-finite metric value at \(0\.5, 0\.3\)"
    for p in (Point((0.5, 0.3)), np.array([[0.0, 0.3], [0.5, 0.3]])):
        with pytest.raises(ValueError, match=message):
            e.metric().curvature(p)
        with pytest.raises(ValueError, match=message):
            frame_geometry(e, p)
    assert e.metric().curvature(Point((0.0, 0.3))).scalar == 0.0


def test_volume_elements():
    p = Point((0.8, 0.3))
    v = sphere2().metric().volume_element(p)
    assert v.mode == "euclidean"
    assert abs(v.value - np.sin(0.8)) < 1e-14

    q = Point((0.0, 5.0, 0.8, 0.3))
    w = schwarzschild().metric().volume_element(q)
    assert w.mode == "lorentzian"
    assert w.det < 0
    assert abs(w.value - 25.0 * np.sin(0.8)) < 1e-12


def test_sigma_squared_is_n_times_n_minus_one():
    for sig, expected in (
        (MinkowskiSignature.euclidean(2), 2.0),
        (MinkowskiSignature.euclidean(4), 12.0),
        (MinkowskiSignature.lorentzian(4), 12.0),
    ):
        scalar, total = sigma_squared(sig)
        assert abs(scalar - expected) < 1e-12
        eye = np.eye(total.shape[0])
        assert np.abs(total - scalar * eye).max() < 1e-12


def test_flat_gamma_clifford_relation():
    for sig in (MinkowskiSignature.euclidean(2), MinkowskiSignature.lorentzian(4)):
        gam = flat_gamma_matrices(sig)
        eta = sig.matrix
        s = gam.shape[-1]
        for a in range(sig.dim):
            for b in range(sig.dim):
                anti = gam[a] @ gam[b] + gam[b] @ gam[a]
                assert np.abs(anti - 2.0 * eta[a, b] * np.eye(s)).max() < 1e-13


def test_curved_dirac_matrices_close_doubled_relation():
    d = dirac_matrices(sphere2(), Point((0.9, 0.2)))
    anti = (np.einsum("mij,njk->mnik", d.gammas, d.gammas)
            + np.einsum("nij,mjk->mnik", d.gammas, d.gammas))
    metric = np.einsum("mn,ik->mnik", d.gamma_metric, np.eye(d.gammas.shape[-1]))
    assert np.abs(anti - 2.0 * metric).max() < 1e-12
    assert np.abs(anti - metric).max() > 0.5  # dropping the factor 2 is not the relation


def test_spin_connection_sphere_value_and_residuals():
    e = sphere2()
    for theta in (0.5, 1.1, 2.0):
        sc = spin_connection(e, Point((theta, 0.7)))
        assert sc.tetrad_residual < 1e-12
        assert sc.antisymmetry_residual < 1e-12
        # only nonzero component: omega^{01}_phi = -cos(theta)
        assert abs(sc.omega[0, 1, 1] + np.cos(theta)) < 1e-12
        assert abs(sc.omega[0, 1, 0]) < 1e-13


def test_frame_curvature_matches_riemann():
    e = schwarzschild()
    p = Point((0.0, 6.0, 1.1, 0.4))
    fg = frame_geometry(e, p)
    eta = e.signature.matrix
    einv = np.linalg.inv(fg.e)
    eup = einv @ eta
    expected = np.einsum("ar,sb,rsmn->abmn", fg.e, eup, fg.riemann)
    assert np.abs(fg.frame_curvature - expected).max() < 1e-10
    # antisymmetric in the two-form pair (m, n) by construction, bit for bit
    assert np.array_equal(fg.frame_curvature, -fg.frame_curvature.swapaxes(-1, -2))


def _induced_connection_field(e):
    n = e.dim
    s = sigma_matrices(e.signature).shape[-1]

    def func(coords):
        return spin_connection(e, Point(tuple(float(c) for c in coords))).matrix

    return ChartField(dim=n, shape=(n, s, s), func=func)


def test_compatibility_residual_vanishes_for_induced_connection():
    e = sphere2()
    a_field = _induced_connection_field(e)
    res = compatibility_residual(e, a_field, Point((1.2, 0.5)))
    assert isinstance(res, CompatibilityResidual)
    assert np.abs(res.tetrad).max() < 1e-10
    assert res.projection_defect < 1e-10


def test_compatibility_residual_detects_wrong_connection():
    e = sphere2()
    a_field = _induced_connection_field(e)
    doubled = ChartField(dim=2, shape=a_field.shape,
                         func=lambda c: 2.0 * np.asarray(a_field.func(c)))
    res = compatibility_residual(e, doubled, Point((1.2, 0.5)))
    assert np.abs(res.tetrad).max() > 1e-3


def test_sigma_matrices_are_built_once_per_signature_and_read_only():
    sig = sigma_matrices(MinkowskiSignature.lorentzian(4))
    assert sigma_matrices(MinkowskiSignature.lorentzian(4)) is sig
    assert sigma_matrices(MinkowskiSignature.euclidean(4)) is not sig
    assert not sig.flags.writeable
    with pytest.raises(ValueError):
        sig[0, 1, 0, 0] = 1.0
    # the cached array holds exactly what a fresh build gives
    fresh = sigma_matrices.__wrapped__(MinkowskiSignature.lorentzian(4))
    assert np.array_equal(sig, fresh)


# -- diagonal frames: n x n expressions, zero off the diagonal ---------------


def matrix_twin(frame: Vielbein) -> Vielbein:
    """The same frame as a closure: its diagonal expressions on the diagonal
    of an object matrix of int zeros.  It takes every route that a
    closure-built frame takes, the geodesic's general stage included."""
    n = frame.dim
    diagonal = frame.field.expressions[::n + 1]

    def func(c):
        out = np.zeros((n, n), dtype=object)
        for i, entry in enumerate(diagonal):
            out[i, i] = entry(c)
        return out

    return Vielbein(ChartField(dim=n, shape=(n, n), func=func), frame.signature)


def diagonal_frames() -> dict:
    out = {name: make() for name, (make, _) in BUILTIN_FRAMES.items()}
    out["expr-diagonal"] = build_scenario({
        "schema": "geodyn-config-v1",
        "chart": {"dimension": 3, "signature": "lorentzian",
                  "box": {"lo": [0.0] * 3, "hi": [1.0] * 3}},
        "frame": {"diagonal": ["1 + 0.1*x0^2", "exp(0.2*x1)", "-1 - 0.3*sin(x0*x2)"]},
        "tasks": [{"type": "curvature-at-points", "points": [[0.5] * 3]}],
    }).frame
    return out


def _same_bits(got, want):
    # dtype, shape and bytes, so the sign of every zero counts too
    if want is None:
        return got is None
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(diagonal_frames()))
def test_diagonal_frame_expands_to_the_object_matrix_evaluation(name):
    frame = diagonal_frames()[name]
    n = frame.dim
    assert frame.field.shape == (n, n) and frame.field.expressions is not None
    assert {frame.field.expressions[k].source for k in range(n * n) if k % (n + 1)} == {"0.0"}
    twin = matrix_twin(frame)
    assert twin.field.expressions is None
    p = (0.7, 3.1, 1.2, 0.4)[:n]
    block = np.array([p, tuple(x + 0.01 for x in p), tuple(x - 0.02 for x in p)])
    assert _same_bits(frame.value(Point(p)), twin.value(Point(p)))
    for where in (Point(p), block):
        for order in (1, 2):
            got, want = frame.jets(where, order=order), twin.jets(where, order=order)
            assert all(_same_bits(a, b) for a, b in zip(got, want)), (where, order)


def test_diagonal_frame_value_rejects_a_complex_entry_as_the_matrix_did():
    frame = diagonal_vielbein(["1.0", "2.0 * (-1)^0.5"], MinkowskiSignature.euclidean(2))
    for e in (frame, matrix_twin(frame)):
        with pytest.raises(TypeError):
            e.value(Point((0.1, 0.2)))


def test_vielbein_field_must_be_the_diagonal_or_the_matrix():
    # the field is the n x n matrix, a diagonal frame included: n entries
    # (the former diagonal storage) are rejected like any other shape
    sig = MinkowskiSignature.euclidean(2)
    for shape in ((2,), (3,), (2, 3), (2, 2, 2)):
        with pytest.raises(ValueError, match=re.escape(f"vielbein field of shape {shape}")):
            Vielbein(ChartField(dim=2, shape=shape, func=lambda c: 0), sig)


def test_vielbein_field_must_be_over_the_signature_dimension():
    # 4 x 4 entries over 3 coordinates once built, and a geodesic on the
    # frame then ended in an IndexError from the stage's source
    names = ("x0", "x1", "x2")
    field = entry_field([[compile_expression("1.0" if a == m else "0.0", names)
                          for m in range(4)] for a in range(4)])
    with pytest.raises(ValueError, match=r"over 3 coordinates, expected \(4, 4\) over 4"):
        Vielbein(field, MinkowskiSignature.euclidean(4))


# -- the einsum contractions of the order-2 pass, as the oracle of its matmuls --


def _einsum_metric_jets(e, de, dde, eta):
    e_eta = e.swapaxes(-1, -2) @ eta
    half = np.einsum("...am,...anr->...mnr", e_eta.swapaxes(-1, -2), de)
    dd = np.einsum("...mb,...bnrs->...mnrs", e_eta, dde)
    cross = np.einsum("...ams,...anr->...mnrs", de, np.einsum("ab,...bnr->...anr", eta, de))
    return (e_eta @ e, half + half.swapaxes(-3, -2),
            dd.swapaxes(-4, -3) + cross.swapaxes(-2, -1) + cross + dd)


def _einsum_christoffel_jets(ginv, dg, ddg):
    sym = dg + dg.swapaxes(-1, -2) - dg.swapaxes(-3, -1).swapaxes(-2, -1)
    ssym = ddg + ddg.swapaxes(-3, -2) - ddg.swapaxes(-4, -2).swapaxes(-3, -2)
    dginv = -np.einsum("...mbr,...bn->...mnr",
                       np.einsum("...ma,...abr->...mbr", ginv, dg), ginv)
    return 0.5 * (np.einsum("...mlr,...lab->...mabr", dginv, sym)
                  + np.einsum("...ml,...labr->...mabr", ginv, ssym))


def _einsum_riemann_from(ginv, gam, dgam):
    gg = np.einsum("...rns,...slm->...rnlm", gam, gam)
    riem = (np.einsum("...rlmn->...rmnl", dgam) - np.einsum("...rnml->...rmnl", dgam)
            + np.einsum("...rnlm->...rmnl", gg) - np.einsum("...rlnm->...rmnl", gg))
    ricci = np.einsum("...rmrl->...ml", riem)
    return riem, ricci, np.einsum("...ml,...ml->...", ginv, ricci)


def _einsum_riemann_down(gamma, riem):
    return np.einsum("...rs,...smnl->...rmnl", gamma, riem)


def _einsum_riemann_square(rd, ginv):
    ru = np.einsum("...mnop,...dp->...mnod", rd, ginv)
    ru = np.einsum("...mnod,...co->...mncd", ru, ginv)
    ru = np.einsum("...mncd,...bn->...mbcd", ru, ginv)
    ru = np.einsum("...mbcd,...am->...abcd", ru, ginv)
    return np.einsum("...abcd,...abcd->...", rd, ru)


def _dense_frame_jets(rng, batch, n):
    """Random dense frame jets: E = I + 0.2 noise, dde symmetric in (r, s)."""
    e = np.eye(n) + 0.2 * rng.standard_normal(batch + (n, n))
    de = rng.standard_normal(batch + (n, n, n))
    dde = rng.standard_normal(batch + (n, n, n, n))
    return e, de, dde + dde.swapaxes(-1, -2)


# Deviation from the einsum forms, relative to the largest entry, worst over
# 6 x 1200 such draws (half of them 64-point blocks): 5.4e-15 for the plain
# contractions (metric jets, dGamma, R_rmnl); 4.6e-13 for Riemann and Ricci
# and 1.2e-11 for the scalar and R.R, which add terms of both signs that can
# nearly cancel.  An index out of place moves them by order 1.
PRODUCT_RTOL, CANCELLING_RTOL = 1e-13, 1e-9


def _assert_close(got, want, rtol=PRODUCT_RTOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= rtol * scale


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("signature", ["euclidean", "lorentzian"])
@pytest.mark.parametrize("batch", [(), (64,)], ids=["point", "block"])
def test_order2_contractions_match_their_einsum_forms(n, signature, batch):
    rng = np.random.default_rng(100 * n + len(batch) + (signature == "lorentzian"))
    eta = getattr(MinkowskiSignature, signature)(n).matrix
    for _ in range(5):
        e, de, dde = _dense_frame_jets(rng, batch, n)
        g, dg, ddg = _metric_jets(e, de, dde, eta)
        ref = _einsum_metric_jets(e, de, dde, eta)
        assert np.array_equal(g, ref[0])  # the one product both forms share
        _assert_close(dg, ref[1])
        _assert_close(ddg, ref[2])
        # each later stage is fed the reference's own inputs
        g, dg, ddg = ref
        g_out, ginv, gam, dgam, det = _christoffel_jets(g, dg, ddg)
        assert g_out is g
        assert np.array_equal(ginv, np.linalg.inv(g))
        assert np.array_equal(det, np.linalg.det(g))
        _assert_close(dgam, _einsum_christoffel_jets(ginv, dg, ddg))
        ref = _einsum_riemann_from(ginv, gam, dgam)
        for got, want in zip(_riemann_from(ginv, gam, dgam), ref):
            _assert_close(got, want, CANCELLING_RTOL)
        ct = CurvatureTensors(point=None, riemann=ref[0], ricci=ref[1], scalar=ref[2],
                              gamma=g, gamma_inv=ginv, det=det)
        rd = ct.riemann_down()
        _assert_close(rd, _einsum_riemann_down(g, ref[0]))
        rd = _einsum_riemann_down(g, ref[0])
        _assert_close(riemann_square(rd, ginv), _einsum_riemann_square(rd, ginv),
                      CANCELLING_RTOL)
        # and arrays without the symmetries of Gamma, gamma and Riemann, so
        # that every index's place counts
        gam_d, dgam_d = rng.standard_normal(gam.shape), rng.standard_normal(dgam.shape)
        for got, want in zip(_riemann_from(ginv, gam_d, dgam_d),
                             _einsum_riemann_from(ginv, gam_d, dgam_d)):
            _assert_close(got, want, CANCELLING_RTOL)
        g_d, dense = rng.standard_normal(g.shape), rng.standard_normal(rd.shape)
        ct_d = CurvatureTensors(point=None, riemann=dense, ricci=None, scalar=None,
                                gamma=g_d, gamma_inv=ginv, det=None)
        _assert_close(ct_d.riemann_down(), _einsum_riemann_down(g_d, dense))
        _assert_close(riemann_square(dense, ginv), _einsum_riemann_square(dense, ginv),
                      CANCELLING_RTOL)
        # one covariant tensor against a stack of inverses, as the field
        # equations' finite differences raise it
        single, g0 = (rd, ginv) if not batch else (rd[0], ginv[0])
        stack = g0 + 1e-3 * rng.standard_normal((2, 3, n, n))
        _assert_close(riemann_square(single, stack), _einsum_riemann_square(single, stack),
                      CANCELLING_RTOL)
