"""Finite triple axioms, fluctuations, and the Yukawa-sector assembly."""

from dataclasses import replace

import numpy as np
import pytest

from geodyn.scenarios import format_csv, run_scenario
from geodyn.triples import (
    FiniteTriple,
    YukawaData,
    build_sm_finite,
    check_axioms,
    fluctuate,
    fluctuation_space,
    hermitian_part,
    inner_fluctuations,
    lepton_triple,
    two_point_triple,
    unimodular_projection,
)


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_two_point_claimed_axioms_are_exact():
    t = two_point_triple(m=1.3)
    rep = check_axioms(t)
    assert max(v for _, v in rep.residual_items()) == 0.0
    assert rep.first_order_claimed is False
    # the first-order defect is exactly |m|; reported, never asserted to zero
    assert abs(rep.first_order - 1.3) < 1e-14


def test_two_point_with_complex_mass():
    t = two_point_triple(m=0.6 - 0.8j)
    rep = check_axioms(t)
    assert max(v for _, v in rep.residual_items()) < 1e-15
    assert abs(rep.first_order - 1.0) < 1e-14


def test_broken_grading_is_reported_with_exact_magnitude():
    t = two_point_triple(m=1.0)
    broken = replace(t, d=t.d + np.diag([0.5, 0.0]))
    rep = check_axioms(broken)
    # gamma D + D gamma picks up twice the diagonal entry
    assert abs(rep.grading_anticommutes_dirac - 1.0) < 1e-14


def test_lepton_triple_axioms_hold_for_random_yukawas():
    rng = np.random.default_rng(97)
    for _ in range(8):
        t = lepton_triple(k_e=_random_complex(rng, (3, 3)))
        rep = check_axioms(t)
        assert max(v for _, v in rep.residual_items()) < 1e-12
        assert rep.first_order_claimed is True
        assert rep.first_order == 0.0


def test_fluctuation_space_of_two_point_is_two_dimensional():
    t = two_point_triple(m=1.3)
    dim, basis = fluctuation_space(t)
    assert dim == 2
    a = inner_fluctuations(t, [(t.algebra_generators[0],
                                t.algebra_generators[1])])

    def distance_from_span(m):
        v = m.ravel()
        return np.linalg.norm(v - basis.T @ (basis.conj() @ v))

    assert distance_from_span(a) < 1e-12
    # diagonal matrices are not inner fluctuations here
    assert distance_from_span(np.diag([1.0, 0.0])) > 0.9


def test_inner_fluctuations_requires_pairs_and_is_linear():
    t = two_point_triple(m=1.0)
    with pytest.raises(ValueError):
        inner_fluctuations(t, [])
    p1, p2 = t.algebra_generators
    single = inner_fluctuations(t, [(p1, p2)])
    double = inner_fluctuations(t, [(p1, p2), (p1, p2)])
    assert np.abs(double - 2.0 * single).max() < 1e-14


def test_fluctuate_keeps_dirac_hermitian_with_projection():
    rng = np.random.default_rng(101)
    t = lepton_triple(k_e=_random_complex(rng, (3, 3)))
    pairs = [(_random_complex(rng, (12, 12)), _random_complex(rng, (12, 12)))]
    fl = inner_fluctuations(t, pairs)
    flucted = fluctuate(t, fl)
    rep = check_axioms(flucted)
    assert rep.dirac_hermitian < 1e-12
    # without the projection D + A + JAJ^-1 is not Hermitian
    raw = replace(t, d=t.d + fl + t.conjugate_by_j(fl))
    assert check_axioms(raw).dirac_hermitian > 1e-3


def test_fluctuate_formula():
    t = two_point_triple(m=1.1)
    p1, p2 = t.algebra_generators
    fl = inner_fluctuations(t, [(p1, p2)])
    a = hermitian_part(fl)
    assert np.array_equal(a, 0.5 * (fl + fl.conj().T))
    expected = t.d + a + t.conjugate_by_j(a)
    assert np.abs(fluctuate(t, fl).d - expected).max() < 1e-14


def test_gauge_covariance_of_fluctuated_dirac():
    # unitary u in the represented algebra: D'(A^u) = U D'(A) U^dagger
    # with U = u J u J^-1 and A^u = u A u^dagger + u [D, u^dagger]
    rng = np.random.default_rng(103)
    t = lepton_triple(k_e=_random_complex(rng, (3, 3)))
    g1, g2, ga = t.algebra_generators
    phases = rng.uniform(0, 2 * np.pi, size=3)
    u = (np.exp(1j * phases[0]) * g1 + np.exp(1j * phases[1]) * g2
         + np.exp(1j * phases[2]) * ga)
    assert np.abs(u @ u.conj().T - np.eye(12)).max() < 1e-13

    coef = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    a_el = coef[0, 0] * g1 + coef[0, 1] * g2 + coef[0, 2] * ga
    b_el = coef[1, 0] * g1 + coef[1, 1] * g2 + coef[1, 2] * ga
    a = a_el @ (t.d @ b_el - b_el @ t.d)

    big_u = u @ t.conjugate_by_j(u)
    lhs = big_u @ (t.d + a + t.conjugate_by_j(a)) @ big_u.conj().T
    uh = u.conj().T
    a_u = u @ a @ uh + u @ (t.d @ uh - uh @ t.d)
    rhs = t.d + a_u + t.conjugate_by_j(a_u)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_unimodular_projection():
    rng = np.random.default_rng(107)
    t = two_point_triple(m=1.0)
    fl = inner_fluctuations(t, [(t.algebra_generators[0], t.algebra_generators[1])])
    shifted = unimodular_projection(fl)
    assert abs(np.trace(shifted)) < 1e-14
    again = unimodular_projection(shifted)
    assert np.abs(again - shifted).max() < 1e-14
    # the projection keeps the Hermitian part Hermitian
    herm = unimodular_projection(hermitian_part(fl))
    assert np.abs(herm - herm.conj().T).max() < 1e-14


def test_yukawa_block_placement():
    rng = np.random.default_rng(127)
    k_u, k_d, k_e = (_random_complex(rng, (3, 3)) for _ in range(3))
    y = YukawaData(k_u=k_u, k_d=k_d, k_e=k_e)
    q = y.y_quark()
    assert np.abs(q[3:6, 6:9] - k_d).max() < 1e-14
    assert np.abs(q[0:3, 9:12] - k_u).max() < 1e-14
    assert np.abs(q[0:3, 6:9]).max() == 0.0
    # the lower-left blocks are the adjoints, on the same doublet slots
    assert np.array_equal(q[6:9, 3:6], k_d.conj().T)
    assert np.array_equal(q[9:12, 0:3], k_u.conj().T)
    assert np.abs(q[6:9, 0:3]).max() == 0.0
    assert np.abs(q[9:12, 3:6]).max() == 0.0
    lep = y.y_lepton()
    assert np.abs(lep[3:6, 6:9] - k_e).max() < 1e-14
    assert np.abs(lep[0:3, 6:9]).max() == 0.0
    assert np.array_equal(lep[6:9, 3:6], k_e.conj().T)
    assert np.abs(lep[6:9, 0:3]).max() == 0.0
    total = y.y_total()
    assert total.shape == (45, 45)
    assert np.abs(total[:36, :36] - np.kron(q, np.eye(3))).max() < 1e-13
    assert np.abs(total[36:, 36:] - lep).max() < 1e-14


def test_sm_triple_claimed_axioms():
    rng = np.random.default_rng(131)
    y = YukawaData(k_u=_random_complex(rng, (3, 3)),
                   k_d=_random_complex(rng, (3, 3)),
                   k_e=_random_complex(rng, (3, 3)))
    t = build_sm_finite(y)
    assert t.dim == 90
    # every sector block is [[0, Y], [Y^dagger, 0]], so D is Hermitian exactly
    assert np.array_equal(t.d, t.d.conj().T)
    rep = check_axioms(t)
    assert rep.dirac_hermitian_claimed is True
    claimed = dict(rep.residual_items())
    assert claimed["dirac_hermitian"] == 0.0
    assert max(claimed.values()) <= 1e-12


def test_sm_triple_hermitian_for_symmetric_quarks_without_leptons():
    rng = np.random.default_rng(137)
    k_u = _random_complex(rng, (3, 3))
    k_u = 0.5 * (k_u + k_u.T)
    k_d = _random_complex(rng, (3, 3))
    k_d = 0.5 * (k_d + k_d.T)
    y = YukawaData(k_u=k_u, k_d=k_d, k_e=np.zeros((3, 3)))
    assert check_axioms(build_sm_finite(y)).dirac_hermitian < 1e-14


def test_sm_axioms_task_claims_fluctuated_hermiticity():
    # D is Hermitian for every Yukawa input, so D + A + JAJ^-1 is too, and
    # both residuals are claimed and count to the verdict
    k_e = [[0.1, 0, 0], [0, 0.2, 0], [0, 0, 0.3]]
    obj = {"schema": "geodyn-config-v1",
           "chart": {"dimension": 2, "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
           "frame": {"builtin": "flat", "parameters": {"dim": 2}},
           "finite_triple": {"builtin": "sm-yukawa", "parameters": {"k_e": k_e}},
           "tasks": [{"type": "axioms", "fluctuations": True}]}
    res = run_scenario(obj).results[0]
    assert res.status == "pass"
    assert res.worst_residual == 0.0
    rows = {name: (residual, claimed) for name, residual, claimed in res.rows}
    assert rows["fluctuated_dirac_hermitian"][1] is True
    assert rows["fluctuated_dirac_hermitian"][0] <= 1e-12
    assert rows["unimodular_trace"][1] is True
    # every row is claimed, D's own Hermiticity first
    csv_rows = [line.split(",") for line in format_csv(res).splitlines()]
    assert csv_rows[1][0] == "dirac_hermitian"
    assert all(r[2] == "true" for r in csv_rows[1:])


def test_triple_validation():
    with pytest.raises(ValueError):
        FiniteTriple(dim=3, algebra_generators=(np.eye(2),), d=np.eye(3))
    with pytest.raises(ValueError):
        FiniteTriple(dim=2, algebra_generators=(np.eye(2),), d=np.eye(2),
                     epsilon_signs=(1, 2, 1))
    t = FiniteTriple(dim=2, algebra_generators=(np.eye(2),), d=np.eye(2))
    with pytest.raises(ValueError):
        t.conjugate_by_j(np.eye(2))  # no real structure
