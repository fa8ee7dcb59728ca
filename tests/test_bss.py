"""Tests for the separability solver front end.

Oracles: planted instances carry their rank-one witness exactly, far
instances carry a grid certificate, and the complex lift is checked
against the hand-computed block identity (A + iB)(C + iD)* expanded
into real parts.
"""

import os

import numpy as np
import pytest

from rankone.bss import (
    BssReport,
    ComplexSubspace,
    MeasurementOperator,
    RankOneCandidate,
    SubspaceBasis,
    certify_farness,
    complex_planted,
    lift_real_solution,
    measurement_to_subspace,
    planted_yes,
    random_no,
    read_complex_subspace,
    read_measurement,
    read_subspace,
    reduce_complex_to_real,
    solve_bss,
    subspace_from_matrices,
    verify_candidate,
    write_complex_subspace,
    write_measurement,
    write_subspace,
)
from rankone.errors import (
    BadDims,
    DimensionMismatch,
    EmptySubspace,
    IllFormed,
    ZeroCandidate,
)
from rankone.rectangle import FactorMatrix


def unit(mat):
    return mat / np.linalg.norm(mat)


def projector_measurement(w):
    # sum of vec(B) vec(B)^T over the basis is the orthogonal projector
    p = sum(np.outer(b.ravel(), b.ravel()) for b in w.basis)
    return MeasurementOperator(p)


# ---------------------------------------------------------------- bases


def _with_entry(mat, value):
    mat = np.array(mat, dtype=float)
    mat[0, 0] = value
    return mat


# one non-finite entry in an otherwise valid input of each type
_NON_FINITE = {
    "SubspaceBasis": lambda x: SubspaceBasis(
        2, (_with_entry(np.diag([0.0, 1.0]), x),)),
    "MeasurementOperator": lambda x: MeasurementOperator(
        _with_entry(np.eye(4), x)),
    "ComplexSubspace": lambda x: ComplexSubspace(
        2, ((_with_entry(np.eye(2), x), np.zeros((2, 2))),)),
    "FactorMatrix": lambda x: FactorMatrix(_with_entry(np.eye(2), x)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("kind", sorted(_NON_FINITE))
def test_constructors_reject_non_finite_entries(kind, value):
    with pytest.raises(IllFormed):
        _NON_FINITE[kind](value)


def test_subspace_basis_validates_orthonormality():
    a = np.eye(2)
    with pytest.raises(IllFormed):
        SubspaceBasis(2, (a,))            # norm 2, not unit
    with pytest.raises(IllFormed):
        SubspaceBasis(2, (unit(a), unit(a + 0.01)))
    with pytest.raises(DimensionMismatch):
        SubspaceBasis(2, (np.eye(3) / np.sqrt(3.0),))
    with pytest.raises(BadDims):
        SubspaceBasis(0, ())


def test_complement_fills_the_ambient_space():
    w, _, _ = planted_yes(3, 4, seed=1)
    comp = w.complement_matrices()
    assert len(comp) == 9 - w.dim
    stack = [b.ravel() for b in w.basis] + [c.ravel() for c in comp]
    gram = np.array(stack) @ np.array(stack).T
    assert np.allclose(gram, np.eye(9), atol=1e-10)
    # projections onto the two halves add up to the identity map
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((3, 3))
    comp_part = sum(np.vdot(c, mat) * c for c in comp)
    assert np.allclose(w.project(mat) + comp_part, mat, atol=1e-10)


def test_empty_basis_complement_is_everything():
    w = SubspaceBasis(2, ())
    assert w.dim == 0
    assert len(w.complement_matrices()) == 4
    assert np.allclose(w.project(np.eye(2)), 0.0)


def test_subspace_from_matrices_drops_dependents():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 2, 2))
    w = subspace_from_matrices([a, 2.0 * a, b, a + b])
    assert w.dim == 2
    assert np.linalg.norm(w.project(a) - a) < 1e-10
    with pytest.raises(EmptySubspace):
        subspace_from_matrices([np.zeros((2, 2))])
    with pytest.raises(EmptySubspace):
        subspace_from_matrices([], ambient=2)


# ---------------------------------------------------------- measurements


def test_measurement_validation():
    with pytest.raises(DimensionMismatch):
        MeasurementOperator(np.zeros((4, 3)))
    with pytest.raises(BadDims):
        MeasurementOperator(np.eye(5))    # side is not a perfect square
    skew = np.eye(4) + 0.1 * (np.diag([1.0, 0, 0], k=1)
                              - np.diag([1.0, 0, 0], k=-1))
    with pytest.raises(Exception):
        MeasurementOperator(skew)
    with pytest.raises(Exception):
        MeasurementOperator(2.0 * np.eye(4))   # eigenvalue above one


def test_measurement_to_subspace_projector_round_trip():
    w, _, _ = planted_yes(2, 2, seed=3)
    m = projector_measurement(w)
    back = measurement_to_subspace(m)
    assert back.dim == w.dim
    for b in w.basis:
        assert np.linalg.norm(back.project(b) - b) < 1e-10


def test_measurement_to_subspace_threshold():
    # eigenvalues 1 and 0.6 on n=2: default threshold 1 - 1/n = 0.5 keeps
    # both, a higher threshold keeps only the leading block
    b1 = unit(np.diag([1.0, 0.0]))
    b2 = unit(np.diag([0.0, 1.0]))
    p = np.outer(b1.ravel(), b1.ravel()) + 0.6 * np.outer(b2.ravel(), b2.ravel())
    m = MeasurementOperator(p)
    assert measurement_to_subspace(m).dim == 2
    assert measurement_to_subspace(m, threshold=0.8).dim == 1
    with pytest.raises(EmptySubspace):
        measurement_to_subspace(MeasurementOperator(np.zeros((4, 4))))


# ---------------------------------------------------------------- solve


def test_solve_trivial_line():
    w = SubspaceBasis(1, (np.array([[1.0]]),))
    cand, rep = solve_bss(w, eps=0.25, degree=6, seed=0)
    assert rep.status == "candidate"
    assert cand.quality == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n,dim_w,seed", [(2, 1, 0), (2, 2, 0), (3, 2, 0)])
def test_solve_planted_instances(n, dim_w, seed):
    w, u, v = planted_yes(n, dim_w, seed=seed)
    cand, rep = solve_bss(w, eps=0.25, degree=6, seed=seed)
    assert rep.status == "candidate"
    assert cand.quality >= 1.0 - 0.25 ** 2
    # the reported quality is exactly the projected mass ratio
    mat = cand.matrix
    again = np.linalg.norm(w.project(mat)) ** 2 / np.linalg.norm(mat) ** 2
    assert cand.quality == pytest.approx(again, abs=1e-12)


@pytest.mark.parametrize("seed,quality", [
    (0, 0.9999923182327565), (2, 0.9994183120624573), (3, 0.9999693923213103)])
def test_structure_rounds_lift_spectral_misses(seed, quality):
    """At eps = 0.05 the spectral candidate misses 1 - eps^2, and one
    structure step reaches it; the qualities are the seeded values."""
    w, _, _ = planted_yes(2, 2, seed)
    cand, rep = solve_bss(w, 0.05, degree=6)
    assert rep.structure_steps == 1
    assert rep.quality >= 1.0 - 0.05 ** 2
    assert rep.quality == pytest.approx(quality, abs=1e-9)
    assert cand.quality == rep.quality


def test_solve_far_instance_refuses():
    # the antisymmetric line contains no rank-one point at all
    j = unit(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    w = SubspaceBasis(2, (j,))
    assert certify_farness(w) > 0.5
    cand, rep = solve_bss(w, eps=0.25, degree=6, seed=0)
    assert rep.status == "infeasible"
    assert cand is None


def test_solve_rejects_bad_eps():
    w, _, _ = planted_yes(2, 1, seed=0)
    with pytest.raises(IllFormed):
        solve_bss(w, eps=0.0)
    with pytest.raises(IllFormed):
        solve_bss(w, eps=1.0)


# ---------------------------------------------------------- verification


def test_verify_candidate_quality_extremes():
    w, u, v = planted_yes(2, 1, seed=4)
    rec = verify_candidate(RankOneCandidate(u, v, 1.0), w)
    assert rec.quality == pytest.approx(1.0, abs=1e-10)
    # rotate v a quarter turn; u v^T then lives in the complement
    v_perp = np.array([-v[1], v[0]])
    rec0 = verify_candidate(RankOneCandidate(u, v_perp, 0.0), w)
    assert rec0.quality == pytest.approx(0.0, abs=1e-10)


def test_verify_candidate_two_routes_agree():
    rng = np.random.default_rng(8)
    w, _, _ = planted_yes(3, 4, seed=8)
    cand = RankOneCandidate(rng.standard_normal(3), rng.standard_normal(3), 0.5)
    rec = verify_candidate(cand, w)
    assert rec.quality == pytest.approx(rec.quality_via_complement, abs=1e-10)
    assert rec.ok()


def test_verify_candidate_acceptance_floor():
    w, u, v = planted_yes(2, 2, seed=6)
    m = projector_measurement(w)
    rec = verify_candidate(RankOneCandidate(u, v, 1.0), w, measurement=m)
    # for a projector measurement the acceptance equals the quality
    assert rec.acceptance == pytest.approx(rec.quality, abs=1e-9)
    assert rec.acceptance_floor == pytest.approx(2.0 * rec.quality - 1.0, abs=1e-9)
    assert rec.ok()


def test_verify_candidate_rejects_zero():
    w, _, _ = planted_yes(2, 1, seed=0)
    with pytest.raises(ZeroCandidate):
        verify_candidate(RankOneCandidate(np.zeros(2), np.ones(2), 0.0), w)
    with pytest.raises(DimensionMismatch):
        verify_candidate(RankOneCandidate(np.ones(3), np.ones(3), 1.0), w)


# -------------------------------------------------------------- farness


def test_certify_farness_rank_one_span_is_near():
    w, _, _ = planted_yes(2, 1, seed=2)
    assert certify_farness(w) <= 0.05


def test_certify_farness_antisymmetric_value():
    # distance from u v^T to the antisymmetric line is minimized at
    # orthogonal u, v where the captured mass is exactly one half
    j = unit(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    far = certify_farness(SubspaceBasis(2, (j,)))
    assert 0.68 <= far <= np.sqrt(0.5) + 1e-12


def test_random_no_meets_requested_farness():
    for seed in range(3):
        w, far = random_no(2, 1, seed=seed)
        assert far >= 0.5
        assert far == pytest.approx(certify_farness(w), abs=1e-12)


def test_sphere_grid_dimension_guard():
    w, _, _ = planted_yes(4, 1, seed=0)
    with pytest.raises(BadDims):
        certify_farness(w)


# -------------------------------------------------------------- complex


def test_complex_planted_satisfies_constraints():
    wc, x, y = complex_planted(2, 2, seed=1)
    assert wc.num_constraints == 4 - 2
    assert wc.residual(np.outer(x, np.conj(y))) < 1e-10


def test_reduce_without_constraints_is_everything():
    wc = ComplexSubspace(2, ())
    lifted = reduce_complex_to_real(wc)
    assert lifted.ambient == 4
    assert lifted.dim == 16


def test_reduce_dimension_and_membership():
    wc, x, y = complex_planted(2, 2, seed=1)
    lifted = reduce_complex_to_real(wc)
    assert lifted.dim == 16 - 2 * wc.num_constraints
    # the block lift of the planted witness lands inside the real space
    u0 = np.concatenate([x.real, x.imag])
    v0 = np.concatenate([y.real, y.imag])
    y_mat = np.outer(u0, v0)
    assert np.linalg.norm(lifted.project(y_mat) - y_mat) < 1e-10


def test_lift_recovers_planted_product():
    wc, x, y = complex_planted(2, 1, seed=2)
    u0 = np.concatenate([x.real, x.imag])
    v0 = np.concatenate([y.real, y.imag])
    res = lift_real_solution(RankOneCandidate(u0, v0, 1.0), wc)
    target = np.outer(x, np.conj(y))
    assert np.linalg.norm(res.x - target) < 1e-10
    assert res.residual < 1e-10
    assert res.quality_real == pytest.approx(1.0, abs=1e-10)


def test_solve_complex_round_trip():
    # phase symmetry zeroes every odd moment of the reduced problem, so
    # this also exercises the spectral rounding baseline
    wc, x, y = complex_planted(2, 2, seed=1)
    w = reduce_complex_to_real(wc)
    cand, report = solve_bss(w, 0.3, degree=6, seed=1)
    assert report.status == "candidate"
    res = lift_real_solution(cand, wc)
    scale = np.linalg.norm(np.outer(res.u, np.conj(res.v)))
    assert res.residual <= 0.3 * scale
    assert np.linalg.norm(wc.project(res.x) - res.x) < 1e-8


def test_lift_bound_chain():
    # residual <= certified bound <= sum of the four block residuals
    wc, x, y = complex_planted(2, 2, seed=3)
    rng = np.random.default_rng(7)
    u0 = np.concatenate([x.real, x.imag]) + 0.1 * rng.standard_normal(4)
    v0 = np.concatenate([y.real, y.imag]) + 0.1 * rng.standard_normal(4)
    res = lift_real_solution(RankOneCandidate(u0, v0, 0.9), wc)
    assert res.residual <= res.bound + 1e-10
    assert res.bound <= sum(res.block_residuals) + 1e-10


def test_lift_keeps_real_data_real():
    c = unit(np.diag([1.0, -1.0]))
    wc = ComplexSubspace(2, ((c, np.zeros((2, 2))),))
    u0 = np.array([1.0, 0.0, 0.0, 0.0])
    v0 = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    res = lift_real_solution(RankOneCandidate(u0, v0, 1.0), wc)
    assert np.linalg.norm(res.x.imag) == 0.0


def test_lift_rejects_mismatched_blocks():
    wc, _, _ = complex_planted(2, 1, seed=0)
    with pytest.raises(DimensionMismatch):
        lift_real_solution(RankOneCandidate(np.ones(3), np.ones(3), 1.0), wc)
    with pytest.raises(ZeroCandidate):
        lift_real_solution(RankOneCandidate(np.zeros(4), np.ones(4), 0.0), wc)


# ------------------------------------------------------------ generators


def test_planted_yes_is_deterministic_and_contains_plant():
    w1, u1, v1 = planted_yes(3, 2, seed=9)
    w2, u2, v2 = planted_yes(3, 2, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(w1.basis, w2.basis))
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    plant = np.outer(u1, v1)
    assert np.linalg.norm(w1.project(plant) - plant) < 1e-10
    with pytest.raises(BadDims):
        planted_yes(2, 5, seed=0)


# ------------------------------------------------------------- file IO


def test_subspace_io_round_trip(tmp_path):
    w, _, _ = planted_yes(3, 2, seed=5)
    path = os.path.join(tmp_path, "w.txt")
    write_subspace(path, w)
    back = read_subspace(path)
    assert back.ambient == 3 and back.dim == 2
    for a, b in zip(w.basis, back.basis):
        assert np.array_equal(a, b)


def test_measurement_io_round_trip(tmp_path):
    w, _, _ = planted_yes(2, 1, seed=1)
    m = projector_measurement(w)
    path = os.path.join(tmp_path, "m.txt")
    write_measurement(path, m)
    assert np.array_equal(read_measurement(path).matrix, m.matrix)


def test_complex_io_round_trip(tmp_path):
    wc, _, _ = complex_planted(2, 1, seed=2)
    path = os.path.join(tmp_path, "c.txt")
    write_complex_subspace(path, wc)
    back = read_complex_subspace(path)
    assert back.ambient == 2 and back.num_constraints == wc.num_constraints
    for (c1, d1), (c2, d2) in zip(wc.pairs, back.pairs):
        assert np.array_equal(c1, c2) and np.array_equal(d1, d2)


def test_readers_reject_corrupt_files(tmp_path):
    bad = os.path.join(tmp_path, "bad.txt")
    with open(bad, "w") as fh:
        fh.write("NOT_A_HEADER 2 2\n")
    with pytest.raises(IllFormed):
        read_subspace(bad)
    w, _, _ = planted_yes(2, 1, seed=0)
    good = os.path.join(tmp_path, "good.txt")
    write_subspace(good, w)
    with open(good) as fh:
        lines = fh.read().splitlines()
    with open(bad, "w") as fh:
        fh.write("\n".join(lines[:-1]))
    with pytest.raises(IllFormed):
        read_subspace(bad)
