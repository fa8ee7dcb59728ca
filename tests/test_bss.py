"""Tests for the separability solver front end.

Oracles: planted instances carry their rank-one witness exactly, far
instances carry a grid certificate, and the complex lift is checked
against the hand-computed block identity (A + iB)(C + iD)* expanded
into real parts.
"""

import math
import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

from instances import tiles_complement
from rankone import bss, reweighting
from rankone.bss import (
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
from rankone.cli import _uncertified_subspace
from rankone.errors import (
    BadDims,
    DegreeTooSmall,
    DimensionMismatch,
    EmptySubspace,
    IllFormed,
    RetryExhausted,
    ZeroCandidate,
)
from rankone.rectangle import FactorMatrix
from rankone.sos_solver import certificate_margin


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
    # W is the eigenvalue-1 eigenspace, within the 1e-8 slack validation
    # allows: of the eigenvalues 1, 0.999, 0.6 and 1 - 1e-9 on n=2, the
    # first and the last are kept, whose eigenvectors are diag(1, 0) and
    # diag(0, 1)
    back = measurement_to_subspace(
        MeasurementOperator(np.diag([1.0, 0.999, 0.6, 1.0 - 1e-9])))
    assert back.dim == 2
    for b in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        assert np.linalg.norm(back.project(b) - b) < 1e-10
    for eigs in ([0.999, 0.6, 0.0, 0.0], [0.0] * 4):
        with pytest.raises(EmptySubspace):
            measurement_to_subspace(MeasurementOperator(np.diag(eigs)))


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
    """At eps = 0.05 the spectral candidate misses 1 - eps^2 at both rungs,
    and at the top rung one structure step reaches it; the qualities are
    the seeded values."""
    w, _, _ = planted_yes(2, 2, seed)
    cand, rep = solve_bss(w, 0.05, degree=6)
    assert (rep.degree, rep.rung) == (6, 6)
    assert rep.structure_steps == 1
    assert rep.quality >= 1.0 - 0.05 ** 2
    assert rep.quality == pytest.approx(quality, abs=1e-9)
    assert cand.quality == rep.quality


@pytest.mark.parametrize("n,dim_w,seed", [(2, 2, 0), (3, 6, 2), (3, 6, 5), (4, 12, 2)])
def test_whole_fix_decision_keeps_degree_4_rounding(monkeypatch, n, dim_w, seed):
    """The degree-4 spectral misses whose structure rounds run only doomed
    fixes: with the whole-fix decision of `fix_subspace` forced off, the
    candidate, its quality, the structure steps and the degree left are
    the same."""
    w = planted_yes(n, dim_w, seed)[0]
    cand, rep = solve_bss(w, 0.25, degree=4)
    monkeypatch.setattr(reweighting, "_split_cannot_pass", lambda *args: False)
    ref_cand, ref_rep = solve_bss(w, 0.25, degree=4)
    assert rep.quality < 1.0 - 0.25 ** 2
    np.testing.assert_array_equal(cand.u0, ref_cand.u0)
    np.testing.assert_array_equal(cand.v0, ref_cand.v0)
    assert (cand.quality, rep.quality, rep.structure_steps, rep.degree_left) == (
        ref_cand.quality, ref_rep.quality, ref_rep.structure_steps, ref_rep.degree_left)


def test_solve_far_instance_refuses():
    # the antisymmetric line contains no rank-one point at all
    j = unit(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    w = SubspaceBasis(2, (j,))
    assert certify_farness(w) > 0.5
    cand, rep = solve_bss(w, eps=0.25, degree=6, seed=0)
    assert rep.status == "infeasible"
    assert cand is None


def record_rungs(monkeypatch):
    """(problem, solver report) of every rung, through the names that
    `solve_bss` looks up on its module at call time."""
    rungs = []
    solve = bss.solve_feasibility

    def solving(problem, **kwargs):
        mu, rep = solve(problem, **kwargs)
        rungs.append((problem, rep))
        return mu, rep
    monkeypatch.setattr(bss, "solve_feasibility", solving)
    return rungs


def test_ladder_never_refuses_a_planted_yes_instance(monkeypatch):
    """planted_yes(n, dim_w, seed) for n in {2, 3}, every dim_w and seeds
    8-15, with eps 0.05 so that most climb to the top rung 6: no rung is
    refused, and a rung below the top decides only with a candidate at
    1 - eps^2.  The top rung's rounding, which the ladder leaves as it
    was, is stubbed out."""
    rungs = record_rungs(monkeypatch)
    monkeypatch.setattr(bss, "_round",
                        lambda mu, w, eps, seed, baseline: (0.0, None, 0, mu.degree))
    decided = []
    for n in (2, 3):
        for dim_w in range(1, n * n + 1):
            for seed in range(8, 16):
                rungs.clear()
                cand, rep = solve_bss(planted_yes(n, dim_w, seed)[0], 0.05, degree=6)
                assert rep.status == "candidate", (n, dim_w, seed)
                assert [p.index.max_degree for p, _ in rungs] == list(range(4, rep.rung + 1, 2))
                assert all(r.status != "infeasible" for _, r in rungs)
                if rep.rung < 6:
                    assert cand.quality >= 1.0 - 0.05 ** 2
                decided.append(rep.rung)
    assert set(decided) == {4, 6}


def test_ladder_refusals_check_on_their_own_rung(monkeypatch):
    """The promise problem at eps: W holds a unit rank-one within eps, or
    every unit rank-one is eps-far from W.  The certified-far cases,
    random_no(2, 1, seed) for seeds 0-5 and the antisymmetric line at
    eps 0.25, and the Tiles complement at eps 0.05, must all be refused:
    their certificate is the one of the last rung solved, the rung the
    report names, and `certificate_margin` reproduces its margin on that
    rung's problem.  The dim-(n-1)^2 subspaces _uncertified_subspace(3,
    4, seed) and (4, 9, seed), seeds 0-5, are in neither case at eps
    0.25: each is refused with such a certificate or gets a candidate
    that verifies at 1 - eps^2."""
    rungs = record_rungs(monkeypatch)

    def checked_refusal(rep):
        problem, solver = rungs[-1]
        assert rep.status == "infeasible"
        assert problem.index.max_degree == rep.rung
        cert = rep.certificate
        assert solver.certificate is cert
        assert certificate_margin(problem, cert.multipliers, cert.factors) == cert.margin > 0
        return cert.kind

    far = [(random_no(2, 1, seed)[0], 0.25) for seed in range(6)]
    far.append((SubspaceBasis(2, (unit(np.array([[0.0, 1.0], [-1.0, 0.0]])),)), 0.25))
    far.append((tiles_complement(), 0.05))
    kinds = set()
    for w, eps in far:
        assert certify_farness(w) >= eps
        rungs.clear()
        cand, rep = solve_bss(w, eps, degree=6)
        assert cand is None
        kinds.add(checked_refusal(rep))
    assert kinds == {"linear", "conic"}

    for n in (3, 4):
        for seed in range(6):
            w = _uncertified_subspace(n, (n - 1) ** 2, seed)
            rungs.clear()
            cand, rep = solve_bss(w, 0.25, degree=6)
            if cand is None:
                checked_refusal(rep)
            else:
                record = verify_candidate(cand, w)
                assert record.ok() and record.quality >= 1.0 - 0.25 ** 2, (n, seed)


def test_rounded_rungs_verify_and_far_instances_never_round(monkeypatch):
    """A rung the solver stops early, with status `rounded`, returns a
    candidate that verifies at 1 - eps^2: over planted_yes(n, dim_w,
    seed) for n in {2, 3}, every dim_w and seeds 0-7 at degree 4, at eps
    0.25 and 0.05.  random_no(n, 1, seed) for n in {2, 3} and seeds 0-7,
    certified 0.5-far, is never rounded on any rung.  The structure
    rounds, which only a converged top rung runs, are stubbed out."""
    rungs = record_rungs(monkeypatch)
    monkeypatch.setattr(bss, "_round",
                        lambda mu, w, eps, seed, baseline: (0.0, None, 0, mu.degree))
    rounded = 0
    for eps in (0.25, 0.05):
        for n in (2, 3):
            for dim_w in range(1, n * n + 1):
                for seed in range(8):
                    w = planted_yes(n, dim_w, seed)[0]
                    cand, rep = solve_bss(w, eps, degree=4)
                    if rep.solver_status != "rounded":
                        continue
                    record = verify_candidate(cand, w)
                    assert record.ok() and record.quality >= 1.0 - eps ** 2, (eps, n, dim_w, seed)
                    assert record.quality == rep.quality
                    rounded += 1
    assert rounded > 0
    rungs.clear()
    for n in (2, 3):
        for seed in range(8):
            cand, rep = solve_bss(random_no(n, 1, seed)[0], 0.25, degree=6)
            assert cand is None and rep.solver_status == "infeasible"
    assert rungs and all(r.status != "rounded" for _, r in rungs)


@pytest.mark.parametrize("degree", [2, 3, 5, 7])
def test_ladder_checks_the_top_degree_before_any_rung(monkeypatch, degree):
    """An odd or too small top degree is refused before any rung's
    problem is built."""
    built = []
    build = bss.build_bss_problem
    monkeypatch.setattr(bss, "build_bss_problem",
                        lambda w, d: built.append(d) or build(w, d))
    with pytest.raises(DegreeTooSmall):
        solve_bss(planted_yes(2, 2, 0)[0], 0.25, degree=degree)
    assert built == []


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


def pair_grid_farness(w):
    """The pair-grid certificate that `certify_farness` replaced, kept as
    its reference: the same sphere grid for u and for v, and a bound of
    grid_min - 2r, as the distance is 1-Lipschitz in each factor."""
    pts_u, radius = bss._sphere_grid(w.ambient, 0.01 if w.ambient == 2 else 0.05)
    pts_v = pts_u
    mapped = np.array([pts_u @ b for b in w.basis])  # k x |U| x n
    best = np.inf
    chunk = 512
    for start in range(0, pts_v.shape[0], chunk):
        vt = pts_v[start:start + chunk].T
        captured = np.zeros((pts_u.shape[0], vt.shape[1]))
        for k in range(mapped.shape[0]):
            captured += (mapped[k] @ vt) ** 2
        best = min(best, float((1.0 - captured).min()))
    grid_min = math.sqrt(max(best, 0.0))
    return max(grid_min - 2.0 * radius, 0.0)


def pair_distances(w, us, vs):
    """||proj_{W-complement} u v^T||_F for every row u of us and v of vs,
    from the coordinates of u v^T in the basis of W."""
    captured = sum((us @ b @ vs.T) ** 2 for b in w.basis)
    return np.sqrt(np.maximum(1.0 - captured, 0.0))


def unit_rows(rng, count, n):
    x = rng.standard_normal((count, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def ascent_point(w, u, v, steps=50):
    """Alternating top-eigenvector ascent of the mass u^T B v captures:
    each factor in turn becomes the best one for the other."""
    for _ in range(steps):
        mapped = np.array([u @ b for b in w.basis])  # rows u^T B
        v = np.linalg.eigh(mapped.T @ mapped)[1][:, -1]
        mapped = np.array([b @ v for b in w.basis])  # rows (B v)^T
        u = np.linalg.eigh(mapped.T @ mapped)[1][:, -1]
    return u, v


def oracle_subspaces():
    """24 seeded subspaces per ambient n in {2, 3}: dim_w cycles through
    1 .. n^2 - 1, and the draws lean toward their antisymmetric parts by
    a tilt from 0 to 1, as `random_no` does, so that the far subspaces
    are well represented next to the ones that hold rank-ones."""
    for n in (2, 3):
        for seed in range(24):
            rng = np.random.default_rng(100 + seed)
            dim_w = 1 + seed % (n * n - 1)
            tilt = seed / 23.0
            mats = [rng.standard_normal((n, n)) for _ in range(dim_w)]
            mats = [(1.0 - tilt) * m + tilt * 0.5 * (m - m.T) for m in mats]
            yield n, seed, subspace_from_matrices(mats, ambient=n)


def test_certify_farness_against_the_pair_grid_and_sampled_points():
    """On every oracle subspace the exact-v certificate is at least the
    pair-grid one (provably: g1 <= g2 <= g1 + r on the same grid, so
    g2 - 2r <= g1 - r) and at most the distance of every point of a
    seeded 300 x 300 sample of (u, v) and of the ascent point started at
    the sample's nearest pair.  And for random unit u the exact best v
    (`_farness_at`) lies below a fine sphere grid of v, by at most
    that grid's covering radius."""
    positive = 0
    for n, seed, w in oracle_subspaces():
        far = certify_farness(w)
        assert far >= pair_grid_farness(w), (n, seed)
        positive += far > 0.0

        rng = np.random.default_rng(seed)
        us, vs = unit_rows(rng, 300, n), unit_rows(rng, 300, n)
        dist = pair_distances(w, us, vs)
        assert far <= dist.min(), (n, seed)
        i, j = np.unravel_index(dist.argmin(), dist.shape)
        u, v = ascent_point(w, us[i], vs[j])
        assert far <= pair_distances(w, u[None], v[None])[0, 0] + 1e-12, (n, seed)

        fine, radius = bss._sphere_grid(n, 0.001 if n == 2 else 0.01)
        probes = unit_rows(rng, 4, n)
        exact = bss._farness_at(w, probes)
        sampled = pair_distances(w, probes, fine).min(axis=1)
        assert np.all(exact <= sampled + 1e-12), (n, seed)
        assert np.all(sampled <= exact + radius), (n, seed)
    assert positive >= 12


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_grid_covers_within_its_radius(n):
    """Every one of 4e5 seeded uniform points of the sphere is within the
    returned geodesic radius of a grid point: the one r that
    `certify_farness` subtracts.  At n = 2 the half-circle grid covers
    the circle up to sign, as antipodes give the same distance."""
    pts, radius = bss._sphere_grid(n, 0.01 if n == 2 else 0.05)
    if n == 2:
        pts = np.concatenate([pts, -pts])
    x = unit_rows(np.random.default_rng(n), 400_000, n)
    chord = cKDTree(pts).query(x)[0]
    assert float((2.0 * np.arcsin(chord / 2.0)).max()) <= radius + 1e-12


def test_certify_farness_rank_one_span_is_near():
    w, _, _ = planted_yes(2, 1, seed=2)
    assert certify_farness(w) <= 0.05


def test_certify_farness_antisymmetric_value():
    """The distance from u v^T to the antisymmetric line is minimized at
    orthogonal u, v, where the captured mass is exactly one half: the
    certificate is within the grid's radius r of sqrt(1/2)."""
    j = unit(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    far = certify_farness(SubspaceBasis(2, (j,)))
    radius = bss._sphere_grid(2, 0.01)[1]
    assert np.sqrt(0.5) - radius - 1e-12 <= far <= np.sqrt(0.5) + 1e-12


def test_certify_farness_tiles_complement():
    """The Tiles complement holds no rank-one matrix; the certificate puts
    it 0.1190 from every unit one."""
    assert certify_farness(tiles_complement()) >= 0.11


def test_random_no_meets_requested_farness():
    for n, dim_w in ((2, 1), (3, 1), (3, 2), (3, 3)):
        for seed in range(3):
            w, far = random_no(n, dim_w, seed=seed)
            assert far >= 0.5
            assert far == certify_farness(w), (n, dim_w, seed)


def random_no_outcome(n, dim_w, seed):
    try:
        w, far = random_no(n, dim_w, seed)
    except RetryExhausted as err:
        return str(err)
    return np.array(w.basis), far


def test_random_no_screen_changes_no_instance(monkeypatch):
    """Over n in {2, 3}, every dim_w and seeds 0-7, `random_no` gives the
    same basis and farness, or the same `RetryExhausted` message, with
    the grid-subsample screen on and forced off.  The screen must also
    spare full certificates: fewer `certify_farness` calls with it on."""
    calls = {"on": 0, "off": 0}
    certify = bss.certify_farness
    cases = [(n, dim_w, seed) for n in (2, 3) for dim_w in range(1, n * n + 1)
             for seed in range(8)]
    outcomes = {}
    for mode in ("on", "off"):
        def counted(w, mode=mode):
            calls[mode] += 1
            return certify(w)
        monkeypatch.setattr(bss, "certify_farness", counted)
        if mode == "off":
            monkeypatch.setattr(bss, "_screen_rejects", lambda w: False)
        outcomes[mode] = [random_no_outcome(*case) for case in cases]
    for case, on, off in zip(cases, outcomes["on"], outcomes["off"]):
        if isinstance(off, str):
            assert on == off, case
        else:
            assert np.array_equal(on[0], off[0]) and on[1] == off[1], case
    accepted = sum(not isinstance(off, str) for off in outcomes["off"])
    assert 0 < accepted < len(cases)
    assert calls["on"] < calls["off"] // 4, calls


def test_screen_points_get_their_full_grid_bits():
    """The screen's premise: `_farness_at` on the contiguous stride
    subsample equals the full-grid values at those indices bit for bit,
    over 124 seeded subspaces drawn as `random_no` draws them."""
    checked = 0
    for n, dims in ((2, (1, 2, 3)), (3, (1, 2, 3, 5))):
        full_pts = bss._certificate_grid(n)[0]
        sample = np.ascontiguousarray(full_pts[::bss._SCREEN_STRIDE])
        for dim_w in dims:
            for seed in range(25 if n == 3 else 8):
                rng = np.random.default_rng(1000 * n + 100 * dim_w + seed)
                tilt = seed / 24.0
                mats = [rng.standard_normal((n, n)) for _ in range(dim_w)]
                mats = [(1.0 - tilt) * m + tilt * 0.5 * (m - m.T) for m in mats]
                w = subspace_from_matrices(mats, ambient=n)
                full = bss._farness_at(w, full_pts)
                assert np.array_equal(bss._farness_at(w, sample),
                                      full[::bss._SCREEN_STRIDE]), (n, dim_w, seed)
                checked += 1
    assert checked >= 100


@pytest.mark.parametrize("n, step", [(2, 0.01), (3, 0.05)])
def test_sphere_grid_is_built_once_and_read_only(n, step):
    first = bss._sphere_grid(n, step)
    assert bss._sphere_grid(n, step) is first
    with pytest.raises(ValueError):
        first[0][0, 0] = 0.0


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
