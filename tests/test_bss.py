"""Tests for the separability solver front end.

Oracles: planted instances carry their rank-one witness exactly, far
instances carry a grid certificate, and the complex lift is checked
against the hand-computed block identity (A + iB)(C + iD)* expanded
into real parts.
"""

import collections
import functools
import math
import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

from instances import tiles_complement
from moment_tables import atom_table, root_tables
from rankone import bss, sos_solver, structure
from rankone.bss import (
    ComplexSubspace,
    MeasurementOperator,
    RankOneCandidate,
    SubspaceBasis,
    certify_farness,
    complex_planted,
    cross_second_moment,
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
    DegreeExhausted,
    DegreeTooSmall,
    DimensionMismatch,
    EmptySubspace,
    IllFormed,
    IterLimit,
    NoConvergence,
    PreconditionViolated,
    RankOneError,
    RetryExhausted,
    ZeroCandidate,
)
from rankone.pseudodist import moment_block
from rankone.rectangle import FactorMatrix
from rankone.sos_solver import certificate_margin
from rankone.structure import first_moments


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


# ------------------------------------------------------ spectral readout


def sphere_points(rng, n_pts, dim):
    pts = rng.standard_normal((n_pts, dim))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def test_cross_second_moment_matches_direct_computation():
    rng = np.random.default_rng(5)
    pts = sphere_points(rng, 7, 4)        # (u, v) pairs with n = 2
    w = rng.dirichlet(np.ones(7))
    mu = atom_table(pts, w, 4)
    got = cross_second_moment(mu)
    outer = np.array([np.outer(p[:2], p[2:]).ravel() for p in pts])
    expect = outer.T @ (w[:, None] * outer)
    np.testing.assert_allclose(got, expect, atol=1e-12)
    assert np.linalg.eigvalsh(got)[0] >= -1e-12


def test_cross_second_moment_survives_sign_symmetry():
    # mirrored atoms zero the means but leave the cross matrix intact
    pair = np.array([0.6, 0.8, 1.0, 0.0])
    pts = np.vstack([pair, -pair])
    mu = atom_table(pts, np.array([0.5, 0.5]), 4)
    mean, _ = first_moments(mu)
    assert np.linalg.norm(mean) < 1e-12
    single = np.outer(pair[:2], pair[2:]).ravel()
    np.testing.assert_allclose(cross_second_moment(mu),
                               np.outer(single, single), atol=1e-12)


def test_cross_second_moment_rejects_bad_tables():
    rng = np.random.default_rng(0)
    odd = atom_table(sphere_points(rng, 3, 3), np.ones(3) / 3, 4)
    with pytest.raises(PreconditionViolated):
        cross_second_moment(odd)
    shallow = atom_table(sphere_points(rng, 3, 4), np.ones(3) / 3, 2)
    with pytest.raises(PreconditionViolated):
        cross_second_moment(shallow)


# ---------------------------------------------------------------- solve


def test_solve_trivial_line():
    w = SubspaceBasis(1, (np.array([[1.0]]),))
    cand, rep = solve_bss(w, eps=0.25, degree=6)
    assert rep.status == "candidate"
    assert cand.quality == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n,dim_w,seed", [(2, 1, 0), (2, 2, 0), (3, 2, 0)])
def test_solve_planted_instances(n, dim_w, seed):
    w, u, v = planted_yes(n, dim_w, seed=seed)
    cand, rep = solve_bss(w, eps=0.25, degree=6)
    assert rep.status == "candidate"
    assert cand.quality >= 1.0 - 0.25 ** 2
    # the reported quality is exactly the projected mass ratio
    mat = cand.matrix
    again = np.linalg.norm(w.project(mat)) ** 2 / np.linalg.norm(mat) ** 2
    assert cand.quality == pytest.approx(again, abs=1e-12)


@pytest.mark.parametrize("seed,quality", [
    (0, 0.9999923182327565), (2, 0.9994183120624573), (3, 0.9999693923213103)])
def test_structure_rounds_lift_spectral_misses(seed, quality):
    """At eps = 0.05 the spectral candidates of planted_yes(2, 2, seed)
    miss 1 - eps^2 at both rungs, and on the top rung's table the
    structure trials, run from the best spectral candidate, reach it in
    one structure step; the qualities are the seeded values.  `solve_bss`
    never builds this table: the polish of the rung-4 miss reaches the
    bar (DEGREE_6_RUNG_4)."""
    (mu, w, eps, scored), = root_tables([(2, 2, seed, 0.05, 6)])
    assert mu.degree == 6 and scored[0][0] < 1.0 - eps ** 2
    found, cand, steps, left = bss._structure_trials(mu, w, eps, scored[0])
    assert (steps, left) == (1, 2)
    assert found >= 1.0 - 0.05 ** 2
    assert found == pytest.approx(quality, abs=1e-9)
    assert cand.quality == found


def test_structure_round_counts_of_the_rounding_solves(monkeypatch):
    """The calls the benchmark's tracer counts, through the two module
    attributes it wraps, when the structure trials run from the best
    spectral candidate on the top-rung tables of the spectral misses
    planted_yes(2, 2, s), s in {0, 2, 3}, at degree 6 and eps 0.05: 27
    trials, 3 of them kept and 24 decided at their root with
    DegreeExhausted, and 307 fixes, of which 138 raise RetryExhausted and
    169 return a table, 166 of them thrown away for leaving a block
    unsettled at degree 2; every fix is a joint one, none on a top
    eigenspace.  (`solve_bss` polishes the rung-4 misses of these plants
    to the bar, so it builds none of these tables.)"""
    tables = root_tables([(2, 2, seed, 0.05, 6) for seed in (0, 2, 3)])
    counts = {"run_structure_2d": collections.Counter(),
              "fix_subspace": collections.Counter()}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            try:
                result = real(*args, **kwargs)
            except RankOneError as err:
                counts[name][type(err).__name__] += 1
                raise
            counts[name]["returned"] += 1
            return result
        monkeypatch.setattr(module, name, counted)
    counting(bss, "run_structure_2d")
    counting(structure, "fix_subspace")
    fix = structure.fix_subspace

    def joint_only(*args, **kwargs):
        assert kwargs["retry_budget"] == structure._JOINT_RETRY_BUDGET
        return fix(*args, **kwargs)
    monkeypatch.setattr(structure, "fix_subspace", joint_only)
    for mu, w, eps, scored in tables:
        bss._structure_trials(mu, w, eps, scored[0])
    assert counts["run_structure_2d"] == {"returned": 3, "DegreeExhausted": 24}
    assert counts["fix_subspace"] == {"returned": 169, "RetryExhausted": 138}


# seeded degree-6 outcomes at eps 0.05 of the structure trials run from
# the top rung's best spectral candidate, (quality, structure steps,
# degree left): the three `rounding` plants, then spectral misses at n =
# 2 and 3
DEGREE_6_OUTCOME = {
    (2, 2, 0): (0.9999923182326633, 1, 2), (2, 2, 2): (0.999418312062864, 1, 2),
    (2, 2, 3): (0.9999693923213113, 1, 2), (2, 3, 3): (0.9999259143947681, 1, 2),
    (3, 5, 4): (0.9494373540883141, 0, 6), (3, 6, 3): (0.8831474418117117, 0, 6),
}

# seeded degree-8 outcomes of the same trials, in the same form: their
# progress fixes run on degree-6 and degree-4 tables
DEGREE_8_OUTCOME = {
    (2, 2, 0): (0.9998246629388192, 2, 2), (2, 2, 2): (0.9804224607183428, 0, 8),
}

# the best spectral quality of each top rung above, and the quality its
# polish reaches: the bar, so no structure trial would run there
DEGREE_6_POLISHED = {
    (2, 2, 0): (0.9606766174716204, 0.9989121614079972),
    (2, 2, 2): (0.9767499793751495, 0.9980374916953721),
    (2, 2, 3): (0.9956083841751323, 0.9996630325980594),
    (2, 3, 3): (0.9946840577070626, 1.0000000000000004),
    (3, 5, 4): (0.9494373540883141, 0.9991611164965949),
    (3, 6, 3): (0.8831474418117117, 0.9999330003972113),
}


# the quality that `solve_bss` returns on each plant of DEGREE_6_OUTCOME at
# eps 0.05 and degree 6: the polish of its rung-4 spectral miss
DEGREE_6_RUNG_4 = {
    (2, 2, 0): 0.9999919037043283, (2, 2, 2): 0.9994801728956044,
    (2, 2, 3): 0.9983203334416878, (2, 3, 3): 1.0000000000000007,
    (3, 5, 4): 0.9979629236967351, (3, 6, 3): 0.9998878974453431,
}


def test_degree_6_solves_keep_their_seeded_outcomes(monkeypatch):
    """At degree 6 and eps 0.05 each solve of DEGREE_6_OUTCOME decides at
    rung 4, whose converged table it polishes to the quality of
    DEGREE_6_RUNG_4, at least 1 - eps^2, with no structure step, and it
    builds no rung-6 problem.  On the top rung's table, whose best
    spectral candidate misses the bar, the polish reaches the quality of
    DEGREE_6_POLISHED, at least the spectral one and at least 1 - eps^2,
    and the structure trials, run from the best spectral candidate, keep
    their seeded outcome: a structure step lifts each n = 2 plant, and no
    trial succeeds at n = 3."""
    rungs = record_rungs(monkeypatch)
    for case in DEGREE_6_OUTCOME:
        rungs.clear()
        cand, rep = solve_bss(planted_yes(*case)[0], 0.05, degree=6)
        assert [p.index.max_degree for p, _ in rungs] == [4], case
        assert (rep.rung, rep.solver_status, rep.structure_steps, rep.degree_left) == (
            4, "feasible", 0, 4), case
        assert rep.quality == pytest.approx(DEGREE_6_RUNG_4[case], abs=1e-9), case
        assert cand.quality == rep.quality >= 1.0 - 0.05 ** 2
    monkeypatch.undo()
    cases = [(*case, 0.05, 6) for case in DEGREE_6_OUTCOME]
    for (mu, w, eps, scored), case in zip(root_tables(cases), DEGREE_6_OUTCOME):
        spectral, polished = DEGREE_6_POLISHED[case]
        assert scored[0][0] == pytest.approx(spectral, abs=1e-9), case
        assert polished >= max(spectral, 1.0 - 0.05 ** 2)
        assert bss._polish(w, scored, 1.0 - eps ** 2)[0] == pytest.approx(polished, abs=1e-9)
        quality, _, steps, left = bss._structure_trials(mu, w, eps, scored[0])
        expected, expected_steps, expected_left = DEGREE_6_OUTCOME[case]
        assert (steps, left) == (expected_steps, expected_left), case
        assert quality == pytest.approx(expected, abs=1e-9), case


def test_degree_8_trials_keep_their_seeded_outcomes():
    """At degree 8 and eps 0.05 the structure trials, run from the best
    spectral candidate on the top rung's table, keep the seeded outcomes
    of DEGREE_8_OUTCOME: two structure steps lift planted_yes(2, 2, 0),
    and no trial succeeds on planted_yes(2, 2, 2)."""
    cases = [(*case, 0.05, 8) for case in DEGREE_8_OUTCOME]
    for (mu, w, eps, scored), case in zip(root_tables(cases), DEGREE_8_OUTCOME):
        assert mu.degree == 8
        quality, _, steps, left = bss._structure_trials(mu, w, eps, scored[0])
        expected, expected_steps, expected_left = DEGREE_8_OUTCOME[case]
        assert (steps, left) == (expected_steps, expected_left), case
        assert quality == pytest.approx(expected, abs=1e-9), case


def test_degree_6_plants_reach_no_structure_trial(monkeypatch):
    """Every degree-6 solve of planted_yes(n, dim, s), n in {2, 3}, dim
    from 1 to n^2 - 1, s in 0-7, at eps 0.05 and 0.25, meets 1 - eps^2
    with no structure step, and none enters the structure trials: a
    rung's spectral candidate or its polish decides them all.  No solve
    builds a rung above the one that decided, and the deciding rung's
    candidate meets the bar.  30 solves decide at rung 4 only because
    the polish lifts a spectral miss of its converged table to the bar."""
    monkeypatch.setattr(bss, "_structure_trials", no_trials)
    rungs = record_rungs(monkeypatch)
    polish = bss._polish
    lifts = []

    def recording(w, scored, target):
        best = polish(w, scored, target)
        if scored[0][0] < target <= best[0]:
            lifts.append(rungs[-1][0].index.max_degree)
        return best
    monkeypatch.setattr(bss, "_polish", recording)
    solves = 0
    for n in (2, 3):
        for dim in range(1, n * n):
            for seed in range(8):
                for eps in (0.05, 0.25):
                    case = (n, dim, seed, eps)
                    rungs.clear()
                    cand, rep = bss.solve_bss(planted_yes(n, dim, seed)[0], eps, degree=6)
                    assert [p.index.max_degree for p, _ in rungs] == list(
                        range(4, rep.rung + 1, 2)), case
                    assert rep.quality >= 1.0 - eps ** 2, case
                    assert cand.quality == rep.quality
                    assert rep.structure_steps == 0, case
                    solves += 1
    assert solves == 176
    assert lifts == [4] * 30


def test_sweep_plants_decide_before_any_cone_set_up(monkeypatch):
    """Every planted_yes of the `sweep` corpus, planted_yes(2, 1..4, 1..4)
    and planted_yes(3, 1..9, 1), meets 1 - eps^2 at eps 0.25 and top
    degrees 4 and 6 with the face basis and the face space made to raise:
    the rung-4 solver's check 0 takes y_p, so no solve builds the cone
    geometry."""
    def unbuilt(*args):
        raise AssertionError("cone set-up built")
    monkeypatch.setattr(sos_solver, "_face_basis", unbuilt)
    monkeypatch.setattr(sos_solver, "_FaceSpace", unbuilt)
    cases = [(2, dim, seed) for dim in range(1, 5) for seed in range(1, 5)]
    cases += [(3, dim, 1) for dim in range(1, 10)]
    for case in cases:
        w = planted_yes(*case)[0]
        for degree in (4, 6):
            cand, rep = solve_bss(w, 0.25, degree=degree)
            assert (rep.rung, rep.solver_status, rep.solver_iterations) == (4, "rounded", 0), case
            assert rep.quality >= 1.0 - 0.25 ** 2, case
            assert cand.quality == rep.quality


def test_root_decision_changes_no_solve(monkeypatch):
    """With run_structure_2d's root decision forced off, every trial it
    decides still fails with an error that `_structure_trials` catches,
    and the trials return the same candidate, steps and degree left.
    They run from the best spectral candidate on the top-rung tables of
    the degree-6 eps-0.05 spectral misses at n = 2 and three at n = 3;
    the decision fires on their 24 failed `rounding` trials and on at
    least 100 in all."""
    cases = [(2, 2, 0), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 6, 2), (3, 6, 5), (3, 7, 5)]
    tables = dict(zip(cases, root_tables([(*case, 0.05, 6) for case in cases])))
    decide, trial = structure.powers_every_draw, bss.run_structure_2d
    log = []

    def undecided(*args):
        log[-1]["decided"] = decide(*args)
        return False

    def recording(*args):
        log.append({"decided": False, "case": case, "error": None})
        try:
            return trial(*args)
        except RankOneError as err:
            log[-1]["error"] = type(err)
            raise

    def outcome(case):
        mu, w, eps, scored = tables[case]
        quality, cand, steps, left = bss._structure_trials(mu, w, eps, scored[0])
        return cand.u0.tolist(), cand.v0.tolist(), quality, steps, left
    decided = {case: outcome(case) for case in cases}
    monkeypatch.setattr(structure, "powers_every_draw", undecided)
    monkeypatch.setattr(bss, "run_structure_2d", recording)
    for case in cases:
        assert outcome(case) == decided[case]
    fired = [entry for entry in log if entry["decided"]]
    assert all(entry["error"] in (DegreeExhausted, RetryExhausted, IterLimit)
               for entry in fired)
    assert sum(entry["case"][:2] == (2, 2) for entry in fired) == 24
    assert len(fired) >= 100, len(fired)


# seeded degree-4 qualities, each the spectral quality of the table that
# decides: four eps-0.25 plants, two whose converged table misses the bar
# and two that hit at the solver's check 0 ((3, 6, 5) and (4, 12, 2)),
# then planted_yes(3, 5..8, 0..7) at eps 0.05
DEGREE_4_QUALITY = {
    (2, 2, 0, 0.25): 0.9264437896918637, (3, 6, 2, 0.25): 0.9259952657088197,
    (3, 6, 5, 0.25): 0.9734307466123184, (4, 12, 2, 0.25): 0.9773118690068417,
    (3, 5, 0, 0.05): 0.9798367894263882, (3, 5, 1, 0.05): 0.9937958552371888,
    (3, 5, 2, 0.05): 0.9978065646049689, (3, 5, 3, 0.05): 0.9982295572914621,
    (3, 5, 4, 0.05): 0.9951503273936209, (3, 5, 5, 0.05): 0.9770661092808289,
    (3, 5, 6, 0.05): 0.9929394377838578, (3, 5, 7, 0.05): 0.9916965099401346,
    (3, 6, 0, 0.05): 0.9824103048583344, (3, 6, 1, 0.05): 0.9923278207791352,
    (3, 6, 2, 0.05): 0.9259952657088197, (3, 6, 3, 0.05): 0.94508848877536,
    (3, 6, 4, 0.05): 0.9943127009297922, (3, 6, 5, 0.05): 0.9251678690557934,
    (3, 6, 6, 0.05): 0.9823426108781208, (3, 6, 7, 0.05): 0.9422514590941152,
    (3, 7, 0, 0.05): 0.9925252595854293, (3, 7, 1, 0.05): 0.9786277074301293,
    (3, 7, 2, 0.05): 0.995921553775727, (3, 7, 3, 0.05): 0.9885520699663344,
    (3, 7, 4, 0.05): 0.9699479551215852, (3, 7, 5, 0.05): 0.9899670495057682,
    (3, 7, 6, 0.05): 0.9977980835770395, (3, 7, 7, 0.05): 0.9987636647663297,
    (3, 8, 0, 0.05): 0.9967575000374268, (3, 8, 1, 0.05): 0.9973433715324631,
    (3, 8, 2, 0.05): 0.9996960446493393, (3, 8, 3, 0.05): 0.9999947461071208,
    (3, 8, 4, 0.05): 0.992292468442707, (3, 8, 5, 0.05): 0.9986540313636857,
    (3, 8, 6, 0.05): 0.9996249239480055, (3, 8, 7, 0.05): 0.9997203429839266,
}

# the qualities that the polish lifts the 25 spectral misses of
# DEGREE_4_QUALITY to
DEGREE_4_POLISHED = {
    (2, 2, 0, 0.25): 0.9945507922994098, (3, 6, 2, 0.25): 0.9989964570943365,
    (3, 5, 0, 0.05): 0.9985245554783709, (3, 5, 1, 0.05): 0.9987656812677538,
    (3, 5, 4, 0.05): 0.9979629236967351, (3, 5, 5, 0.05): 0.9995476444174891,
    (3, 5, 6, 0.05): 0.999140689416559, (3, 5, 7, 0.05): 0.9994684160271298,
    (3, 6, 0, 0.05): 0.9994223080329693, (3, 6, 1, 0.05): 0.9999999770081812,
    (3, 6, 2, 0.05): 0.9989964570943365, (3, 6, 3, 0.05): 0.9998878974453431,
    (3, 6, 4, 0.05): 0.9999999950857876, (3, 6, 5, 0.05): 0.998435651567758,
    (3, 6, 6, 0.05): 0.9980879874757166, (3, 6, 7, 0.05): 0.9999294207134162,
    (3, 7, 0, 0.05): 1.0000000000000002, (3, 7, 1, 0.05): 1.0,
    (3, 7, 2, 0.05): 1.0000000000000004, (3, 7, 3, 0.05): 1.0000000000000002,
    (3, 7, 4, 0.05): 1.0000000000000004, (3, 7, 5, 0.05): 0.9999999999999998,
    (3, 8, 0, 0.05): 1.0, (3, 8, 1, 0.05): 1.0000000000000002,
    (3, 8, 4, 0.05): 1.0000000000000004,
}


def test_degree_4_solve_runs_no_structure_trial(monkeypatch):
    """At top degree 4 `run_structure_2d` is never called: over the
    four eps-0.25 plants and planted_yes(3, 5..8, 0..7) at eps 0.05, each
    solve decides at rung 4 with no structure step and degree 4 left.  A
    spectral hit keeps its seeded quality; each of the 25 spectral
    misses is polished to the quality of DEGREE_4_POLISHED, at least
    its spectral one and at least the bar."""
    def trial(*args):
        raise AssertionError("structure trial at degree 4")
    monkeypatch.setattr(bss, "run_structure_2d", trial)
    for (n, dim_w, seed, eps), spectral in DEGREE_4_QUALITY.items():
        cand, rep = solve_bss(planted_yes(n, dim_w, seed)[0], eps, degree=4)
        case = (n, dim_w, seed, eps)
        assert (rep.rung, rep.structure_steps, rep.degree_left) == (4, 0, 4), case
        quality = DEGREE_4_POLISHED.get(case, spectral)
        assert quality >= spectral and (case in DEGREE_4_POLISHED) == (spectral < 1.0 - eps * eps)
        assert rep.quality == pytest.approx(quality, abs=1e-9), case
        assert rep.quality >= 1.0 - eps * eps, case
        assert cand.quality == rep.quality


def test_degree_4_structure_trials_all_fail():
    """The evidence for confining the structure rounds to degree 6 and
    up: on the converged degree-4 tables of four plants that miss the
    eps-0.25 bar there, each of the 24 (eps_t, seed) trials that the
    rounding would run raises RetryExhausted.  Each table is what the
    argument of `_structure_trials` rests on: E~ |u|^2 = E~ |v|^2 = 1,
    E~ u v^T = 0 and lambda_max(E~ x x^T) < 1.  The first two are the
    tables whose spectral misses `_polish` receives; (3, 6, 5) and
    (4, 12, 2) now round at the solver's check 0, so their tables are the
    ones the solver returns with no hook, which a declining hook leaves
    bit-identical."""
    tables = [(mu, w.ambient, eps) for mu, w, eps, _ in root_tables(
        [(n, dim_w, seed, 0.25, 4) for n, dim_w, seed in ((2, 2, 0), (3, 6, 2), (3, 6, 5))])]
    mu, report = bss.solve_feasibility(bss.build_bss_problem(planted_yes(4, 12, 2)[0], 4))
    assert report.status == "feasible"
    tables.append((mu, 4, 0.25))
    assert len(tables) == 4
    for mu, n, eps in tables:
        assert mu.degree == 4
        second = moment_block(mu, 1, 1)[1:, 1:]
        assert np.trace(second[:n, :n]) == pytest.approx(1.0, abs=1e-9)
        assert np.trace(second[n:, n:]) == pytest.approx(1.0, abs=1e-9)
        assert not second[:n, n:].any()
        assert np.linalg.eigvalsh(second)[-1] < 1.0
        start = bss._default_structure_eps(eps, n)
        for trial in range(bss._ROUND_TRIALS):
            eps_t = min(bss._MAX_STRUCTURE_EPS,
                        start * bss._EPS_GROWTH ** (trial // bss._SEEDS_PER_LEVEL))
            with pytest.raises(RetryExhausted):
                structure.run_structure_2d(mu, eps_t, trial)


# planted_yes(n, dim_w, seed) at degree 4, n = 2, 3, every dim_w < n^2,
# seeds 0-7 and eps 0.25 and 0.05, whose candidate misses 1 - eps^2 when
# the solver's first offer to the accept hook comes at check 1, with
# their qualities
PLANTED_MISSES = {
    (2, 2, 0, 0.25): 0.9264437896918637, (2, 2, 0, 0.05): 0.9264437896918637,
    (2, 2, 2, 0.05): 0.9717140796162087, (2, 2, 3, 0.05): 0.9851007970656404,
    (2, 2, 5, 0.05): 0.9949389624032342, (2, 3, 3, 0.05): 0.9831042540837218,
    (2, 3, 6, 0.05): 0.9860023821825138, (3, 6, 2, 0.25): 0.9259952657088197,
    (3, 6, 5, 0.25): 0.9251678690557934, (3, 5, 0, 0.05): 0.9798367894263882,
    (3, 5, 1, 0.05): 0.9937958552371888, (3, 5, 4, 0.05): 0.9951503273936209,
    (3, 5, 5, 0.05): 0.9770661092808289, (3, 5, 6, 0.05): 0.9929394377838578,
    (3, 5, 7, 0.05): 0.9916965099401346, (3, 6, 0, 0.05): 0.9824103048583344,
    (3, 6, 1, 0.05): 0.9923278207791352, (3, 6, 2, 0.05): 0.9259952657088197,
    (3, 6, 3, 0.05): 0.94508848877536, (3, 6, 4, 0.05): 0.9943127009297922,
    (3, 6, 5, 0.05): 0.9251678690557934, (3, 6, 6, 0.05): 0.9823426108781208,
    (3, 6, 7, 0.05): 0.9422514590941152, (3, 7, 0, 0.05): 0.9925252595854293,
    (3, 7, 1, 0.05): 0.9786277074301293, (3, 7, 2, 0.05): 0.995921553775727,
    (3, 7, 3, 0.05): 0.9885520699663344, (3, 7, 4, 0.05): 0.9699479551215852,
    (3, 7, 5, 0.05): 0.9899670495057682, (3, 7, 7, 0.05): 0.9950837246824703,
    (3, 8, 0, 0.05): 0.9967575000374268, (3, 8, 1, 0.05): 0.9973433715324631,
    (3, 8, 4, 0.05): 0.992292468442707, (3, 8, 5, 0.05): 0.99713297814904,
}


def test_offering_the_start_loses_no_hit():
    """Over the grid of PLANTED_MISSES, every degree-4 solve reaches
    1 - eps^2, and a listed miss reaches at least its listed quality:
    offering the hook y_p at check 0 loses no hit, and the polish of a
    top-rung miss only raises its quality."""
    for n in (2, 3):
        for dim_w in range(1, n * n):
            for seed in range(8):
                w = planted_yes(n, dim_w, seed)[0]
                for eps in (0.25, 0.05):
                    cand, rep = solve_bss(w, eps, degree=4)
                    case = (n, dim_w, seed, eps)
                    assert rep.status == "candidate", case
                    assert rep.quality >= 1.0 - eps * eps, case
                    assert rep.quality >= PLANTED_MISSES.get(case, 0.0), case


# --------------------------------------------------------------- polish


def random_subspaces():
    """40 seeded Gaussian subspaces per ambient n in 2..5, of every
    dimension 1 .. n^2 - 1 in turn."""
    for n in (2, 3, 4, 5):
        for seed in range(40):
            rng = np.random.default_rng(500 * n + seed)
            dim_w = 1 + seed % (n * n - 1)
            yield n, seed, rng, subspace_from_matrices(
                [rng.standard_normal((n, n)) for _ in range(dim_w)], ambient=n)


def random_start(rng, w):
    u, v = rng.standard_normal(w.ambient), rng.standard_normal(w.ambient)
    return RankOneCandidate(u, v, bss.projected_quality(w, np.outer(u, v)))


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_no_ascent_half_step_lowers_the_quality(monkeypatch):
    """Every factor the ascent computes replaces one factor of the pair,
    u then v, and no such half-step lowers the quality of u v^T; the
    ascent returns the last pair it kept, scored exactly, never below its
    start.  An unreachable target runs it to its gain or step stop."""
    top = bss._top_factor
    factors = []
    monkeypatch.setattr(bss, "_top_factor", lambda mapped: factors.append(top(mapped)) or factors[-1])
    rose = 0
    for n, seed, rng, w in random_subspaces():
        start = random_start(rng, w)
        factors.clear()
        quality, cand = bss._ascend(w, start, 2.0)
        pair = [start.u0, start.v0]
        last = start.quality
        for i, factor in enumerate(factors):
            pair[i % 2] = factor
            now = bss.projected_quality(w, np.outer(*pair))
            assert now >= last - 1e-13, (n, seed, i)
            last = now
        assert len(factors) % 2 == 0 and len(factors) <= 2 * bss._ASCENT_STEPS
        assert quality == cand.quality == bss.projected_quality(w, cand.matrix)
        assert quality >= start.quality and quality >= last - bss._ASCENT_GAIN, (n, seed)
        rose += quality > start.quality
    assert rose >= 150, rose


def test_a_rank_one_in_w_is_an_ascent_fixed_point():
    """Started at the plant u v^T of planted_yes(n, dim_w, seed), which lies
    in W exactly, each half-step returns the plant's own factor up to
    sign, and the ascent gains nothing and returns its start.  Up to
    dim_w = n^2 - n a generic W meets {x v^T} and {u y^T} only in the
    plant's line, so the top eigenvector of each half-step is unique."""
    for n in (2, 3, 4, 5):
        for seed in range(12):
            dim_w = 1 + seed % (n * n - n)
            w, u, v = planted_yes(n, dim_w, seed)
            basis = np.array(w.basis)
            for mine, mapped in ((u, basis @ v), (v, u @ basis)):
                factor = bss._top_factor(mapped)
                assert np.allclose(factor * np.sign(factor @ mine), mine, atol=1e-10)
            start = RankOneCandidate(u, v, bss.projected_quality(w, np.outer(u, v)))
            assert start.quality == pytest.approx(1.0, abs=1e-12)
            assert bss._ascend(w, start, 2.0) == (start.quality, start)


def test_the_ascent_is_equivariant_under_local_rotations():
    """The ascent on O1 B O2^T from (O1 u, O2 v) reaches the quality it
    reaches on B from (u, v), within 1e-12, for random orthogonal O1 and
    O2: each half-step's eigenproblem is the rotated one, and the
    quality is invariant."""
    for n, seed, rng, w in random_subspaces():
        start = random_start(rng, w)
        o1, o2 = random_orthogonal(rng, n), random_orthogonal(rng, n)
        turned = SubspaceBasis(n, tuple(o1 @ b @ o2.T for b in w.basis))
        u, v = o1 @ start.u0, o2 @ start.v0
        moved = RankOneCandidate(u, v, bss.projected_quality(turned, np.outer(u, v)))
        for target in (1.0 - 0.05 ** 2, 2.0):
            quality = bss._ascend(w, start, target)[0]
            assert bss._ascend(turned, moved, target)[0] == pytest.approx(
                quality, abs=1e-12), (n, seed, target)


def test_solve_far_instance_refuses():
    # the antisymmetric line contains no rank-one point at all
    j = unit(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    w = SubspaceBasis(2, (j,))
    assert certify_farness(w) > 0.5
    cand, rep = solve_bss(w, eps=0.25, degree=6)
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
    1 - eps^2.  The polish is stubbed to return the best spectral
    candidate unpolished, so that a rung-4 miss still climbs to rung 6,
    and the top rung's structure trials are stubbed out."""
    rungs = record_rungs(monkeypatch)
    monkeypatch.setattr(bss, "_polish", lambda w, scored, target: scored[0])
    monkeypatch.setattr(bss, "_structure_trials",
                        lambda mu, w, eps, baseline: (0.0, None, 0, mu.degree))
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


def test_a_lower_rung_polish_miss_climbs(monkeypatch):
    """A rung-4 table whose polish misses the bar climbs.  With the polish
    forced to return the rung-4 best spectral candidate unpolished,
    planted_yes(2, 2, 0) at eps 0.05 climbs from its converged rung-4
    table to rung 6, whose own polish decides with the quality of
    DEGREE_6_POLISHED.  With rung 6's problem swapped for the degree-6
    problem of the antisymmetric line, which holds no rank-one, the solve
    is refused at rung 6: the report names rung 6 and carries that
    rung's certificate, whose margin `certificate_margin` reproduces on
    its problem."""
    rungs = record_rungs(monkeypatch)
    polish = bss._polish

    def rung_4_misses(w, scored, target):
        if rungs[-1][0].index.max_degree == 4:
            return scored[0]
        return polish(w, scored, target)
    monkeypatch.setattr(bss, "_polish", rung_4_misses)
    w = planted_yes(2, 2, 0)[0]
    cand, rep = solve_bss(w, 0.05, degree=6)
    assert [(p.index.max_degree, r.status) for p, r in rungs] == [
        (4, "feasible"), (6, "feasible")]
    assert (rep.rung, rep.structure_steps, rep.degree_left) == (6, 0, 6)
    assert rep.quality == pytest.approx(DEGREE_6_POLISHED[2, 2, 0][1], abs=1e-9)
    assert cand.quality == rep.quality >= 1.0 - 0.05 ** 2

    line = SubspaceBasis(2, (unit(np.array([[0.0, 1.0], [-1.0, 0.0]])),))
    build = bss.build_bss_problem
    monkeypatch.setattr(bss, "build_bss_problem",
                        lambda space, degree: build(space if degree == 4 else line, degree))
    rungs.clear()
    cand, rep = solve_bss(w, 0.05, degree=6)
    assert cand is None and (rep.status, rep.rung) == ("infeasible", 6)
    assert [(p.index.max_degree, r.status) for p, r in rungs] == [
        (4, "feasible"), (6, "infeasible")]
    problem, solver = rungs[-1]
    cert = rep.certificate
    assert solver.certificate is cert
    assert certificate_margin(problem, cert.multipliers, cert.factors) == cert.margin > 0


def cap_the_solver(monkeypatch, limit):
    """Every rung's solver stops at `limit` DR iterations, through the name
    that `solve_bss` looks up on its module at call time."""
    monkeypatch.setattr(bss, "solve_feasibility",
                        functools.partial(bss.solve_feasibility, iter_limit=limit))


def no_trials(*args):
    raise AssertionError("a solve reached the structure trials")


def test_a_stalled_rung_polishes_its_last_iterate(monkeypatch):
    """A rung whose solver reaches its iteration limit polishes the
    spectral candidates of the last iterate the solver offered the hook,
    as a converged rung polishes its table's.  With every rung's solver
    capped at 40 DR iterations, planted_yes(3, 5, s) for s in {0, 4, 5}
    at eps 0.05 stalls at rung 4 with no offer accepted.  At degree 6
    each solve still decides there, with status `iter_limit`, 4 degrees
    left and a candidate that verifies at 1 - eps^2; it builds no rung 6
    and runs no structure trial."""
    cap_the_solver(monkeypatch, 40)
    rungs = record_rungs(monkeypatch)
    monkeypatch.setattr(bss, "_structure_trials", no_trials)
    rounding, polish = bss._spectral_rounding, bss._polish
    offered = []

    def rounding_recorded(dist, w):
        offered.append(rounding(dist, w))
        return offered[-1]

    def polish_checked(w, scored, target):
        assert scored is offered[-1]
        return polish(w, scored, target)
    monkeypatch.setattr(bss, "_spectral_rounding", rounding_recorded)
    monkeypatch.setattr(bss, "_polish", polish_checked)
    for seed in (0, 4, 5):
        rungs.clear()
        w = planted_yes(3, 5, seed)[0]
        cand, rep = solve_bss(w, 0.05, degree=6)
        assert [(p.index.max_degree, r.status, r.iterations) for p, r in rungs] == [
            (4, "iter_limit", 40)], seed
        assert (rep.rung, rep.solver_status, rep.solver_iterations, rep.structure_steps,
                rep.degree_left) == (4, "iter_limit", 40, 0, 4), seed
        record = verify_candidate(cand, w)
        assert record.ok() and record.quality == rep.quality == cand.quality, seed
        assert rep.quality >= 1.0 - 0.05 ** 2, seed


def test_a_stalled_polish_miss_raises_only_on_the_top_rung(monkeypatch):
    """A stalled rung whose polish misses climbs, and only a stalled top
    rung raises NoConvergence.  With every rung's solver capped at 40 DR
    iterations and `_polish` stubbed to find nothing, planted_yes(3, 5, 0)
    at eps 0.05 raises at degree 4; at degree 6 its stalled rung 4 climbs
    to rung 6, which stalls too and raises.  No structure trial runs."""
    cap_the_solver(monkeypatch, 40)
    rungs = record_rungs(monkeypatch)
    monkeypatch.setattr(bss, "_structure_trials", no_trials)
    monkeypatch.setattr(bss, "_polish", lambda w, scored, target: None)
    w = planted_yes(3, 5, 0)[0]
    for degree in (4, 6):
        rungs.clear()
        with pytest.raises(NoConvergence):
            solve_bss(w, 0.05, degree=degree)
        assert [(p.index.max_degree, r.status) for p, r in rungs] == [
            (rung, "iter_limit") for rung in range(4, degree + 1, 2)]


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
    monkeypatch.setattr(bss, "_structure_trials",
                        lambda mu, w, eps, baseline: (0.0, None, 0, mu.degree))
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


def test_rounded_rung_reuses_the_hooks_rounding(monkeypatch):
    """A rung with status `rounded` takes its candidate from the solver
    hook's last spectral rounding and does not round the table again; a
    `feasible` rung still rounds it.  Each solve's candidate and report
    are those of rounding the returned table afresh, bit for bit: its
    best spectral candidate, or for the spectral misses of (2, 2, 0) and
    (3, 6, 2) that of `_polish` on its scored candidates, which decides
    at rung 4 even when the top rung is 6."""
    original = bss._spectral_rounding
    calls, rungs = [], []

    def counted(dist, w):
        calls.append(dist)
        return original(dist, w)
    solve = bss.solve_feasibility

    def solving(problem, accept, **kwargs):
        hooks = []
        mu, rep = solve(problem, accept=lambda dist: hooks.append(dist) or accept(dist),
                        **kwargs)
        rungs.append((mu, rep, len(hooks)))
        return mu, rep
    monkeypatch.setattr(bss, "_spectral_rounding", counted)
    monkeypatch.setattr(bss, "solve_feasibility", solving)
    statuses = collections.Counter()
    for n, dim_w, seed, degree in ((2, 1, 0, 4), (2, 2, 0, 6), (2, 3, 0, 4), (3, 2, 1, 4),
                                   (3, 6, 2, 6), (3, 7, 0, 6), (2, 2, 0, 4)):
        w = planted_yes(n, dim_w, seed)[0]
        calls.clear()
        rungs.clear()
        cand, rep = solve_bss(w, 0.25, degree=degree)
        assert len(calls) == sum(hooks + (r.status == "feasible") for _, r, hooks in rungs)
        mu, solver, _ = rungs[-1]
        assert rep.status == "candidate" and rep.solver_status == solver.status
        scored = original(mu, w)
        quality, fresh = scored[0]
        if quality < 1.0 - 0.25 ** 2:
            quality, fresh = bss._polish(w, scored, 1.0 - 0.25 ** 2)
        assert cand.u0.tobytes() == fresh.u0.tobytes()
        assert cand.v0.tobytes() == fresh.v0.tobytes()
        assert cand.quality == rep.quality == quality
        assert rep == bss.BssReport("candidate", 0.25, degree, mu.degree, solver.status,
                                    solver.iterations, 0, quality=quality,
                                    degree_left=mu.degree)
        statuses[solver.status] += 1
    assert statuses == {"rounded": 4, "feasible": 3}


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


def reference_farness_at(w, pts):
    """`_farness_at` with lambda_max always taken from the n x n Gram
    M^T M of the rows u^T B, at every dim_w."""
    mapped = np.einsum("ui,kij->ukj", pts, np.array(w.basis))
    gram = np.einsum("uki,ukj->uij", mapped, mapped)
    return np.sqrt(np.maximum(1.0 - np.linalg.eigvalsh(gram)[:, -1], 0.0))


def test_the_smaller_gram_draws_the_same_instances(monkeypatch):
    """Below dim_w = n, `_farness_at` reads lambda_max off the smaller
    Gram M M^T.  On every oracle subspace it agrees with the n x n Gram
    within 1e-12 at every point of the certificate's grid.  Over n in
    {2, 3}, every dim_w and seeds 0-11, which hold every `random_no`
    draw of the benchmark and the tests, `random_no` draws the same basis
    bit for bit, or raises the same message, as with the n x n Gram, and
    its farness agrees within 1e-12."""
    for n, seed, w in oracle_subspaces():
        pts = bss._certificate_grid(n)[0]
        assert np.allclose(bss._farness_at(w, pts), reference_farness_at(w, pts),
                           rtol=0.0, atol=1e-12), (n, seed)
    cases = [(n, dim_w, seed) for n in (2, 3) for dim_w in range(1, n * n + 1)
             for seed in range(12)]
    smaller = [random_no_outcome(*case) for case in cases]
    monkeypatch.setattr(bss, "_farness_at", reference_farness_at)
    accepted = 0
    for case, mine, reference in zip(cases, smaller, map(random_no_outcome, *zip(*cases))):
        if isinstance(reference, str):
            assert mine == reference, case
            continue
        assert np.array_equal(mine[0], reference[0]), case
        assert mine[1] == pytest.approx(reference[1], abs=1e-12), case
        accepted += 1
    assert accepted > 0


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
    res = lift_real_solution(RankOneCandidate(u0, v0, 1.0), wc, reduce_complex_to_real(wc))
    target = np.outer(x, np.conj(y))
    assert np.linalg.norm(res.x - target) < 1e-10
    assert res.residual < 1e-10
    assert res.quality_real == pytest.approx(1.0, abs=1e-10)


def test_solve_complex_round_trip():
    # phase symmetry zeroes every odd moment of the reduced problem, so
    # this also exercises the spectral rounding baseline; the lift's
    # relative residual is sqrt(2 (1 - q)) at real quality q, so a lift
    # within 0.3 needs the real search at 0.3 / sqrt(2), as `solve` runs it
    wc, x, y = complex_planted(2, 2, seed=1)
    w = reduce_complex_to_real(wc)
    cand, report = solve_bss(w, 0.3 / np.sqrt(2.0), degree=6)
    assert report.status == "candidate"
    res = lift_real_solution(cand, wc, w)
    scale = np.linalg.norm(np.outer(res.u, np.conj(res.v)))
    assert res.residual <= 0.3 * scale
    assert np.linalg.norm(wc.project(res.x) - res.x) < 1e-8


def test_lift_residual_is_fixed_by_the_real_quality():
    """The lift's relative residual ||x - U V*|| / (|U| |V|) is
    sqrt(2 (1 - q)) at real quality q, for any real candidate: over 200
    random candidates on each complex_planted(2, 1..3, 0..5).  So the
    residual is within eps exactly when q >= 1 - eps^2 / 2."""
    rng = np.random.default_rng(11)
    for dim_w in (1, 2, 3):
        for seed in range(6):
            wc = complex_planted(2, dim_w, seed)[0]
            lifted = reduce_complex_to_real(wc)
            for _ in range(200):
                u0, v0 = rng.standard_normal(4), rng.standard_normal(4)
                res = lift_real_solution(RankOneCandidate(u0, v0, 0.0), wc, lifted)
                scale = np.linalg.norm(res.u) * np.linalg.norm(res.v)
                assert res.residual / scale == pytest.approx(
                    np.sqrt(2.0 * (1.0 - res.quality_real)), rel=1e-9, abs=1e-12)


def test_lift_bound_chain():
    # residual <= certified bound <= sum of the four block residuals
    wc, x, y = complex_planted(2, 2, seed=3)
    rng = np.random.default_rng(7)
    u0 = np.concatenate([x.real, x.imag]) + 0.1 * rng.standard_normal(4)
    v0 = np.concatenate([y.real, y.imag]) + 0.1 * rng.standard_normal(4)
    res = lift_real_solution(RankOneCandidate(u0, v0, 0.9), wc, reduce_complex_to_real(wc))
    assert res.residual <= res.bound + 1e-10
    assert res.bound <= sum(res.block_residuals) + 1e-10


def test_lift_keeps_real_data_real():
    c = unit(np.diag([1.0, -1.0]))
    wc = ComplexSubspace(2, ((c, np.zeros((2, 2))),))
    u0 = np.array([1.0, 0.0, 0.0, 0.0])
    v0 = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    res = lift_real_solution(RankOneCandidate(u0, v0, 1.0), wc, reduce_complex_to_real(wc))
    assert np.linalg.norm(res.x.imag) == 0.0


def test_lift_rejects_mismatched_blocks():
    wc, _, _ = complex_planted(2, 1, seed=0)
    lifted = reduce_complex_to_real(wc)
    with pytest.raises(DimensionMismatch):
        lift_real_solution(RankOneCandidate(np.ones(3), np.ones(3), 1.0), wc, lifted)
    with pytest.raises(ZeroCandidate):
        lift_real_solution(RankOneCandidate(np.zeros(4), np.ones(4), 0.0), wc, lifted)


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
