"""Tests for scalar and subspace fixing.

Every distribution is the moment table of finitely many atoms
(`moment_tables.atom_table`), and every fix pays for its reweightings
from the table's degree.  Oracles: two-point and three-point
distributions computed by hand, the report's factors replayed on the
atoms, and Monte Carlo integration for the rest.
"""

import itertools
import math

import numpy as np
import pytest

from moment_tables import atom_table
from rankone import reweighting
from rankone.errors import (
    DegreeExhausted,
    PreconditionViolated,
    RetryExhausted,
)
from rankone.pseudodist import moment_block, validate
from rankone.reweighting import fix_scalar, fix_subspace, stage_power


def two_point(a, b, wa=0.5, degree=8):
    pts = np.array([[float(a)], [float(b)]])
    return atom_table(pts, np.array([wa, 1.0 - wa]), degree)


def clusters(rng, n, count, degree, spread=0.15):
    """Atoms scattered around `count` random centres of norm 0.5 to 1 in
    R^n: (points, weights, moment table)."""
    centres = rng.standard_normal((count, n))
    centres *= rng.uniform(0.5, 1.0, (count, 1)) / np.linalg.norm(centres, axis=1, keepdims=True)
    n_pts = int(rng.integers(20, 80))
    pts = centres[rng.integers(0, count, n_pts)] \
        + spread / math.sqrt(n) * rng.standard_normal((n_pts, n))
    w = rng.dirichlet(np.ones(n_pts))
    return pts, w, atom_table(pts, w, degree)


def replay_on_atoms(pts, w, factors):
    """The atom weights w_i prod base(x_i)^power of a report's factors,
    normalized."""
    for base, power in factors:
        exps = base.index.exponents[:base.coefficients.size]
        w = w * (np.prod(pts[:, None, :] ** exps, axis=2) @ base.coefficients) ** power
    return w / w.sum()


def mean_and_mass(mu):
    n = mu.num_vars
    mean = np.array([mu.moments[mu.index.index_of(
        tuple(int(i == j) for j in range(n)))] for i in range(n)])
    mass = sum(mu.moments[mu.index.index_of(
        tuple(2 * (i == j) for j in range(n)))] for i in range(n))
    return mean, mass


# -- scalar fixing -----------------------------------------------------------


def test_fix_scalar_two_point_picks_larger_value():
    mu = two_point(1.0, 3.0)
    out, rep = fix_scalar(mu, [1.0], eps=0.1)
    assert rep.m == pytest.approx(3.0, abs=0.05)
    assert rep.achieved_ratio <= 3 * 0.1 ** 2
    assert abs(rep.m) >= 1.0


def test_fix_scalar_symmetric_pair_picks_a_sign():
    mu = two_point(-2.0, 2.0)
    out, rep = fix_scalar(mu, [1.0], eps=0.1)
    assert abs(rep.m) == pytest.approx(2.0, abs=0.05)
    # all mass ends on the chosen atom
    mean = out.moments[out.index.index_of((1,))]
    assert mean == pytest.approx(rep.m, abs=1e-6)


def test_fix_scalar_point_mass_spends_only_the_split():
    mu = atom_table(np.array([[2.5]]), np.array([1.0]), 8)
    out, rep = fix_scalar(mu, [1.0], eps=0.2)
    assert rep.m == pytest.approx(2.5)
    assert rep.degree_spent == 2  # no stages, one sign split of degree 2
    assert rep.achieved_ratio <= 1e-12


def test_fix_scalar_contract_on_random_corpus():
    """Every table of the corpus, rescaled to E s^2 just above 1, is fixed
    within degree 32, to the contract and to a valid table."""
    rng = np.random.default_rng(11)
    for trial in range(30):
        atoms = int(rng.integers(3, 40))
        bound = float(rng.uniform(2, 16))
        pts = rng.uniform(-bound, bound, (atoms, 1))
        w = rng.dirichlet(np.ones(atoms))
        pts /= math.sqrt(float(w @ (pts[:, 0] ** 2))) * 0.999
        eps = float(rng.uniform(0.1, 0.3))
        mu = atom_table(pts, w, degree=32)
        out, rep = fix_scalar(mu, [1.0], eps=eps)
        assert validate(out).ok()
        assert abs(rep.m) >= 1.0
        assert rep.achieved_ratio <= 3 * eps ** 2 + 1e-12
        # contract restated from output moments
        dev = sum(math.comb(2, j) * (-rep.m) ** (2 - j)
                  * out.moments[out.index.index_of((j,))]
                  for j in range(3))
        assert dev <= 3 * eps ** 2 * rep.m ** 2 + 1e-9


def test_fix_scalar_direction_is_a_general_linear_form():
    pts = np.array([[1.0, 2.0], [0.5, -1.0], [0.2, 1.5]])
    w = np.array([0.5, 0.3, 0.2])
    mu = atom_table(pts, w, degree=12)
    direction = np.array([1.0, 0.7])
    out, rep = fix_scalar(mu, direction, eps=0.1)
    s_vals = pts @ direction
    assert abs(rep.m) == pytest.approx(np.abs(s_vals).max(), abs=0.05)


def test_fix_scalar_stage_trace_is_nondecreasing():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-6, 6, (30, 1))
    mu = atom_table(pts, rng.dirichlet(np.ones(30)), 32)
    out, rep = fix_scalar(mu, [1.0], eps=0.15)
    trace = np.array(rep.stage_trace)
    assert np.all(np.diff(trace) >= -1e-9 * trace[:-1])


def test_fix_scalar_budget_exhaustion():
    """The table's degree is the budget: degree 6 pays one stage s^2 and
    then has no degree left to concentrate {1, 3}."""
    mu = two_point(1.0, 3.0, degree=6)
    with pytest.raises(DegreeExhausted, match="within degree 6"):
        fix_scalar(mu, [1.0], eps=0.1)


def test_fix_scalar_within_generous_budget_reports_spend():
    budget = math.ceil(2 * 2 * math.log(16) / 0.2 ** 2)
    mu = two_point(1.0, 3.0, degree=budget)
    out, rep = fix_scalar(mu, [1.0], eps=0.2)
    assert rep.degree_spent <= budget
    assert out.degree == budget - rep.degree_spent


def test_fix_scalar_requires_unit_second_moment():
    mu = two_point(0.1, 0.2)
    with pytest.raises(PreconditionViolated):
        fix_scalar(mu, [1.0], eps=0.1)


def test_fix_scalar_rejects_bad_parameters():
    mu = two_point(1.0, 3.0)
    with pytest.raises(PreconditionViolated):
        fix_scalar(mu, [1.0], eps=1.5)
    with pytest.raises(PreconditionViolated):
        fix_scalar(mu, [0.0], eps=0.1)


def test_fix_scalar_moment_path_matches_support_path():
    """The fixed table is the atoms reweighted by the report's factors,
    at the degree the report says it spent, and the contract holds on
    the reweighted atoms."""
    rng = np.random.default_rng(9)
    pts = 2.0 + 0.3 * rng.standard_normal((12, 1))
    w = rng.dirichlet(np.ones(12))
    mu = atom_table(pts, w, degree=12)
    out, rep = fix_scalar(mu, [1.0], eps=0.2)
    assert out.degree == mu.degree - rep.degree_spent
    w2 = replay_on_atoms(pts, w, rep.factors)
    np.testing.assert_allclose(out.moments, atom_table(pts, w2, out.degree).moments, atol=1e-8)
    assert float(w2 @ (pts[:, 0] - rep.m) ** 2) <= 3 * 0.2 ** 2 * rep.m ** 2


def test_fix_scalar_moment_path_needs_degree_headroom():
    mu = two_point(1.0, 3.0, degree=2)
    with pytest.raises(DegreeExhausted):
        fix_scalar(mu, [1.0], eps=0.1)  # needs degree >= 4 to certify


def test_fix_scalar_output_validates():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-4, 4, (15, 1))
    mu = atom_table(pts, rng.dirichlet(np.ones(15)), 32)
    out, _ = fix_scalar(mu, [1.0], eps=0.2)
    assert validate(out).ok()


def test_stage_power_grows_with_precision():
    assert stage_power(0.05) > stage_power(0.1) > stage_power(0.2)


# -- subspace fixing ---------------------------------------------------------


def test_fix_subspace_point_mass_trivial():
    x0 = np.array([0.6, 0.8])
    mu = atom_table(x0[None, :], np.array([1.0]), 6)
    out, rep = fix_subspace(mu, np.eye(2), delta=0.1, seed=0)
    assert rep.achieved == pytest.approx(1.0, abs=1e-9)
    mean, _ = mean_and_mass(out)
    assert mean @ mean == pytest.approx(1.0, abs=1e-9)


def test_fix_subspace_sign_pair():
    # uniform on {e1, -e1}: reweighting by <v,x>^{2k} preserves the
    # symmetry, the scalar sign split breaks it
    mu = atom_table(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([.5, .5]), 6)
    out, rep = fix_subspace(mu, np.eye(2), delta=0.1, seed=1)
    mean, _ = mean_and_mass(out)
    assert mean @ mean >= 0.9
    assert abs(abs(rep.chosen_direction[0]) - 1.0) <= 0.5  # v mostly along e1


def test_fix_subspace_orthonormal_pair():
    mu = atom_table(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([.5, .5]), 6)
    out, rep = fix_subspace(mu, np.eye(3), delta=0.3, seed=2)
    assert rep.achieved >= 0.7
    mean, mass = mean_and_mass(out)
    # concentrates near one of the two basis vectors
    assert max(abs(mean[0]), abs(mean[1])) >= 0.8


def test_fix_subspace_unit_direction_and_report_fields():
    _, _, mu = clusters(np.random.default_rng(14), 4, 3, 6)
    out, rep = fix_subspace(mu, np.eye(4), delta=0.3, seed=3)
    assert np.linalg.norm(rep.chosen_direction) == pytest.approx(1.0, abs=1e-12)
    assert 1 <= rep.samples_tried <= 2000
    assert rep.degree_spent >= 2
    assert rep.achieved >= 0.7


def test_fix_subspace_proper_subspace_collects_projected_mass():
    """Mass partly outside S = span(e1, e2): the guarantee is against the
    projected mass.  Inside S the atoms lie on a circle of radius 0.9,
    near both ends of one axis.  Spread uniformly over the circle they are
    out of reach, since every direction then has E~ s^4 / E~ s^2 near
    3/4 of the subspace mass, below the capture bar of power 2."""
    rng = np.random.default_rng(8)
    outside = rng.uniform(-0.2, 0.2, (150, 1))
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    uniform = rng.uniform(0.0, 2.0 * np.pi, 150)
    axis = 0.7 + 0.1 * rng.standard_normal(150) + np.pi * rng.integers(0, 2, 150)
    tables = [atom_table(np.concatenate([0.9 * np.stack([np.cos(t), np.sin(t)], axis=1),
                                         outside], axis=1), np.full(150, 1 / 150), 12)
              for t in (uniform, axis)]
    with pytest.raises(RetryExhausted):
        fix_subspace(tables[0], basis, delta=0.3, seed=4)
    out, rep = fix_subspace(tables[1], basis, delta=0.3, seed=4)
    mean, _ = mean_and_mass(out)
    proj_mass = sum(out.moments[out.index.index_of(e)]
                    for e in [(2, 0, 0), (0, 2, 0)])
    assert float(mean[:2] @ mean[:2]) >= (1 - 0.3) * proj_mass - 1e-9


def test_fix_subspace_accepts_basis_object():
    # any array-like of spanning rows is a basis, here nested lists
    mu = atom_table(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([.5, .5]), 6)
    out, rep = fix_subspace(mu, [[1.0, 0.0], [0.0, 1.0]], delta=0.1, seed=1)
    mean, _ = mean_and_mass(out)
    assert mean @ mean >= 0.9


def test_fix_subspace_deterministic_given_seed():
    _, _, mu = clusters(np.random.default_rng(17), 3, 3, 6)
    out1, rep1 = fix_subspace(mu, np.eye(3), delta=0.3, seed=42)
    out2, rep2 = fix_subspace(mu, np.eye(3), delta=0.3, seed=42)
    np.testing.assert_array_equal(out1.moments, out2.moments)
    assert rep1.samples_tried == rep2.samples_tried
    np.testing.assert_array_equal(rep1.chosen_direction, rep2.chosen_direction)


def test_fix_subspace_retry_exhaustion():
    # power 2 is too small for an isotropic shell in high dimension: the
    # capture condition cannot hold, and one uniform draw is all we allow
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((300, 8))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    mu = atom_table(pts, np.full(300, 1 / 300), 4)
    with pytest.raises(RetryExhausted):
        fix_subspace(mu, np.eye(8), delta=0.3, retry_budget=1, seed=0)


def test_fix_subspace_rejects_tiny_mass():
    pts = 1e-3 * np.eye(3)
    mu = atom_table(pts, np.full(3, 1 / 3), 4)
    with pytest.raises(PreconditionViolated):
        fix_subspace(mu, np.eye(3), delta=0.3, seed=0)


def test_fix_subspace_mass_precondition_boundary():
    """The subspace mass E~ |proj_S x|^2 must reach dim(S)^-DEFAULT_C:
    a point mass with 1e-6 less raises PreconditionViolated, one with
    1e-6 more is fixed, whatever the mass outside S."""
    for dim in (1, 2, 3, 5):
        floor = dim ** -float(reweighting.DEFAULT_C)
        basis = np.eye(dim + 1)[:dim]
        for scale in (1.0 - 1e-6, 1.0 + 1e-6):
            x0 = np.concatenate([np.full(dim, math.sqrt(scale * floor / dim)), [0.5]])
            mu = atom_table(x0[None, :], [1.0], 4)
            if scale < 1.0:
                with pytest.raises(PreconditionViolated, match="subspace mass"):
                    fix_subspace(mu, basis, delta=0.3, seed=0)
            else:
                out, rep = fix_subspace(mu, basis, delta=0.3, seed=0)
                assert rep.achieved >= 0.7


def test_fix_subspace_ball_corpus():
    """Moment tables of one to three clusters of atoms in and around the
    unit ball, in 3 to 8 variables at degree 6: the fix succeeds on at
    least 10 of the 12 (11 when this was written), and every success
    meets the mean-mass bound.  Uniform atoms on the ball are out of reach
    at these degrees: 0 to 1 of 12 succeed at degree 4 to 8."""
    rng = np.random.default_rng(99)
    successes = 0
    for trial in range(12):
        d = int(rng.integers(3, 9))
        _, _, mu = clusters(rng, d, int(rng.integers(1, 4)), 6)
        try:
            out, rep = fix_subspace(mu, np.eye(d), delta=0.3, seed=trial)
        except RetryExhausted:
            continue
        successes += 1
        mean, mass = mean_and_mass(out)
        assert float(mean @ mean) >= (1 - 0.3) * mass - 1e-12
        assert rep.samples_tried <= 2000
    assert successes >= 10


def test_fix_subspace_moment_path_spends_declared_degree():
    pts = np.array([[0.9, 0.1, 0.0], [0.85, -0.05, 0.2]])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    mu = atom_table(pts, np.array([.6, .4]), 12)
    out, rep = fix_subspace(mu, np.eye(3), delta=0.3, seed=0)
    assert out.degree == mu.degree - rep.degree_spent
    assert rep.achieved >= 0.7
    assert validate(out).ok()


def test_fix_subspace_moment_path_sign_symmetric():
    mu = atom_table(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([.5, .5]), 12)
    out, rep = fix_subspace(mu, np.eye(2), delta=0.3, seed=3)
    mean = np.array([out.moments[out.index.index_of(e)] for e in [(1, 0), (0, 1)]])
    assert float(mean @ mean) >= 0.7


# -- factor replay -----------------------------------------------------------


def replay_factors(mu, factors):
    from rankone.pseudodist import reweight
    cur = mu
    for base, power in factors:
        for _ in range(power):
            cur = reweight(cur, base)
    return cur


def test_scalar_factors_reproduce_output():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-4, 4, (12, 1))
    w = rng.dirichlet(np.ones(12))
    mu = atom_table(pts, w, 32)
    out, rep = fix_scalar(mu, [1.0], eps=0.2)
    again = replay_factors(mu, rep.factors)
    np.testing.assert_allclose(again.moments, out.moments, atol=1e-10)
    atoms = atom_table(pts, replay_on_atoms(pts, w, rep.factors), out.degree)
    np.testing.assert_allclose(atoms.moments, out.moments, atol=1e-10)


def test_subspace_factors_reproduce_output_both_paths():
    pts, w, mu = clusters(np.random.default_rng(6), 3, 3, 6)
    out, rep = fix_subspace(mu, np.eye(3), delta=0.3, seed=5)
    again = replay_factors(mu, rep.factors)
    np.testing.assert_allclose(again.moments, out.moments, atol=1e-9)
    atoms = atom_table(pts, replay_on_atoms(pts, w, rep.factors), out.degree)
    np.testing.assert_allclose(atoms.moments, out.moments, atol=1e-9)

    pts2 = np.array([[0.9, 0.1, 0.0], [0.85, -0.05, 0.2]])
    pts2 /= np.linalg.norm(pts2, axis=1)[:, None]
    mu2 = atom_table(pts2, np.array([.6, .4]), 12)
    out2, rep2 = fix_subspace(mu2, np.eye(3), delta=0.3, seed=0)
    again2 = replay_factors(mu2, rep2.factors)
    np.testing.assert_allclose(again2.moments, out2.moments, atol=1e-10)
    assert again2.degree == out2.degree


# -- fixes on degree-6 tables ------------------------------------------------


def degree_six_fixes():
    """(table, basis, delta, retry_budget) for fixes on top eigenvectors
    of E~ x x^T of degree-6 tables, as the structure rounds pick them:
    atom tables, spread, on the unit sphere or clustered, half of them
    sign symmetric (x and -x with equal weight), the corners of a box,
    and the SDP tables of the planted (2, 2, s) instances that the
    structure rounds run on."""
    from rankone.bss import planted_yes
    from rankone.sos_solver import build_bss_problem, solve_feasibility
    rng = np.random.default_rng(404)
    tables = []
    for shape in ("spread", "sphere", "cluster"):
        for symmetric in (False, True):
            n = int(rng.integers(2, 5))
            pts = rng.standard_normal((int(rng.integers(3, 10)) * (1 + 3 * (shape == "sphere")), n))
            if shape == "spread":
                pts *= rng.uniform(0.4, 1.4, n)
            elif shape == "sphere":
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            else:
                pts = rng.standard_normal(n) + 0.15 * pts
            w = rng.dirichlet(np.ones(len(pts)))
            if symmetric:
                pts, w = np.concatenate([pts, -pts]), np.concatenate([w, w]) / 2
            pts /= math.sqrt(w @ (pts ** 2).sum(axis=1))  # E~ |x|^2 = 1
            tables.append(atom_table(pts, w, 6))
    # the corners of a box: most draws align with no corner
    n = int(rng.integers(2, 5))
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    pts = corners * rng.uniform(0.3, 1.0, n)
    w = np.full(len(pts), 1.0 / len(pts))
    tables.append(atom_table(pts, w, 6))
    for seed in (0, 2, 3):
        mu, rep = solve_feasibility(build_bss_problem(planted_yes(2, 2, seed)[0], 6))
        assert rep.status == "feasible"
        tables.append(mu)
    cases = []
    for mu in tables:
        n = mu.num_vars
        # the top eigenvectors of E~ x x^T, as the structure rounds pick
        top = np.linalg.eigh(moment_block(mu, 1, 1)[1:, 1:])[1][:, ::-1].T
        for delta, dim in ((0.05, n), (0.125, 2), (0.3, min(3, n))):
            cases.append((mu, top[:dim], delta, 90))
    return cases


def test_powers_every_draw_fixes_leave_degree_2():
    """Where powers_every_draw says yes for a fix on top eigenvectors of
    E~ x x^T of a degree-6 table, the fix raises RetryExhausted or
    returns a degree-2 table after spending 4 degrees, over
    `degree_six_fixes` and clustered tables.  It says no on clustered
    tables whose fixes leave degree 4, and on a spectrum below the mass
    floor."""
    rng = np.random.default_rng(405)
    cases = degree_six_fixes()
    for _ in range(8):
        n = int(rng.integers(2, 5))
        mu = clusters(rng, n, int(rng.integers(1, 3)), 6)[2]
        top = np.linalg.eigh(moment_block(mu, 1, 1)[1:, 1:])[1][:, ::-1].T
        cases.extend((mu, top[:dim], delta, 90) for delta, dim in ((0.05, n), (0.3, 2)))
    answers = []
    for mu, basis, delta, budget in cases:
        values = np.linalg.eigvalsh(moment_block(mu, 1, 1)[1:, 1:])[-len(basis):]
        answers.append(reweighting.powers_every_draw(values, delta))
        outcomes = set()
        for seed in range(2):
            try:
                out, rep = fix_subspace(mu, basis, delta, retry_budget=budget, seed=seed)
                outcomes.add((out.degree, rep.degree_spent))
            except RetryExhausted:
                outcomes.add(None)
        if answers[-1]:
            assert outcomes <= {None, (2, 4)}, outcomes
        else:
            assert outcomes == {(4, 2)}, outcomes
    assert sum(answers) >= 20 and answers.count(False) >= 5, answers
    # the spectrum passes the capture half; its mass 0.2 is below 2^-2
    assert not reweighting.powers_every_draw([0.1, 0.1], 0.1)


def test_fix_subspace_rejects_bad_counts():
    """retry_budget must be an integer >= 1."""
    pts = np.array([[0.9, 0.1, 0.0], [0.85, -0.05, 0.2]])
    mu = atom_table(pts, np.array([.6, .4]), 6)
    for bad in (0, -5, 10.0, None):
        with pytest.raises(PreconditionViolated, match="retry_budget must be an integer"):
            fix_subspace(mu, np.eye(3), delta=0.3, retry_budget=bad, seed=0)
    fix_subspace(mu, np.eye(3), delta=0.3, retry_budget=np.int32(50), seed=0)
