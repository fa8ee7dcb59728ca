"""Tests for the iterative structure rounds.

Distributions are the moment tables of finitely many atoms
(`moment_tables.atom_table`).  Oracles: exact moments of two- and
three-point distributions, and direct recomputation of means and
covariances from the atoms.
"""


import numpy as np
import pytest

from moment_tables import atom_table
from rankone import structure
from rankone.errors import (
    DegreeExhausted,
    PreconditionViolated,
    RankOneError,
    RetryExhausted,
)
from rankone.pseudodist import PseudoDistribution, validate
from rankone.structure import (
    block_stopping,
    first_moments,
    run_structure_2d,
)


def sphere_points(rng, n_pts, dim):
    pts = rng.standard_normal((n_pts, dim))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def test_config_validation():
    mu = atom_table(
        np.array([[0., 1., 1., 0.]]), np.array([1.]), 8)
    with pytest.raises(PreconditionViolated):
        run_structure_2d(mu, 0.0)
    with pytest.raises(PreconditionViolated):
        run_structure_2d(mu, 1.5)


def test_first_moments_match_direct_computation():
    rng = np.random.default_rng(1)
    pts = sphere_points(rng, 9, 3)
    w = rng.dirichlet(np.ones(9))
    mu = atom_table(pts, w, 4)
    mean, second = first_moments(mu)
    np.testing.assert_allclose(mean, w @ pts, atol=1e-12)
    np.testing.assert_allclose(second, pts.T @ (w[:, None] * pts), atol=1e-12)


# -- bilinear rounds ---------------------------------------------------------


def test_2d_product_point_mass_unchanged():
    mu = atom_table(
        np.array([[0., 1., 1., 0.]]), np.array([1.]), 8)
    out, weight, trace = run_structure_2d(mu, 0.25)
    assert weight.factors == ()
    np.testing.assert_array_equal(out.moments, mu.moments)


def test_2d_pair_mixture_concentrates():
    pts = np.array([[1., 0., 1., 0.], [0., 1., 0., 1.]])
    mu = atom_table(pts, np.array([.5, .5]), 10)
    out, weight, trace = run_structure_2d(mu, 0.25, 0)
    for offset in (0, 2):
        gap, mean_sq, mean, _ = block_stopping(out, offset, 2)
        assert gap <= 0.25 * mean_sq
    # both coordinates land on the same basis pair
    _, _, mean1, _ = block_stopping(out, 0, 2)
    _, _, mean2, _ = block_stopping(out, 2, 2)
    assert np.argmax(np.abs(mean1)) == np.argmax(np.abs(mean2))


def two_cluster_pairs(seed, n=3, count=40):
    """Degree-8 table of atoms (u, v) in R^n x R^n: u near one of two
    random unit centres, v near a random unit v0 times a random sign."""
    rng = np.random.default_rng(seed)
    noise = 0.2 / np.sqrt(n)
    u = sphere_points(rng, 2, n)[rng.integers(0, 2, count)] \
        + noise * rng.standard_normal((count, n))
    v = sphere_points(rng, 1, n) + noise * rng.standard_normal((count, n))
    v *= rng.choice([-1.0, 1.0], (count, 1))
    return atom_table(np.hstack([u, v]), np.full(count, 1.0 / count), 8)


def test_2d_potential_never_collapses():
    """On tables that take two steps, each step keeps the potential
    |m_1|^2 |m_2|^2 above (1 - eps / 10) of the one before."""
    # of seeds 0-11 these take two steps; 0, 5 and 8 take one, and on 2
    # a fix exhausts its draws
    for seed in (1, 3, 4, 6, 7, 9, 10, 11):
        _, _, trace = run_structure_2d(two_cluster_pairs(seed), 0.25, seed)
        pots = [r.potential for r in trace.records]
        assert len(pots) >= 2, seed
        for prev, cur in zip(pots, pots[1:]):
            assert cur >= (1 - 0.25 / 10) * prev - 1e-12, seed


def test_2d_moment_table_mixture_no_degree_left_over():
    # degree-6 moment table of a sign-coupled pair mixture: the sign
    # split on one coordinate fixes the other for free
    rng = np.random.default_rng(0)
    for trial in range(3):
        n = int(rng.integers(2, 5))
        u0, v0 = sphere_points(rng, 2, n)
        pair = np.concatenate([u0, v0])
        pts = np.array([pair, -pair])
        w = np.array([.5, .5])
        mu = atom_table(pts, w, degree=6)
        out, weight, trace = run_structure_2d(mu, 0.25, trial)
        g1, m1, mean1, _ = block_stopping(out, 0, n)
        g2, m2, mean2, _ = block_stopping(out, n, n)
        assert g1 <= 0.25 * m1 and g2 <= 0.25 * m2
        assert abs(mean1 @ u0) >= 0.95 and abs(mean2 @ v0) >= 0.95
        assert out.degree >= 2
        assert validate(out).ok()


def test_run_structure_composite_replays():
    # the composite weight reapplied to the input reproduces the output,
    # and its degree is the sum of its factor degrees
    pts = np.array([[1., 0., 1., 0.], [0., 1., 0., 1.]])
    mu = atom_table(pts, np.array([.5, .5]), 10)
    out, weight, trace = run_structure_2d(mu, 0.25, 0)
    assert weight.factors
    again = weight.apply(mu)
    np.testing.assert_allclose(again.moments, out.moments, atol=1e-10)
    assert weight.degree == sum(b.degree * p for b, p in weight.factors)


def test_run_structure_deterministic():
    # four random unit pairs (u, v): one fix settles them
    rng = np.random.default_rng(8)
    pts = np.hstack([sphere_points(rng, 4, 2), sphere_points(rng, 4, 2)])
    mu = atom_table(pts, rng.dirichlet(np.ones(4)), 8)
    out1, w1, t1 = run_structure_2d(mu, 0.25, 9)
    out2, w2, t2 = run_structure_2d(mu, 0.25, 9)
    np.testing.assert_array_equal(out1.moments, out2.moments)
    assert len(t1.records) == len(t2.records) > 0
    assert factor_values(t1) == factor_values(t2)


def factor_values(trace):
    """Every factor of every step as (coefficients, roots, power) lists."""
    return [[(base.coefficients.tolist(), [g.tolist() for g in base.certificate], power)
             for base, power in record.factors] for record in trace.records]


def test_2d_rejects_odd_variable_count():
    mu = atom_table(np.eye(3), np.full(3, 1 / 3), 6)
    with pytest.raises(PreconditionViolated):
        run_structure_2d(mu, 0.25)


# -- joint fixes on degree-6 tables -------------------------------------------


def sign_classes(mu):
    """mu over (u, v) with every moment of odd u-degree or odd v-degree
    set to zero: the table of its distribution symmetrized under u -> -u
    and v -> -v, as the SDP's sign classes leave it."""
    n = mu.num_vars // 2
    e = mu.index.exponents
    odd = (e[:, :n].sum(axis=1) % 2 == 1) | (e[:, n:].sum(axis=1) % 2 == 1)
    moments = np.where(odd, 0.0, mu.moments)
    return PseudoDistribution(mu.index, moments, mu.degree, mu.constraints)


def pair_tables(rng, count, degree):
    """Atom tables over (u, v) with n of 2 or 3: 40-80 Gaussian atoms,
    each coordinate stretched at random, E~ |u|^2 = E~ |v|^2 = 1."""
    tables = []
    for _ in range(count):
        n = int(rng.integers(2, 4))
        pts = rng.standard_normal((int(rng.integers(40, 80)), 2 * n))
        pts *= rng.uniform(0.5, 1.5, 2 * n)
        w = rng.dirichlet(np.ones(len(pts)))
        pts[:, :n] /= np.sqrt(w @ (pts[:, :n] ** 2).sum(axis=1))
        pts[:, n:] /= np.sqrt(w @ (pts[:, n:] ** 2).sum(axis=1))
        tables.append(atom_table(pts, w, degree))
    return tables


def degree_six_cases():
    """(table, eps, seed) for run_structure_2d on degree-6 tables: the SDP
    tables of planted_yes(2, 2, s), s in {0, 2, 3}, at degree 6, at the
    four structure eps levels of an eps-0.05 solve with seeds 0-23, as
    the `rounding` benchmark runs them, and 16 sign-symmetric degree-6
    atom tables from `pair_tables` at eps 0.05-0.45 and seeds 0-1."""
    from rankone import bss
    from rankone.sos_solver import build_bss_problem, solve_feasibility
    start = bss._default_structure_eps(0.05, 2)
    levels = [min(bss._MAX_STRUCTURE_EPS, start * bss._EPS_GROWTH ** k)
              for k in range(4)]
    cases = []
    for instance in (0, 2, 3):
        problem = build_bss_problem(bss.planted_yes(2, 2, instance)[0], 6)
        mu, rep = solve_feasibility(problem)
        assert rep.status == "feasible" and mu.degree == 6
        cases.extend((mu, eps, seed) for eps in levels for seed in range(24))
    rng = np.random.default_rng(717)
    for table in pair_tables(rng, 16, degree=6):
        eps = float(rng.uniform(0.05, 0.45))
        cases.extend((sign_classes(table), eps, seed) for seed in range(2))
    return tuple(cases)


def joint(kwargs):
    """Whether a fix_subspace call of run_structure_2d is a joint fix."""
    return kwargs.get("retry_budget") == structure._JOINT_RETRY_BUDGET


def test_unsettled_joint_fixes_are_thrown_away(monkeypatch):
    """On every eighth of the degree-6 cases, a joint fix that returns a
    table of degree below 4 with a block short of the stopping bar is
    thrown away: the trial's next fix starts from its root table again.
    Any other joint fix that returns is kept, and the next fix starts
    from its table.  Over 100 fixes are thrown away, on the SDP tables
    and on the atom tables."""
    fix = structure.fix_subspace
    log = []

    def recording(cur, rows, delta, **kwargs):
        out = fix(cur, rows, delta, **kwargs)
        log.append((cur, joint(kwargs), out[0]))
        return out
    monkeypatch.setattr(structure, "fix_subspace", recording)
    thrown = []
    for number, (mu, eps, seed) in enumerate(degree_six_cases()[::8]):
        log.clear()
        try:
            run_structure_2d(mu, eps, seed)
        except RankOneError:
            pass
        n = mu.num_vars // 2
        for (_, is_joint, table), (after, _, _) in zip(log, log[1:]):
            if not is_joint:
                continue
            settled = all(gap <= eps * mean_sq for gap, mean_sq, _, _ in (
                block_stopping(table, offset, n) for offset in (0, n)))
            if table.degree < 4 and not settled:
                assert after is mu
                thrown.append(number)
            else:
                assert after is table
    assert len(thrown) > 100 and min(thrown) < 36 <= max(thrown), thrown


# -- the root decision of the per-coordinate phase --------------------------


def test_root_decision_reads_degree_and_v_parity(monkeypatch):
    """With every joint plane failing, a degree-6 table over (u, v) with
    u on the four points +-e_i, and v = (0.6, 0.8) or, through
    `sign_classes`, its mix with -v, goes to the per-coordinate phase
    with u's mean at zero.  Where every moment odd in v is zero, as on
    the mix, run_structure_2d raises
    DegreeExhausted before u's fix, and with the decision forced off the
    trial still fails.  Where v keeps its mean, and on the degree-8
    table, u's fix runs."""
    u = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    v = np.array([0.6, 0.8])
    fixed = np.concatenate([u, np.tile(v, (4, 1))], axis=1)
    fix = structure.fix_subspace
    top_fixes = []

    def planes_fail(cur, rows, delta, **kwargs):
        if joint(kwargs):
            raise RetryExhausted("plane")
        top_fixes.append(cur.degree)
        return fix(cur, rows, delta, **kwargs)
    monkeypatch.setattr(structure, "fix_subspace", planes_fail)

    def trial(symmetric, degree):
        top_fixes.clear()
        mu = atom_table(fixed, np.full(4, 0.25), degree)
        if symmetric:
            mu = sign_classes(mu)
        try:
            run_structure_2d(mu, 0.25, 0)
        except RankOneError as err:
            return type(err), list(top_fixes)
        return None, list(top_fixes)
    assert trial(True, 6) == (DegreeExhausted, [])
    assert trial(False, 6)[1][:1] == [6]
    assert trial(True, 8)[1][:1] == [8]
    monkeypatch.setattr(structure, "powers_every_draw", lambda *args: False)
    error, fixes = trial(True, 6)
    assert error in (DegreeExhausted, RetryExhausted) and fixes[:1] == [6]
