"""Tests for the iterative structure rounds.

Distributions are the moment tables of finitely many atoms
(`moment_tables.atom_table`).  Oracles: exact moments of two- and
three-point distributions, and direct recomputation of means and
covariances from the atoms.
"""


import numpy as np
import pytest

from moment_tables import atom_table
from rankone.errors import PreconditionViolated
from rankone.pseudodist import validate
from rankone.structure import (
    block_stopping,
    cross_second_moment,
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
