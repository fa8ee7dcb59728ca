"""Tests for the iterative structure rounds.

Oracles: exact moments of two- and three-point distributions, and
direct recomputation of means/covariances from atom lists.
"""


import numpy as np
import pytest

from rankone.errors import PreconditionViolated
from rankone.pseudodist import (
    PseudoDistribution,
    embed_actual_distribution,
    validate,
)
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
    mu = embed_actual_distribution(
        np.array([[0., 1., 1., 0.]]), np.array([1.]), 8)
    with pytest.raises(PreconditionViolated):
        run_structure_2d(mu, 0.0)
    with pytest.raises(PreconditionViolated):
        run_structure_2d(mu, 1.5)


def test_first_moments_match_direct_computation():
    rng = np.random.default_rng(1)
    pts = sphere_points(rng, 9, 3)
    w = rng.dirichlet(np.ones(9))
    mu = embed_actual_distribution(pts, w, 4)
    mean, second = first_moments(mu)
    np.testing.assert_allclose(mean, w @ pts, atol=1e-12)
    np.testing.assert_allclose(second, pts.T @ (w[:, None] * pts), atol=1e-12)


def test_cross_second_moment_matches_direct_computation():
    rng = np.random.default_rng(5)
    pts = sphere_points(rng, 7, 4)        # (u, v) pairs with n = 2
    w = rng.dirichlet(np.ones(7))
    mu = embed_actual_distribution(pts, w, 4)
    got = cross_second_moment(mu)
    outer = np.array([np.outer(p[:2], p[2:]).ravel() for p in pts])
    expect = outer.T @ (w[:, None] * outer)
    np.testing.assert_allclose(got, expect, atol=1e-12)
    assert np.linalg.eigvalsh(got)[0] >= -1e-12


def test_cross_second_moment_survives_sign_symmetry():
    # mirrored atoms zero the means but leave the cross matrix intact
    pair = np.array([0.6, 0.8, 1.0, 0.0])
    pts = np.vstack([pair, -pair])
    mu = embed_actual_distribution(pts, np.array([0.5, 0.5]), 4)
    mean, _ = first_moments(mu)
    assert np.linalg.norm(mean) < 1e-12
    single = np.outer(pair[:2], pair[2:]).ravel()
    np.testing.assert_allclose(cross_second_moment(mu),
                               np.outer(single, single), atol=1e-12)


def test_cross_second_moment_rejects_bad_tables():
    rng = np.random.default_rng(0)
    odd = embed_actual_distribution(sphere_points(rng, 3, 3),
                                    np.ones(3) / 3, 4)
    with pytest.raises(PreconditionViolated):
        cross_second_moment(odd)
    shallow = embed_actual_distribution(sphere_points(rng, 3, 4),
                                        np.ones(3) / 3, 2)
    with pytest.raises(PreconditionViolated):
        cross_second_moment(shallow)


# -- bilinear rounds ---------------------------------------------------------


def test_2d_product_point_mass_unchanged():
    mu = embed_actual_distribution(
        np.array([[0., 1., 1., 0.]]), np.array([1.]), 8)
    out, weight, trace = run_structure_2d(mu, 0.25)
    assert weight.factors == ()
    np.testing.assert_array_equal(out.moments, mu.moments)


def test_2d_pair_mixture_concentrates():
    pts = np.array([[1., 0., 1., 0.], [0., 1., 0., 1.]])
    mu = embed_actual_distribution(pts, np.array([.5, .5]), 10)
    out, weight, trace = run_structure_2d(mu, 0.25, 0)
    for offset in (0, 2):
        gap, mean_sq, mean, _ = block_stopping(out, offset, 2)
        assert gap <= 0.25 * mean_sq
    # both coordinates land on the same basis pair
    _, _, mean1, _ = block_stopping(out, 0, 2)
    _, _, mean2, _ = block_stopping(out, 2, 2)
    assert np.argmax(np.abs(mean1)) == np.argmax(np.abs(mean2))


def test_2d_potential_never_collapses():
    pts = np.array([[1., 0., 1., 0.], [0., 1., 0., 1.]])
    mu = embed_actual_distribution(pts, np.array([.5, .5]), 10)
    out, weight, trace = run_structure_2d(mu, 0.25, 0)
    pots = [r.potential for r in trace.records]
    for prev, cur in zip(pots, pots[1:]):
        assert cur >= (1 - 0.25 / 10) * prev - 1e-12


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
        mu_s = embed_actual_distribution(pts, w, degree=6)
        mu = PseudoDistribution(mu_s.index, mu_s.moments, mu_s.degree,
                                mu_s.constraints, None)
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
    mu = embed_actual_distribution(pts, np.array([.5, .5]), 10)
    out, weight, trace = run_structure_2d(mu, 0.25, 0)
    assert weight.factors
    again = weight.apply(mu)
    np.testing.assert_allclose(again.moments, out.moments, atol=1e-10)
    assert weight.degree == sum(b.degree * p for b, p in weight.factors)


def test_run_structure_deterministic():
    rng = np.random.default_rng(8)
    pts = sphere_points(rng, 30, 4)
    mu = embed_actual_distribution(pts, np.full(30, 1 / 30), 8)
    out1, w1, t1 = run_structure_2d(mu, 0.25, 9)
    out2, w2, t2 = run_structure_2d(mu, 0.25, 9)
    np.testing.assert_array_equal(out1.moments, out2.moments)
    assert len(t1.records) == len(t2.records) > 0
    assert [r.factors for r in t1.records] == [r.factors for r in t2.records]


def test_2d_rejects_odd_variable_count():
    mu = embed_actual_distribution(np.eye(3), np.full(3, 1 / 3), 6)
    with pytest.raises(PreconditionViolated):
        run_structure_2d(mu, 0.25)
