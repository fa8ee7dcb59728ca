"""Tests for scalar and subspace fixing.

Oracles: two-point and three-point distributions computed by hand, exact
sphere-moment closed forms, and Monte Carlo integration for the rest.
"""

import math

import numpy as np
import pytest

from rankone.errors import (
    DegreeExhausted,
    PreconditionViolated,
    RetryExhausted,
)
from rankone.pseudodist import (
    PseudoDistribution,
    embed_actual_distribution,
    validate,
)
from rankone.reweighting import (
    direction_power,
    fix_scalar,
    fix_subspace,
    sphere_moment,
    stage_power,
)


def two_point(a, b, wa=0.5, degree=8):
    pts = np.array([[float(a)], [float(b)]])
    return embed_actual_distribution(pts, np.array([wa, 1.0 - wa]), degree)


def strip_support(mu):
    return PseudoDistribution(mu.index, mu.moments, mu.degree, mu.constraints, None)


def mean_and_mass(mu):
    n = mu.num_vars
    mean = np.array([mu.moments[mu.index.index_of(
        tuple(int(i == j) for j in range(n)))] for i in range(n)])
    mass = sum(mu.moments[mu.index.index_of(
        tuple(2 * (i == j) for j in range(n)))] for i in range(n))
    return mean, mass


# -- sphere moments ----------------------------------------------------------


def test_sphere_moment_first_is_inverse_dim():
    for dim in range(2, 12):
        assert sphere_moment(dim, 1) == pytest.approx(1.0 / dim)


def test_sphere_moment_closed_form_dim3():
    # in R^3 the squared coordinate of a random unit vector is uniform,
    # so E <v,u>^{2k} = 1/(2k+1)
    for k in range(1, 20):
        assert sphere_moment(3, k) == pytest.approx(1.0 / (2 * k + 1))


def test_sphere_moment_dim2_matches_cosine_integral():
    # E cos^4 = 3/8, E cos^6 = 5/16
    assert sphere_moment(2, 2) == pytest.approx(3.0 / 8.0)
    assert sphere_moment(2, 3) == pytest.approx(5.0 / 16.0)


def test_sphere_moment_monte_carlo():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((400000, 5))
    v /= np.linalg.norm(v, axis=1)[:, None]
    emp = float(np.mean(v[:, 0] ** 6))
    assert sphere_moment(5, 3) == pytest.approx(emp, rel=2e-2)


def test_sphere_moment_ratio_eventually_stays_above_bar():
    # c_{k+1}/c_k = (1+2k)/(dim+2k) >= 1-eps exactly when
    # k >= ((1-eps) dim - 1) / (2 eps)
    eps = 0.1
    for dim in range(2, 65):
        k_star = max(1, math.ceil(((1.0 - eps) * dim - 1.0) / (2.0 * eps)))
        for k in range(k_star, k_star + 10):
            assert sphere_moment(dim, k + 1) >= (1.0 - eps) * sphere_moment(dim, k)
        if k_star > 2:
            assert sphere_moment(dim, 2) < (1.0 - eps) * sphere_moment(dim, 1)


# -- scalar fixing -----------------------------------------------------------


def test_fix_scalar_two_point_picks_larger_value():
    mu = two_point(1.0, 3.0)
    out, rep = fix_scalar(mu, [1.0], d=1, eps=0.1)
    assert rep.m == pytest.approx(3.0, abs=0.05)
    assert rep.achieved_ratio <= 3 * 0.1 ** 2
    assert abs(rep.m) >= 1.0


def test_fix_scalar_symmetric_pair_picks_a_sign():
    mu = two_point(-2.0, 2.0)
    out, rep = fix_scalar(mu, [1.0], d=1, eps=0.1)
    assert abs(rep.m) == pytest.approx(2.0, abs=0.05)
    # all mass ends on the chosen atom
    mean = out.moments[out.index.index_of((1,))]
    assert mean == pytest.approx(rep.m, abs=1e-6)


def test_fix_scalar_point_mass_spends_only_the_split():
    mu = embed_actual_distribution(np.array([[2.5]]), np.array([1.0]), 8)
    out, rep = fix_scalar(mu, [1.0], d=2, eps=0.2)
    assert rep.m == pytest.approx(2.5)
    assert rep.degree_spent == 4  # no stages, one sign split of degree 2d
    assert rep.achieved_ratio <= 1e-12


def test_fix_scalar_contract_on_random_corpus():
    rng = np.random.default_rng(11)
    for trial in range(30):
        atoms = int(rng.integers(3, 40))
        bound = float(rng.uniform(2, 16))
        pts = rng.uniform(-bound, bound, (atoms, 1))
        w = rng.dirichlet(np.ones(atoms))
        m2 = float(w @ (pts[:, 0] ** 2))
        if m2 < 1.0:
            pts /= math.sqrt(m2) * 0.999
        d = int(rng.integers(1, 3))
        eps = float(rng.uniform(0.1, 0.3))
        mu = embed_actual_distribution(pts, w, degree=8)
        out, rep = fix_scalar(mu, [1.0], d=d, eps=eps)
        assert abs(rep.m) >= 1.0
        assert rep.achieved_ratio <= 3 * eps ** (2 * d) + 1e-12
        # contract restated from output moments
        dev = sum(math.comb(2 * d, j) * (-rep.m) ** (2 * d - j)
                  * out.moments[out.index.index_of((j,))]
                  for j in range(2 * d + 1))
        assert dev <= 3 * eps ** (2 * d) * rep.m ** (2 * d) + 1e-9


def test_fix_scalar_direction_is_a_general_linear_form():
    pts = np.array([[1.0, 2.0], [0.5, -1.0], [0.2, 1.5]])
    w = np.array([0.5, 0.3, 0.2])
    mu = embed_actual_distribution(pts, w, degree=8)
    direction = np.array([1.0, 0.7])
    out, rep = fix_scalar(mu, direction, d=1, eps=0.1)
    s_vals = pts @ direction
    assert abs(rep.m) == pytest.approx(np.abs(s_vals).max(), abs=0.05)


def test_fix_scalar_stage_trace_is_nondecreasing():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-6, 6, (30, 1))
    mu = embed_actual_distribution(pts, rng.dirichlet(np.ones(30)), 8)
    out, rep = fix_scalar(mu, [1.0], d=2, eps=0.15)
    trace = np.array(rep.stage_trace)
    assert np.all(np.diff(trace) >= -1e-9 * trace[:-1])


def test_fix_scalar_budget_exhaustion():
    mu = two_point(1.0, 3.0)
    with pytest.raises(DegreeExhausted):
        fix_scalar(mu, [1.0], d=1, eps=0.1, degree_budget=4)


def test_fix_scalar_within_generous_budget_reports_spend():
    mu = two_point(1.0, 3.0)
    budget = math.ceil(2 * 2 * math.log(16) / 0.2 ** 2)
    out, rep = fix_scalar(mu, [1.0], d=2, eps=0.2, degree_budget=budget)
    assert rep.degree_spent <= budget


def test_fix_scalar_requires_unit_second_moment():
    mu = two_point(0.1, 0.2)
    with pytest.raises(PreconditionViolated):
        fix_scalar(mu, [1.0], d=1, eps=0.1)


def test_fix_scalar_rejects_bad_parameters():
    mu = two_point(1.0, 3.0)
    with pytest.raises(PreconditionViolated):
        fix_scalar(mu, [1.0], d=1, eps=1.5)
    with pytest.raises(PreconditionViolated):
        fix_scalar(mu, [1.0], d=0, eps=0.1)
    with pytest.raises(PreconditionViolated):
        fix_scalar(mu, [0.0], d=1, eps=0.1)


def test_fix_scalar_moment_path_matches_support_path():
    rng = np.random.default_rng(9)
    pts = 2.0 + 0.3 * rng.standard_normal((12, 1))
    w = rng.dirichlet(np.ones(12))
    mu_s = embed_actual_distribution(pts, w, degree=12)
    mu_m = strip_support(mu_s)
    out_s, rep_s = fix_scalar(mu_s, [1.0], d=1, eps=0.2)
    out_m, rep_m = fix_scalar(mu_m, [1.0], d=1, eps=0.2)
    assert rep_m.m == pytest.approx(rep_s.m, rel=1e-6)
    assert rep_m.degree_spent == rep_s.degree_spent
    k = min(out_s.index.size, out_m.index.size)
    np.testing.assert_allclose(out_m.moments[:k], out_s.moments[:k], atol=1e-8)


def test_fix_scalar_moment_path_needs_degree_headroom():
    mu = strip_support(two_point(1.0, 3.0, degree=6))
    with pytest.raises(DegreeExhausted):
        fix_scalar(mu, [1.0], d=2, eps=0.1)  # needs degree >= 8 to certify


def test_fix_scalar_output_validates():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-4, 4, (15, 1))
    mu = embed_actual_distribution(pts, rng.dirichlet(np.ones(15)), 8)
    out, _ = fix_scalar(mu, [1.0], d=2, eps=0.2)
    assert validate(out).ok()


def test_stage_power_grows_with_order_and_precision():
    assert stage_power(2, 0.1) > stage_power(1, 0.1)
    assert stage_power(1, 0.05) > stage_power(1, 0.2)


# -- subspace fixing ---------------------------------------------------------


def test_fix_subspace_point_mass_trivial():
    x0 = np.array([0.6, 0.8])
    mu = embed_actual_distribution(x0[None, :], np.array([1.0]), 6)
    out, rep = fix_subspace(mu, np.eye(2), delta=0.1, seed=0)
    assert rep.achieved == pytest.approx(1.0, abs=1e-9)
    mean, _ = mean_and_mass(out)
    assert mean @ mean == pytest.approx(1.0, abs=1e-9)


def test_fix_subspace_sign_pair():
    # uniform on {e1, -e1}: reweighting by <v,x>^{2k} preserves the
    # symmetry, the scalar sign split breaks it
    mu = embed_actual_distribution(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([.5, .5]), 6)
    out, rep = fix_subspace(mu, np.eye(2), delta=0.1, seed=1)
    mean, _ = mean_and_mass(out)
    assert mean @ mean >= 0.9
    assert abs(abs(rep.chosen_direction[0]) - 1.0) <= 0.5  # v mostly along e1


def test_fix_subspace_orthonormal_pair():
    mu = embed_actual_distribution(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([.5, .5]), 6)
    out, rep = fix_subspace(mu, np.eye(3), delta=0.3, seed=2)
    assert rep.achieved >= 0.7
    mean, mass = mean_and_mass(out)
    # concentrates near one of the two basis vectors
    assert max(abs(mean[0]), abs(mean[1])) >= 0.8


def test_fix_subspace_unit_direction_and_report_fields():
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((200, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    mu = embed_actual_distribution(pts, np.full(200, 1 / 200), 4)
    out, rep = fix_subspace(mu, np.eye(4), delta=0.3, seed=3)
    assert np.linalg.norm(rep.chosen_direction) == pytest.approx(1.0, abs=1e-12)
    assert 1 <= rep.samples_tried <= 2000
    assert rep.degree_spent >= 2
    assert rep.achieved >= 0.7


def test_fix_subspace_proper_subspace_collects_projected_mass():
    # mass partly outside S = span(e1, e2); guarantee is against the
    # projected mass
    rng = np.random.default_rng(8)
    inside = rng.standard_normal((150, 2))
    inside /= np.linalg.norm(inside, axis=1)[:, None]
    pts = np.concatenate([inside * 0.9, rng.uniform(-0.2, 0.2, (150, 1))], axis=1)
    mu = embed_actual_distribution(pts, np.full(150, 1 / 150), 4)
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out, rep = fix_subspace(mu, basis, delta=0.3, seed=4)
    mean, _ = mean_and_mass(out)
    proj_mass = sum(out.moments[out.index.index_of(e)]
                    for e in [(2, 0, 0), (0, 2, 0)])
    assert float(mean[:2] @ mean[:2]) >= (1 - 0.3) * proj_mass - 1e-9


def test_fix_subspace_accepts_basis_object():
    class Basis:
        rows = np.eye(2)
    mu = embed_actual_distribution(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([.5, .5]), 6)
    out, rep = fix_subspace(mu, Basis(), delta=0.1, seed=1)
    mean, _ = mean_and_mass(out)
    assert mean @ mean >= 0.9


def test_fix_subspace_deterministic_given_seed():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((100, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    mu = embed_actual_distribution(pts, np.full(100, 0.01), 4)
    out1, rep1 = fix_subspace(mu, np.eye(3), delta=0.3, seed=42)
    out2, rep2 = fix_subspace(mu, np.eye(3), delta=0.3, seed=42)
    np.testing.assert_array_equal(out1.moments, out2.moments)
    assert rep1.samples_tried == rep2.samples_tried
    np.testing.assert_array_equal(rep1.chosen_direction, rep2.chosen_direction)


def test_fix_subspace_retry_exhaustion():
    # k too small for an isotropic shell in high dimension: the capture
    # condition cannot hold, and one uniform draw is all we allow
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((300, 8))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    mu = embed_actual_distribution(pts, np.full(300, 1 / 300), 4)
    with pytest.raises(RetryExhausted):
        fix_subspace(mu, np.eye(8), delta=0.3, k=1, retry_budget=1, seed=0)


def test_fix_subspace_rejects_tiny_mass():
    pts = 1e-3 * np.eye(3)
    mu = embed_actual_distribution(pts, np.full(3, 1 / 3), 4)
    with pytest.raises(PreconditionViolated):
        fix_subspace(mu, np.eye(3), delta=0.3, seed=0)


def test_fix_subspace_low_but_legal_mass_accepted():
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((80, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= 0.24  # mass ~0.058, below 3^-2 but above the 0.05 floor
    mu = embed_actual_distribution(pts, np.full(80, 1 / 80), 4)
    out, rep = fix_subspace(mu, np.eye(3), delta=0.3, seed=5)
    mean, mass = mean_and_mass(out)
    assert float(mean @ mean) >= 0.7 * mass - 1e-12


def test_fix_subspace_ball_corpus():
    # empirical distributions on the unit ball, mixed shapes
    rng = np.random.default_rng(99)
    for trial in range(12):
        d = int(rng.integers(3, 9))
        n_pts = int(rng.integers(150, 900))
        pts = rng.standard_normal((n_pts, d))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= rng.uniform(0, 1, n_pts)[:, None] ** (1 / d)
        if trial % 2:
            pts *= rng.uniform(0.3, 1.0, d)  # anisotropic
        w = rng.dirichlet(np.ones(n_pts))
        if float(w @ (pts ** 2).sum(1)) < 0.05:
            continue
        mu = embed_actual_distribution(pts, w, degree=4)
        out, rep = fix_subspace(mu, np.eye(d), delta=0.3, seed=trial)
        mean, mass = mean_and_mass(out)
        assert float(mean @ mean) >= (1 - 0.3) * mass - 1e-12
        assert rep.samples_tried <= 2000


def test_fix_subspace_moment_path_spends_declared_degree():
    pts = np.array([[0.9, 0.1, 0.0], [0.85, -0.05, 0.2]])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    mu = strip_support(embed_actual_distribution(pts, np.array([.6, .4]), 12))
    out, rep = fix_subspace(mu, np.eye(3), delta=0.3, k=2, seed=0)
    assert out.degree == mu.degree - rep.degree_spent
    assert rep.achieved >= 0.7
    assert validate(out).ok()


def test_fix_subspace_moment_path_sign_symmetric():
    mu = strip_support(embed_actual_distribution(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([.5, .5]), 12))
    out, rep = fix_subspace(mu, np.eye(2), delta=0.3, k=2, seed=3)
    mean = np.array([out.moments[out.index.index_of(e)] for e in [(1, 0), (0, 1)]])
    assert float(mean @ mean) >= 0.7


def test_direction_power_scales_with_dimension():
    assert direction_power(8, 0.3) > direction_power(3, 0.3)
    assert direction_power(4, 0.1) > direction_power(4, 0.5)


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
    mu = embed_actual_distribution(pts, rng.dirichlet(np.ones(12)), 8)
    out, rep = fix_scalar(mu, [1.0], d=2, eps=0.2)
    again = replay_factors(mu, rep.factors)
    np.testing.assert_allclose(again.moments, out.moments, atol=1e-10)


def test_subspace_factors_reproduce_output_both_paths():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((120, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= rng.uniform(0.4, 1.0, 120)[:, None]
    mu = embed_actual_distribution(pts, np.full(120, 1 / 120), 6)
    out, rep = fix_subspace(mu, np.eye(3), delta=0.3, seed=5)
    again = replay_factors(mu, rep.factors)
    np.testing.assert_allclose(again.moments, out.moments, atol=1e-9)

    pts2 = np.array([[0.9, 0.1, 0.0], [0.85, -0.05, 0.2]])
    pts2 /= np.linalg.norm(pts2, axis=1)[:, None]
    mu2 = strip_support(embed_actual_distribution(pts2, np.array([.6, .4]), 12))
    out2, rep2 = fix_subspace(mu2, np.eye(3), delta=0.3, k=2, seed=0)
    again2 = replay_factors(mu2, rep2.factors)
    np.testing.assert_allclose(again2.moments, out2.moments, atol=1e-10)
    assert again2.degree == out2.degree
