"""Tests for the pseudo-distribution moment machinery.

Oracles: brute-force monomial enumeration, direct weighted power sums
over explicit support points, and polynomial evaluation on random grids.
"""

import itertools
import math

import numpy as np
import pytest

from rankone.errors import (
    BadWeights,
    DegenerateWeight,
    DegreeExceeded,
    DegreeExhausted,
    DimensionMismatch,
    NotSOS,
)
from rankone.pseudodist import (
    ConstraintSpec,
    MonomialIndex,
    PseudoDistribution,
    ReweightPolynomial,
    embed_actual_distribution,
    equality_residual,
    dense_poly,
    from_support,
    linear_form_powers,
    moment_block,
    moment_matrix,
    monomial_index,
    poly_add,
    poly_degree,
    poly_eval,
    poly_linear,
    poly_mul,
    poly_pow,
    poly_product,
    poly_quadratic,
    pseudo_expect,
    reweight,
    sparse_poly,
    univariate_poly,
    validate,
)
from rankone.reweighting import fix_scalar, fix_subspace


def brute_monomials(num_vars, max_degree):
    """Oracle: all exponent tuples of degree <= max_degree, graded, then lex
    by the combination order (first variable heaviest)."""
    out = []
    for d in range(max_degree + 1):
        block = set()
        for combo in itertools.product(range(num_vars), repeat=d):
            e = [0] * num_vars
            for j in combo:
                e[j] += 1
            block.add(tuple(e))
        out.append(block)
    return out


def support_moment(points, weights, exponent):
    """Oracle: exact weighted power sum for one monomial."""
    total = 0.0
    for pt, w in zip(points, weights):
        term = w
        for x, e in zip(pt, exponent):
            term *= x ** e
        total += term
    return total


def random_discrete(rng, num_points, num_vars, degree):
    pts = rng.uniform(-1.5, 1.5, size=(num_points, num_vars))
    w = rng.uniform(0.1, 1.0, size=num_points)
    w /= w.sum()
    return pts, w, embed_actual_distribution(pts, w, degree)


def random_poly(rng, index, max_degree):
    count = index.count_through(max_degree)
    coefs = rng.standard_normal(count)
    return {tuple(int(v) for v in index.exponents[i]): float(coefs[i])
            for i in range(count)}


def poly_constant_2(c):
    return {(0, 0): float(c)}


# -- monomial table ----------------------------------------------------------


def test_index_counts_match_binomials():
    """Table size is C(n + d, d), per degree block and cumulatively."""
    for n in (1, 2, 3, 5):
        for d in (0, 1, 2, 4, 6):
            ix = MonomialIndex(n, d)
            assert ix.size == math.comb(n + d, d)
            for k in range(d + 1):
                assert ix.count_through(k) == math.comb(n + k, k)


def test_index_is_graded_and_complete():
    """Every monomial appears once, grouped by total degree, constant first."""
    ix = MonomialIndex(3, 4)
    blocks = brute_monomials(3, 4)
    seen = [tuple(int(v) for v in row) for row in ix.exponents]
    assert seen[0] == (0, 0, 0)
    assert len(seen) == len(set(seen))
    pos = 0
    for d, block in enumerate(blocks):
        got = set(seen[pos:pos + len(block)])
        assert got == block
        assert all(sum(e) == d for e in got)
        pos += len(block)


def test_index_lookup_round_trip():
    ix = MonomialIndex(4, 5)
    for i in range(ix.size):
        e = tuple(int(v) for v in ix.exponents[i])
        assert ix.index_of(e) == i


def test_index_rejects_out_of_range():
    ix = MonomialIndex(2, 3)
    with pytest.raises(DegreeExceeded):
        ix.index_of((2, 2))
    with pytest.raises(DimensionMismatch):
        MonomialIndex(0, 2)


def test_sum_table_matches_direct_lookup():
    ix = MonomialIndex(3, 6)
    table = ix.sum_table(3, 2)
    assert table.shape == (ix.count_through(3), ix.count_through(2))
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            e = tuple(int(v) for v in ix.exponents[i] + ix.exponents[j])
            assert table[i, j] == ix.index_of(e)
    assert ix.sum_table(3, 2) is table
    ix.sum_table(0, 6)
    with pytest.raises(DegreeExceeded):
        ix.sum_table(4, 3)


def test_index_layout_and_memoization():
    """x_i sits at 1 + i, tables share their degree prefix, and the
    memoized table is one read-only instance per (num_vars, degree)."""
    ix = monomial_index(3, 4)
    assert ix is monomial_index(3, 4)
    for i in range(3):
        assert ix.index_of(tuple(int(j == i) for j in range(3))) == 1 + i
    big = MonomialIndex(3, 6)
    assert big.exponent_tuples[:ix.size] == ix.exponent_tuples
    assert ix.block(2) == slice(ix.count_through(1), ix.count_through(2))
    assert ix.degree_of_count(ix.count_through(3)) == 3
    with pytest.raises(DimensionMismatch):
        ix.degree_of_count(ix.count_through(3) + 1)
    with pytest.raises(ValueError):
        ix.exponents[0, 0] = 1


# -- polynomial helpers --------------------------------------------------------


def test_poly_builders_evaluate_correctly():
    """Linear and quadratic builders agree with direct formulas on a grid."""
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(3)
    q = rng.standard_normal((3, 3))
    pts = rng.standard_normal((40, 3))
    lin = poly_eval(poly_linear(vec), pts)
    np.testing.assert_allclose(lin, pts @ vec, atol=1e-12)
    quad = poly_eval(poly_quadratic(q), pts)
    direct = np.einsum("ki,ij,kj->k", pts, 0.5 * (q + q.T), pts)
    np.testing.assert_allclose(quad, direct, atol=1e-10)


def test_poly_arithmetic_against_evaluation():
    """add/mul/pow commute with pointwise evaluation."""
    rng = np.random.default_rng(5)
    ix = MonomialIndex(2, 3)
    pts = rng.uniform(-1, 1, size=(25, 2))
    for _ in range(20):
        p = random_poly(rng, ix, 2)
        q = random_poly(rng, ix, 3)
        np.testing.assert_allclose(
            poly_eval(poly_add(p, q, scale=-2.0), pts),
            poly_eval(p, pts) - 2.0 * poly_eval(q, pts), atol=1e-10)
        np.testing.assert_allclose(
            poly_eval(poly_mul(p, q), pts),
            poly_eval(p, pts) * poly_eval(q, pts), atol=1e-9)
    p = random_poly(rng, ix, 2)
    np.testing.assert_allclose(
        poly_eval(poly_pow(p, 3), pts), poly_eval(p, pts) ** 3, rtol=1e-9, atol=1e-9)


def test_poly_degree_ignores_zero_coefficients():
    assert poly_degree({(3, 0): 0.0, (1, 1): 2.0}) == 2
    assert poly_degree({}) == 0


# -- embedding and expectation -------------------------------------------------


def test_embedded_moments_match_power_sums():
    """Every stored moment equals the direct weighted power sum."""
    rng = np.random.default_rng(2)
    pts, w, mu = random_discrete(rng, 6, 2, 6)
    for i in range(mu.index.size):
        e = tuple(int(v) for v in mu.index.exponents[i])
        assert abs(mu.moments[i] - support_moment(pts, w, e)) < 1e-12


def test_expectation_is_linear_and_matches_evaluation():
    rng = np.random.default_rng(3)
    pts, w, mu = random_discrete(rng, 5, 3, 4)
    ix = MonomialIndex(3, 4)
    for _ in range(30):
        p = random_poly(rng, ix, 4)
        q = random_poly(rng, ix, 2)
        direct = float(np.dot(w, poly_eval(p, pts)))
        assert abs(mu.expect(p) - direct) < 1e-10
        lhs = mu.expect(poly_add(p, q, scale=3.0))
        assert abs(lhs - (mu.expect(p) + 3.0 * mu.expect(q))) < 1e-10


def test_expectation_rejects_high_degree():
    rng = np.random.default_rng(4)
    _, _, mu = random_discrete(rng, 4, 2, 4)
    with pytest.raises(DegreeExceeded):
        mu.expect({(3, 2): 1.0})


def test_univariate_points_accepted_as_flat_array():
    """1-d point input means one variable, not one point."""
    mu = embed_actual_distribution(np.array([1.0, -1.0]), np.array([0.5, 0.5]), 4)
    assert mu.num_vars == 1
    assert abs(mu.expect({(2,): 1.0}) - 1.0) < 1e-12
    assert abs(mu.expect({(1,): 1.0})) < 1e-12


def test_embed_rejects_bad_weights():
    pts = np.zeros((2, 2))
    with pytest.raises(BadWeights):
        embed_actual_distribution(pts, np.array([0.7, 0.7]), 2)
    with pytest.raises(BadWeights):
        embed_actual_distribution(pts, np.array([1.5, -0.5]), 2)
    with pytest.raises(DimensionMismatch):
        embed_actual_distribution(pts, np.array([1.0]), 2)


# -- positivity ----------------------------------------------------------------


def test_moment_matrix_entries():
    """M[a, b] is the moment of the product monomial."""
    rng = np.random.default_rng(6)
    pts, w, mu = random_discrete(rng, 5, 2, 4)
    m = moment_matrix(mu)
    ix = mu.index
    half = ix.count_through(2)
    assert m.shape == (half, half)
    for a in range(half):
        for b in range(half):
            e = tuple(int(v) for v in ix.exponents[a] + ix.exponents[b])
            assert abs(m[a, b] - support_moment(pts, w, e)) < 1e-12


def test_square_expectations_nonnegative():
    """E~ f^2 >= 0 for ten thousand random low-degree f."""
    rng = np.random.default_rng(7)
    _, _, mu = random_discrete(rng, 8, 2, 6)
    ix = MonomialIndex(2, 6)
    worst = 0.0
    for _ in range(10_000):
        f = random_poly(rng, ix, 3)
        worst = min(worst, mu.expect(poly_mul(f, f)))
    assert worst >= -1e-9


def test_cauchy_schwarz_on_pseudo_expectations():
    rng = np.random.default_rng(8)
    _, _, mu = random_discrete(rng, 6, 2, 4)
    ix = MonomialIndex(2, 4)
    for _ in range(200):
        f = random_poly(rng, ix, 2)
        g = random_poly(rng, ix, 2)
        lhs = mu.expect(poly_mul(f, g))
        rhs = math.sqrt(max(mu.expect(poly_mul(f, f)), 0.0)
                        * max(mu.expect(poly_mul(g, g)), 0.0))
        assert lhs <= rhs + 1e-9


def test_localized_moment_matrix_psd_for_valid_localizer():
    """Localizing by a polynomial nonnegative on the support keeps PSD."""
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((7, 2))
    pts *= (0.9 * rng.uniform(0.2, 1.0, 7) / np.linalg.norm(pts, axis=1))[:, None]
    w = np.full(7, 1.0 / 7.0)
    mu = embed_actual_distribution(pts, w, 6)
    ball = poly_add(poly_constant_2(1.0), poly_quadratic(-np.eye(2)))  # 1 - |x|^2
    loc = moment_matrix(mu, ball)
    assert np.linalg.eigvalsh(loc)[0] >= -1e-10


# -- validation ----------------------------------------------------------------


def test_validate_accepts_actual_distribution():
    rng = np.random.default_rng(10)
    _, _, mu = random_discrete(rng, 6, 3, 4)
    rep = validate(mu)
    assert rep.ok()
    assert rep.normalized
    assert rep.min_moment_eig >= -1e-10


def test_validate_flags_corrupted_moments():
    rng = np.random.default_rng(12)
    _, _, mu = random_discrete(rng, 6, 2, 4)
    bad = mu.moments.copy()
    bad[mu.index.index_of((2, 0))] = -1.0  # E~ x^2 < 0 breaks PSD
    broken = PseudoDistribution(mu.index, bad, mu.degree)
    assert not validate(broken).ok()


def test_equality_residual_measures_constraint():
    """Residual is ~0 on the constraint's support, large off it."""
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])  # on the circle x^2 + y^2 = 1
    w = np.array([0.5, 0.5])
    circle = poly_add(poly_quadratic(np.eye(2)), poly_constant_2(-1.0))
    mu = embed_actual_distribution(pts, w, 6, (ConstraintSpec.equality(circle),))
    assert equality_residual(mu, circle) < 1e-12
    assert validate(mu).ok()
    off = embed_actual_distribution(2.0 * pts, w, 6)
    assert equality_residual(off, circle) > 1.0


# -- reweighting ---------------------------------------------------------------


def test_reweight_matches_direct_formula_on_support():
    """mu' weights are w_i p(x_i) / sum, so every moment follows."""
    rng = np.random.default_rng(13)
    pts, w, mu = random_discrete(rng, 6, 2, 6)
    g = poly_linear(rng.standard_normal(2))
    rw = ReweightPolynomial.from_square(g)
    nu = reweight(mu, rw)
    vals = poly_eval(rw.poly(), pts)
    w2 = w * vals
    w2 /= w2.sum()
    ix = MonomialIndex(2, 4)
    for _ in range(50):
        p = random_poly(rng, ix, 4)
        direct = float(np.dot(w2, poly_eval(p, pts)))
        assert abs(nu.expect(p) - direct) < 1e-10


def test_reweight_moment_path_agrees_with_support_path():
    """Dropping the atoms and reweighting through moments gives the same
    truncated table, at the reduced degree."""
    rng = np.random.default_rng(14)
    pts, w, mu = random_discrete(rng, 5, 2, 6)
    blind = PseudoDistribution(mu.index, mu.moments, mu.degree)
    g = poly_add(poly_linear(rng.standard_normal(2)), poly_constant_2(0.7))
    rw = ReweightPolynomial.from_square(g)
    a = reweight(mu, rw)
    b = reweight(blind, rw)
    assert b.degree == mu.degree - 2
    for i in range(b.index.size):
        e = tuple(int(v) for v in b.index.exponents[i])
        assert abs(b.moments[i] - a.expect({e: 1.0})) < 1e-9


def test_reweight_composition_matches_product():
    """Reweighting twice equals reweighting once by the product."""
    rng = np.random.default_rng(15)
    pts, w, mu = random_discrete(rng, 6, 2, 8)
    r1 = ReweightPolynomial.from_square(poly_linear(rng.standard_normal(2)))
    r2 = ReweightPolynomial.from_square(
        poly_add(poly_linear(rng.standard_normal(2)), poly_constant_2(0.3)))
    seq = reweight(reweight(mu, r1), r2)
    par = reweight(mu, r1.product(r2))
    ix = MonomialIndex(2, 4)
    for _ in range(30):
        p = random_poly(rng, ix, 4)
        assert abs(seq.expect(p) - par.expect(p)) < 1e-9


def test_reweight_checks_certificates():
    claim = ReweightPolynomial.from_coefficients(
        {(2, 0): 1.0, (0, 0): -1.0},  # x^2 - 1 is nowhere a sum of squares
        certificate=[{(1, 0): 1.0}])
    rng = np.random.default_rng(16)
    _, _, mu = random_discrete(rng, 4, 2, 6)
    with pytest.raises(NotSOS):
        reweight(mu, claim)


def test_reweight_without_certificate_uses_gram_check():
    rng = np.random.default_rng(17)
    _, _, mu = random_discrete(rng, 4, 2, 6)
    ok = ReweightPolynomial.from_coefficients(
        {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})  # (x + y)^2, no certificate
    nu = reweight(mu, ok)
    assert validate(nu).ok()
    bad = ReweightPolynomial.from_coefficients({(1, 0): 1.0, (0, 0): 1.0})
    with pytest.raises(NotSOS):
        reweight(mu, bad)


def test_reweight_degree_bookkeeping():
    """Moment-backed loses deg p, support-backed keeps the declared degree."""
    rng = np.random.default_rng(18)
    _, _, mu = random_discrete(rng, 5, 2, 6)
    rw = ReweightPolynomial.from_square(poly_linear(np.array([1.0, 1.0])))
    assert reweight(mu, rw).degree == 6
    blind = PseudoDistribution(mu.index, mu.moments, mu.degree)
    low = reweight(blind, rw)
    assert low.degree == 4
    quartic = ReweightPolynomial.from_square(poly_quadratic(np.eye(2)))
    with pytest.raises(DegreeExhausted):
        reweight(low, quartic)


def test_reweight_rejects_degenerate_weight():
    """Reweighting by a square vanishing on the whole support has no mass."""
    pts = np.array([[1.0, 0.0], [2.0, 0.0]])
    mu = embed_actual_distribution(pts, np.array([0.5, 0.5]), 6)
    rw = ReweightPolynomial.from_square(poly_linear(np.array([0.0, 1.0])))
    with pytest.raises(DegenerateWeight):
        reweight(mu, rw)
    blind = PseudoDistribution(mu.index, mu.moments, mu.degree)
    with pytest.raises(DegenerateWeight):
        reweight(blind, rw)


def test_reweight_keeps_constraints_within_budget():
    circle = ConstraintSpec.equality(
        poly_add(poly_quadratic(np.eye(2)), poly_constant_2(-1.0)))
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
    mu = embed_actual_distribution(pts, np.ones(3) / 3.0, 6, (circle,))
    rw = ReweightPolynomial.from_square(
        poly_add(poly_linear(np.array([1.0, 0.0])), poly_constant_2(2.0)))
    nu = reweight(mu, rw)
    assert circle in nu.constraints
    assert equality_residual(nu, circle.poly()) < 1e-10


# -- dense moment kernel --------------------------------------------------------

KERNEL_SEEDS = range(20)
REL = 1e-12


def random_moments(rng, num_vars, degree):
    """A random moment vector: normalized, otherwise unconstrained."""
    ix = MonomialIndex(num_vars, degree)
    y = rng.standard_normal(ix.size)
    y[0] = 1.0
    return PseudoDistribution(ix, y, degree)


def assert_rel(got, ref, scale):
    """|got - ref| <= REL * scale, scale being the sum of the magnitudes
    the result is accumulated from."""
    assert np.all(np.abs(np.asarray(got) - np.asarray(ref)) <= REL * scale)


def shift_loop_reweight(mu, p):
    """Oracle: y'[a] = sum_e p_e y[a + e] / E~ p, one term at a time."""
    dp = poly_degree(p)
    new_ix = MonomialIndex(mu.num_vars, mu.degree - dp)
    out = np.zeros(new_ix.size)
    for e, c in p.items():
        for i in range(new_ix.size):
            shifted = tuple(int(v) for v in new_ix.exponents[i] + np.array(e))
            out[i] += c * mu.moments[mu.index.index_of(shifted)]
    out /= pseudo_expect(mu, p)
    out[0] = 1.0
    return out


def test_dense_product_matches_dict_reference():
    for seed in KERNEL_SEEDS:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        h1, h2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        ix = monomial_index(n, h1 + h2)
        p, q = random_poly(rng, ix, h1), random_poly(rng, ix, h2)
        got = poly_product(ix, dense_poly(ix, p, h1), dense_poly(ix, q, h2))
        ref = dense_poly(ix, poly_mul(p, q), h1 + h2)
        scale = sum(abs(c) for c in p.values()) * sum(abs(c) for c in q.values())
        assert_rel(got, ref, scale)
        np.testing.assert_array_equal(dense_poly(ix, sparse_poly(ix, got), h1 + h2), got)


def test_linear_form_powers_match_dict_reference():
    for seed in KERNEL_SEEDS:
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 5))
        top = int(rng.integers(1, 7))
        ix = monomial_index(n, top)
        v = rng.standard_normal(n)
        coeffs = rng.standard_normal(top + 1)
        got = univariate_poly(ix, linear_form_powers(ix, v, top), coeffs)
        ref: dict = {}
        for j, c in enumerate(coeffs):
            ref = poly_add(ref, poly_pow(poly_linear(v), j), scale=c)
        scale = float(np.abs(coeffs) @ (np.abs(v).sum() ** np.arange(top + 1)))
        assert_rel(got, dense_poly(ix, ref, top), scale)
        # a stack of directions gives the stack of expansions
        stack = rng.standard_normal((3, n))
        np.testing.assert_array_equal(
            linear_form_powers(ix, stack, top)[1],
            linear_form_powers(ix, stack[1], top))


def test_quadratic_form_expectations_match_dict_reference():
    """f^T Y g = E~ f g for random moment vectors, including the even and
    shifted linear-form powers the reweighting layer evaluates."""
    for seed in KERNEL_SEEDS:
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 5))
        degree = int(rng.integers(2, 7))
        mu = random_moments(rng, n, degree)
        h1 = int(rng.integers(0, degree + 1))
        h2 = int(rng.integers(0, degree - h1 + 1))
        f, g = random_poly(rng, mu.index, h1), random_poly(rng, mu.index, h2)
        block = moment_block(mu, h1, h2)
        got = dense_poly(mu.index, f, h1) @ block @ dense_poly(mu.index, g, h2)
        abs_y = np.abs(mu.moments).max()
        scale = sum(abs(c) for c in f.values()) * sum(abs(c) for c in g.values()) * abs_y
        assert_rel(got, pseudo_expect(mu, poly_mul(f, g)), scale)

        k = degree // 2
        v = rng.standard_normal(n)
        shift = float(rng.standard_normal())
        coeffs = np.zeros(k + 1)
        for j in range(k + 1):
            coeffs[j] = math.comb(k, j) * shift ** (k - j)
        half = univariate_poly(mu.index, linear_form_powers(mu.index, v, k), coeffs)
        ref_poly = poly_pow(poly_add(poly_linear(v), {(0,) * n: shift}), 2 * k)
        scale = (np.abs(v).sum() + abs(shift)) ** (2 * k) * abs_y
        got = half @ moment_block(mu, k, k) @ half
        assert_rel(got, pseudo_expect(mu, ref_poly), scale)


def test_reweight_matches_shift_loop_reference():
    for seed in KERNEL_SEEDS:
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 4))
        degree = int(rng.choice([4, 6]))
        _, _, mu = random_discrete(rng, 6, n, degree)
        blind = PseudoDistribution(mu.index, mu.moments, mu.degree)
        g = poly_add(poly_linear(rng.standard_normal(n)),
                     {(0,) * n: float(rng.standard_normal())})
        if degree == 6 and seed % 2:
            g = poly_add(g, poly_quadratic(rng.standard_normal((n, n))))
        rw = ReweightPolynomial.from_square(g)
        got = reweight(blind, rw)
        ref = shift_loop_reweight(blind, rw.poly())
        assert got.degree == degree - rw.degree
        norm = pseudo_expect(blind, rw.poly())
        scale = sum(abs(c) for c in rw.poly().values()) * np.abs(mu.moments).max() / norm
        assert_rel(got.moments, ref, scale)


def test_kernel_keeps_degree_boundaries():
    """DegreeExceeded and DegreeExhausted fire at the same degrees as the
    dict definitions they replace."""
    rng = np.random.default_rng(400)
    for degree in (2, 3, 4, 5, 6):
        mu = random_moments(rng, 2, degree)
        for h1 in range(degree + 2):
            for h2 in range(degree + 2):
                if h1 + h2 <= degree:
                    moment_block(mu, h1, h2)
                    pseudo_expect(mu, {(h1 + h2, 0): 1.0})
                else:
                    with pytest.raises(DegreeExceeded):
                        moment_block(mu, h1, h2)
                    with pytest.raises(DegreeExceeded):
                        pseudo_expect(mu, {(h1 + h2, 0): 1.0})
        # a moment-backed table pays deg p and keeps at least degree 2
        for half in range(1, degree):
            rw = ReweightPolynomial.from_square(
                poly_pow(poly_add(poly_linear([1.0, 0.5]), {(0, 0): 2.0}), half))
            _, _, actual = random_discrete(rng, 5, 2, degree)
            blind = PseudoDistribution(actual.index, actual.moments, degree)
            if 2 * half <= degree - 2:
                assert reweight(blind, rw).degree == degree - 2 * half
            else:
                with pytest.raises(DegreeExhausted):
                    reweight(blind, rw)
        # a constraint is measured against every multiplier that fits
        cubic = {(3, 0): 1.0, (1, 1): -0.5, (0, 0): -1.0}
        if degree < 3:
            assert equality_residual(mu, cubic) == 0.0
        else:
            ref = max(abs(pseudo_expect(mu, poly_mul(cubic, {e: 1.0})))
                      for e in mu.index.exponent_tuples[:mu.index.count_through(degree - 3)])
            assert abs(equality_residual(mu, cubic) - ref) <= REL * 3.0 * np.abs(mu.moments).max()

    # the scalar fix needs degree 4d, the subspace fix degree 4
    pts = np.array([[2.0, 0.0], [-2.0, 0.5], [1.5, 1.0]])
    for degree in (3, 4, 5, 6):
        actual = embed_actual_distribution(pts, np.ones(3) / 3.0, degree)
        blind = PseudoDistribution(actual.index, actual.moments, degree)
        if degree < 4:
            with pytest.raises(DegreeExhausted):
                fix_scalar(blind, [1.0, 0.0], 1, 0.45)
            with pytest.raises(DegreeExhausted):
                fix_subspace(blind, np.eye(2), 0.5)
        else:
            assert fix_scalar(blind, [1.0, 0.0], 1, 0.45)[0].degree == degree - 2
        with pytest.raises(DegreeExhausted):
            fix_scalar(blind, [1.0, 0.0], degree // 4 + 1, 0.45)
