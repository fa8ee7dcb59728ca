"""Tests for the pseudo-distribution moment machinery.

Finite distributions enter as the moment tables of their atoms
(`moment_tables.atom_table`).  Oracles: brute-force monomial
enumeration, direct weighted power sums over the atoms, reweighted atom
weights w_i p(x_i), polynomial evaluation at more random points than
monomials, and expectations taken term by term, each monomial looked up
by its exponent.
"""

import itertools
import math

import numpy as np
import pytest

from moment_tables import atom_table, dense_poly
from rankone.errors import (
    DegenerateWeight,
    DegreeExceeded,
    DegreeExhausted,
    DimensionMismatch,
    NotSOS,
)
from rankone.pseudodist import (
    MonomialIndex,
    PseudoDistribution,
    ReweightPolynomial,
    equality_residual,
    linear_form_powers,
    moment_block,
    moment_matrix,
    monomial_index,
    poly_mul,
    poly_pow,
    reweight,
    univariate_poly,
    validate,
)
from rankone.reweighting import _projection_weight, fix_scalar, fix_subspace


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
    return pts, w, atom_table(pts, w, degree)


def random_poly(rng, index, max_degree):
    """A dense polynomial with standard normal coefficients up to max_degree."""
    return rng.standard_normal(index.count_through(max_degree))


def dense(terms):
    """The dense vector of {exponent: coefficient} literals, over the
    table of their own variable count and degree."""
    num_vars = len(next(iter(terms)))
    degree = max(sum(e) for e in terms)
    return dense_poly(monomial_index(num_vars, degree), terms, degree)


def evaluate(index, vec, points):
    """Oracle: sum_a vec[a] x^a at each row of points, monomial by monomial."""
    points = np.asarray(points, dtype=float)
    return sum(vec[i] * np.prod(points ** index.exponents[i], axis=1)
               for i in range(vec.size))


def loop_expect(mu, vec, shift=None):
    """Oracle: E~[vec * x^shift], term by term, each monomial looked up
    by its exponent."""
    exps = mu.index.exponents
    shift = np.zeros(mu.num_vars, dtype=np.int64) if shift is None else shift
    return sum(vec[i] * mu.moments[mu.index.index_of(tuple(int(v) for v in exps[i] + shift))]
               for i in np.flatnonzero(vec))


def square(index, g):
    """g^2 as a reweighting polynomial certified by g."""
    return ReweightPolynomial(index, poly_mul(index, g, g), (g,))


def linear(v, const=0.0):
    """Dense vector of const + <v, x>."""
    return np.concatenate([[const], np.asarray(v, dtype=float)])


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
    """Linear and quadratic builders agree with direct formulas on a
    grid: <v, x> through linear_form_powers and |R x|^2 through the
    projection weight of the reweighting layer."""
    rng = np.random.default_rng(11)
    ix = monomial_index(3, 2)
    vec = rng.standard_normal(3)
    rows = rng.standard_normal((2, 3))
    pts = rng.standard_normal((40, 3))
    lin = univariate_poly(ix, linear_form_powers(ix, vec, 1), [0.0, 1.0])
    np.testing.assert_allclose(evaluate(ix, lin, pts), pts @ vec, atol=1e-12)
    np.testing.assert_array_equal(lin, linear(vec))
    quad = _projection_weight(rows)
    direct = ((pts @ rows.T) ** 2).sum(axis=1)
    np.testing.assert_allclose(evaluate(ix, quad, pts), direct, atol=1e-10)


def test_poly_arithmetic_against_evaluation():
    """mul and pow commute with pointwise evaluation, at more points than
    the product has monomials."""
    rng = np.random.default_rng(5)
    ix = MonomialIndex(2, 6)
    pts = rng.uniform(-1, 1, size=(40, 2))
    for _ in range(20):
        p = random_poly(rng, ix, 2)
        q = random_poly(rng, ix, 3)
        np.testing.assert_allclose(
            evaluate(ix, poly_mul(ix, p, q), pts),
            evaluate(ix, p, pts) * evaluate(ix, q, pts), atol=1e-9)
    p = random_poly(rng, ix, 2)
    np.testing.assert_allclose(
        evaluate(ix, poly_pow(ix, p, 3), pts), evaluate(ix, p, pts) ** 3,
        rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(poly_pow(ix, p, 0), [1.0])
    assert poly_pow(ix, p, 1) is p
    with pytest.raises(ValueError):
        poly_pow(ix, p, -1)


def test_poly_degree_ignores_zero_coefficients():
    ix = monomial_index(2, 3)
    assert ix.degree_of(dense_poly(ix, {(3, 0): 0.0, (1, 1): 2.0}, 3)) == 2
    assert ix.degree_of(np.zeros(1)) == 0
    assert ix.degree_of(np.array([0.0, 0.0, 1.5])) == 1
    # the graded order runs on past the table
    assert monomial_index(2, 1).degree_of(dense({(3, 1): 1.0})) == 4


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
        direct = float(np.dot(w, evaluate(ix, p, pts)))
        assert abs(mu.expect(p) - direct) < 1e-10
        combined = p.copy()
        combined[:q.size] += 3.0 * q
        lhs = mu.expect(combined)
        assert abs(lhs - (mu.expect(p) + 3.0 * mu.expect(q))) < 1e-10


def test_expectation_rejects_high_degree():
    rng = np.random.default_rng(4)
    _, _, mu = random_discrete(rng, 4, 2, 4)
    with pytest.raises(DegreeExceeded):
        mu.expect(dense({(3, 2): 1.0}))


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
        worst = min(worst, mu.expect(poly_mul(ix, f, f)))
    assert worst >= -1e-9


def test_cauchy_schwarz_on_pseudo_expectations():
    rng = np.random.default_rng(8)
    _, _, mu = random_discrete(rng, 6, 2, 4)
    ix = MonomialIndex(2, 4)
    for _ in range(200):
        f = random_poly(rng, ix, 2)
        g = random_poly(rng, ix, 2)
        lhs = mu.expect(poly_mul(ix, f, g))
        rhs = math.sqrt(max(mu.expect(poly_mul(ix, f, f)), 0.0)
                        * max(mu.expect(poly_mul(ix, g, g)), 0.0))
        assert lhs <= rhs + 1e-9


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


CIRCLE = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}  # x^2 + y^2 - 1


def test_equality_residual_measures_constraint():
    """Residual is ~0 on the constraint's support, large off it."""
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])  # on the circle x^2 + y^2 = 1
    w = np.array([0.5, 0.5])
    circle = dense(CIRCLE)
    mu = atom_table(pts, w, 6, (circle,))
    assert equality_residual(mu, circle) < 1e-12
    assert validate(mu).ok()
    off = atom_table(2.0 * pts, w, 6)
    assert equality_residual(off, circle) > 1.0


# -- reweighting ---------------------------------------------------------------


def test_reweight_matches_direct_formula_on_support():
    """mu' weights are w_i p(x_i) / sum, so every moment follows."""
    rng = np.random.default_rng(13)
    pts, w, mu = random_discrete(rng, 6, 2, 6)
    ix = monomial_index(2, 2)
    rw = square(ix, linear(rng.standard_normal(2)))
    nu = reweight(mu, rw)
    vals = evaluate(ix, rw.coefficients, pts)
    w2 = w * vals
    w2 /= w2.sum()
    ix = MonomialIndex(2, 4)
    for _ in range(50):
        p = random_poly(rng, ix, 4)
        direct = float(np.dot(w2, evaluate(ix, p, pts)))
        assert abs(nu.expect(p) - direct) < 1e-10


def test_reweight_moment_path_agrees_with_support_path():
    """Reweighting through the moments gives the table of the atoms
    reweighted to w_i p(x_i), at the reduced degree."""
    rng = np.random.default_rng(14)
    pts, w, mu = random_discrete(rng, 5, 2, 6)
    rw = square(monomial_index(2, 2), linear(rng.standard_normal(2), 0.7))
    got = reweight(mu, rw)
    w2 = w * evaluate(rw.index, rw.coefficients, pts)
    ref = atom_table(pts, w2 / w2.sum(), mu.degree - 2)
    assert got.degree == mu.degree - 2
    np.testing.assert_allclose(got.moments, ref.moments, rtol=0, atol=1e-9)


def test_reweight_composition_matches_product():
    """Reweighting twice equals reweighting once by the product, whose
    certificate is the product of the roots."""
    rng = np.random.default_rng(15)
    pts, w, mu = random_discrete(rng, 6, 2, 8)
    ix = monomial_index(2, 4)
    g = linear(rng.standard_normal(2))
    h = linear(rng.standard_normal(2), 0.3)
    r1, r2 = square(ix, g), square(ix, h)
    product = ReweightPolynomial(ix, poly_mul(ix, r1.coefficients, r2.coefficients),
                                 (poly_mul(ix, g, h),))
    seq = reweight(reweight(mu, r1), r2)
    par = reweight(mu, product)
    ix = MonomialIndex(2, 4)
    for _ in range(30):
        p = random_poly(rng, ix, 4)
        assert abs(seq.expect(p) - par.expect(p)) < 1e-9


def test_reweight_checks_certificates():
    """A certificate that does not reproduce the weight is refused, and a
    weight cannot be built without one."""
    ix = monomial_index(2, 2)
    claim = ReweightPolynomial(  # x^2 - 1 is nowhere a sum of squares
        ix, dense({(2, 0): 1.0, (0, 0): -1.0}), (dense({(1, 0): 1.0}),))
    rng = np.random.default_rng(16)
    _, _, mu = random_discrete(rng, 4, 2, 6)
    with pytest.raises(NotSOS):
        reweight(mu, claim)
    with pytest.raises(TypeError):
        ReweightPolynomial(ix, claim.coefficients)
    with pytest.raises(TypeError):
        ReweightPolynomial(ix, claim.coefficients, None)


def test_reweight_rejects_tiny_weight_with_false_certificate():
    """The certificate check scales with the weight: 1e-9 x_1, which is
    not a sum of squares, fails against a zero root although every
    coefficient it gets wrong is below 1e-8."""
    pts = np.array([[2.0, 0.0], [-2.0, 0.5], [1.5, 1.0]])
    mu = atom_table(pts, np.ones(3) / 3.0, 6)
    tiny = ReweightPolynomial(monomial_index(2, 1), dense({(1, 0): 1e-9}), (np.zeros(1),))
    with pytest.raises(NotSOS):
        reweight(mu, tiny)


def test_reweight_degree_bookkeeping():
    """Reweighting by p costs deg p, down to a floor of degree 2."""
    rng = np.random.default_rng(18)
    _, _, mu = random_discrete(rng, 5, 2, 6)
    rw = square(monomial_index(2, 2), linear([1.0, 1.0]))
    low = reweight(mu, rw)
    assert low.degree == 4
    quartic = square(monomial_index(2, 4), dense({(2, 0): 1.0, (0, 2): 1.0}))
    with pytest.raises(DegreeExhausted):
        reweight(low, quartic)


def test_reweight_rejects_degenerate_weight():
    """Reweighting by a square vanishing on the whole support has no mass."""
    pts = np.array([[1.0, 0.0], [2.0, 0.0]])
    mu = atom_table(pts, np.array([0.5, 0.5]), 6)
    rw = square(monomial_index(2, 2), linear([0.0, 1.0]))
    with pytest.raises(DegenerateWeight):
        reweight(mu, rw)


def test_reweight_keeps_constraints_within_budget():
    """A reweighting keeps each equality whose degree fits the reduced
    table, still satisfied, and drops the others: on a degree-6 table a
    degree-2 weight keeps the circle and its degree-4 square |x|^4 = 1,
    and a degree-4 weight keeps only the circle."""
    circle = dense(CIRCLE)
    quartic = dense({(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0, (0, 0): -1.0})
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
    mu = atom_table(pts, np.ones(3) / 3.0, 6, (circle, quartic))
    cases = [(square(monomial_index(2, 2), linear([1.0, 0.0], 2.0)), 4, (True, True)),
             (square(monomial_index(2, 4), dense({(2, 0): 1.0, (0, 0): 1.0})), 2, (True, False))]
    for rw, degree, kept in cases:
        nu = reweight(mu, rw)
        assert nu.degree == degree
        # arrays compare elementwise, so membership is by identity
        assert tuple(any(q is c for q in nu.constraints) for c in (circle, quartic)) == kept
        assert len(nu.constraints) == sum(kept)
        for q in nu.constraints:
            assert equality_residual(nu, q) < 1e-10


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
    """Oracle: y'[a] = E~[p x^a] / E~ p, one term at a time."""
    new_ix = MonomialIndex(mu.num_vars, mu.degree - mu.index.degree_of(p))
    out = np.array([loop_expect(mu, p, e) for e in new_ix.exponents])
    out /= loop_expect(mu, p)
    out[0] = 1.0
    return out


def test_dense_product_matches_dict_reference():
    """poly_mul against evaluation at more random points than the
    product has monomials."""
    for seed in KERNEL_SEEDS:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        h1, h2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        ix = monomial_index(n, h1 + h2)
        p, q = random_poly(rng, ix, h1), random_poly(rng, ix, h2)
        got = poly_mul(ix, p, q)
        assert got.size == ix.count_through(h1 + h2)
        pts = rng.uniform(-1.0, 1.0, size=(got.size + 5, n))
        scale = np.abs(p).sum() * np.abs(q).sum()
        assert_rel(evaluate(ix, got, pts), evaluate(ix, p, pts) * evaluate(ix, q, pts),
                   10 * scale)


def test_linear_form_powers_match_dict_reference():
    """sum_j c_j <v, x>^j against evaluation at more random points than
    it has monomials."""
    for seed in KERNEL_SEEDS:
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 5))
        top = int(rng.integers(1, 7))
        ix = monomial_index(n, top)
        v = rng.standard_normal(n)
        coeffs = rng.standard_normal(top + 1)
        got = univariate_poly(ix, linear_form_powers(ix, v, top), coeffs)
        pts = rng.uniform(-1.0, 1.0, size=(got.size + 5, n))
        ref = np.polynomial.polynomial.polyval(pts @ v, coeffs)
        scale = float(np.abs(coeffs) @ (np.abs(v).sum() ** np.arange(top + 1)))
        assert_rel(evaluate(ix, got, pts), ref, 10 * scale)
        # a stack of directions gives the stack of expansions
        stack = rng.standard_normal((3, n))
        np.testing.assert_array_equal(
            linear_form_powers(ix, stack, top)[1],
            linear_form_powers(ix, stack[1], top))


def test_degree_two_powers_bit_identical_to_the_general_path():
    """At top 2, linear_form_powers gives bit for bit the degree <= 2
    prefix of the general expansion at top 3, signs of zeros included:
    over 1-8 variables, for single vectors and stacks, with entries +0
    and -0 mixed in, and at magnitudes near 1e+-200, where squares and
    products overflow or underflow."""
    rng = np.random.default_rng(62)
    for n in range(1, 9):
        ix = monomial_index(n, 3)
        count = ix.count_through(2)
        for shape in [(n,), (1, n), (9, n), (120, n), (2, 3, n)]:
            for scale in (1.0, 1e200, 1e-200, 1e150, 1e-160):
                v = rng.standard_normal(shape) * scale
                v[rng.random(shape) < 0.1] = 0.0
                v[rng.random(shape) < 0.1] = -0.0
                with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                    got = linear_form_powers(ix, v, 2)
                    ref = linear_form_powers(ix, v, 3)[..., :count]
                np.testing.assert_array_equal(got, ref)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


def test_linear_form_powers_bit_identical_to_monomial_powers():
    """The gathered power table gives exactly the multinomial weights
    times prod_i v_i^{a_i} of v ** exponents, for one direction and
    stacks of them, fix_subspace's draw batches of 120 and 256 among them,
    every top up to the table degree, 2-6 variables."""
    rng = np.random.default_rng(61)
    for n in range(2, 7):
        ix = monomial_index(n, 6)
        for top in range(ix.max_degree + 1):
            count = ix.count_through(top)
            for shape in [(n,), (7, n), (2, 3, n), (120, n), (256, n)]:
                v = rng.standard_normal(shape) * rng.uniform(0.1, 3.0)
                ref = ix.multinomials[:count] * np.multiply.reduce(
                    v[..., None, :] ** ix.exponents[:count], axis=-1)
                np.testing.assert_array_equal(linear_form_powers(ix, v, top), ref)
        for wrong in (n - 1, n + 1):
            with pytest.raises(DimensionMismatch):
                linear_form_powers(ix, np.ones((3, wrong)), 2)


def test_quadratic_form_expectations_match_dict_reference():
    """f^T Y g = E~ f g for random moment vectors, against the term-by-
    term sum; and the even and shifted linear-form powers the reweighting
    layer evaluates, against exact atom sums."""
    for seed in KERNEL_SEEDS:
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 5))
        degree = int(rng.integers(2, 7))
        mu = random_moments(rng, n, degree)
        h1 = int(rng.integers(0, degree + 1))
        h2 = int(rng.integers(0, degree - h1 + 1))
        f, g = random_poly(rng, mu.index, h1), random_poly(rng, mu.index, h2)
        block = moment_block(mu, h1, h2)
        got = f @ block @ g
        abs_y = np.abs(mu.moments).max()
        scale = np.abs(f).sum() * np.abs(g).sum() * abs_y
        ref = sum(g[b] * loop_expect(mu, f, mu.index.exponents[b]) for b in range(g.size))
        assert_rel(got, ref, scale)

        k = degree // 2
        pts, w, atoms = random_discrete(rng, 6, n, 2 * k)
        v = rng.standard_normal(n)
        shift = float(rng.standard_normal())
        coeffs = np.zeros(k + 1)
        for j in range(k + 1):
            coeffs[j] = math.comb(k, j) * shift ** (k - j)
        half = univariate_poly(atoms.index, linear_form_powers(atoms.index, v, k), coeffs)
        ref = float(w @ (pts @ v + shift) ** (2 * k))
        scale = (np.abs(v).sum() * 1.5 + abs(shift)) ** (2 * k)
        got = half @ moment_block(atoms, k, k) @ half
        assert_rel(got, ref, 10 * scale)


def test_reweight_matches_shift_loop_reference():
    for seed in KERNEL_SEEDS:
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 4))
        degree = int(rng.choice([4, 6]))
        _, _, mu = random_discrete(rng, 6, n, degree)
        ix = monomial_index(n, 4)
        g = linear(rng.standard_normal(n), float(rng.standard_normal()))
        if degree == 6 and seed % 2:
            g = np.concatenate([g, rng.standard_normal(ix.count_through(2) - g.size)])
        rw = square(ix, g)
        got = reweight(mu, rw)
        ref = shift_loop_reweight(mu, rw.coefficients)
        assert got.degree == degree - rw.degree
        norm = mu.expect(rw.coefficients)
        scale = np.abs(rw.coefficients).sum() * np.abs(mu.moments).max() / norm
        assert_rel(got.moments, ref, scale)


def test_kernel_keeps_degree_boundaries():
    """DegreeExceeded and DegreeExhausted fire at the degrees the
    definitions fix: a block or an expectation past the table, a
    reweighting that leaves less than degree 2."""
    rng = np.random.default_rng(400)
    for degree in (2, 3, 4, 5, 6):
        mu = random_moments(rng, 2, degree)
        for h1 in range(degree + 2):
            for h2 in range(degree + 2):
                if h1 + h2 <= degree:
                    moment_block(mu, h1, h2)
                    mu.expect(dense({(h1 + h2, 0): 1.0}))
                else:
                    with pytest.raises(DegreeExceeded):
                        moment_block(mu, h1, h2)
                    with pytest.raises(DegreeExceeded):
                        mu.expect(dense({(h1 + h2, 0): 1.0}))
        # a reweighting pays deg p and keeps at least degree 2
        big = monomial_index(2, 2 * degree)
        for half in range(1, degree):
            rw = square(big, poly_pow(big, linear([1.0, 0.5], 2.0), half))
            _, _, atoms = random_discrete(rng, 5, 2, degree)
            if 2 * half <= degree - 2:
                assert reweight(atoms, rw).degree == degree - 2 * half
            else:
                with pytest.raises(DegreeExhausted):
                    reweight(atoms, rw)
        # a constraint is measured against every multiplier that fits
        cubic = dense({(3, 0): 1.0, (1, 1): -0.5, (0, 0): -1.0})
        if degree < 3:
            assert equality_residual(mu, cubic) == 0.0
        else:
            ref = max(abs(loop_expect(mu, cubic, e))
                      for e in mu.index.exponents[:mu.index.count_through(degree - 3)])
            assert abs(equality_residual(mu, cubic) - ref) <= REL * 3.0 * np.abs(mu.moments).max()

    # the scalar fix and the subspace fix need degree 4
    pts = np.array([[2.0, 0.0], [-2.0, 0.5], [1.5, 1.0]])
    for degree in (3, 4, 5, 6):
        mu = atom_table(pts, np.ones(3) / 3.0, degree)
        if degree < 4:
            with pytest.raises(DegreeExhausted):
                fix_scalar(mu, [1.0, 0.0], 0.45)
            with pytest.raises(DegreeExhausted):
                fix_subspace(mu, np.eye(2), 0.5)
        else:
            assert fix_scalar(mu, [1.0, 0.0], 0.45)[0].degree == degree - 2
