"""Tests for the semidefinite feasibility solver.

Oracles: problems whose feasible moment vectors are unique (point
masses), problems infeasible for elementary algebraic reasons, and
polynomials with known sum-of-squares status.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from moment_tables import dense_poly
from rankone import sos_solver
from rankone.bss import planted_yes, random_no
from rankone.cli import _uncertified_subspace
from rankone.errors import DegreeTooSmall, IllFormed
from rankone.pseudodist import (
    ConstraintSpec,
    MonomialIndex,
    monomial_index,
    validate,
)
from rankone.sos_solver import (
    _RANK_EPS,
    DEFAULT_ITER_LIMIT,
    _AffineGeometry,
    _BlockMap,
    _face_basis,
    _linear_certificate,
    _sign_classes,
    SdpProblem,
    build_bss_problem,
    build_problem,
    certificate_margin,
    moment_bound,
    solve_feasibility,
)

EQUIVALENCE_SEEDS = range(24)


class SpanStub:
    """Minimal stand-in exposing the subspace interface the builder needs."""

    def __init__(self, n, complement):
        self.ambient = n
        self._complement = complement

    def complement_matrices(self):
        return self._complement


def complement_of_line(n, direction, rng):
    """Orthonormal basis of the hyperplane orthogonal to a flattened matrix."""
    m = direction.reshape(-1) / np.linalg.norm(direction)
    q, _ = np.linalg.qr(np.column_stack([m, rng.standard_normal((n * n, n * n - 1))]))
    return [q[:, k].reshape(n, n) for k in range(1, n * n)]


def dense(terms):
    """The dense vector of {exponent: coefficient} literals, over the
    table of their own variable count and degree."""
    num_vars = len(next(iter(terms)))
    degree = max(sum(e) for e in terms)
    return dense_poly(monomial_index(num_vars, degree), terms, degree)


def eq(terms):
    return ConstraintSpec(dense(terms))


def ineq(terms):
    return ConstraintSpec(dense(terms), "ineq")


def terms_of(index, vec):
    """Oracle input: the {exponent: coefficient} terms of a dense vector."""
    return {index.exponent_tuples[i]: float(vec[i]) for i in np.flatnonzero(vec)}


# -- problem construction --------------------------------------------------------


def test_build_problem_rejects_bad_degrees():
    c = eq({(1,): 1.0})
    with pytest.raises(DegreeTooSmall):
        build_problem(1, 3, [c])
    with pytest.raises(DegreeTooSmall):
        build_problem(1, 0, [c])
    with pytest.raises(IllFormed):
        build_problem(1, 2, [eq({(4,): 1.0})])
    with pytest.raises(IllFormed):
        build_problem(1, 2, [ineq({(1,): 1.0})])


def test_build_problem_counts_multipliers():
    """Each equality expands once per monomial within the degree budget."""
    c = eq({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    prob = build_problem(2, 4, [c])
    ix = MonomialIndex(2, 4)
    assert prob.lmat.shape[0] == 1 + ix.count_through(2)  # normalization + shifts
    assert len(prob.psd_blocks) == 1


def test_build_bss_problem_shapes():
    rng = np.random.default_rng(1)
    comp = complement_of_line(2, np.eye(2), rng)
    prob = build_bss_problem(SpanStub(2, comp), 4)
    assert prob.index.num_vars == 4
    # two spheres + three complement directions, each times 15 multipliers of
    # degree <= 2 over four variables, plus normalization
    assert prob.lmat.shape[0] == 1 + 5 * MonomialIndex(4, 4).count_through(2)
    with pytest.raises(DegreeTooSmall):
        build_bss_problem(SpanStub(2, comp), 3)
    with pytest.raises(DegreeTooSmall):
        build_bss_problem(SpanStub(2, comp), 2)


# -- feasible problems -----------------------------------------------------------


def test_point_mass_moments_are_all_one():
    """x = 1 pins every univariate moment to 1."""
    prob = build_problem(1, 4, [eq({(1,): 1.0, (0,): -1.0})])
    mu, rep = solve_feasibility(prob)
    assert rep.status == "feasible"
    np.testing.assert_allclose(mu.moments, np.ones(5), atol=1e-6)
    assert rep.max_constraint_residual < 1e-9


def test_sphere_distribution_is_valid():
    sphere = eq({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    mu, rep = solve_feasibility(build_problem(2, 6, [sphere]))
    assert rep.status == "feasible"
    assert validate(mu).ok()
    assert abs(mu.expect(dense({(2, 0): 1.0})) + mu.expect(dense({(0, 2): 1.0})) - 1.0) < 1e-7


def test_inequality_localizer_selects_the_right_root():
    """x^2 = 1 plus x >= 0 leaves only the point mass at +1."""
    square = eq({(2,): 1.0, (0,): -1.0})
    nonneg = ineq({(1,): 1.0})
    mu, rep = solve_feasibility(build_problem(1, 4, [square, nonneg]))
    assert rep.status == "feasible"
    np.testing.assert_allclose(mu.moments, np.ones(5), atol=1e-5)


def test_planted_line_forces_product_moment():
    """W spanned by e1 e1^T allows only u = +-e1, v = +-e1, so the invariant
    (u1 v1)^2 has pseudo-expectation 1."""
    rng = np.random.default_rng(2)
    comp = complement_of_line(2, np.eye(2) * 0 + np.outer([1, 0], [1, 0]), rng)
    mu, rep = solve_feasibility(build_bss_problem(SpanStub(2, comp), 4))
    assert rep.status == "feasible"
    assert abs(mu.expect(dense({(2, 0, 2, 0): 1.0})) - 1.0) < 1e-6
    assert validate(mu).ok()


def test_random_planted_subspace_is_feasible_and_valid():
    rng = np.random.default_rng(3)
    for seed in range(3):
        local = np.random.default_rng(seed)
        u = local.standard_normal(2)
        u /= np.linalg.norm(u)
        v = local.standard_normal(2)
        v /= np.linalg.norm(v)
        comp = complement_of_line(2, np.outer(u, v), local)
        mu, rep = solve_feasibility(build_bss_problem(SpanStub(2, comp), 4))
        assert rep.status == "feasible"
        assert validate(mu).ok()


# -- infeasible problems ----------------------------------------------------------


def test_contradictory_equalities_are_infeasible():
    """x = 0 and x = 1: refused at set-up, and the witness is the equality
    Farkas vector lam, which the checker accepts on its own.  No sphere
    bounds the moments, so L^T lam has to vanish up to rounding."""
    zero = eq({(1,): 1.0})
    one = eq({(1,): 1.0, (0,): -1.0})
    problem = build_problem(1, 4, [zero, one])
    mu, rep = solve_feasibility(problem)
    assert mu is None
    assert (rep.status, rep.iterations) == ("infeasible", 0)
    cert = rep.certificate
    assert cert.kind == "linear" and cert.bound == np.inf
    assert cert.margin > 0.01
    assert certificate_margin(problem, cert.multipliers) == cert.margin


def test_zero_subspace_is_infeasible():
    """W = {0} contradicts the two unit spheres."""
    n = 2
    comp = [np.eye(n)[i][:, None] * np.eye(n)[j][None, :]
            for i in range(n) for j in range(n)]
    problem = build_bss_problem(SpanStub(n, comp), 4)
    mu, rep = solve_feasibility(problem)
    assert mu is None
    assert rep.status == "infeasible"
    assert rep.certificate.bound == 1.0
    assert certificate_margin(problem, rep.certificate.multipliers) == rep.certificate.margin > 0


def test_moment_bound_needs_spheres_over_every_variable():
    sphere = eq({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    half = eq({(2, 0): 2.0, (0, 0): -2.0})
    tilted = eq({(2, 0): 1.0, (0, 2): 2.0, (0, 0): -1.0})
    assert moment_bound(build_problem(2, 4, [sphere])) == 1.0
    assert moment_bound(build_problem(2, 4, [half, eq(
        {(0, 2): 1.0, (0, 0): -1.0})])) == 1.0
    assert moment_bound(build_problem(2, 4, [half])) == np.inf
    assert moment_bound(build_problem(2, 4, [tilted])) == np.inf
    assert moment_bound(build_problem(2, 4, [ineq(
        {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})])) == np.inf
    assert moment_bound(scaled_problem()) == np.inf


def oracle_conic_margin(problem, cert):
    """Oracle: the margin of a certificate from the whole localizing
    matrices of `loop_block_matrix`, with each factor's H H^T placed on
    the rows and columns of its class, checked PSD, and a dense L.  With
    no moment bound, L^T lam + t must vanish within 1e-9 of its terms."""
    index = problem.index
    degree = index.max_degree
    labels = _sign_classes(problem)
    full = loop_block_matrix(index, degree, problem.psd_blocks)
    stacked = []
    factors = iter(cert.factors)
    for loc in problem.psd_blocks:
        m = index.count_through((degree - index.degree_of(loc)) // 2)
        z = np.zeros((m, m))
        for members in sos_solver._class_members(labels[:m]):
            h = next(factors)
            z[np.ix_(members, members)] = h @ h.T
        assert np.linalg.eigvalsh(z)[0] >= -1e-12 * max(1.0, np.abs(z).max())
        stacked.append(z.reshape(-1))
    assert next(factors, None) is None
    t = full.T @ np.concatenate(stacked)
    lam = cert.multipliers
    lt = problem.lmat.toarray().T * lam
    resid = lt.sum(axis=1) + t
    bound = moment_bound(problem)
    if np.isfinite(bound):
        return float(problem.rhs @ lam - bound * np.abs(resid).sum())
    assert np.abs(resid).sum() <= 1e-9 * (np.abs(lt).sum() + np.abs(t).sum())
    return float(problem.rhs @ lam)


def test_conic_certificate_refuses_a_no_instance_at_degree_four():
    """_uncertified_subspace(4, 9, 0) (dim (n-1)^2, a generic no-instance)
    at degree 4: L y = b is consistent, so no linear certificate, but the
    relaxation is strongly infeasible and the DR displacement gives a
    conic one.  The checker reproduces its margin, the oracle agrees, and
    -lam, factors moved by a tenth of their norm, and factors that do not
    fit the blocks are all rejected."""
    problem = build_bss_problem(_uncertified_subspace(4, 9, 0), 4)
    mu, rep = solve_feasibility(problem)
    assert mu is None and rep.status == "infeasible" and rep.iterations <= 100
    cert = rep.certificate
    assert (cert.kind, cert.bound) == ("conic", 1.0)
    assert certificate_margin(problem, cert.multipliers, cert.factors) == cert.margin > 0
    assert oracle_conic_margin(problem, cert) == pytest.approx(cert.margin, rel=1e-9)
    assert certificate_margin(problem, -cert.multipliers, cert.factors) < 0
    assert certificate_margin(problem, cert.multipliers) < 0
    rng = np.random.default_rng(11)
    for _ in range(5):
        moved = []
        for h in cert.factors:
            step = rng.standard_normal(h.shape)
            moved.append(h + 0.1 * np.linalg.norm(h) * step / max(np.linalg.norm(step), 1e-300))
        assert certificate_margin(problem, cert.multipliers, moved) < 0
    with pytest.raises(IllFormed):
        certificate_margin(problem, cert.multipliers, cert.factors[:-1])
    with pytest.raises(IllFormed):
        certificate_margin(problem, cert.multipliers,
                           [np.zeros((h.shape[0] + 1, 1)) for h in cert.factors])


def test_certificate_checker_rejects_perturbed_and_flipped_multipliers():
    """A refusal's lam passes the checker; -lam, and lam moved by a tenth
    of its norm in a random direction, fail it, with a sphere bound and
    without one."""
    zero = eq({(1,): 1.0})
    one = eq({(1,): 1.0, (0,): -1.0})
    problems = [build_problem(1, 4, [zero, one])] + [
        build_bss_problem(random_no(n, 1, 0)[0], d) for n, d in ((2, 4), (2, 6), (3, 4))]
    rng = np.random.default_rng(10)
    for problem in problems:
        _, rep = solve_feasibility(problem)
        lam = rep.certificate.multipliers
        assert certificate_margin(problem, lam) > 0
        assert certificate_margin(problem, -lam) < 0
        for _ in range(5):
            step = rng.standard_normal(lam.size)
            step *= 0.1 * np.linalg.norm(lam) / np.linalg.norm(step)
            assert certificate_margin(problem, lam + step) < 0


# -- solver behavior --------------------------------------------------------------


def test_solver_is_deterministic():
    sphere = eq({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    prob = build_problem(2, 4, [sphere])
    mu1, rep1 = solve_feasibility(prob)
    mu2, rep2 = solve_feasibility(prob)
    np.testing.assert_array_equal(mu1.moments, mu2.moments)
    assert rep1.iterations == rep2.iterations


def test_tighter_tolerance_still_converges():
    rng = np.random.default_rng(4)
    comp = complement_of_line(2, np.outer([0.6, 0.8], [1.0, 0.0]), rng)
    prob = build_bss_problem(SpanStub(2, comp), 4)
    mu, rep = solve_feasibility(prob, tol=1e-8)
    assert rep.status == "feasible"
    assert rep.min_block_eigenvalue >= -1e-8
    assert validate(mu).ok()


def test_iter_limit_reported():
    """planted_yes(3, 5, 3) at degree 4 is feasible, so no certificate
    exists, and DR takes 2,490 steps to settle it: with a limit of 40 the
    run ends at the limit."""
    problem = build_bss_problem(planted_yes(3, 5, 3)[0], 4)
    mu, rep = solve_feasibility(problem, iter_limit=40)
    assert mu is None
    assert rep.status == "iter_limit"
    assert rep.iterations == 40
    assert rep.certificate is None


def test_strongly_infeasible_cone_is_refused_with_a_conic_certificate():
    """x^2 = -1: L y = b is consistent, so there is no linear certificate,
    but no moment matrix with E~ x^2 = -1 is PSD.  The displacement of DR
    gives Z = e_x e_x^T on the odd class block, and T^T(Z) = e_{x^2} lies in
    range(L^T) exactly, so the certificate holds with no moment bound."""
    minus_one = eq({(2,): 1.0, (0,): 1.0})
    problem = build_problem(1, 2, [minus_one])
    mu, rep = solve_feasibility(problem, iter_limit=40)
    assert mu is None and rep.status == "infeasible"
    cert = rep.certificate
    assert (cert.kind, cert.bound) == ("conic", np.inf)
    assert certificate_margin(problem, cert.multipliers, cert.factors) == cert.margin > 0
    assert oracle_conic_margin(problem, cert) == pytest.approx(cert.margin, rel=1e-9)


# -- sparse set-up against the dict and dense references --------------------------


def random_spec_poly(rng, ix, top):
    """A few random terms of degree <= top (the constant term half the time)."""
    count = ix.count_through(top)
    picks = rng.choice(count, size=min(count, int(rng.integers(1, 5))), replace=False)
    poly = {ix.exponent_tuples[int(i)]: float(rng.standard_normal()) for i in picks}
    if rng.random() < 0.5:
        poly[ix.exponent_tuples[0]] = float(rng.standard_normal())
    return poly


def random_problem_specs(rng, num_vars, degree):
    """Equalities of mixed degree and parity, sometimes a degree-0 equality,
    and sometimes a multi-term inequality localizer."""
    ix = MonomialIndex(num_vars, degree)
    specs = [eq(random_spec_poly(rng, ix, int(rng.integers(1, degree + 1))))
             for _ in range(int(rng.integers(0, 3)))]
    if rng.random() < 0.2:
        specs.append(eq({ix.exponent_tuples[0]: 2.0}))
    if rng.random() < 0.5:
        specs.append(ineq(
            random_spec_poly(rng, ix, int(rng.integers(0, degree - 1)))))
    rng.shuffle(specs)
    return specs


def random_problem(seed):
    rng = np.random.default_rng(seed)
    num_vars = int(rng.integers(1, 4))
    degree = int(rng.choice([2, 4, 6] if num_vars < 3 else [2, 4]))
    specs = random_problem_specs(rng, num_vars, degree)
    return num_vars, degree, specs


def dict_equalities(num_vars, degree, constraints):
    """Oracle: each equality spec times each multiplier, expanded through
    dicts.  Returns the (functional, rhs) pairs, normalization first."""
    index = MonomialIndex(num_vars, degree)
    equalities = [({(0,) * num_vars: 1.0}, 1.0)]
    for spec in constraints:
        q = terms_of(index, spec.polynomial)
        if not q or spec.kind != "eq":
            continue
        for shift in index.exponent_tuples[:index.count_through(degree - max(map(sum, q)))]:
            equalities.append(
                ({tuple(a + b for a, b in zip(e, shift)): c for e, c in q.items()}, 0.0))
    return equalities


def dict_lmat(index, equalities):
    rows, cols, data = [], [], []
    for r, (functional, _) in enumerate(equalities):
        for e, c in functional.items():
            rows.append(r)
            cols.append(index.index_of(e))
            data.append(c)
    return sp.csr_matrix((data, (rows, cols)), shape=(len(equalities), index.size))


def loop_block_matrix(index, degree, localizers):
    """Oracle: block entry (a, b) of term c x^e reads c * y[x^(a + b + e)]."""
    rows, cols, data = [], [], []
    offset = 0
    for loc in localizers:
        terms = terms_of(index, loc)
        m = index.count_through((degree - max(map(sum, terms))) // 2)
        exps = index.exponents[:m]
        for e, c in sorted(terms.items()):
            for a in range(m):
                for b in range(m):
                    rows.append(offset + a * m + b)
                    cols.append(index.index_of(tuple(int(v) for v in exps[a] + exps[b] + e)))
                    data.append(c)
        offset += m * m
    return sp.csr_matrix((data, (rows, cols)), shape=(offset, index.size))


def dict_face_basis(index, degree, equalities):
    """Oracle: the ideal members of degree <= half, as dense columns."""
    m = index.count_through(degree // 2)
    cols = []
    for functional, _ in equalities[1:]:
        if max(map(sum, functional)) > degree // 2:
            continue
        vec = np.zeros(m)
        for e, c in functional.items():
            vec[index.index_of(e)] = c
        cols.append(vec)
    if not cols:
        return None
    u, s, _ = np.linalg.svd(np.column_stack(cols), full_matrices=True)
    rank = int((s > _RANK_EPS * max(s[0], 1.0)).sum())
    if rank == 0:
        return None
    if rank == m:
        return np.zeros((m, 0))
    return u[:, rank:]


def dense_null_space(lmat, b):
    """Oracle: null basis and minimum-norm solution from one eigh of L^T L."""
    vals, vecs = np.linalg.eigh((lmat.T @ lmat).toarray())
    null_mask = vals <= _RANK_EPS * max(float(vals[-1]), 1.0)
    row_vecs = vecs[:, ~null_mask]
    y = row_vecs @ ((row_vecs.T @ (lmat.T @ b)) / vals[~null_mask])
    return vecs[:, null_mask], y


def scaled_problem():
    """Column blocks with eigenvalues 1e6, 1e6 | 1 | 1.5e-4 | 5e-5: the global
    cut 1e-10 * 1e6 frees the last moment, and 1.5e-4 sits below 1e-10 * trace.
    Every row has a nonzero right-hand side, odd moments included."""
    return SdpProblem(
        monomial_index(1, 4), sp.csr_matrix(np.diag([1.0, 1e3, 1e3, 1.5e-4 ** 0.5, 5e-5 ** 0.5])),
        np.ones(5), (np.ones(1),), ())


def one_class(problem):
    """Sign labels that put every monomial in the invariant class."""
    return np.zeros(problem.index.size, dtype=np.int64)


def assert_same_csr(got, ref):
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    np.testing.assert_array_equal(got.data, ref.data)


def test_lmat_matches_dict_expansion():
    for seed in EQUIVALENCE_SEEDS:
        num_vars, degree, specs = random_problem(seed)
        prob = build_problem(num_vars, degree, specs)
        equalities = dict_equalities(num_vars, degree, specs)
        assert_same_csr(prob.lmat, dict_lmat(prob.index, equalities))
        np.testing.assert_array_equal(prob.rhs, [b for _, b in equalities])
        assert prob.index is build_problem(num_vars, degree, []).index  # memoized


def test_block_map_matches_triple_loop():
    for seed in EQUIVALENCE_SEEDS:
        num_vars, degree, specs = random_problem(100 + seed)
        prob = build_problem(num_vars, degree, specs)
        got = _BlockMap(prob.index, degree, prob.psd_blocks, one_class(prob)).matrix
        assert_same_csr(got, loop_block_matrix(prob.index, degree, prob.psd_blocks))


def test_face_basis_matches_dict_ideal():
    for seed in EQUIVALENCE_SEEDS:
        num_vars, degree, specs = random_problem(200 + seed)
        prob = build_problem(num_vars, degree, specs)
        got, = _face_basis(prob.index, degree, prob.lmat, one_class(prob))
        ref = dict_face_basis(prob.index, degree, dict_equalities(num_vars, degree, specs))
        if ref is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, ref)


def assert_geometry_matches_dense(prob, columns):
    """The two-level geometry of L y = b on the given columns against one
    eigh of the whole Gram matrix: the same projector N N^T, and where the
    dense point solves L y = b to 1e-9 the same minimum-norm point;
    elsewhere a certificate exactly when the dense least-squares residual
    r gives one, as lam = r / ||r||^2.  Returns whether L y = b is
    consistent."""
    lmat = prob.lmat[:, columns]
    geo = _AffineGeometry(lmat, prob.rhs, prob.index.degrees[columns])
    null_ref, y_ref = dense_null_space(lmat, prob.rhs)
    assert geo.null_basis.shape == null_ref.shape
    np.testing.assert_allclose(geo.null_basis @ geo.null_basis.T,
                               null_ref @ null_ref.T, rtol=0, atol=1e-10)
    r = prob.rhs - lmat @ y_ref
    if np.abs(r).max() <= 1e-9:
        # the dense reference mixes blocks, so its error grows with |y|
        np.testing.assert_allclose(geo.y_particular, y_ref, rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(y_ref).max()))
        return True
    refused = certificate_margin(prob, r / (r @ r)) > 0
    assert (_linear_certificate(prob, geo) is not None) == refused
    return False


def test_block_null_space_matches_dense_eigh():
    """Isolated columns included.  The point of an inconsistent L y = b
    has no use (a refusal returns at set-up), so there only the refusal
    is compared: on the BSS line, scaled_problem() and random problems
    303, 305, 306, 312, 317 and 318."""
    isolated = build_problem(2, 4, [eq({(4, 0): 1.0, (3, 0): -1.0})])
    rng = np.random.default_rng(5)
    sign_classes = build_bss_problem(
        SpanStub(2, complement_of_line(2, rng.standard_normal((2, 2)), rng)), 6)
    cases = [isolated, sign_classes, scaled_problem()] + [
        build_problem(*random_problem(300 + seed)) for seed in EQUIVALENCE_SEEDS]
    consistent = [assert_geometry_matches_dense(prob, np.arange(prob.index.size))
                  for prob in cases]
    assert sum(consistent) == 19


def row_degree_spans(prob):
    """Oracle: lowest and highest degree of the monomials in each row of L."""
    spans = []
    for r in range(prob.lmat.shape[0]):
        cols = prob.lmat.indices[prob.lmat.indptr[r]:prob.lmat.indptr[r + 1]]
        degrees = [sum(prob.index.exponent_tuples[c]) for c in cols]
        spans.append((min(degrees), max(degrees)))
    return spans


def test_two_level_null_space_matches_dense_eigh_on_workload_shapes():
    """The BSS shapes the workloads solve, on the invariant columns as
    the solver takes them, and the two degenerate splits: every row
    homogeneous (one level of blocks) and none (one level over the
    whole L)."""
    cases = [build_bss_problem(planted_yes(2, dim_w, 1)[0], degree)
             for dim_w in range(1, 5) for degree in (4, 6)]
    cases += [build_bss_problem(planted_yes(3, dim_w, 1)[0], 6) for dim_w in (1, 3, 5, 8)]
    cases += [build_bss_problem(planted_yes(3, 3, 0)[0], 8),
              build_bss_problem(planted_yes(4, 3, 0)[0], 6),
              build_bss_problem(random_no(3, 2, 0)[0], 8)]
    consistent = [assert_geometry_matches_dense(prob, np.flatnonzero(_sign_classes(prob) == 0))
                  for prob in cases]
    assert consistent == [True] * (len(cases) - 1) + [False]

    homogeneous = build_problem(2, 4, [eq(
        {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 0.5})])
    sphere = build_problem(2, 4, [eq(
        {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})])
    rhs = np.random.default_rng(10).standard_normal(sphere.lmat.shape[0] - 1)
    mixed = SdpProblem(sphere.index, sphere.lmat[1:], rhs, sphere.psd_blocks, ())
    assert all(lo == hi for lo, hi in row_degree_spans(homogeneous))
    assert all(lo < hi for lo, hi in row_degree_spans(mixed))
    for prob in (homogeneous, mixed):
        assert assert_geometry_matches_dense(prob, np.arange(prob.index.size))


# -- sign-symmetry reduction against brute force and the one-class path ----------


def oracle_sign_signatures(problem):
    """Oracle: keep each sign vector s under which every row of L maps to
    +- itself, every localizer term is fixed and every term of a row with a
    nonzero right-hand side is fixed.  Row a of the result lists s^a over
    the kept s, so two monomials share a class iff their rows agree."""
    index, lmat = problem.index, problem.lmat
    kept = []
    for signs in itertools.product((1, -1), repeat=index.num_vars):
        flip = np.prod(np.array(signs) ** index.exponents, axis=1)
        fixed = all(flip[i] == 1 for loc in problem.psd_blocks for i in np.flatnonzero(loc))
        for r in range(lmat.shape[0]):
            row = flip[lmat.indices[lmat.indptr[r]:lmat.indptr[r + 1]]]
            fixed &= bool(np.all(row == row[:1]))
            if problem.rhs[r] != 0:
                fixed &= bool(np.all(row == 1))
        if fixed:
            kept.append(flip)
    return np.array(kept).T


def assert_classes_match_oracle(problem):
    labels = _sign_classes(problem)
    signatures = oracle_sign_signatures(problem)
    _, oracle = np.unique(signatures, axis=0, return_inverse=True)
    oracle = oracle.reshape(-1)
    pairs = np.unique(np.column_stack([labels, oracle]), axis=0)
    # the partitions agree: each label meets exactly one oracle class
    assert len(pairs) == len(np.unique(labels)) == len(np.unique(oracle))
    # class 0 is the invariant class, labelled in increasing order
    np.testing.assert_array_equal(labels == 0, np.all(signatures == 1, axis=1))
    np.testing.assert_array_equal(np.unique(labels), np.arange(labels.max() + 1))
    return labels


def test_sign_classes_match_brute_force_oracle():
    for seed in EQUIVALENCE_SEEDS:
        assert_classes_match_oracle(build_problem(*random_problem(seed)))
    rng = np.random.default_rng(6)
    for n, degree in ((2, 4), (2, 6), (3, 4)):
        comp = complement_of_line(n, rng.standard_normal((n, n)), rng)
        problem = build_bss_problem(SpanStub(n, comp), degree)
        labels = assert_classes_match_oracle(problem)
        exps = problem.index.exponents
        # the classes are the parities of the degree in u and in v
        parity = 2 * (exps[:, :n].sum(axis=1) % 2) + exps[:, n:].sum(axis=1) % 2
        assert labels.max() + 1 == len(np.unique(np.column_stack([labels, parity]), axis=0)) == 4
    # W the whole space: every flip fixes the two spheres
    labels = assert_classes_match_oracle(build_bss_problem(SpanStub(2, []), 4))
    assert labels.max() + 1 == 16
    mixed = build_problem(2, 4, [eq({(1, 0): 1.0, (0, 1): 1.0,
                                                          (0, 0): -1.0})])
    for problem in (scaled_problem(), mixed):
        assert not assert_classes_match_oracle(problem).any()


def symmetric_problem(seed):
    """A unit sphere, two equalities whose terms share a parity (an even
    one with a constant term), and a localizer with an even part: a
    nontrivial sign group, with localizer blocks split by class."""
    rng = np.random.default_rng(seed)
    num_vars = int(rng.integers(2, 4))
    degree = int(rng.choice([4, 6] if num_vars == 2 else [4]))
    ix = MonomialIndex(num_vars, degree)
    terms = ix.exponent_tuples[1:ix.count_through(3)]
    parities = np.array(terms) % 2

    def same_parity(parity, count):
        same = [e for e, q in zip(terms, parities) if np.array_equal(q, parity)]
        picks = rng.choice(len(same), size=min(len(same), count), replace=False)
        return {same[int(i)]: float(rng.standard_normal()) for i in picks}

    sphere = {tuple(2 * int(i == j) for j in range(num_vars)): 1.0 for i in range(num_vars)}
    sphere[(0,) * num_vars] = -1.0
    even = same_parity(np.zeros(num_vars, dtype=int), 2)
    even[(0,) * num_vars] = 0.3
    linked = same_parity(parities[int(rng.integers(len(terms)))], int(rng.integers(1, 4)))
    local = {(0,) * num_vars: 1.0, tuple(2 * int(j == 0) for j in range(num_vars)): -1.5}
    if rng.random() < 0.5:
        local[terms[int(rng.integers(num_vars, ix.count_through(2) - 1))]] = 0.3
    specs = [eq(sphere), eq(even),
             eq(linked), ineq(local)]
    return build_problem(num_vars, degree, specs)


def solve_both_ways(problem, monkeypatch, iter_limit=DEFAULT_ITER_LIMIT):
    reduced = solve_feasibility(problem, iter_limit=iter_limit)
    with monkeypatch.context() as m:
        m.setattr(sos_solver, "_sign_classes", one_class)
        whole = solve_feasibility(problem, iter_limit=iter_limit)
    return reduced, whole


def assert_same_solve(reduced, whole):
    (mu, rep), (mu_ref, rep_ref) = reduced, whole
    assert (rep.status, rep.iterations) == (rep_ref.status, rep_ref.iterations)
    assert rep.gap == pytest.approx(rep_ref.gap, rel=1e-6, abs=1e-12)
    if mu_ref is None:
        assert mu is None
    else:
        np.testing.assert_allclose(mu.moments, mu_ref.moments, rtol=0, atol=1e-9)


def test_reduced_solve_matches_one_class_path(monkeypatch):
    """Same status, iteration count and moments (within 1e-9) as the same
    solver with every monomial in one class, and exact zeros off class 0."""
    statuses = set()
    for seed in EQUIVALENCE_SEEDS:
        problem = symmetric_problem(seed)
        labels = _sign_classes(problem)
        assert labels.max() > 0
        reduced, whole = solve_both_ways(problem, monkeypatch, iter_limit=3000)
        assert_same_solve(reduced, whole)
        statuses.add(reduced[1].status)
        if reduced[0] is not None:
            assert not reduced[0].moments[labels != 0].any()
    assert "feasible" in statuses


def face_projector(problem, labels):
    """N N^T over the main block for the faces of `_face_basis`, with a
    class that has no face restriction contributing its identity."""
    m = problem.index.count_through(problem.index.max_degree // 2)
    faces = _face_basis(problem.index, problem.index.max_degree, problem.lmat, labels)
    members = sos_solver._class_members(labels[:m])
    assert len(faces) == len(members)
    proj = np.zeros((m, m))
    for ix, face in zip(members, faces):
        proj[np.ix_(ix, ix)] = np.eye(ix.size) if face is None else face @ face.T
    return proj


def test_class_faces_split_the_one_class_face():
    """Each ideal row lies in one class, so the class faces assemble into
    the one-class face, with one rank cut over all classes: here the odd
    class's only ideal member (1e-5 x) falls below the cut 1e-10 * 1e6 set
    by the even class."""
    rng = np.random.default_rng(7)
    scales = build_problem(1, 4, [eq({(2,): 1e6}),
                                  eq({(1,): 1e-5})])
    cases = [scales] + [symmetric_problem(seed) for seed in EQUIVALENCE_SEEDS] + [
        build_bss_problem(SpanStub(n, complement_of_line(n, rng.standard_normal((n, n)), rng)), d)
        for n, d in ((2, 4), (2, 6), (3, 4), (3, 6))]
    for problem in cases:
        labels = _sign_classes(problem)
        assert labels.max() > 0
        np.testing.assert_allclose(face_projector(problem, labels),
                                   face_projector(problem, one_class(problem)),
                                   rtol=0, atol=1e-10)


def plain_dr(monkeypatch):
    """The solver with Anderson acceleration off: every step the plain DR
    step, as the memory stays empty."""
    monkeypatch.setattr(sos_solver, "_ANDERSON_MEMORY", 0)


def test_reduction_keeps_degree_four_refusals(monkeypatch):
    """random_no(3, 1, 0) at degree 4 (L y = b inconsistent) is refused at
    set-up on both paths, with the same certificate, and the plant
    planted_yes(3, 5, 3) is feasible on both: the reduction neither fixes
    nor hides a verdict.  Rounding sends the accelerated iterations of the
    two paths apart (2490 against 2580 steps), so step for step the paths
    are compared under plain DR, which takes 7050 steps."""
    refusal = build_bss_problem(random_no(3, 1, 0)[0], 4)
    plant = build_bss_problem(planted_yes(3, 5, 3)[0], 4)
    reduced, whole = solve_both_ways(refusal, monkeypatch)
    assert_same_solve(reduced, whole)
    assert reduced[1].status == "infeasible"
    np.testing.assert_array_equal(reduced[1].certificate.multipliers,
                                  whole[1].certificate.multipliers)
    reduced, whole = solve_both_ways(plant, monkeypatch)
    assert reduced[1].status == whole[1].status == "feasible"
    plain_dr(monkeypatch)
    reduced, whole = solve_both_ways(plant, monkeypatch)
    assert_same_solve(reduced, whole)
    assert reduced[1].status == "feasible"


# -- face-coordinate DR against the stacked-space reference -----------------------


def stacked_project_cone(block_map, stacked, faces):
    """Reference cone step on the stacked blocks: each block onto its PSD
    cone, main-block classes onto their faces.  Returns the projected
    stack and the smallest eigenvalue seen."""
    out = np.empty_like(stacked)
    offset = 0
    min_eig = np.inf
    for bi, m in enumerate(block_map.sizes):
        mat = stacked[offset:offset + m * m].reshape(m, m)
        mat = 0.5 * (mat + mat.T)
        face = faces[bi] if bi < len(faces) else None
        if face is not None:
            if face.shape[1] == 0:
                out[offset:offset + m * m] = 0.0
                offset += m * m
                continue
            vals, vecs = np.linalg.eigh(face.T @ mat @ face)
            proj = face @ ((vecs * np.maximum(vals, 0.0)) @ vecs.T) @ face.T
        else:
            vals, vecs = np.linalg.eigh(mat)
            proj = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        min_eig = min(min_eig, float(vals[0]))
        out[offset:offset + m * m] = proj.reshape(-1)
        offset += m * m
    return out, (min_eig if np.isfinite(min_eig) else 0.0)


class StackedAffine:
    """Reference affine step: least squares onto { T(y) : L y = b } over
    the stacked blocks, through the normal equations in the null-space
    coordinates w of y = y_p + N w."""

    def __init__(self, geo, block_map):
        self.geo, self.matrix = geo, block_map.matrix
        tt = (block_map.matrix.T @ block_map.matrix).toarray()
        r = geo.null_basis.shape[1]
        self.h_factor = cho_factor(
            geo.null_basis.T @ tt @ geo.null_basis + 1e-13 * np.eye(r), lower=True)
        self.u_particular = tt @ geo.y_particular

    def project(self, stacked):
        """(y_hat, T(y_hat)) for the least-squares y_hat."""
        w = cho_solve(self.h_factor, self.geo.null_basis.T
                      @ (self.matrix.T @ stacked - self.u_particular))
        y = self.geo.y_particular + self.geo.null_basis @ w
        return y, self.matrix @ y


def solver_parts(problem):
    """The set-up of `solve_feasibility`, shared by both DR spaces."""
    index = problem.index
    labels = _sign_classes(problem)
    invariant = np.flatnonzero(labels == 0)
    block_map = _BlockMap(index, index.max_degree, problem.psd_blocks, labels)
    faces = _face_basis(index, index.max_degree, problem.lmat, labels)
    geo = _AffineGeometry(problem.lmat[:, invariant], problem.rhs, index.degrees[invariant])
    return invariant, block_map, faces, geo


def lift(block_map, faces, x):
    """Stacked blocks F X F^T of face coordinates x (zero where the face
    has no columns)."""
    out = np.zeros(block_map.total)
    offset = start = 0
    for bi, m in enumerate(block_map.sizes):
        face = faces[bi] if bi < len(faces) else None
        if face is None:
            face = np.eye(m)
        k = face.shape[1]
        mat = x[start:start + k * k].reshape(k, k)
        out[offset:offset + m * m] = (face @ mat @ face.T).reshape(-1)
        offset += m * m
        start += k * k
    assert start == x.size
    return out


def pinned_problem():
    """x = 1 at degree 4: L y = b pins every moment, so the null space is
    empty (r = 0)."""
    return build_problem(1, 4, [eq({(1,): 1.0, (0,): -1.0})])


def reference_cases():
    """Symmetric and random problems, BSS lines and plants at n = 2 and 3,
    then random_no(3, 1, 0) and planted_yes(3, 5, 3) at degree 4 and the
    pinned problem."""
    rng = np.random.default_rng(8)
    cases = [symmetric_problem(seed) for seed in EQUIVALENCE_SEEDS]
    cases += [build_problem(*random_problem(400 + seed)) for seed in EQUIVALENCE_SEEDS]
    for n in (2, 3):
        line = SpanStub(n, complement_of_line(n, rng.standard_normal((n, n)), rng))
        cases += [build_bss_problem(w, d) for w in (line, planted_yes(n, n, 1)[0])
                  for d in (4, 6)]
    cases += [build_bss_problem(random_no(3, 1, 0)[0], 4),
              build_bss_problem(planted_yes(3, 5, 3)[0], 4),
              pinned_problem()]
    return cases


def test_face_affine_step_is_the_stacked_projection_of_the_lift():
    """c + B G^T (x - c) lifts to the stacked least-squares projection of
    the lift of x, less the constant off-face part of T(y_p), and its w
    gives the same y."""
    rng = np.random.default_rng(9)
    cases = reference_cases()
    for problem in cases[::3] + cases[-3:]:
        _, block_map, faces, geo = solver_parts(problem)
        space = sos_solver._FaceSpace(block_map, faces, geo)
        affine = StackedAffine(geo, block_map)
        const = block_map.matrix @ geo.y_particular
        off_face = const - lift(block_map, faces, space.c)
        assert float(off_face @ off_face) == pytest.approx(space.off2, rel=1e-6, abs=1e-20)
        for _ in range(3):
            x = rng.standard_normal(space.c.size)
            w = space.coefficients(x)
            y_ref, s_ref = affine.project(lift(block_map, faces, x))
            np.testing.assert_allclose(geo.y_particular + geo.null_basis @ w, y_ref,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(lift(block_map, faces, space.point(w)) + off_face,
                                       s_ref, rtol=0, atol=1e-10)


def test_face_solve_matches_stacked_reference():
    """The face-coordinate DR map against the stacked-space one, step for
    step: from z_0 = T(y_p) and x_0 = c, each stacked iterate is the lift
    of the face iterate plus k + 1 copies of the constant off-face part of
    T(y_p), which neither projection sees.  At each step the cone steps
    agree to 1e-9, and so do the y of the affine step, and the gap to rel
    1e-6, on problems with and without an off-face term and with an empty
    null space."""
    off_face = []
    for problem in reference_cases():
        _, block_map, faces, geo = solver_parts(problem)
        space = sos_solver._FaceSpace(block_map, faces, geo)
        affine = StackedAffine(geo, block_map)
        off = block_map.matrix @ geo.y_particular - lift(block_map, faces, space.c)
        z = block_map.matrix @ geo.y_particular
        x = space.c.copy()
        for step in range(20):
            np.testing.assert_allclose(lift(block_map, faces, x) + (step + 1) * off, z,
                                       rtol=0, atol=1e-9 * max(1.0, np.abs(z).max()))
            s_cone, _ = stacked_project_cone(block_map, z, faces)
            x_cone, g = space.fixed_point_residual(x)
            np.testing.assert_allclose(lift(block_map, faces, x_cone), s_cone, rtol=0, atol=1e-9)
            y_ref, s_hat = affine.project(s_cone)
            w = space.coefficients(x_cone)
            np.testing.assert_allclose(geo.y_particular + geo.null_basis @ w, y_ref,
                                       rtol=0, atol=1e-9)
            shown = x_cone - space.point(w)
            gap = np.sqrt(shown @ shown + space.off2)
            assert gap == pytest.approx(np.linalg.norm(s_cone - s_hat), rel=1e-6, abs=1e-12)
            _, s_affine = affine.project(2.0 * s_cone - z)
            z = z + s_affine - s_cone
            x = x + g
        off_face.append(space.off2)
    assert off_face[-3] > 1e-3  # random_no(3, 1, 0): L y = b inconsistent
    assert solver_parts(pinned_problem())[3].null_basis.shape[1] == 0


# -- verdicts over seeded instances -------------------------------------------------


@pytest.mark.parametrize("degree", [4, 6])
def test_no_planted_yes_instance_is_refused(degree):
    """Every planted_yes(n, dim_w, seed) for n in {2, 3}, every dim_w and
    seeds 0-7 is feasible.  Among them are planted_yes(3, 5, 3) and
    (3, 5, 7) at degree 4 and (3, 5, 0), (3, 5, 3) and (3, 6, 4) at
    degree 6, which plain DR takes 2,310 to 41,240 steps to settle.  The
    grid uses Anderson steps, and the safeguard turns some of them back."""
    accepted = rejected = 0
    for n in (2, 3):
        for dim_w in range(1, n * n + 1):
            for seed in range(8):
                _, rep = solve_feasibility(build_bss_problem(planted_yes(n, dim_w, seed)[0], degree))
                assert rep.status == "feasible", (n, dim_w, seed)
                assert rep.certificate is None
                accepted += rep.anderson_accepted
                rejected += rep.anderson_rejected
    assert accepted > 0 and rejected > 0


def test_no_planted_yes_instance_gets_a_conic_certificate(monkeypatch):
    """planted_yes(n, dim_w, seed) for n in {2, 3}, every dim_w and seeds
    8-15 at degree 4, with a limit of 40, and the five plants that take
    longest to settle (see above) run until they do.  The conic
    certificate is tried at checks 1, 2, 4, ... of every unsettled run and
    never passes; and at each try the displacement, scaled as a
    certificate would be wherever -b^T lam > 0, fails
    `certificate_margin`, with no gate in front."""
    tries, margins = [], []
    original = sos_solver._try_conic

    def probed(problem, labels, block_map, geo, space, base, z, bound):
        _, factors = space.psd_part(z)
        t = sos_solver._conic_term(problem, labels, block_map, factors)
        lam = geo.multipliers(t[labels == 0])
        scale = -float(problem.rhs @ lam)
        if scale > 0:
            margins.append(certificate_margin(problem, -lam / scale,
                                              [h / np.sqrt(scale) for h in factors]))
        tries.append(original(problem, labels, block_map, geo, space, base, z, bound))
        return tries[-1]
    monkeypatch.setattr(sos_solver, "_try_conic", probed)
    cases = [(n, dim_w, seed, 4, 40) for n in (2, 3) for dim_w in range(1, n * n + 1)
             for seed in range(8, 16)]
    cases += [(3, 5, 3, 4, DEFAULT_ITER_LIMIT), (3, 5, 7, 4, DEFAULT_ITER_LIMIT),
              (3, 5, 0, 6, DEFAULT_ITER_LIMIT), (3, 5, 3, 6, DEFAULT_ITER_LIMIT),
              (3, 6, 4, 6, DEFAULT_ITER_LIMIT)]
    for n, dim_w, seed, degree, limit in cases:
        problem = build_bss_problem(planted_yes(n, dim_w, seed)[0], degree)
        _, rep = solve_feasibility(problem, iter_limit=limit)
        assert rep.status in ("feasible", "iter_limit"), (n, dim_w, seed, degree)
    assert len(tries) > 100 and not any(tries)
    assert margins and max(margins) <= 0


def test_random_no_instances_are_refused_with_checked_certificates():
    """random_no for n <= 3 at degrees 4 and 6: every instance is refused
    at set-up with the linear certificate, whose recorded margin the
    checker reproduces.  n = 2 takes seeds 0-7; n = 3 takes seeds 0 and 1
    for each dim_w the generator can certify (1-3), as certifying them
    costs about 0.5-1.7 s each."""
    cases = [(2, 1, seed) for seed in range(8)]
    cases += [(3, dim_w, seed) for dim_w in (1, 2, 3) for seed in (0, 1)]
    for n, dim_w, seed in cases:
        w = random_no(n, dim_w, seed)[0]
        for degree in (4, 6):
            problem = build_bss_problem(w, degree)
            mu, rep = solve_feasibility(problem)
            assert mu is None and (rep.status, rep.iterations) == ("infeasible", 0)
            cert = rep.certificate
            assert (cert.kind, cert.bound) == ("linear", 1.0)
            assert certificate_margin(problem, cert.multipliers) == cert.margin > 0.5


def test_cone_infeasible_seeded_problems_get_checked_conic_certificates():
    """Every seeded symmetric and random problem that L y = b does not
    refuse at set-up is feasible, refused with a conic certificate that
    the checker and the oracle both accept, or still at the limit; the
    conic path refuses some of each family."""
    refused = set()
    for family, make in (("symmetric", symmetric_problem),
                         ("random", lambda seed: build_problem(*random_problem(seed)))):
        for seed in EQUIVALENCE_SEEDS:
            problem = make(seed)
            mu, rep = solve_feasibility(problem, iter_limit=3000)
            assert rep.status in ("feasible", "infeasible", "iter_limit")
            if rep.status != "infeasible" or rep.certificate.kind == "linear":
                continue
            cert = rep.certificate
            assert rep.iterations > 0
            assert certificate_margin(problem, cert.multipliers, cert.factors) == cert.margin > 0
            assert oracle_conic_margin(problem, cert) == pytest.approx(cert.margin, rel=1e-9)
            refused.add(family)
    assert refused == {"symmetric", "random"}


# Problems whose feasible set holds more than one moment vector, where the
# two iterations stop at different members, both valid: random_problem(13)
# bounds no moment, and the two answers differ by 0.33; symmetric_problem(17)
# differs by 2.5e-4.
SPREAD_FEASIBLE = {("random", 13), ("symmetric", 17)}


def test_accelerated_and_plain_dr_agree(monkeypatch):
    """Same status on the seeded symmetric and random problems, and the
    same moments within 1e-6 wherever the feasible point found is not one
    of several (SPREAD_FEASIBLE).  The cone-infeasible ones among them are
    refused with conic certificates either way, so planted_yes(3, 5, 3) at
    degree 4, feasible but 2,490 accelerated and 7,050 plain steps from
    settled, stands for the iteration limit."""
    cases = [("symmetric", seed, symmetric_problem(seed)) for seed in EQUIVALENCE_SEEDS]
    cases += [("random", seed, build_problem(*random_problem(seed)))
              for seed in EQUIVALENCE_SEEDS]
    cases.append(("plant", 3, build_bss_problem(planted_yes(3, 5, 3)[0], 4)))
    accelerated = [solve_feasibility(problem, iter_limit=500) for _, _, problem in cases]
    plain_dr(monkeypatch)
    statuses = set()
    for (family, seed, problem), (mu, rep) in zip(cases, accelerated):
        mu_ref, rep_ref = solve_feasibility(problem, iter_limit=500)
        assert rep.status == rep_ref.status, (family, seed)
        statuses.add(rep.status)
        if mu is None:
            continue
        spread = np.abs(mu.moments - mu_ref.moments).max()
        if (family, seed) in SPREAD_FEASIBLE:
            assert spread > 1e-6 and validate(mu).ok() and validate(mu_ref).ok()
        else:
            assert spread <= 1e-6, (family, seed)
    assert statuses == {"feasible", "infeasible", "iter_limit"}


@pytest.mark.parametrize("tol, iter_limit", [(0.0, 10), (-1.0, 10), (np.nan, 10),
                                             (np.inf, 10), (1e-7, 0)])
def test_solver_rejects_bad_tolerance_and_limit(tol, iter_limit):
    with pytest.raises(IllFormed):
        solve_feasibility(pinned_problem(), tol=tol, iter_limit=iter_limit)
