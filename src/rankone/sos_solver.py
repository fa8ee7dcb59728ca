"""Semidefinite feasibility by operator splitting.

A problem is a moment vector y (graded monomial table) subject to linear
equalities (constraint polynomials times all admissible monomial
multipliers, plus the normalization E~ 1 = 1) and to PSD conditions on
one or more localizing moment matrices.

The solver runs Douglas-Rachford splitting between two sets of stacked
moment-matrix blocks:

    C1 = product of PSD cones, with the main block restricted to the
         face { M >= 0, M K = 0 } where K collects the coefficient
         vectors of truncated-ideal members q * x^m (every feasible
         moment matrix annihilates them, so the restriction is free and
         repairs the lost interior);
    C2 = { T(y) : L y = b }, the affine image of the constraint set.

It iterates in face coordinates (Permenter & Parrilo, Partial facial
reduction, Math. Prog. 2018): one k x k matrix X per block, standing for
M = F X F^T with F the block's orthonormal face basis (F = I where there
is no face restriction; a block whose face has no columns drops out).
X -> F X F^T is an isometry, C1 lies in its range, and so does every
direction T(N w) of C2: for L_h y = 0, M(y) k reads E~[x^a q x^m], itself
an equality row.  So both projections are exact there:

    the cone step is one eigh per k x k block and a clip;
    the affine step onto c + range(B), with c the face part of T(y_p)
         and B the face part of T N, is c + B (G^T (x - c)) with the
         rank-r G^T = (B^T B)^-1 B^T precomputed (the splitting of
         O'Donoghue et al., SCS, JOTA 2016): two matrix-vector products,
         and w = G^T (x - c) gives y = y_p + N w.

Here y_p and N are the minimum-norm solution and an orthonormal
null-space basis of L y = b, taken in two levels, each one eigh per
connected block (two columns share a block when some row touches both),
so no p x p array is ever formed.  Level 1 takes the homogeneous rows,
whose monomials all have one total degree: for the rank-one problem the
normalization and the membership rows, which split by bidegree.  Level 2
takes the other rows (the sphere rows, which join the bidegrees) on the
null space N1 of level 1, where they join only the blocks that have null
vectors, so N = N1 V2 needs no eigh of the whole coupled block.  The one
thing the face coordinates leave out is the constant off-face part of
T(y_p), nonzero only when L y = b is inconsistent; its squared norm
enters the gap between the sets.  All dense algebra runs in NumPy, on one
BLAS.

The SDP is first reduced by its sign symmetry (Gatermann & Parrilo,
JPAA 2004).  The flips x_i -> -x_i that fix every equality up to sign,
every localizer term and every row with a nonzero right-hand side are
read off the problem over GF(2) and split the monomials into sign
classes; for the rank-one problem those are the parities of the degrees
in u and in v.  The group average of a feasible y is feasible, and both
projections commute with the flips, so the solver works with the moments
of the invariant class only: each localizing matrix splits into one
block per class of its row monomials, and every other moment is an
exact zero.  When no flip fixes the problem there is one class and the
blocks are the plain ones.  All reductions are in fixed order, so a
given problem yields bit-identical output on every run.

Infeasibility is decided at set-up, and only on a checked certificate.
The two levels also give a vector r with L^T r = 0 up to rounding and
b^T r > 0 exactly when L y = b has no solution; then the equality
Farkas vector lam = r / b^T r has b^T lam = 1.  Recomputed on the sparse
L, it proves the problem infeasible when b^T lam - R ||L^T lam||_1 > 0,
where R bounds every |y_a| over the feasible set (R = 1 under sphere
equalities that cover every variable; with no bound, L^T lam must vanish
up to rounding).  Without a certificate DR runs until it finds a
feasible point or reaches the iteration limit, reported as `iter_limit`.

Every 10 iterations the current iterate is checked for feasibility.  Up
to the first check the steps are plain DR, so a problem settled there
gets the plain DR point.  After it the DR map T(x) = x + g(x) runs under
safeguarded type-II Anderson acceleration (Zhang, O'Donoghue & Boyd,
SIAM J. Optim. 2020): each iterate is extrapolated from the last 7
steps, and the extrapolated point is kept only when ||g|| does not grow
there; otherwise the plain step from the last accepted iterate replaces
it and the memory starts afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegreeTooSmall, IllFormed
from .pseudodist import (
    ConstraintSpec,
    MonomialIndex,
    PseudoDistribution,
    monomial_index,
    poly_clean,
    poly_constant,
    poly_degree,
)

DEFAULT_TOL = 1e-7
DEFAULT_ITER_LIMIT = 50_000

_RANK_EPS = 1e-10
_CHECK_EVERY = 10
# memory 3-8 all settle the desk corpus; 7 took the fewest DR iterations,
# and at 10 one plant spent half its 22,350 iterations on rejected steps
_ANDERSON_MEMORY = 7
_RIDGE = 1e-10
_ROUNDING = 1e-9


@dataclass(frozen=True)
class SdpProblem:
    """Moment feasibility problem over `index`.

    lmat, rhs: the equalities lmat @ y = rhs, as a CSR matrix with one
        column per moment.  Row 0 is the normalization E~ 1 = 1; then each
        equality spec q gives one row E~[q x^m] = 0 per multiplier x^m,
        in graded order.  Those rows are the coefficient vectors of the
        truncated-ideal members q x^m that back the facial reduction.
    psd_blocks: localizer polynomials; poly 1 is the plain moment matrix.
    constraints: the originating ConstraintSpecs, recorded on the output.

    The solver keeps only the moments of the invariant sign class (see
    `_sign_classes`); in a solution every other moment is an exact zero.
    """

    index: MonomialIndex
    lmat: sp.csr_matrix
    rhs: np.ndarray
    psd_blocks: tuple
    constraints: tuple


@dataclass(frozen=True)
class Certificate:
    """A checked proof that a problem is infeasible.

    kind `linear`: multipliers lam, one per row of the problem's L, with
    `margin` = b^T lam - R ||L^T lam||_1 > 0, where R = `bound` bounds
    every |y_a| over the feasible set.  A feasible y would give
    b^T lam = (L^T lam)^T y <= R ||L^T lam||_1.  `certificate_margin`
    recomputes the margin from the problem."""

    kind: str
    multipliers: np.ndarray
    bound: float
    margin: float


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve.  `infeasible` always carries the checked
    `certificate`, found at set-up with no DR iteration; `iter_limit`
    means neither a certificate nor a feasible point within the budget.
    `max_constraint_residual` is max |L y - b| at the returned point, or
    at the last checked iterate; on a refusal, where L y = b has no
    solution, it is taken at the set-up point y_p of `_AffineGeometry`,
    which is not the least-squares point.  `gap` is the distance between
    the DR sets at the last check, and the Anderson counts tell how many
    extrapolated DR steps the safeguard accepted and how many it replaced
    by the plain step."""

    status: str  # feasible | infeasible | iter_limit
    iterations: int
    max_constraint_residual: float
    min_block_eigenvalue: float
    gap: float
    certificate: Certificate | None = None
    anderson_accepted: int = 0
    anderson_rejected: int = 0


def build_problem(num_vars: int, degree: int, constraints) -> SdpProblem:
    """Expand polynomial constraints into the moment feasibility problem.

    Equalities q = 0 become E~[q * x^m] = 0 for every multiplier with
    deg(q x^m) <= degree; inequalities q >= 0 contribute a localizing
    PSD block.  Degree must be even (the main moment matrix must reach
    every stored moment).
    """
    if degree < 2 or degree % 2 != 0:
        raise DegreeTooSmall(f"need an even degree >= 2, got {degree}")
    index = monomial_index(num_vars, degree)
    # row 0 is the normalization E~ 1 = 1
    rows, cols, data = [np.array([0])], [np.array([0])], [np.array([1.0])]
    num_rows = 1
    blocks = [poly_constant(1.0, num_vars)]
    for spec in constraints:
        q = poly_clean(spec.poly())
        dq = poly_degree(q)
        if not q:
            continue
        if dq > degree:
            raise IllFormed(f"constraint degree {dq} exceeds problem degree {degree}")
        if spec.kind == "eq":
            # Row num_rows + m is q x^m: term x^e lands on column table[e, m].
            table = index.sum_table(dq, degree - dq)
            terms = np.array([index.index_of(e) for e in q])
            mult_count = table.shape[1]
            rows.append(np.tile(np.arange(num_rows, num_rows + mult_count), len(q)))
            cols.append(table[terms].reshape(-1))
            data.append(np.repeat(np.fromiter(q.values(), float, len(q)), mult_count))
            num_rows += mult_count
        elif spec.kind == "ineq":
            if dq > degree - 2:
                raise IllFormed("inequality constraint too high-degree to localize")
            blocks.append(q)
        else:
            raise IllFormed(f"unknown constraint kind {spec.kind!r}")
    lmat = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_rows, index.size))
    rhs = np.zeros(num_rows)
    rhs[0] = 1.0
    return SdpProblem(index, lmat, rhs, tuple(blocks), tuple(constraints))


def build_bss_problem(w, degree: int) -> SdpProblem:
    """Feasibility problem for a rank-one element of the subspace `w`.

    Variables are x = (u, v) in R^(2n) with ||u||^2 = ||v||^2 = 1 and
    <B, u v^T> = 0 for every B spanning the orthogonal complement of w.
    """
    if degree < 4 or degree % 2 != 0:
        raise DegreeTooSmall(f"rank-one search needs an even degree >= 4, got {degree}")
    n = w.ambient
    num_vars = 2 * n
    specs = []
    for offset in (0, n):
        sphere = {}
        for i in range(n):
            e = [0] * num_vars
            e[offset + i] = 2
            sphere[tuple(e)] = 1.0
        sphere[(0,) * num_vars] = -1.0
        specs.append(ConstraintSpec.equality(sphere))
    for mat in w.complement_matrices():
        bil = {}
        for i in range(n):
            for j in range(n):
                if mat[i, j] != 0.0:
                    e = [0] * num_vars
                    e[i] += 1
                    e[n + j] += 1
                    bil[tuple(e)] = float(mat[i, j])
        specs.append(ConstraintSpec.equality(bil))
    return build_problem(num_vars, degree, specs)


# -- infeasibility certificate -----------------------------------------------


def moment_bound(problem: SdpProblem) -> float:
    """A bound R on every |y_a| over the feasible set of a problem from
    `build_problem`: 1 when the plain moment matrix is a PSD block and
    sphere equalities c (sum_{i in G} x_i^2 - 1) = 0 cover every variable,
    and inf otherwise.

    The sphere rows give E~[x_i^2 x^2a] <= sum_{i in G} E~[x_i^2 x^2a] =
    E~[x^2a], every term a diagonal entry of the moment matrix, so
    E~ x^2a <= E~ 1 = 1 by induction on the degree, and then
    |E~ x^(a+b)| <= sqrt(E~ x^2a E~ x^2b) <= 1."""
    n = problem.index.num_vars
    if poly_constant(1.0, n) not in problem.psd_blocks:
        return np.inf
    covered = set()
    for spec in problem.constraints:
        q = poly_clean(spec.poly())
        const = q.pop((0,) * n, 0.0)
        squares = [e.index(2) for e, c in q.items()
                   if c == -const and sum(e) == 2 and max(e) == 2]
        if spec.kind == "eq" and const and len(squares) == len(q):
            covered.update(squares)
    return 1.0 if len(covered) == n else np.inf


def certificate_margin(problem: SdpProblem, multipliers: np.ndarray) -> float:
    """b^T lam - R ||L^T lam||_1, recomputed on the problem's sparse L and
    b with R = `moment_bound(problem)`; a positive margin proves the
    problem infeasible.  With no bound, L^T lam must vanish up to
    rounding (||L^T lam||_1 <= 1e-9 || |L|^T |lam| ||_1); the margin is
    then b^T lam, and -inf otherwise."""
    return _margin(problem, np.asarray(multipliers, dtype=float), moment_bound(problem))


def _margin(problem: SdpProblem, lam: np.ndarray, bound: float) -> float:
    """`certificate_margin` with the moment bound R given."""
    lmat = problem.lmat
    terms = lmat.data * np.repeat(lam, np.diff(lmat.indptr))  # the entries of diag(lam) L
    slack = float(np.abs(np.bincount(lmat.indices, weights=terms, minlength=lmat.shape[1])).sum())
    if np.isfinite(bound):
        return float(problem.rhs @ lam) - bound * slack
    return float(problem.rhs @ lam) if slack <= _ROUNDING * np.abs(terms).sum() else -np.inf


def _linear_certificate(problem: SdpProblem, geo: _AffineGeometry):
    """The geometry's Farkas vector r scaled to lam = r / b^T r, when
    b^T r > 0 (L y = b has no solution) and the margin of lam is positive;
    else None.  The rows that the sign reduction empties have b = 0, so r
    vanishes there."""
    scale = float(problem.rhs @ geo.farkas)
    if not scale > 0.0:
        return None
    lam = geo.farkas / scale
    bound = moment_bound(problem)
    margin = _margin(problem, lam, bound)
    if not margin > 0.0:
        return None
    return Certificate("linear", lam, bound, margin)


# -- sign symmetry -----------------------------------------------------------


def _row_of(lmat: sp.csr_matrix) -> np.ndarray:
    """Row number of each stored entry of a CSR matrix."""
    return np.repeat(np.arange(lmat.shape[0]), np.diff(lmat.indptr))


def _reduce(v: int, basis: list) -> int:
    """v modulo the GF(2) span of `basis`, whose members each have the
    leading bits of all earlier members clear: the coset member with every
    leading bit clear (min(v, v ^ b) clears the leading bit of b)."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def _sign_classes(problem: SdpProblem) -> np.ndarray:
    """Sign class of each monomial under the flips that fix the problem.

    The flip s in {+1, -1}^n sends y[a] to s^a y[a], so it acts through
    the parity bitmask par(a) of each exponent.  It fixes the problem when
    it maps every equality row to +- itself and fixes every localizer term
    and every term of a row with a nonzero right-hand side.  Those
    conditions are a set V of parities that the kept flips must
    annihilate over GF(2): the par(a) ^ par(a0) of each row, with a0 its
    first column, and the par(e) of each fixed term.  Two monomials are
    moved alike by every kept flip exactly when their parities differ by
    a member of span(V), so the class is the parity reduced modulo V,
    numbered in increasing order; class 0 is the invariant class.
    """
    index, lmat = problem.index, problem.lmat
    parity = ((index.exponents & 1) << np.arange(index.num_vars)).sum(axis=1)
    col_parity = parity[lmat.indices]
    row_of = _row_of(lmat)
    first = col_parity[lmat.indptr[row_of]]
    local = [index.index_of(e) for loc in problem.psd_blocks for e in loc]
    generators = np.concatenate([col_parity ^ first,
                                 col_parity[problem.rhs[row_of] != 0],
                                 parity[np.array(local, dtype=np.int64)]])
    basis: list = []
    for v in set(generators.tolist()):
        v = _reduce(v, basis)
        if v:
            basis.append(v)
    # the leading bits of any such basis are those of span(V), so the
    # reduced parities do not depend on the order the generators come in
    reduced = {v: _reduce(v, basis) for v in set(parity.tolist())}
    number = {v: k for k, v in enumerate(sorted(set(reduced.values())))}
    return np.array([number[reduced[v]] for v in parity.tolist()], dtype=np.int64)


def _class_members(labels: np.ndarray) -> list:
    """Positions holding each label, labels ascending, positions ascending."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


# -- internal geometry -------------------------------------------------------


class _BlockMap:
    """Linear map from the invariant moments to the stacked symmetric
    blocks, with gather/scatter arrays.

    Each localizer's matrix splits into one block per sign class of its
    row monomials, in class order: entry (a, b) reads y[a + b + e], an
    invariant moment when a and b share a class, and zero otherwise."""

    def __init__(self, index: MonomialIndex, degree: int, localizers, labels: np.ndarray):
        invariant = np.flatnonzero(labels == 0)
        column = np.full(index.size, -1)
        column[invariant] = np.arange(invariant.size)
        self.sizes = []
        rows = []
        cols = []
        data = []
        offset = 0
        for loc in localizers:
            dloc = poly_degree(loc)
            half = (degree - dloc) // 2
            # Entry (a, b) of the block for term c x^e reads c * y[a + b + e].
            table = index.sum_table(half, half)
            shift = index.sum_table(2 * half, dloc)
            for members in _class_members(labels[:index.count_through(half)]):
                m = members.size
                base = table[np.ix_(members, members)].reshape(-1)
                self.sizes.append(m)
                for e, c in sorted(loc.items()):
                    rows.append(np.arange(offset, offset + m * m))
                    cols.append(column[shift[base, index.index_of(e)]])
                    data.append(np.full(m * m, c))
                offset += m * m
        self.total = offset
        self.matrix = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.total, invariant.size))


def _face_basis(index: MonomialIndex, degree: int, lmat: sp.csr_matrix,
                labels: np.ndarray) -> list:
    """Orthonormal basis of the face of each class block of the main
    moment matrix (complement of the span of truncated-ideal coefficient
    vectors), in the block order of `_BlockMap`.

    The ideal members are the rows of `lmat` after the normalization row;
    those supported on the main block's monomials (the first m columns, as
    the table is graded) are the ones it annihilates, and each lies in the
    block of its class.  An entry is None where the class has no ideal
    member above the rank cut, which is global over the classes, and has
    no columns where the members span the whole class."""
    m = index.count_through(degree // 2)
    outside = np.bincount(_row_of(lmat)[lmat.indices >= m], minlength=lmat.shape[0])
    ideal = lmat[np.flatnonzero(outside[1:] == 0) + 1][:, :m]
    svds = []
    for members in _class_members(labels[:m]):
        k = ideal[:, members]
        k = k[np.diff(k.indptr) > 0]
        svds.append(np.linalg.svd(k.toarray().T, full_matrices=True)
                    if k.shape[0] else None)
    top = max((s[0] for u, s, _ in filter(None, svds)), default=0.0)
    faces = []
    for svd in svds:
        face = None
        if svd is not None:
            u, s, _ = svd
            rank = int((s > _RANK_EPS * max(top, 1.0)).sum())
            if rank == u.shape[0]:
                face = np.zeros((rank, 0))
            elif rank:
                face = u[:, rank:]
        faces.append(face)
    return faces


def _column_components(indptr: np.ndarray, indices: np.ndarray, size: int) -> np.ndarray:
    """Label of each of `size` columns of the compressed rows (indptr,
    indices): the smallest column in its connected block, where two
    columns are linked when some row has both.  Min-label propagation with
    pointer jumping; a column in no row is its own block."""
    counts = np.diff(indptr)
    starts = indptr[:-1][counts > 0]
    counts = counts[counts > 0]
    labels = np.arange(size)
    while True:
        row_min = np.minimum.reduceat(labels[indices], starts)
        new = labels.copy()
        np.minimum.at(new, indices, np.repeat(row_min, counts))
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _runs(labels: np.ndarray) -> np.ndarray:
    """Bounds of the runs of equal values in a sorted array: the start of
    each run, then the length."""
    if not labels.size:
        return np.zeros(1, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], labels[1:] != labels[:-1], [True])))


# The geometry works on the arrays of compressed matrices, with scipy.sparse
# for one product: on problems of a few dozen moments each scipy.sparse call
# costs more than the eigh it feeds.


def _entries(indptr: np.ndarray, rows: np.ndarray):
    """Positions of the stored entries of the listed compressed rows, row
    by row, and the number in each row."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    return np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts), counts


def _transpose(rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
               shape: tuple) -> sp.csr_matrix:
    """The transpose of the matrix of the given shape with entries
    (rows, cols, data) in row order, as a CSR matrix whose rows list their
    entries in that order."""
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(shape[1] + 1, dtype=cols.dtype)
    np.cumsum(np.bincount(cols, minlength=shape[1]), out=indptr[1:])
    return sp.csr_matrix((data[order], rows[order].astype(cols.dtype), indptr), shape=shape[::-1])


def _eigen_solve(vals: np.ndarray, vecs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The part of G^+ rhs carried by the given eigenpairs of G."""
    return vecs @ ((vecs.T @ rhs) / vals)


class _AffineGeometry:
    """The solution set of L y = b as y_particular + range(null_basis),
    and the equality Farkas vector `farkas`, in two levels that each take
    one eigh per connected block.  `degrees` holds the total degree of the
    monomial of each column.

    Level 1 takes the homogeneous rows L1, whose entries all sit on
    monomials of one total degree.  The eigh of each block of L1^T L1
    gives its null vectors and the minimum-norm least-squares point y1 of
    L1 y = b1; with an identity column for each column that no row of L1
    touches, the null vectors make the orthonormal null basis N1.  Level 2
    takes the other rows L2 on range(N1): M = L2 N1 splits into groups of
    level-1 blocks that rows of L2 join, and the eigh of each group's
    M^T M gives its null basis V2 and t = M^+ (b2 - L2 y1).  Level 1 cuts
    at _RANK_EPS times its top eigenvalue, level 2 at _RANK_EPS times the
    top of both levels, each at least _RANK_EPS.

    N = N1 V2 is orthonormal, and y_particular = y0 - N N^T y0, with
    y0 = y1 + N1 t, is the minimum-norm solution whenever L y = b is
    consistent.  `farkas` is r = [b1 - L1 (y1 + z); r2] in the row order
    of L, with r2 = b2 - L2 y0 and z = (L1^T L1)^+ L2^T r2: L^T r =
    N1 M^T r2 vanishes up to rounding, as t is a least-squares point, and
    b^T r = ||b1 - L1 y1||^2 + ||r2||^2 is positive exactly when L y = b
    has no solution."""

    def __init__(self, lmat: sp.csr_matrix, b: np.ndarray, degrees: np.ndarray):
        p = lmat.shape[1]
        deg = degrees[lmat.indices]
        counts = np.diff(lmat.indptr)
        filled = np.flatnonzero(counts)
        starts = lmat.indptr[filled]
        mixed = np.zeros(lmat.shape[0], dtype=bool)
        mixed[filled] = np.minimum.reduceat(deg, starts) < np.maximum.reduceat(deg, starts)
        rows1, rows2 = np.flatnonzero(~mixed), np.flatnonzero(mixed)
        b1, b2 = b[rows1], b[rows2]
        in_l2 = np.repeat(mixed, counts)
        ptr1 = np.zeros(rows1.size + 1, dtype=lmat.indptr.dtype)
        np.cumsum(counts[rows1], out=ptr1[1:])
        col1, val1 = lmat.indices[~in_l2], lmat.data[~in_l2]
        row1 = np.repeat(np.arange(rows1.size), counts[rows1])
        row2 = np.repeat(np.arange(rows2.size), counts[rows2])
        col2, val2 = lmat.indices[in_l2], lmat.data[in_l2]

        # Level 1.  A block is labelled by its smallest column, which
        # leads its run in `cols`; its dense Gram matrix is
        # gram[base[k]:base[k + 1]].
        label = _column_components(ptr1, col1, p)
        free = np.bincount(col1, minlength=p) == 0
        cols = np.flatnonzero(~free)
        cols = cols[np.argsort(label[cols], kind="stable")]
        bounds = _runs(label[cols])
        size = np.diff(bounds)
        block = np.zeros(p, dtype=np.int64)
        block[cols] = np.repeat(np.arange(size.size), size)
        local = np.zeros(p, dtype=np.int64)
        local[cols] = np.arange(cols.size) - np.repeat(bounds[:-1], size)
        base = np.concatenate([[0], np.cumsum(size * size)])
        # L1^T L1 as L1^T L, the transpose indexed by the rows of L
        product = _transpose(rows1[row1], col1, val1, lmat.shape) @ lmat
        row = np.repeat(np.arange(p), np.diff(product.indptr))
        gram = np.zeros(base[-1])
        at = base[block[row]] + local[row] * size[block[row]] + local[product.indices]
        gram[at] = product.data
        del product
        top = 0.0
        level1 = []
        for k, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            vals, vecs = np.linalg.eigh(gram[base[k]:base[k + 1]].reshape(size[k], size[k]))
            top = max(top, float(vals[-1]))
            level1.append((cols[start:stop], vals, vecs))
        del gram
        cut = _RANK_EPS * max(top, 1.0)
        ltb = np.bincount(col1, weights=val1 * b1[row1], minlength=p)
        y1 = np.zeros(p)
        width = free.astype(np.int64)  # columns of N1: per block at its label, 1 per free column
        for k, (ix, vals, vecs) in enumerate(level1):
            null = int(np.searchsorted(vals, cut, side="right"))
            y1[ix] = _eigen_solve(vals[null:], vecs[:, null:], ltb[ix])
            width[ix[0]] = null
            level1[k] = (ix, vals[null:], vecs[:, null:], vecs[:, :null])

        # The groups: blocks with null vectors, joined by the rows of L2
        # (the columns of other blocks drop out of L2 N1).  The columns of
        # N1 run over the blocks that rows of L2 touch, group by group,
        # then over the rest.
        unit = np.where(width[label] > 0, label, -1)[col2]
        keep = unit >= 0
        indptr = np.zeros(rows2.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(row2[keep], minlength=rows2.size), out=indptr[1:])
        group = _column_components(indptr, unit[keep], p)
        linked = np.zeros(p, dtype=bool)
        linked[unit[keep]] = True
        units = np.flatnonzero(width)
        units = units[np.lexsort((units, group[units], ~linked[units]))]
        offset = np.zeros(p, dtype=np.int64)
        offset[units] = np.cumsum(width[units]) - width[units]
        head = int(width[linked].sum())
        spans = _runs(np.repeat(group[units], width[units])[:head])
        # N1 in compressed rows, one row per column of L
        n1_ptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(width[label], out=n1_ptr[1:])
        n1_col = np.zeros(n1_ptr[-1], dtype=np.int64)
        n1_val = np.ones(n1_ptr[-1])
        n1_col[n1_ptr[:-1][free]] = offset[free]
        for ix, _, _, vecs in level1:
            pos = n1_ptr[ix][:, None] + np.arange(vecs.shape[1])
            n1_col[pos] = offset[ix[0]] + np.arange(vecs.shape[1])
            n1_val[pos] = vecs
        n1_row = np.repeat(np.arange(p), np.diff(n1_ptr))

        # Level 2: M = L2 N1, one dense block per group, each entry summed
        # over the row of L2 in order.
        row_group = np.full(rows2.size, -1)
        row_group[row2[keep]] = group[unit[keep]]
        order = np.argsort(row_group, kind="stable")
        order = order[row_group[order] >= 0]
        row_bounds = _runs(row_group[order])
        shape = np.diff(spans)
        height = np.diff(row_bounds)
        base = np.concatenate([[0], np.cumsum(height * shape)])
        # entry (i, j) of M sits at m_flat[at_row[i] + j]
        at_row = np.zeros(rows2.size, dtype=np.int64)
        at_row[order] = (np.repeat(base[:-1] - row_bounds[:-1] * shape - spans[:-1], height)
                         + np.arange(order.size) * np.repeat(shape, height))
        pos, repeats = _entries(n1_ptr, col2[keep])
        m_flat = np.bincount(np.repeat(at_row[row2[keep]], repeats) + n1_col[pos],
                             weights=np.repeat(val2[keep], repeats) * n1_val[pos],
                             minlength=base[-1])
        rhs2 = b2 - np.bincount(row2, weights=val2 * y1[col2], minlength=rows2.size)
        level2 = []
        for k in range(shape.size):
            part = m_flat[base[k]:base[k + 1]].reshape(-1, shape[k])
            vals, vecs = np.linalg.eigh(part.T @ part)
            top = max(top, float(vals[-1]))
            level2.append((vals, vecs, part.T @ rhs2[order[row_bounds[k]:row_bounds[k + 1]]]))
        cut = _RANK_EPS * max(top, 1.0)
        t = np.zeros(int(width.sum()))
        v2_parts = []
        for (vals, vecs, rhs), start, stop in zip(level2, spans[:-1], spans[1:]):
            null = int(np.searchsorted(vals, cut, side="right"))
            t[start:stop] = _eigen_solve(vals[null:], vecs[:, null:], rhs)
            v2_parts.append(vecs[:, :null])

        # N = N1 V2, with V2 block diagonal over the groups and the
        # identity on the columns of N1 that no row of L2 touches.
        ends = [0]
        for v in v2_parts:
            ends.append(ends[-1] + v.shape[1])
        v2 = np.zeros((head, ends[-1]))
        for v, start, stop, lo, hi in zip(v2_parts, spans[:-1], spans[1:], ends[:-1], ends[1:]):
            v2[start:stop, lo:hi] = v
        shift = ends[-1] - head
        self.null_basis = np.zeros((p, t.size + shift))
        fr = np.flatnonzero(free)
        linked_fr = offset[fr] < head
        self.null_basis[fr[linked_fr], :ends[-1]] = v2[offset[fr[linked_fr]]]
        self.null_basis[fr[~linked_fr], shift + offset[fr[~linked_fr]]] = 1.0
        for ix, _, _, vecs in level1:
            start, stop = offset[ix[0]], offset[ix[0]] + vecs.shape[1]
            if start >= head:
                self.null_basis[ix, shift + start:shift + stop] = vecs
            elif stop > start:
                k = int(np.searchsorted(spans, start, side="right")) - 1
                into = slice(ends[k], ends[k + 1])
                self.null_basis[ix, into] = vecs @ v2[start:stop, into]

        y0 = y1 + np.bincount(n1_row, weights=n1_val * t[n1_col], minlength=p)
        coef = np.bincount(n1_col, weights=n1_val * y0[n1_row], minlength=t.size)
        for v, start, stop in zip(v2_parts, spans[:-1], spans[1:]):
            coef[start:stop] = v @ (v.T @ coef[start:stop])
        self.y_particular = y0 - np.bincount(n1_row, weights=n1_val * coef[n1_col], minlength=p)

        r2 = b2 - np.bincount(row2, weights=val2 * y0[col2], minlength=rows2.size)
        lift = np.bincount(col2, weights=val2 * r2[row2], minlength=p)
        z = np.zeros(p)
        for ix, vals, vecs, _ in level1:
            z[ix] = _eigen_solve(vals, vecs, lift[ix])
        self.farkas = np.zeros(lmat.shape[0])
        self.farkas[rows1] = b1 - np.bincount(row1, weights=val1 * (y1 + z)[col1],
                                              minlength=rows1.size)
        self.farkas[rows2] = r2
        self.lmat = lmat
        self.b = b

    def residual(self, y: np.ndarray) -> float:
        if self.b.size == 0:
            return 0.0
        return float(np.abs(self.lmat @ y - self.b).max())


class _FaceSpace:
    """The Douglas-Rachford space: one k x k matrix X per block, with the
    block's moment matrix M = F X F^T, flattened row-major and stacked in
    the order of `_BlockMap`.

    F is the block's face basis; a block with no face restriction has
    F = I, and one whose face has no columns is dropped.  The affine set
    { T(y) : L y = b } reads c + range(B) here, with c the face part of
    T(y_particular) and column j of B the face part of T(N e_j), and
    `off2` is the squared norm of the off-face part of T(y_particular)
    that the face coordinates leave out."""

    def __init__(self, block_map: _BlockMap, faces: list, geo: _AffineGeometry):
        null = geo.null_basis
        r = null.shape[1]
        self.blocks = []
        c_parts, b_parts = [], []
        self.off2 = 0.0
        offset = start = 0
        for bi, m in enumerate(block_map.sizes):
            rows = block_map.matrix[offset:offset + m * m]
            offset += m * m
            face = faces[bi] if bi < len(faces) else None
            const = (rows @ geo.y_particular).reshape(m, m)
            moving = rows @ null  # column j: T(N e_j), flattened row-major
            k = m
            if face is not None:
                kept = face @ face.T
                self.off2 += float(np.sum((const - kept @ const @ kept) ** 2))
                k = face.shape[1]
                if k == 0:
                    continue
                const = face.T @ const @ face
                # F^T M F of every column, as two plain matrix products
                half = (face.T @ moving.reshape(m, m * r)).reshape(k, m, r)
                moving = (half.transpose(0, 2, 1).reshape(k * r, m) @ face
                          ).reshape(k, r, k).transpose(0, 2, 1).reshape(k * k, r)
            self.blocks.append((slice(start, start + k * k), k))
            start += k * k
            c_parts.append(const.reshape(-1))
            b_parts.append(moving)
        self.c = np.concatenate([np.zeros(0)] + c_parts)
        self.b = np.vstack([np.zeros((0, r))] + b_parts)
        # least squares onto c + range(B): w = G^T (x - c), G^T = H^-1 B^T;
        # one r x r inverse, as a solve with the D right-hand sides is slower
        h = self.b.T @ self.b + 1e-13 * np.eye(r)
        self.g_t = np.linalg.inv(h) @ self.b.T

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project each block onto the PSD cone: X + X^T is twice the
        symmetric part, so its eigenvalues are halved before the clip."""
        out = np.empty_like(x)
        for cut, k in self.blocks:
            mat = x[cut].reshape(k, k)
            vals, vecs = np.linalg.eigh(mat + mat.T)
            out[cut] = ((vecs * np.maximum(0.5 * vals, 0.0)) @ vecs.T).reshape(-1)
        return out

    def fixed_point_residual(self, x: np.ndarray):
        """clip(x) and g(x) = T(x) - x for the DR map T(x) = x +
        point(coefficients(2 clip(x) - x)) - clip(x)."""
        s_cone = self.clip(x)
        return s_cone, self.point(self.coefficients(2.0 * s_cone - x)) - s_cone

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """The w of the affine point nearest x, which lifts to y_p + N w."""
        return self.g_t @ (x - self.c)

    def point(self, w: np.ndarray) -> np.ndarray:
        return self.c + self.b @ w

    def min_eigenvalue(self, x: np.ndarray) -> float:
        if not self.blocks:
            return 0.0
        return float(min(np.linalg.eigvalsh(x[cut].reshape(k, k))[0]
                         for cut, k in self.blocks))


class _Anderson:
    """Type-II Anderson acceleration of the fixed-point map x -> x + g(x)
    (Walker & Ni, SIAM J. Numer. Anal. 2011).  The last `memory` residual
    changes dg and the sums dx + dg, with dx the matching steps, sit in
    ring buffers next to the Gram matrix of dg; the extrapolation is
    x + g - (dX + dG) gamma, with gamma the least-squares fit of g by dG.
    A ridge keeps the m x m normal equations solvable when the residuals
    vanish, as they do at an exact fixed point."""

    def __init__(self, memory: int, dim: int):
        self.dg = np.zeros((memory, dim))
        self.step = np.zeros((memory, dim))
        self.gram = np.zeros((memory, memory))
        self.eye = np.eye(memory)
        self.count = 0
        self.slot = 0

    def clear(self) -> None:
        self.count = self.slot = 0

    def push(self, dx: np.ndarray, dg: np.ndarray) -> None:
        memory = self.dg.shape[0]
        if not memory:
            return
        k = self.slot
        self.dg[k] = dg
        self.step[k] = dx + dg
        self.gram[k] = self.gram[:, k] = self.dg @ dg
        self.slot = (k + 1) % memory
        self.count = min(self.count + 1, memory)

    def extrapolate(self, x: np.ndarray, g: np.ndarray):
        """The next point, and whether it is extrapolated rather than the
        plain step x + g that an empty memory gives."""
        m = self.count
        if not m:
            return x + g, False
        gram = self.gram[:m, :m]
        ridge = _RIDGE * gram.trace() + np.finfo(float).tiny
        gamma = np.linalg.solve(gram + ridge * self.eye[:m, :m], self.dg[:m] @ g)
        return x + g - gamma @ self.step[:m], True


def solve_feasibility(problem: SdpProblem, tol: float = DEFAULT_TOL,
                      iter_limit: int = DEFAULT_ITER_LIMIT):
    """Find a moment vector satisfying the problem, or prove there is none.

    Returns (PseudoDistribution | None, SolverReport).  Status `feasible`
    comes with a distribution whose equality residuals are at solver
    precision and whose moment matrices clear -tol; `infeasible` comes
    with a checked certificate, found at set-up; `iter_limit` means
    neither within iter_limit DR iterations.  Raises IllFormed unless tol
    is finite and positive and iter_limit >= 1.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise IllFormed(f"solver tolerance must be finite and positive, got {tol}")
    if not iter_limit >= 1:
        raise IllFormed(f"iteration limit must be at least 1, got {iter_limit}")
    index = problem.index
    labels = _sign_classes(problem)
    invariant = np.flatnonzero(labels == 0)
    # Each row of L lies in one class, and rows with a nonzero right-hand
    # side in class 0, so the rows of other classes drop out here as empty.
    geo = _AffineGeometry(problem.lmat[:, invariant], problem.rhs,
                          index.degrees[invariant])
    certificate = _linear_certificate(problem, geo)
    if certificate is not None:
        return None, SolverReport(
            status="infeasible", iterations=0,
            max_constraint_residual=geo.residual(geo.y_particular),
            min_block_eigenvalue=0.0, gap=np.inf, certificate=certificate)
    block_map = _BlockMap(index, index.max_degree, problem.psd_blocks, labels)
    faces = _face_basis(index, index.max_degree, problem.lmat, labels)
    space = _FaceSpace(block_map, faces, geo)

    x = space.c.copy()
    accel = _Anderson(_ANDERSON_MEMORY, x.size)
    base = None  # (x, g(x), clip(x), ||g(x)||^2) of the last accepted iterate
    extrapolated = False
    accepted = rejected = 0
    best = None
    gap = np.inf
    iterations = 0
    status = "iter_limit"

    while iterations < iter_limit:
        s_cone, g = space.fixed_point_residual(x)
        g2 = float(g @ g)
        iterations += 1
        if extrapolated and g2 > base[3]:
            # the safeguard: fall back to the plain step from the last
            # accepted iterate and start the memory afresh
            rejected += 1
            accel.clear()
            x = base[0] + base[1]
            extrapolated = False
        else:
            accepted += extrapolated
            if iterations > _CHECK_EVERY:
                accel.push(x - base[0], g - base[1])
            base = (x, g, s_cone, g2)
            x, extrapolated = accel.extrapolate(x, g)

        if iterations % _CHECK_EVERY and iterations < iter_limit:
            continue
        w = space.coefficients(base[2])
        s_hat = space.point(w)
        displacement = base[2] - s_hat
        gap = float(np.sqrt(displacement @ displacement + space.off2))
        min_eig = space.min_eigenvalue(s_hat)
        y_hat = geo.y_particular + geo.null_basis @ w
        resid = geo.residual(y_hat)
        best = (y_hat, min_eig, resid)
        if min_eig >= -tol and resid <= max(tol, 1e-9):
            status = "feasible"
            break

    y_hat, min_eig, resid = best
    report = SolverReport(
        status=status,
        iterations=iterations,
        max_constraint_residual=resid,
        min_block_eigenvalue=min_eig,
        gap=gap,
        anderson_accepted=accepted,
        anderson_rejected=rejected,
    )
    if status != "feasible":
        return None, report
    moments = np.zeros(index.size)
    moments[invariant] = y_hat / y_hat[0]
    dist = PseudoDistribution(index, moments, index.max_degree,
                              tuple(problem.constraints), None)
    return dist, report


# -- numeric SOS check -------------------------------------------------------


def sos_gram_check(p: dict, tol: float = 1e-8, iterations: int = 5000) -> bool:
    """Decide whether p admits a PSD Gram matrix, by alternating projections
    between the PSD cone and the affine set of Gram matrices of p."""
    p = poly_clean(p)
    if not p:
        return True
    deg = poly_degree(p)
    if deg % 2:
        return False
    num_vars = len(next(iter(p)))
    half = MonomialIndex(num_vars, deg // 2)
    m = half.size
    exps = half.exponents

    class_of = {}
    class_ids = np.empty((m, m), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            key = tuple(int(v) for v in exps[a] + exps[b])
            class_ids[a, b] = class_of.setdefault(key, len(class_of))
    n_classes = len(class_of)
    target = np.zeros(n_classes)
    for e, c in p.items():
        cid = class_of.get(e)
        if cid is None:
            return False  # a coefficient no Gram entry can reach
        target[cid] = c
    counts = np.bincount(class_ids.reshape(-1), minlength=n_classes).astype(float)

    scale = max(1.0, float(np.abs(target).max()))
    flat_ids = class_ids.reshape(-1)
    gram = np.zeros((m, m))
    best = np.inf
    since_best = 0
    for _ in range(iterations):
        sums = np.bincount(flat_ids, weights=gram.reshape(-1), minlength=n_classes)
        gram = gram + ((target - sums) / counts)[class_ids]
        vals, vecs = np.linalg.eigh(0.5 * (gram + gram.T))
        gram = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        sums = np.bincount(flat_ids, weights=gram.reshape(-1), minlength=n_classes)
        res = float(np.abs(sums - target).max())
        if res <= tol * scale:
            return True
        if res < 0.999 * best:
            best = res
            since_best = 0
        else:
            since_best += 1
            if since_best > 300:
                return False
    return False
