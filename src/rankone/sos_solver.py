"""Semidefinite feasibility by operator splitting.

A problem is a moment vector y (graded monomial table) subject to linear
equalities (equality polynomials times all admissible monomial
multipliers, plus the normalization E~ 1 = 1) and to one PSD condition:
the moment matrix M(y), indexed by the monomials of degree <= d/2, is
PSD.

The solver runs Douglas-Rachford splitting between two sets of stacked
moment-matrix blocks:

    C1 = product of PSD cones, one per block of M, each restricted to the
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

    the cone step is one stacked eigh per block size k, over every
         k x k block of that size, and a clip;
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
JPAA 2004).  The flips x_i -> -x_i that fix every equality up to sign
and every row with a nonzero right-hand side are read off the problem
over GF(2) and split the monomials into sign classes; for the rank-one
problem those are the parities of the degrees in u and in v.  The group
average of a feasible y is feasible, and both projections commute with
the flips, so the solver works with the moments of the invariant class
only: the moment matrix splits into one block per class of its row
monomials, and every other moment is an exact zero.  When no flip fixes
the problem there is one class and one block, the whole moment matrix.
All reductions are in fixed order, so a given problem yields
bit-identical output on every run.

Much of that set-up depends only on the sparsity pattern of (L, b) and
on the monomial table, not on the numbers: where L stores its entries,
the sign classes, the class-0 columns, level 1's split into L1 and L2,
its blocks and the layout of their Gram matrices, the block map, and
which rows of L back the facial reduction.  `build_problem` keys each
problem by its pattern: the variable count, the degree, and the degree
and nonzero positions of each kept constraint.  `_pattern` builds that
part once per key and keeps the last `_PATTERN_CACHE_SIZE` = 32 keys
used; a pass of the desk corpus meets 16.  Sharing it is sound: its
arrays are read-only and hold no coefficient, no value of W and no
result, and every number (each weight and Gram sum, each eigh and svd,
each rank cut) is computed afresh on every call, from the same operands
in the same order, so a solve gives the same bits warm or cold.  The
layout of level 2 (its groups, the columns of N1 and the blocks of
M = L2 N1) follows the pattern and the null count of each level-1
block, which rank cuts on numbers decide.  So the entry keeps one level-2
layout per null-count signature, keyed by the counts' bytes, the last
`_LEVEL2_CACHE_SIZE` = 4 used; a pass of the desk corpus meets 19
signatures over its 16 patterns, at most 2 on one.  Sharing it is sound
for the same reasons: the pattern and the counts fix every index in it,
and N1's entries, M and every number of level 2 are computed on each
call.  A problem built by hand has no key, and its set-up is built for
the one call.

Infeasibility is decided only on a checked certificate, of one of two
kinds.  A `linear` one is found at set-up: the two levels also give a
vector r with L^T r = 0 up to rounding and b^T r > 0 exactly when L y = b
has no solution, and the equality Farkas vector lam = r / b^T r has
b^T lam = 1.  Recomputed on L, it proves the problem
infeasible when b^T lam - R ||L^T lam||_1 > 0, where R bounds every |y_a|
over the feasible set (R = 1 under sphere equalities that cover every
variable; with no bound, L^T lam must vanish up to rounding).

A `conic` one is read off the DR iterates when L y = b is consistent but
meets no PSD point (Banjac, Goulart, Stellato & Boyd, JOTA 2019; Liu, Ryu
& Yin, Math. Prog. 2019).  Then the displacement Z = s - P_A(s), s the
cone point, tends to a PSD matrix orthogonal to range(B) with
<c, Z> = -||Z||^2 < 0, which no feasible point allows.  The check keeps
the PSD part of Z as a factor G G^T per block, lifts it to F G G^T F^T,
splits t = T^T(Z) = L^T lam + r on L, and refuses when
-b^T lam - R ||r||_1 > 0: a feasible y would give 0 <= <T(y), Z> = t^T y
= b^T lam + r^T y.  It is tried at checks 1, 2, 4, 8, ... and at the
last, so a feasible run pays for about log2(iter_limit) tries: first on
the displacement of the last accepted iterate, then on the one after a
few plain DR steps from it, which the run itself does not take.
Without a certificate DR runs until it finds a feasible point or reaches
the iteration limit, reported as `iter_limit`.

A caller that needs less than a feasible point may pass an `accept` hook.
The hook sees y_p first: at check 0, right after the linear-certificate
test and before any cone set-up (no face basis, no face space, no dense
N), so a run it stops there pays for level 1 and level 2 alone.  Then,
at each check where a conic try is due and the iterate is not yet
feasible (checks 1, 2, 4, 8, ... and the last), it sees that iterate
before the try.  Each offered point meets L y = b but need not be PSD;
when the hook accepts, the run stops with status `rounded`.  A refused
offer at check 0 changes nothing, as the run starts from c either way.
The rank-one search uses the hook to stop at the first point whose
spectral candidate already verifies at its target quality.

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

import collections
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegreeTooSmall, IllFormed
from .pseudodist import MonomialIndex, PseudoDistribution, _frozen, monomial_index

DEFAULT_TOL = 1e-7
DEFAULT_ITER_LIMIT = 50_000

_RANK_EPS = 1e-10
_CHECK_EVERY = 10
# memory 3-8 all settle the desk corpus; 7 took the fewest DR iterations,
# and at 10 one plant spent half its 22,350 iterations on rejected steps
_ANDERSON_MEMORY = 7
_RIDGE = 1e-10
# plain DR steps behind a conic certificate try: 20 settle the displacement
# of the dim-(n-1)^2 no-instances at n = 3, 4 by the second try, and 50
# save no try there
_PLAIN_STEPS = 20
_ROUNDING = 1e-9
# sparsity patterns whose set-up `_pattern` keeps, least recently used out
# first; a pass of the desk corpus meets 16
_PATTERN_CACHE_SIZE = 32
# level-2 layouts that each pattern's `_Level1` keeps, least recently used
# out first, one per null-count signature; the desk corpus meets at most 2
_LEVEL2_CACHE_SIZE = 4


class CompressedRows(NamedTuple):
    """A matrix of the given shape as its compressed rows: row i holds
    data[indptr[i]:indptr[i + 1]] in the columns indices[indptr[i]:
    indptr[i + 1]], ascending and each at most once."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple


@dataclass(frozen=True)
class SdpProblem:
    """Moment feasibility problem over `index`.

    lmat, rhs: the equalities lmat @ y = rhs, as the compressed rows of L
        with one column per moment.  Row 0 is the normalization E~ 1 = 1;
        then each equality q gives one row E~[q x^m] = 0 per multiplier
        x^m, in graded order.  Those rows are the coefficient vectors of the
        truncated-ideal members q x^m that back the facial reduction.
    constraints: the equality polynomials q as dense coefficient
        vectors, recorded on the output.
    pattern: the key under which `_pattern` keeps the set-up that the
        sparsity pattern of (L, b) fixes: the variable count, the degree,
        and the degree and nonzero positions of each constraint that
        `build_problem` kept.  None for a problem built by hand, whose
        set-up is built afresh on each call.

    The one PSD condition is on the moment matrix of degree d/2.  The
    solver keeps only the moments of the invariant sign class (see
    `_sign_classes`); in a solution every other moment is an exact zero.
    """

    index: MonomialIndex
    lmat: CompressedRows
    rhs: np.ndarray
    constraints: tuple
    pattern: tuple | None


@dataclass(frozen=True)
class Certificate:
    """A checked proof that a problem is infeasible.

    kind `linear`: multipliers lam, one per row of the problem's L, with
    `margin` = b^T lam - R ||L^T lam||_1 > 0, where R = `bound` bounds
    every |y_a| over the feasible set.  A feasible y would give
    b^T lam = (L^T lam)^T y <= R ||L^T lam||_1.

    kind `conic`: also `factors` H, one per block of the solver's block
    map, so that Z = H H^T is PSD by construction, and t = T^T(Z) reads Z
    against the moment matrix; `margin` = b^T lam -
    R ||L^T lam + t||_1 > 0, scaled to b^T lam = 1.  A feasible y would
    give 0 <= t^T y = (L^T lam + t)^T y - b^T lam.

    `certificate_margin(problem, multipliers, factors)` recomputes the
    margin from the problem."""

    kind: str
    multipliers: np.ndarray
    bound: float
    margin: float
    factors: tuple = ()


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve.  `infeasible` always carries the checked
    `certificate`: a `linear` one found at set-up with no DR iteration,
    or a `conic` one found at the check after `iterations` DR steps;
    `rounded` means the caller's `accept` hook took the iterate of the
    check after `iterations` DR steps, which need not be feasible, and
    `rounded` with `iterations` 0 means it took y_p, the least-norm
    solution of L y = b, offered at check 0 before any cone set-up;
    `iter_limit` means neither a certificate nor a feasible point within
    the budget.  `iterations` counts the steps of the run, not the plain
    steps that certificate tries take aside.  `max_constraint_residual`
    is max |L y - b| at the returned point, or at the last checked
    iterate; on a linear refusal, where L y = b has no solution, it is
    taken at the set-up point y_p of `_AffineGeometry`, which is not the
    least-squares point.  `gap` is the distance between the DR sets at
    the last check, and the Anderson counts tell how many extrapolated DR
    steps the safeguard accepted and how many it replaced by the plain
    step.  A check-0 report reads y_p alone: its residual is max
    |L y_p - b|, `min_block_eigenvalue` the least eigenvalue of the
    moment matrix M(y_p), `gap` the Frobenius distance of M(y_p) to the
    PSD cone, and both Anderson counts 0."""

    status: str  # feasible | rounded | infeasible | iter_limit
    iterations: int
    max_constraint_residual: float
    min_block_eigenvalue: float
    gap: float
    certificate: Certificate | None = None
    anderson_accepted: int = 0
    anderson_rejected: int = 0


def build_problem(num_vars: int, degree: int, constraints) -> SdpProblem:
    """Expand equality constraints into the moment feasibility problem.

    Each constraint is the dense coefficient vector of a polynomial q over
    the monomial table, standing for q = 0; it becomes E~[q * x^m] = 0 for
    every multiplier with deg(q x^m) <= degree.  Degree must be even (the
    moment matrix must reach every stored moment).

    Where L stores its entries depends only on the degree and the nonzero
    positions of each q.  That layout, L's `indptr` and `indices`, is
    built once per pattern and shared read-only (`_pattern`); each call
    gathers its own coefficients into it.
    """
    if degree < 2 or degree % 2 != 0:
        raise DegreeTooSmall(f"need an even degree >= 2, got {degree}")
    index = monomial_index(num_vars, degree)
    coefficients, supports = [np.ones(1)], []  # row 0 is the normalization E~ 1 = 1
    for q in constraints:
        terms = np.flatnonzero(q)
        if not terms.size:
            continue
        dq = index.degree_of(q)
        if dq > degree:
            raise IllFormed(f"constraint degree {dq} exceeds problem degree {degree}")
        coefficients.append(q[terms])
        supports.append((dq, terms.tobytes()))
    key = (num_vars, degree, tuple(supports))
    pattern = _pattern(key)
    lmat = pattern.problem.lmat
    rhs = np.zeros(lmat.shape[0])
    rhs[0] = 1.0
    return SdpProblem(index, lmat._replace(data=np.concatenate(coefficients)[pattern.source]),
                      rhs, tuple(constraints), key)


def build_bss_problem(w, degree: int) -> SdpProblem:
    """Feasibility problem for a rank-one element of the subspace `w`.

    Variables are x = (u, v) in R^(2n) with ||u||^2 = ||v||^2 = 1 and
    <B, u v^T> = 0 for every B spanning the orthogonal complement of w.
    """
    if degree < 4 or degree % 2 != 0:
        raise DegreeTooSmall(f"rank-one search needs an even degree >= 4, got {degree}")
    n = w.ambient
    index = monomial_index(2 * n, degree)
    pairs = index.sum_table(1, 1)   # pairs[1 + i, 1 + j] is the index of x_i x_j
    u, v = np.arange(1, n + 1), np.arange(n + 1, 2 * n + 1)
    constraints = []
    for block in (u, v):
        sphere = np.zeros(index.count_through(2))
        sphere[0] = -1.0
        sphere[pairs[block, block]] = 1.0
        constraints.append(sphere)
    for mat in w.complement_matrices():
        bilinear = np.zeros(index.count_through(2))
        bilinear[pairs[np.ix_(u, v)]] = mat
        constraints.append(bilinear)
    return build_problem(2 * n, degree, constraints)


# -- the set-up of a sparsity pattern ----------------------------------------


class _Pattern:
    """The set-up that the sparsity pattern of (L, b) and the monomial
    table fix, shared by every problem of that pattern.  Each part is
    built at its first use and every array in it is read-only:

        labels, invariant: the sign classes and the class-0 moments;
        level1: the pattern half of `_AffineGeometry` on the class-0
            columns, which keeps the level-2 layout (`_Level2`) of each
            null-count signature it has met, up to `_LEVEL2_CACHE_SIZE`;
        block_map: the `_BlockMap`;
        ideal: the ideal rows of `_face_basis`.

    `problem` stands for every problem of the pattern: only its index and
    where its L and b are nonzero are read.  `source` holds, for
    `build_problem`, the position of each stored entry of L among the
    concatenated coefficients of the kept constraints (None for a problem
    built by hand)."""

    def __init__(self, problem: SdpProblem, source):
        self.problem = problem
        self.source = source

    @functools.cached_property
    def labels(self) -> np.ndarray:
        return _frozen(_sign_classes(self.problem))

    @functools.cached_property
    def invariant(self) -> np.ndarray:
        return _frozen(np.flatnonzero(self.labels == 0))

    @functools.cached_property
    def level1(self) -> _Level1:
        return _Level1(self.problem.lmat, self.invariant, self.problem.index.degrees)

    @functools.cached_property
    def block_map(self) -> _BlockMap:
        return _BlockMap(self.problem.index, self.labels)

    @functools.cached_property
    def ideal(self) -> _IdealRows:
        return _IdealRows(self.problem.index, self.problem.lmat, self.labels)


@functools.lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _pattern(key: tuple) -> _Pattern:
    """The set-up of the problems `build_problem` makes under `key`:
    (num_vars, degree, supports), with one (degree, bytes of the nonzero
    positions) per kept constraint.  It holds no coefficient: `problem`
    has L's layout with no data and b = e_0.

    Row 0 of L is the normalization, and each constraint q of degree dq
    adds the rows q x^m, one per multiplier x^m of degree <= degree - dq,
    in graded order; term x^e of q lands on column table[e, m].  Within a
    row the columns e + m of distinct terms e are distinct, so sorting
    the entries by row, then column, gives the compressed rows."""
    num_vars, degree, supports = key
    index = monomial_index(num_vars, degree)
    rows, cols, source = [np.array([0])], [np.array([0])], [np.array([0])]
    num_rows = count = 1  # rows so far, and coefficients so far (the normalization's 1)
    for dq, support in supports:
        terms = np.frombuffer(support, dtype=np.int64)
        table = index.sum_table(dq, degree - dq)
        mult_count = table.shape[1]
        rows.append(np.tile(np.arange(num_rows, num_rows + mult_count), terms.size))
        cols.append(table[terms].reshape(-1))
        source.append(np.repeat(np.arange(count, count + terms.size), mult_count))
        num_rows += mult_count
        count += terms.size
    rows, cols, source = (np.concatenate(a) for a in (rows, cols, source))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    rhs = np.zeros(num_rows)
    rhs[0] = 1.0
    lmat = CompressedRows(_frozen(indptr), _frozen(cols[order]), None, (num_rows, index.size))
    # int32 halves the array: it serves one gather per build
    return _Pattern(SdpProblem(index, lmat, _frozen(rhs), (), key),
                    _frozen(source[order].astype(np.int32)))


def _pattern_of(problem: SdpProblem) -> _Pattern:
    """The shared set-up of the problem's pattern, or for a problem built
    by hand, a set-up of its own."""
    if problem.pattern is None:
        return _Pattern(problem, None)
    return _pattern(problem.pattern)


# -- infeasibility certificate -----------------------------------------------


def moment_bound(problem: SdpProblem) -> float:
    """A bound R on every |y_a| over the feasible set of a problem from
    `build_problem`: 1 when sphere equalities c (sum_{i in G} x_i^2 - 1) = 0
    cover every variable, and inf otherwise.

    The sphere rows give E~[x_i^2 x^2a] <= sum_{i in G} E~[x_i^2 x^2a] =
    E~[x^2a], every term a diagonal entry of the moment matrix, so
    E~ x^2a <= E~ 1 = 1 by induction on the degree, and then
    |E~ x^(a+b)| <= sqrt(E~ x^2a E~ x^2b) <= 1."""
    index = problem.index
    covered = set()
    for q in problem.constraints:
        const = q[0]
        if not const:
            continue
        terms = np.flatnonzero(q[1:]) + 1
        exps = index.exponents[terms]
        squares = (q[terms] == -const) & (index.degrees[terms] == 2) & (exps.max(axis=1) == 2)
        if squares.all():
            covered.update(exps.argmax(axis=1).tolist())
    return 1.0 if len(covered) == index.num_vars else np.inf


def certificate_margin(problem: SdpProblem, multipliers: np.ndarray,
                       factors=()) -> float:
    """b^T lam - R ||L^T lam + t||_1, recomputed on the problem's L and b
    with R = `moment_bound(problem)`, where t = T^T(Z) reads the
    PSD matrices Z = H H^T of the `factors` H against the moment matrix
    (t = 0 with no factors); a positive margin proves the problem
    infeasible.  With no bound, L^T lam + t must vanish up to rounding
    (||L^T lam + t||_1 <= 1e-9 (|| |L|^T |lam| ||_1 + ||t||_1)); the
    margin is then b^T lam, and -inf otherwise.

    The factors are one m x r matrix per block of the solver's block map
    (`_BlockMap`): block j is the principal submatrix of the moment
    matrix on the monomials of one sign class, so <M(y), Z> >= 0 for every
    feasible y.  Raises IllFormed when they do not fit the blocks."""
    conic = None
    if len(factors):
        pattern = _pattern_of(problem)
        conic = _conic_term(problem, pattern.labels, pattern.block_map, factors)
    return _margin(problem, np.asarray(multipliers, dtype=float), moment_bound(problem), conic)


def _margin(problem: SdpProblem, lam: np.ndarray, bound: float,
            conic: np.ndarray | None = None) -> float:
    """`certificate_margin` with the moment bound R and the term t given."""
    lmat = problem.lmat
    terms = lmat.data * np.repeat(lam, np.diff(lmat.indptr))  # the entries of diag(lam) L
    sums = np.bincount(lmat.indices, weights=terms, minlength=lmat.shape[1])
    size = np.abs(terms).sum()
    if conic is not None:
        sums += conic
        size += np.abs(conic).sum()
    slack = float(np.abs(sums).sum())
    if np.isfinite(bound):
        return float(problem.rhs @ lam) - bound * slack
    return float(problem.rhs @ lam) if slack <= _ROUNDING * size else -np.inf


def _conic_term(problem: SdpProblem, labels: np.ndarray, block_map: _BlockMap,
                factors) -> np.ndarray:
    """t = T^T(Z) over every moment, for Z = H H^T block by block: a
    feasible y has t^T y = <T(y), Z> >= 0."""
    if len(factors) != len(block_map.sizes) or any(
            np.ndim(h) != 2 or np.shape(h)[0] != m for h, m in zip(factors, block_map.sizes)):
        raise IllFormed("certificate factors do not fit the problem's blocks")
    stacked = np.concatenate([np.zeros(0)] + [(h @ h.T).reshape(-1) for h in factors])
    out = np.zeros(problem.index.size)
    out[labels == 0] = np.bincount(block_map.columns, weights=stacked,
                                   minlength=block_map.width)
    return out


def _linear_certificate(problem: SdpProblem, geo: _AffineGeometry, scale: float,
                        bound: float):
    """The geometry's Farkas vector r scaled to lam = r / b^T r, given
    `scale` = b^T r > 0 (L y = b has no solution) and `bound` =
    `moment_bound(problem)`, when the margin of lam is positive; else
    None.  The rows that the sign reduction empties have b = 0, so r
    vanishes there."""
    lam = geo.farkas / scale
    margin = _margin(problem, lam, bound)
    if not margin > 0.0:
        return None
    return Certificate("linear", lam, bound, margin)


def _conic_certificate(problem: SdpProblem, labels: np.ndarray, block_map: _BlockMap,
                       geo: _AffineGeometry, space: _FaceSpace, zp: np.ndarray,
                       factors: list, bound: float):
    """The conic certificate read off the PSD part Zp of a DR
    displacement, given with the factors of its lift F Zp F^T, or None.
    The lift gives t = T^T(Z); lam fits L^T lam to t, and scaled to
    b^T lam = -1, -lam and Z are kept when their margin is positive.  In
    face coordinates <c, Zp> = t^T y_p and B^T Zp = N^T t, so
    ||t - L^T lam|| = ||B^T Zp||, and under a finite bound -<c, Zp> must
    exceed R ||B^T Zp|| before lam is worth finding."""
    if np.isfinite(bound) and not (
            bound * float(np.linalg.norm(space.b.T @ zp)) < -float(space.c @ zp)):
        return None
    lam = geo.multipliers(_conic_term(problem, labels, block_map, factors)[labels == 0])
    scale = -float(problem.rhs @ lam)
    if not scale > 0.0:
        return None
    lam = -lam / scale
    factors = tuple(h / np.sqrt(scale) for h in factors)
    margin = _margin(problem, lam, bound, _conic_term(problem, labels, block_map, factors))
    if not margin > 0.0:
        return None
    return Certificate("conic", lam, bound, margin, factors)


# -- sign symmetry -----------------------------------------------------------


def _row_of(lmat: CompressedRows) -> np.ndarray:
    """Row number of each stored entry of compressed rows."""
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
    it maps every equality row to +- itself and fixes every term of a row
    with a nonzero right-hand side.  Those conditions are a set V of
    parities that the kept flips must annihilate over GF(2): the
    par(a) ^ par(a0) of each row, with a0 its first column, and the
    par(e) of each fixed term.  Two monomials are moved alike by every
    kept flip exactly when their parities differ by a member of span(V),
    so the class is the parity reduced modulo V, numbered in increasing
    order; class 0 is the invariant class.
    """
    index, lmat = problem.index, problem.lmat
    parity = ((index.exponents & 1) << np.arange(index.num_vars)).sum(axis=1)
    col_parity = parity[lmat.indices]
    row_of = _row_of(lmat)
    first = col_parity[lmat.indptr[row_of]]
    generators = np.concatenate([col_parity ^ first,
                                 col_parity[problem.rhs[row_of] != 0]])
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
    """The map T from the invariant moments to the stacked symmetric
    blocks of the moment matrix, as a gather: stacked entry i reads the
    invariant moment `columns[i]`, of `width` in all.

    The moment matrix of degree d/2 splits into one block per sign class
    of its row monomials, in class order: entry (a, b) reads y[a + b], an
    invariant moment when a and b share a class, and zero otherwise.  So
    T(y) is y[columns], and T^T(Z) is a bincount over `columns`."""

    def __init__(self, index: MonomialIndex, labels: np.ndarray):
        invariant = np.flatnonzero(labels == 0)
        column = np.full(index.size, -1)
        column[invariant] = np.arange(invariant.size)
        half = index.max_degree // 2
        table = index.sum_table(half, half)
        members = _class_members(labels[:index.count_through(half)])
        self.sizes = tuple(m.size for m in members)
        self.width = invariant.size
        self.columns = _frozen(column[np.concatenate([table[np.ix_(m, m)].reshape(-1)
                                                      for m in members])])


class _IdealRows:
    """Where the truncated-ideal members that the moment matrix
    annihilates sit in L.  They are the rows of L after the normalization
    row that are supported on the moment matrix's monomials (the first m
    columns, as the table is graded); each lies in the block of its class.
    `pos` holds the positions of their entries in L, and `flat` where
    each entry goes in the row-major (rows x m) matrix of the members.
    `members` lists the monomials of each class among the first m, in the
    block order of `_BlockMap`."""

    def __init__(self, index: MonomialIndex, lmat: CompressedRows, labels: np.ndarray):
        m = index.count_through(index.max_degree // 2)
        outside = np.bincount(_row_of(lmat)[lmat.indices >= m], minlength=lmat.shape[0])
        pos, counts = _entries(lmat.indptr, np.flatnonzero(outside[1:] == 0) + 1)
        self.pos = _frozen(pos)
        self.flat = _frozen(np.repeat(np.arange(counts.size) * m, counts) + lmat.indices[pos])
        self.shape = (counts.size, m)
        self.members = tuple(_frozen(c) for c in _class_members(labels[:m]))


def _face_basis(ideal: _IdealRows, data: np.ndarray) -> list:
    """Orthonormal basis of the face of each class block of the moment
    matrix (complement of the span of truncated-ideal coefficient
    vectors), in the block order of `_BlockMap`, for the L whose entries
    are `data`.  An entry is None where the class has no ideal member
    above the rank cut, which is global over the classes, and has no
    columns where the members span the whole class."""
    rows = np.zeros(ideal.shape)
    rows.reshape(-1)[ideal.flat] = data[ideal.pos]
    svds = []
    for members in ideal.members:
        k = rows[:, members]
        k = k[(k != 0).any(axis=1)]
        svds.append(np.linalg.svd(k.T, full_matrices=True) if k.shape[0] else None)
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


def _ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """lo[k], lo[k] + 1, ..., lo[k] + counts[k] - 1 for each k in turn."""
    return np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _entries(indptr: np.ndarray, rows: np.ndarray):
    """Positions of the stored entries of the listed compressed rows, row
    by row, and the number in each row."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    return _ranges(lo, counts), counts


def _column_slice(lmat: CompressedRows, columns: np.ndarray):
    """The layout of the given columns of L, ascending, renumbered in that
    order, with no data (a row that keeps no entry stays, empty), and the
    positions in L of the entries it keeps: with L's data read there, it
    is the slice."""
    position = np.full(lmat.shape[1], -1)
    position[columns] = np.arange(columns.size)
    renumbered = position[lmat.indices]
    keep = renumbered >= 0
    indptr = np.zeros_like(lmat.indptr)
    np.cumsum(np.bincount(_row_of(lmat)[keep], minlength=lmat.shape[0]), out=indptr[1:])
    return (CompressedRows(indptr, renumbered[keep], None, (lmat.shape[0], columns.size)),
            np.flatnonzero(keep))


def _eigen_solve(vals: np.ndarray, vecs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The part of G^+ rhs carried by the given eigenpairs of G."""
    return vecs @ ((vecs.T @ rhs) / vals)


class _Level1:
    """What `_AffineGeometry` reads of the pattern of L on the given
    columns, renumbered in ascending order (`_column_slice`), and of the
    total degree of each column's monomial (`degrees`, one per column of
    L): everything of level 1 but its numbers.

    The slice, of `shape`, splits into the homogeneous rows L1 (`rows1`),
    whose entries all sit on monomials of one total degree, and the other
    rows L2 (`rows2`); `at1` and `at2` are the positions in L of their
    entries, so that L's data read there are the slice's.  The columns
    fall into level 1's connected blocks, each labelled by its smallest
    column (`label`), and `free` marks the columns that no row of L1
    touches.  Block k is cols[bounds[k]:bounds[k + 1]], and its dense
    Gram matrix is gram[base[k]:base[k + 1]].

    The lower triangle of L1^T L1, the one `eigh` reads: entry (i, j),
    j <= i, of a block sits at at_row[i] + local[j] and sums L1[r, i]
    L1[r, j] over the rows r in order.  Columns ascend within a row and so
    does `local`, so the pairs of a row are each entry with those up to
    it.  They run column by column of i (the entries of L1 in `by_col`
    order), filling one row of the Gram matrix at a time; row r of L1
    starts at entry ptr1[r].  The pair arrays grow with the squares of
    the row lengths, so each set-up builds them afresh from these.

    `level2(nulls)` gives the `_Level2` layout for the null count of each
    block, kept in `level2s` by the counts' bytes, the last
    `_LEVEL2_CACHE_SIZE` used.  The counts and the pattern fix every index
    of level 2, so a layout serves every problem that meets them; its
    arrays are read-only and linear in p and the entries of L."""

    def __init__(self, lmat: CompressedRows, columns: np.ndarray, degrees: np.ndarray):
        sliced, kept = _column_slice(lmat, columns)
        p = columns.size
        self.shape = sliced.shape
        deg = degrees[columns][sliced.indices]
        counts = np.diff(sliced.indptr)
        filled = np.flatnonzero(counts)
        starts = sliced.indptr[filled]
        mixed = np.zeros(sliced.shape[0], dtype=bool)
        mixed[filled] = np.minimum.reduceat(deg, starts) < np.maximum.reduceat(deg, starts)
        self.rows1, self.rows2 = np.flatnonzero(~mixed), np.flatnonzero(mixed)
        in_l2 = np.repeat(mixed, counts)
        self.at1, self.at2 = kept[~in_l2], kept[in_l2]
        ptr1 = self.ptr1 = np.zeros(self.rows1.size + 1, dtype=sliced.indptr.dtype)
        np.cumsum(counts[self.rows1], out=ptr1[1:])
        col1 = self.col1 = sliced.indices[~in_l2]
        self.row1 = np.repeat(np.arange(self.rows1.size), counts[self.rows1])
        self.row2 = np.repeat(np.arange(self.rows2.size), counts[self.rows2])
        self.col2 = sliced.indices[in_l2]

        label = self.label = _column_components(ptr1, col1, p)
        self.free = np.bincount(col1, minlength=p) == 0
        cols = np.flatnonzero(~self.free)
        cols = self.cols = cols[np.argsort(label[cols], kind="stable")]
        self.bounds = _runs(label[cols])
        size = self.size = np.diff(self.bounds)
        local = self.local = np.zeros(p, dtype=np.int64)
        local[cols] = np.arange(cols.size) - np.repeat(self.bounds[:-1], size)
        self.base = np.concatenate([[0], np.cumsum(size * size)])
        self.at_row = np.zeros(p, dtype=np.int64)
        self.at_row[cols] = np.repeat(self.base[:-1], size) + local[cols] * np.repeat(size, size)
        self.by_col = np.argsort(col1, kind="stable")
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                _frozen(value)
        self.level2s = collections.OrderedDict()

    def level2(self, nulls: list) -> _Level2:
        """The `_Level2` layout for the null count of each level-1 block,
        in block order: built at its first use and kept among the last
        `_LEVEL2_CACHE_SIZE` used, keyed by the counts' bytes."""
        key = np.array(nulls, dtype=np.int32).tobytes()
        found = self.level2s.get(key)
        if found is None:
            found = self.level2s[key] = _Level2(self, nulls)
            if len(self.level2s) > _LEVEL2_CACHE_SIZE:
                self.level2s.popitem(last=False)
        else:
            self.level2s.move_to_end(key)
        return found


class _Level2:
    """What `_AffineGeometry` reads of level 2 that a `_Level1` layout and
    the null count of each level-1 block fix: everything of level 2 but
    its numbers, its N1 entries and its pairs of entries.

    N1 has `width[c]` columns at column c of L: the null count of its
    block at the block's label, 1 at a free column and 0 elsewhere, and
    the `columns` in all.  The rows of L2 join the blocks with null
    vectors (`keep` marks the entries of L2 on their columns) into
    groups; the columns of N1 run over the blocks that rows of L2 touch,
    group by group, then over the rest.  A block starts at column
    offset[label] of N1, the linked blocks fill the first `head`, and
    group k spans columns spans[k]:spans[k + 1].  Row c of N1, in
    compressed rows, starts at entry n1_ptr[c]; a free column's one entry
    sits at `free_at`, in column `free_col`.

    M = L2 N1 has one dense block per group, of shape[k] columns: rows
    order[row_bounds[k]:row_bounds[k + 1]] of L2, flattened row-major
    at m_flat[base[k]:base[k + 1]], where kept entry e of L2, in column
    col2[e] of L, adds its products to the row at m_row[e].  The free columns of L split into
    the linked ones, `linked_free` at their N1 columns
    `linked_free_col`, and the rest, `other_free` at `other_free_col`,
    columns of N1 that V2 leaves alone.  Every array is read-only and
    linear in the size of the pattern."""

    def __init__(self, layout: _Level1, nulls: list):
        p = layout.shape[1]
        label, free = layout.label, layout.free
        rows2, row2, col2 = layout.rows2, layout.row2, layout.col2
        width = free.astype(np.int64)
        width[layout.cols[layout.bounds[:-1]]] = nulls
        self.columns = int(width.sum())

        # The groups: blocks with null vectors, joined by the rows of L2
        # (the columns of other blocks drop out of L2 N1).
        unit = np.where(width[label] > 0, label, -1)[col2]
        keep = self.keep = unit >= 0
        indptr = np.zeros(rows2.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(row2[keep], minlength=rows2.size), out=indptr[1:])
        group = _column_components(indptr, unit[keep], p)
        linked = np.zeros(p, dtype=bool)
        linked[unit[keep]] = True
        units = np.flatnonzero(width)
        units = units[np.lexsort((units, group[units], ~linked[units]))]
        offset = self.offset = np.zeros(p, dtype=np.int64)
        offset[units] = np.cumsum(width[units]) - width[units]
        head = self.head = int(width[linked].sum())
        self.spans = _runs(np.repeat(group[units], width[units])[:head])
        n1_ptr = self.n1_ptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(width[label], out=n1_ptr[1:])
        self.free_at, self.free_col = n1_ptr[:-1][free], offset[free]

        row_group = np.full(rows2.size, -1)
        row_group[row2[keep]] = group[unit[keep]]
        order = np.argsort(row_group, kind="stable")
        order = self.order = order[row_group[order] >= 0]
        row_bounds = self.row_bounds = _runs(row_group[order])
        shape = self.shape = np.diff(self.spans)
        height = np.diff(row_bounds)
        base = self.base = np.concatenate([[0], np.cumsum(height * shape)])
        # entry (i, j) of M sits at m_flat[at_row[i] + j]
        at_row = np.zeros(rows2.size, dtype=np.int64)
        at_row[order] = (np.repeat(base[:-1] - row_bounds[:-1] * shape - self.spans[:-1], height)
                         + np.arange(order.size) * np.repeat(shape, height))
        self.m_row = at_row[row2[keep]]
        self.col2 = col2[keep]

        fr = np.flatnonzero(free)
        linked_fr = offset[fr] < head
        self.linked_free, self.other_free = fr[linked_fr], fr[~linked_fr]
        self.linked_free_col = offset[self.linked_free]
        self.other_free_col = offset[self.other_free]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                _frozen(value)


class _AffineGeometry:
    """The solution set of L y = b as y_particular + range(null_basis),
    and the equality Farkas vector `farkas`, in two levels that each take
    one eigh per connected block, for the L whose entries are `data` on
    the columns of `layout`, a `_Level1`.  The layout, and the level-2
    layout it keeps per null-count signature, are shared by the problems
    of one pattern; everything numeric is built here.

    Level 1 takes the homogeneous rows L1, whose entries all sit on
    monomials of one total degree.  The eigh of each block of L1^T L1
    gives its null vectors and the minimum-norm least-squares point y1 of
    L1 y = b1; with an identity column for each column that no row of L1
    touches, the null vectors make the orthonormal null basis N1.  Level 2
    takes the other rows L2 on range(N1): M = L2 N1 splits into groups of
    level-1 blocks that rows of L2 join, and the eigh of each group's
    M^T M gives its null basis V2 and t = M^+ (b2 - L2 y1).  Level 1 cuts
    at _RANK_EPS times its top eigenvalue, level 2 at _RANK_EPS times the
    top of both levels, each at least _RANK_EPS.  Level 2's layout hangs
    on the null count of each level-1 block, which rank cuts decide: it is
    looked up by those counts (`_Level1.level2`), and every number of it
    (N1's entries, M, each eigh, cut and solve) is computed here, in the
    same order on every call.

    N = N1 V2 is orthonormal, and y_particular = y0 - N N^T y0, with
    y0 = y1 + N1 t, is the minimum-norm solution whenever L y = b is
    consistent.  `farkas` is r = [b1 - L1 (y1 + z); r2] in the row order
    of L, with r2 = b2 - L2 y0 and z = (L1^T L1)^+ L2^T r2: L^T r =
    N1 M^T r2 vanishes up to rounding, as t is a least-squares point, and
    b^T r = ||b1 - L1 y1||^2 + ||r2||^2 is positive exactly when L y = b
    has no solution."""

    def __init__(self, data: np.ndarray, b: np.ndarray, layout: _Level1):
        p = layout.shape[1]
        rows1, row1, col1 = layout.rows1, layout.row1, layout.col1
        rows2, row2, col2 = layout.rows2, layout.row2, layout.col2
        b1, b2 = b[rows1], b[rows2]
        val1, val2 = data[layout.at1], data[layout.at2]

        # Level 1, block by block (see `_Level1` for the Gram layout).
        by_col = layout.by_col
        lo = layout.ptr1[row1[by_col]]
        repeats = by_col - lo + 1
        right = _ranges(lo, repeats)
        at = np.repeat(layout.at_row[col1[by_col]], repeats)
        at += layout.local[col1[right]]
        weights = np.repeat(val1[by_col], repeats)
        weights *= val1[right]
        del right
        cols, bounds, size, base = layout.cols, layout.bounds, layout.size, layout.base
        gram = np.bincount(at, weights=weights, minlength=base[-1])
        del at, weights
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
        nulls = []
        for k, (ix, vals, vecs) in enumerate(level1):
            null = int(np.searchsorted(vals, cut, side="right"))
            y1[ix] = _eigen_solve(vals[null:], vecs[:, null:], ltb[ix])
            nulls.append(null)
            level1[k] = (ix, vals[null:], vecs[:, null:], vecs[:, :null])

        # N1 in compressed rows, one row per column of L, its columns laid
        # out by level 2's layout for these null counts (see `_Level2`)
        layout2 = layout.level2(nulls)
        n1_ptr, offset, spans = layout2.n1_ptr, layout2.offset, layout2.spans
        n1_col = np.zeros(n1_ptr[-1], dtype=np.int64)
        n1_val = np.ones(n1_ptr[-1])
        n1_col[layout2.free_at] = layout2.free_col
        for ix, _, _, vecs in level1:
            pos = n1_ptr[ix][:, None] + np.arange(vecs.shape[1])
            n1_col[pos] = offset[ix[0]] + np.arange(vecs.shape[1])
            n1_val[pos] = vecs
        n1_row = np.repeat(np.arange(p), np.diff(n1_ptr))

        # Level 2: M = L2 N1, one dense block per group, each entry summed
        # over the row of L2 in order.
        order, row_bounds = layout2.order, layout2.row_bounds
        shape, base = layout2.shape, layout2.base
        pos, repeats = _entries(n1_ptr, layout2.col2)
        m_flat = np.bincount(np.repeat(layout2.m_row, repeats) + n1_col[pos],
                             weights=np.repeat(val2[layout2.keep], repeats) * n1_val[pos],
                             minlength=base[-1])
        rhs2 = b2 - np.bincount(row2, weights=val2 * y1[col2], minlength=rows2.size)
        level2 = []
        for k in range(shape.size):
            part = m_flat[base[k]:base[k + 1]].reshape(-1, shape[k])
            vals, vecs = np.linalg.eigh(part.T @ part)
            top = max(top, float(vals[-1]))
            level2.append((vals, vecs, part.T @ rhs2[order[row_bounds[k]:row_bounds[k + 1]]]))
        cut = _RANK_EPS * max(top, 1.0)
        t = np.zeros(layout2.columns)
        v2_parts = []
        self._level2 = []
        for k, ((vals, vecs, rhs), start, stop) in enumerate(zip(level2, spans[:-1], spans[1:])):
            null = int(np.searchsorted(vals, cut, side="right"))
            t[start:stop] = _eigen_solve(vals[null:], vecs[:, null:], rhs)
            v2_parts.append(vecs[:, :null])
            part = m_flat[base[k]:base[k + 1]].reshape(-1, shape[k])
            self._level2.append((order[row_bounds[k]:row_bounds[k + 1]], part,
                                 vals[null:], vecs[:, null:], start, stop))

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
        self.farkas = np.zeros(b.size)
        self.farkas[rows1] = b1 - np.bincount(row1, weights=val1 * (y1 + z)[col1],
                                              minlength=rows1.size)
        self.farkas[rows2] = r2
        self.b = b
        self._level1 = [(ix, vals, vecs) for ix, vals, vecs, _ in level1]
        self._rows = (rows1, row1, col1, val1, rows2, row2, col2, val2)
        self._n1 = (n1_row, n1_col, n1_val, t.size)
        self._nulls = (layout2, [(ix, vecs) for ix, _, _, vecs in level1], v2_parts)

    @functools.cached_property
    def null_basis(self) -> np.ndarray:
        """N = N1 V2, dense p x r, with V2 block diagonal over the groups
        and the identity on the columns of N1 that no row of L2 touches.
        Built at its first read, by the face space or a certificate, so a
        solve that check 0 decides never forms it."""
        layout2, level1, v2_parts = self._nulls
        offset, spans, head = layout2.offset, layout2.spans, layout2.head
        ends = [0]
        for v in v2_parts:
            ends.append(ends[-1] + v.shape[1])
        v2 = np.zeros((head, ends[-1]))
        for v, start, stop, lo, hi in zip(v2_parts, spans[:-1], spans[1:], ends[:-1], ends[1:]):
            v2[start:stop, lo:hi] = v
        shift = ends[-1] - head
        null = np.zeros((self.y_particular.size, self._n1[3] + shift))
        null[layout2.linked_free, :ends[-1]] = v2[layout2.linked_free_col]
        null[layout2.other_free, shift + layout2.other_free_col] = 1.0
        for ix, vecs in level1:
            start, stop = offset[ix[0]], offset[ix[0]] + vecs.shape[1]
            if start >= head:
                null[ix, shift + start:shift + stop] = vecs
            elif stop > start:
                k = int(np.searchsorted(spans, start, side="right")) - 1
                into = slice(ends[k], ends[k + 1])
                null[ix, into] = vecs @ v2[start:stop, into]
        return null

    def multipliers(self, t: np.ndarray) -> np.ndarray:
        """lam, one per row of L, with L^T lam the least-squares fit of t,
        in the two levels of the set-up.  Level 2 fits the part N1^T t
        that L1^T cannot reach with lam2 = M (M^T M)^+ N1^T t, one group at
        a time; level 1 fits the rest u = t - L2^T lam2 with lam1 =
        L1 (L1^T L1)^+ u, one block at a time.  What is left,
        t - L^T lam, is N N^T t."""
        rows1, row1, col1, val1, rows2, row2, col2, val2 = self._rows
        n1_row, n1_col, n1_val, width = self._n1
        p = t.size
        coef = np.bincount(n1_col, weights=n1_val * t[n1_row], minlength=width)
        lam2 = np.zeros(rows2.size)
        for rows, part, vals, vecs, start, stop in self._level2:
            lam2[rows] = part @ _eigen_solve(vals, vecs, coef[start:stop])
        u = t - np.bincount(col2, weights=val2 * lam2[row2], minlength=p)
        z = np.zeros(p)
        for ix, vals, vecs in self._level1:
            z[ix] = _eigen_solve(vals, vecs, u[ix])
        lam = np.zeros(self.b.size)
        lam[rows1] = np.bincount(row1, weights=val1 * z[col1], minlength=rows1.size)
        lam[rows2] = lam2
        return lam

    def residual(self, y: np.ndarray) -> float:
        """max |L y - b|, each row summed over its entries in order."""
        if self.b.size == 0:
            return 0.0
        rows1, row1, col1, val1, rows2, row2, col2, val2 = self._rows
        ly = np.empty(self.b.size)
        ly[rows1] = np.bincount(row1, weights=val1 * y[col1], minlength=rows1.size)
        ly[rows2] = np.bincount(row2, weights=val2 * y[col2], minlength=rows2.size)
        return float(np.abs(ly - self.b).max())


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
        self.sources = []  # (block of `_BlockMap`, face basis or None) per block
        self.sizes = block_map.sizes
        c_parts, b_parts = [], []
        self.off2 = 0.0
        offset = start = 0
        for bi, (m, face) in enumerate(zip(block_map.sizes, faces)):
            rows = block_map.columns[offset:offset + m * m]
            offset += m * m
            const = geo.y_particular[rows].reshape(m, m)
            moving = null[rows]  # column j: T(N e_j), flattened row-major
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
            self.sources.append((bi, face))
            start += k * k
            c_parts.append(const.reshape(-1))
            b_parts.append(moving)
        self.c = np.concatenate([np.zeros(0)] + c_parts)
        self.b = np.vstack([np.zeros((0, r))] + b_parts)
        # least squares onto c + range(B): w = G^T (x - c), G^T = H^-1 B^T;
        # one r x r inverse, as a solve with the D right-hand sides is slower
        h = self.b.T @ self.b + 1e-13 * np.eye(r)
        self.g_t = np.linalg.inv(h) @ self.b.T
        # the blocks grouped by size k, each group an index array of shape
        # (count, k, k) into the stacked vector, so the cone step makes one
        # stacked call per size; LAPACK and BLAS still run per matrix
        starts = {}
        for cut, k in self.blocks:
            starts.setdefault(k, []).append(cut.start)
        self.groups = [np.add.outer(np.array(offsets), np.arange(k * k).reshape(k, k))
                       for k, offsets in sorted(starts.items())]

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project each block onto the PSD cone, one stacked eigh per block
        size: X + X^T is twice the symmetric part, so its eigenvalues are
        halved before the clip."""
        out = np.empty_like(x)
        for at in self.groups:
            mats = x[at]
            vals, vecs = np.linalg.eigh(mats + mats.transpose(0, 2, 1))
            kept = np.maximum(0.5 * vals, 0.0)[:, None, :]
            out[at] = (vecs * kept) @ vecs.transpose(0, 2, 1)
        return out

    def psd_part(self, z: np.ndarray):
        """The PSD part of each block of z, as the stacked blocks G G^T and
        the factors H = F G of their lifts F G G^T F^T, one per block of
        `_BlockMap` (no columns where a block dropped out)."""
        zp = np.zeros_like(z)
        factors = [np.zeros((m, 0)) for m in self.sizes]
        for (cut, k), (bi, face) in zip(self.blocks, self.sources):
            mat = z[cut].reshape(k, k)
            vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
            keep = vals > 0.0
            g = vecs[:, keep] * np.sqrt(vals[keep])
            zp[cut] = (g @ g.T).reshape(-1)
            factors[bi] = g if face is None else face @ g
        return zp, factors

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
        """The least eigenvalue over all blocks, one stacked eigvalsh per
        block size; 0.0 when there is no block."""
        if not self.groups:
            return 0.0
        return float(min(np.linalg.eigvalsh(x[at])[:, 0].min() for at in self.groups))


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


def _check(space: _FaceSpace, geo: _AffineGeometry, s_cone: np.ndarray):
    """The checked iterate of the cone point s_cone: the moments y = y_p +
    N w of the affine point s_hat = c + B w nearest it, their residual
    max |L y - b|, the least block eigenvalue of s_hat, the displacement
    s_cone - s_hat and the gap between the DR sets."""
    w = space.coefficients(s_cone)
    s_hat = space.point(w)
    displacement = s_cone - s_hat
    gap = float(np.sqrt(displacement @ displacement + space.off2))
    y_hat = geo.y_particular + geo.null_basis @ w
    return y_hat, space.min_eigenvalue(s_hat), geo.residual(y_hat), displacement, gap


def _psd_distance(block_map: _BlockMap, y: np.ndarray):
    """The least eigenvalue over the blocks of the moment matrix M(y) of
    the invariant moments y, and the Frobenius distance of M(y) to the
    PSD cone, from one stacked eigvalsh per block size."""
    stacked = y[block_map.columns]
    by_size = {}
    start = 0
    for m in block_map.sizes:
        by_size.setdefault(m, []).append(stacked[start:start + m * m].reshape(m, m))
        start += m * m
    vals = np.concatenate([np.linalg.eigvalsh(np.array(mats)).reshape(-1)
                           for mats in by_size.values()])
    return float(vals.min()), float(np.linalg.norm(np.minimum(vals, 0.0)))


def _try_conic(problem, labels, block_map, geo, space, base, z, bound):
    """A conic certificate from the displacement z at the last accepted
    iterate, else from the one after _PLAIN_STEPS plain DR steps taken
    from it, which the run itself does not take.  Each is tried only when
    it points the way of a certificate, with <c, Zp> < 0 for its PSD
    part Zp (the limit has <c, Z> = -||Z||^2)."""
    x = base[0]
    for plain in (0, _PLAIN_STEPS):
        if plain:
            for _ in range(plain):
                x = x + space.fixed_point_residual(x)[1]
            s_cone = space.clip(x)
            z = s_cone - space.point(space.coefficients(s_cone))
        zp, factors = space.psd_part(z)
        if not float(space.c @ zp) < 0.0:
            return None
        certificate = _conic_certificate(problem, labels, block_map, geo, space,
                                         zp, factors, bound)
        if certificate is not None:
            return certificate
    return None


def solve_feasibility(problem: SdpProblem, iter_limit: int = DEFAULT_ITER_LIMIT,
                      accept=None):
    """Find a moment vector satisfying the problem, or prove there is none.

    Returns (PseudoDistribution | None, SolverReport).  Status `feasible`
    comes with a distribution whose equality residuals are at solver
    precision and whose moment matrices clear -DEFAULT_TOL, read at call
    time; `infeasible` comes with a checked certificate, linear from
    set-up or conic from the DR displacement; `iter_limit` means neither
    within iter_limit DR iterations.

    `accept(dist) -> bool`, when given, lets the caller stop on an
    iterate that is good enough for its purpose.  It is called first at
    check 0, after the linear-certificate test and before the face basis
    and the face space are built, on y_p, the least-norm solution of
    L y = b, with no feasibility exit and no conic try there; then at the
    checks where the iterate is not yet feasible and a conic certificate
    is due (checks 1, 2, 4, 8, ... and the last), before that try.  Each
    time it gets the point as a distribution built like the `feasible`
    one: it meets L y = b but need not be PSD.  When it returns True the
    status is `rounded`, that distribution is returned, and `iterations`
    is the iteration of that check, 0 at check 0, whose report reads
    M(y_p) (see `SolverReport`).  A run that never gets True returns what
    it returns with no hook.
    Raises IllFormed unless iter_limit >= 1.
    """
    if not iter_limit >= 1:
        raise IllFormed(f"iteration limit must be at least 1, got {iter_limit}")
    pattern = _pattern_of(problem)
    labels, invariant = pattern.labels, pattern.invariant
    # Each row of L lies in one class, and rows with a nonzero right-hand
    # side in class 0, so the rows of other classes drop out here as empty.
    geo = _AffineGeometry(problem.lmat.data, problem.rhs, pattern.level1)
    # moment_bound(problem), computed once; only certificates read it, so a
    # run that the hook stops at check 0 never computes it
    bound = None
    scale = float(problem.rhs @ geo.farkas)
    if scale > 0.0:
        bound = moment_bound(problem)
        certificate = _linear_certificate(problem, geo, scale, bound)
        if certificate is not None:
            return None, SolverReport(
                status="infeasible", iterations=0,
                max_constraint_residual=geo.residual(geo.y_particular),
                min_block_eigenvalue=0.0, gap=np.inf, certificate=certificate)
    block_map = pattern.block_map
    if accept is not None:
        # check 0: y_p, offered before any cone set-up; the run never
        # reads it, so a refused offer changes nothing
        dist = _distribution(problem, invariant, geo.y_particular)
        if accept(dist):
            min_eig, gap = _psd_distance(block_map, geo.y_particular)
            return dist, SolverReport(status="rounded", iterations=0,
                                      max_constraint_residual=geo.residual(geo.y_particular),
                                      min_block_eigenvalue=min_eig, gap=gap)
    space = _FaceSpace(block_map, _face_basis(pattern.ideal, problem.lmat.data), geo)

    x = space.c.copy()
    if bound is None:
        bound = moment_bound(problem)
    accel = _Anderson(_ANDERSON_MEMORY, x.size)
    base = None  # (x, g(x), clip(x), ||g(x)||^2) of the last accepted iterate
    extrapolated = False
    accepted = rejected = 0
    best = None
    gap = np.inf
    iterations = 0
    status = "iter_limit"
    certificate = None

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
        y_hat, min_eig, resid, displacement, gap = _check(space, geo, base[2])
        best = (y_hat, min_eig, resid)
        if min_eig >= -DEFAULT_TOL and resid <= max(DEFAULT_TOL, 1e-9):
            status = "feasible"
            break
        checks = iterations // _CHECK_EVERY
        if checks and (checks & (checks - 1) == 0 or iterations >= iter_limit):
            if accept is not None and accept(_distribution(problem, invariant, y_hat)):
                status = "rounded"
                break
            certificate = _try_conic(problem, labels, block_map, geo, space, base,
                                     displacement, bound)
            if certificate is not None:
                status = "infeasible"
                break

    y_hat, min_eig, resid = best
    report = SolverReport(
        status=status,
        iterations=iterations,
        max_constraint_residual=resid,
        min_block_eigenvalue=min_eig,
        gap=gap,
        certificate=certificate,
        anderson_accepted=accepted,
        anderson_rejected=rejected,
    )
    if status not in ("feasible", "rounded"):
        return None, report
    return _distribution(problem, invariant, y_hat), report


def _distribution(problem: SdpProblem, invariant: np.ndarray,
                  y_hat: np.ndarray) -> PseudoDistribution:
    """The moment table of the invariant moments y_hat, normalized to
    E~ 1 = 1, with every other moment zero."""
    index = problem.index
    moments = np.zeros(index.size)
    moments[invariant] = y_hat / y_hat[0]
    return PseudoDistribution(index, moments, index.max_degree, tuple(problem.constraints))
