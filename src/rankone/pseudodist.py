"""Pseudo-distributions as truncated moment functionals.

A degree-d pseudo-distribution over R^n is represented by its moment
vector: one real number per monomial of total degree <= d, indexed by a
graded-lexicographic table.  The defining properties (normalization
E~ 1 = 1, E~ f^2 >= 0 for deg f <= d/2, E~[q x^m] ~ 0 for each
equality constraint q = 0) are checkable from that vector alone and are
what `validate` measures.

Every polynomial is a dense coefficient vector.  A polynomial of degree
<= h is the vector of its coefficients over the first `count_through(h)`
monomials of a `MonomialIndex`, a prefix shared by every table over the
same variables.  One kernel serves all of it:

- `MonomialIndex.sum_table(h1, h2)` is a cached integer table holding
  the index of x^(a+b), sized to the (h1, h2) block it serves;
- `moment_block(mu, h1, h2)` gathers Y[a, b] = E~ x^(a+b) through it,
  so E~ f g = f^T Y g and a reweighting is one gather-matmul;
- `linear_form_powers` expands every power of one linear form <v, x>
  with multinomial weights, and `univariate_poly` combines them into a
  polynomial in <v, x>; even powers and shifted powers are then quadratic
  forms against a gathered moment block;
- `poly_mul` multiplies two dense vectors through a sum table, and
  `poly_pow` folds it into a power.

Equality constraints, reweighting polynomials and their certificates
are all dense vectors; a constraint q stands for q = 0.

Reweighting by a sum-of-squares polynomial p sends the moment vector y
to y'[a] = E~[p * x^a] / E~[p] at reduced degree.  Every
`ReweightPolynomial` carries roots g_i with p = sum g_i^2, and
`reweight` checks that identity before it uses p.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWeight,
    DegreeExceeded,
    DegreeExhausted,
    DimensionMismatch,
    NotSOS,
)

PSD_EPS = 1e-7     # moment-matrix eigenvalue floor
CON_EPS = 1e-6     # equality-constraint residual ceiling
NORM_EPS = 1e-10   # reweighting normalization floor


# -- monomial table ----------------------------------------------------------


class MonomialIndex:
    """Bijection between exponent tuples of degree <= max_degree and dense
    indices, graded-lexicographic, index 0 = the constant monomial and
    index 1 + i = x_i.  Tables over the same variables agree on their
    common prefix, so a coefficient vector over the monomials of degree
    <= h means the same polynomial under every table of degree >= h.

    The arrays are read-only: `monomial_index` hands one instance to
    every caller."""

    def __init__(self, num_vars: int, max_degree: int):
        if num_vars < 1 or max_degree < 0:
            raise DimensionMismatch("need num_vars >= 1 and max_degree >= 0")
        self.num_vars = num_vars
        self.max_degree = max_degree
        exps: list[tuple[int, ...]] = []
        offsets = [0]
        for d in range(max_degree + 1):
            for combo in itertools.combinations_with_replacement(range(num_vars), d):
                e = [0] * num_vars
                for j in combo:
                    e[j] += 1
                exps.append(tuple(e))
            offsets.append(len(exps))
        self.exponents = _frozen(np.array(exps, dtype=np.int64).reshape(len(exps), num_vars))
        self.exponent_tuples = tuple(exps)
        self.offsets = tuple(offsets)
        self.size = len(exps)
        self.degrees = _frozen(self.exponents.sum(axis=1))
        self._lookup = {e: i for i, e in enumerate(exps)}
        self._sum_tables: dict = {}

    def count_through(self, degree: int) -> int:
        """Number of monomials of total degree <= degree."""
        return self.offsets[min(degree, self.max_degree) + 1]

    def degree_of_count(self, count: int) -> int:
        """The h with count_through(h) == count: the degree bound of a
        dense coefficient vector of that length."""
        try:
            return self.offsets.index(count, 1) - 1
        except ValueError:
            raise DimensionMismatch(
                f"{count} coefficients fill no degree prefix of the table") from None

    def degree_of(self, vec: np.ndarray) -> int:
        """Total degree of the dense polynomial vec, 0 for the zero
        polynomial.  The graded order runs on past the table, so a vector
        longer than the table has a degree too."""
        nonzero = np.flatnonzero(vec)
        last = int(nonzero[-1]) if nonzero.size else 0
        degree = 0
        while math.comb(self.num_vars + degree, degree) <= last:
            degree += 1
        return degree

    def block(self, degree: int) -> slice:
        """Positions of the monomials of total degree exactly `degree`."""
        return slice(self.offsets[degree], self.offsets[degree + 1])

    def index_of(self, exponent: tuple[int, ...]) -> int:
        try:
            return self._lookup[tuple(exponent)]
        except KeyError:
            raise DegreeExceeded(f"monomial {exponent} outside degree-{self.max_degree} table") from None

    def sum_table(self, h1: int, h2: int) -> np.ndarray:
        """Indices of x^(a+b) for a of degree <= h1 and b of degree <= h2,
        shape (count_through(h1), count_through(h2)).  Built once per
        block and cached; it never spans more than the block it serves."""
        table = self._sum_tables.get((h1, h2))
        if table is None:
            if h1 + h2 > self.max_degree:
                raise DegreeExceeded(
                    f"degree {h1} + {h2} products exceed the degree-{self.max_degree} table")
            look = self._lookup
            rows = self.exponent_tuples[:self.count_through(h1)]
            cols = self.exponent_tuples[:self.count_through(h2)]
            table = _frozen(np.array(
                [[look[tuple(map(operator.add, a, b))] for b in cols] for a in rows],
                dtype=np.int64).reshape(len(rows), len(cols)))
            self._sum_tables[(h1, h2)] = table
        return table

    @functools.cached_property
    def multinomials(self) -> np.ndarray:
        """|a|! / prod_i a_i! per monomial: the coefficient of x^a in
        (x_1 + ... + x_n)^|a|."""
        fact = [math.factorial(j) for j in range(self.max_degree + 1)]
        return _frozen(np.array(
            [fact[sum(e)] // math.prod(fact[v] for v in e) for e in self.exponent_tuples],
            dtype=float))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=32)
def monomial_index(num_vars: int, max_degree: int) -> MonomialIndex:
    """The shared table over num_vars variables up to max_degree."""
    return MonomialIndex(num_vars, max_degree)


# -- core types --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReweightPolynomial:
    """A sum-of-squares reweighting polynomial p with its certificate.

    `coefficients` is the dense vector of p and `certificate` the tuple
    of dense roots g_i with p = sum_i g_i^2, all filling degree prefixes
    of `index`, which also holds the squares g_i^2.  reweight() checks
    the identity before it uses p.
    """

    index: MonomialIndex
    coefficients: np.ndarray
    certificate: tuple

    def __post_init__(self):
        # the roots are a tuple, never None: every reweighting is checked
        object.__setattr__(self, "certificate", tuple(self.certificate))

    @property
    def degree(self) -> int:
        return self.index.degree_of(self.coefficients)


@dataclass(frozen=True)
class PseudoDistribution:
    """Moment vector of degree `degree` over `index.num_vars` variables,
    with the dense polynomials q of its equality constraints q = 0."""

    index: MonomialIndex
    moments: np.ndarray
    degree: int
    constraints: tuple = ()

    @property
    def num_vars(self) -> int:
        return self.index.num_vars

    def expect(self, vec: np.ndarray) -> float:
        """E~ of the dense polynomial vec.  Raises DegreeExceeded when vec
        runs past the moment table."""
        if vec.size > self.moments.size:
            raise DegreeExceeded(
                f"{vec.size} coefficients exceed the degree-{self.degree} table")
        return float(vec @ self.moments[:vec.size])


def moment_block(mu: PseudoDistribution, h1: int, h2: int) -> np.ndarray:
    """Y[a, b] = E~ x^(a+b) for deg a <= h1 and deg b <= h2, so that
    E~ f g = f^T Y g for dense f, g of those degrees."""
    if h1 + h2 > mu.degree:
        raise DegreeExceeded(
            f"degree {h1} + {h2} block exceeds the degree-{mu.degree} distribution")
    return mu.moments[mu.index.sum_table(h1, h2)]


def linear_form_powers(index: MonomialIndex, v, top: int) -> np.ndarray:
    """All powers <v, x>^j for j <= top in one coefficient vector: the
    multinomial expansion puts (|a|! / a!) v^a on x^a, so the degree-j
    block holds <v, x>^j.  A stack of directions v (shape (..., n)) gives
    a stack of vectors."""
    if top > index.max_degree:
        raise DegreeExceeded(f"power {top} exceeds the degree-{index.max_degree} table")
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (index.num_vars,):
        raise DimensionMismatch(
            f"direction of shape {v.shape} for a table over {index.num_vars} variables")
    count = index.count_through(top)
    # v_i^e for every variable and every e <= top, gathered by the exponent
    # table: the factors of v^a and their product order are those of
    # v ** exponents, so the result is bit-identical, without one power per
    # monomial and variable.  pow(x, 0) = 1 and pow(x, 1) = x exactly, so
    # the vector pow runs only for e >= 2.  Its exponents are filled in
    # before the pow: with a broadcast single exponent 2, NumPy squares
    # x * x instead, which is 1 ulp off pow in a few percent of entries
    table = np.empty(v.shape + (top + 1,))
    table[...] = np.arange(top + 1)
    np.power(v[..., None], table[..., 2:], out=table[..., 2:])
    table[..., 0] = 1.0
    table[..., 1:2] = v[..., None]
    factors = table[..., np.arange(index.num_vars), index.exponents[:count]]
    return index.multinomials[:count] * np.multiply.reduce(factors, axis=-1)


def univariate_poly(index: MonomialIndex, powers: np.ndarray, coeffs) -> np.ndarray:
    """Coefficient vector of sum_j coeffs[j] <v, x>^j over the monomials
    of degree <= len(coeffs) - 1, from powers = linear_form_powers(index,
    v, top) with top >= len(coeffs) - 1."""
    top = len(coeffs) - 1
    if top > index.max_degree:
        raise DegreeExceeded(f"degree {top} exceeds the degree-{index.max_degree} table")
    count = index.count_through(top)
    return np.asarray(coeffs, dtype=float)[index.degrees[:count]] * powers[..., :count]


def poly_mul(index: MonomialIndex, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense product of two coefficient vectors, each filling a degree
    prefix of the table."""
    ha = index.degree_of_count(a.size)
    hb = index.degree_of_count(b.size)
    table = index.sum_table(ha, hb)
    return np.bincount(table.ravel(), weights=np.outer(a, b).ravel(),
                       minlength=index.count_through(ha + hb))


def poly_pow(index: MonomialIndex, a: np.ndarray, k: int) -> np.ndarray:
    """a^k as the left fold (...((a a) a)...) a of `poly_mul`; the
    constant 1 when k = 0."""
    if k < 0:
        raise ValueError("negative power")
    out = a if k else np.ones(1)
    for _ in range(k - 1):
        out = poly_mul(index, out, a)
    return out


def moment_matrix(mu: PseudoDistribution) -> np.ndarray:
    """Moment matrix M[a,b] = E~ x^(a+b) over the monomials of degree
    <= degree // 2."""
    half = mu.degree // 2
    return moment_block(mu, half, half)


def _check_certificate(p: ReweightPolynomial) -> bool:
    """Whether sum g_i^2 reproduces p: every coefficient of the difference
    within 1e-8 of the largest coefficient of p and of the squares.  The
    bound scales with p and has no absolute floor, because reweight()
    divides by E~ p, so the scale of p never protects a false claim."""
    squares = [poly_mul(p.index, g, g) for g in p.certificate]
    vectors = [p.coefficients, *squares]
    diff = np.zeros(max(vec.size for vec in vectors))
    diff[:p.coefficients.size] -= p.coefficients
    for square in squares:
        diff[:square.size] += square
    scale = max(float(np.abs(vec).max(initial=0.0)) for vec in vectors)
    return float(np.abs(diff).max()) <= 1e-8 * scale


def reweight(mu: PseudoDistribution, p: ReweightPolynomial) -> PseudoDistribution:
    """Reweighted pseudo-distribution mu' = p * mu / E~[p], once the
    certificate of p checks out (NotSOS otherwise).

    The result has degree mu.degree - deg(p), and at least degree 2 must
    remain (DegreeExhausted otherwise); its moments are one gather-matmul,
    y'[a] = sum_b Y[a, b] p_b / E~[p].
    """
    if p.index.num_vars != mu.num_vars:
        raise DimensionMismatch(
            f"weight over {p.index.num_vars} variables, distribution over {mu.num_vars}")
    if not _check_certificate(p):
        raise NotSOS("certificate does not reproduce the polynomial")

    dp = p.degree
    if dp > mu.degree - 2:
        raise DegreeExhausted(
            f"reweighting degree {dp} exceeds budget of a degree-{mu.degree} distribution")
    coef = p.coefficients[:mu.index.count_through(dp)]
    low = mu.moments[:coef.size]
    norm = float(coef @ low)
    scale = float(np.abs(coef) @ np.abs(low))
    if norm <= NORM_EPS * max(1.0, scale):
        raise DegenerateWeight(f"E~[p] = {norm:.3e} is too small to normalize")

    new_degree = mu.degree - dp
    new_moments = moment_block(mu, new_degree, dp) @ coef
    new_moments /= norm
    new_moments[0] = 1.0
    kept = tuple(q for q in mu.constraints if mu.index.degree_of(q) <= new_degree)
    return PseudoDistribution(monomial_index(mu.num_vars, new_degree), new_moments,
                              new_degree, kept)


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    min_moment_eig: float
    max_equality_residual: float
    normalized: bool

    def ok(self) -> bool:
        return (self.normalized
                and self.min_moment_eig >= -PSD_EPS
                and self.max_equality_residual <= CON_EPS)


def equality_residual(mu: PseudoDistribution, q: np.ndarray) -> float:
    """max over multipliers x^m of |E~[q * x^m]| with deg(q x^m) <= degree,
    for the dense polynomial q."""
    dq = mu.index.degree_of(q)
    if dq > mu.degree:
        return 0.0
    acc = moment_block(mu, mu.degree - dq, dq) @ q[:mu.index.count_through(dq)]
    return float(np.abs(acc).max())


def validate(mu: PseudoDistribution) -> ValidationReport:
    """Measure the defining pseudo-distribution properties."""
    normalized = abs(float(mu.moments[0]) - 1.0) <= 1e-12
    eigs = np.linalg.eigvalsh(moment_matrix(mu))
    min_eig = float(eigs[0]) if eigs.size else 0.0
    max_res = max((equality_residual(mu, q) for q in mu.constraints), default=0.0)
    return ValidationReport(min_eig, max_res, normalized)


__all__ = [
    "MonomialIndex", "ReweightPolynomial", "PseudoDistribution",
    "monomial_index", "moment_block", "linear_form_powers",
    "univariate_poly", "poly_mul", "poly_pow", "moment_matrix", "reweight",
    "validate", "ValidationReport", "equality_residual", "PSD_EPS", "CON_EPS",
    "NORM_EPS",
]
