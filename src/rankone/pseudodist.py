"""Pseudo-distributions as truncated moment functionals.

A degree-d pseudo-distribution over R^n is represented by its moment
vector: one real number per monomial of total degree <= d, indexed by a
graded-lexicographic table.  The defining properties (normalization
E~ 1 = 1, E~ f^2 >= 0 for deg f <= d/2, constraint residuals ~ 0) are
checkable from that vector alone and are what `validate` measures.

The moment path computes with dense coefficient vectors.  A polynomial
of degree <= h is the vector of its coefficients over the first
`count_through(h)` monomials of a `MonomialIndex`, a prefix shared by
every table over the same variables.  One kernel serves all of it:

- `MonomialIndex.sum_table(h1, h2)` is a cached integer table holding
  the index of x^(a+b), sized to the (h1, h2) block it serves;
- `moment_block(mu, h1, h2)` gathers Y[a, b] = E~ x^(a+b) through it,
  so E~ f g = f^T Y g and a reweighting is one gather-matmul;
- `linear_form_powers` expands every power of one linear form <v, x>
  with multinomial weights, and `univariate_poly` combines them into a
  polynomial in <v, x>; even powers and shifted powers are then quadratic
  forms against a block gathered once per distribution;
- `poly_product` multiplies two dense vectors through a sum table.

Reweighting by a sum-of-squares polynomial p sends the moment vector y
to y'[a] = E~[p * x^a] / E~[p] at reduced degree.  Sparse dicts mapping
exponent tuples to float coefficients remain at the API edge:
`ReweightPolynomial`, `ConstraintSpec`, `pseudo_expect` and the factor
reports of the reweighting layer take and hand out dicts.

Distributions embedded from an explicit finite support keep their atoms
(`support` field).  Such objects are actual distributions, hence valid
pseudo-distributions of every degree: the reweighting machinery uses the
atoms to evaluate arbitrarily high-degree reweightings exactly, while
the stored moment vector is still truncated at the declared degree.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadWeights,
    DegenerateWeight,
    DegreeExceeded,
    DegreeExhausted,
    DimensionMismatch,
    IllFormed,
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


# -- sparse polynomial helpers -----------------------------------------------


def poly_clean(p: dict) -> dict:
    return {e: c for e, c in p.items() if c != 0.0}


def poly_degree(p: dict) -> int:
    return max((sum(e) for e, c in p.items() if c != 0.0), default=0)


def poly_constant(c: float, num_vars: int) -> dict:
    return {(0,) * num_vars: float(c)}


def poly_linear(vec) -> dict:
    """<vec, x> as a sparse polynomial."""
    vec = np.asarray(vec, dtype=float)
    n = vec.shape[0]
    out = {}
    for i in range(n):
        if vec[i] != 0.0:
            e = [0] * n
            e[i] = 1
            out[tuple(e)] = float(vec[i])
    return out


def poly_quadratic(q) -> dict:
    """x^T Q x as a sparse polynomial (Q symmetrized)."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    s = 0.5 * (q + q.T)
    out: dict = {}
    for i in range(n):
        for j in range(i, n):
            c = s[i, i] if i == j else 2.0 * s[i, j]
            if c != 0.0:
                e = [0] * n
                e[i] += 1
                e[j] += 1
                out[tuple(e)] = c
    return out


def poly_add(p: dict, q: dict, scale: float = 1.0) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0.0) + scale * c
    return poly_clean(out)


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return poly_clean(out)


def poly_pow(p: dict, k: int) -> dict:
    if k < 0:
        raise ValueError("negative power")
    num_vars = len(next(iter(p))) if p else 1
    out = poly_constant(1.0, num_vars)
    base = dict(p)
    while k:
        if k & 1:
            out = poly_mul(out, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    return out


def as_point_rows(points) -> np.ndarray:
    """Coerce to shape (num_points, num_vars); 1-d input means univariate."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    return arr


def poly_eval(p: dict, points: np.ndarray) -> np.ndarray:
    """Evaluate at each row of points; returns shape (len(points),)."""
    points = as_point_rows(points)
    vals = np.zeros(points.shape[0])
    for e, c in p.items():
        term = np.ones(points.shape[0])
        for j, ej in enumerate(e):
            if ej:
                term = term * points[:, j] ** ej
        vals += c * term
    return vals


# -- core types --------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSpec:
    """Polynomial constraint: `polynomial == 0` (eq) or `polynomial >= 0` (ineq)."""

    polynomial: tuple  # canonicalized dict items, kept hashable
    kind: str = "eq"

    @staticmethod
    def equality(p: dict) -> "ConstraintSpec":
        return ConstraintSpec(tuple(sorted(poly_clean(p).items())), "eq")

    @staticmethod
    def inequality(p: dict) -> "ConstraintSpec":
        return ConstraintSpec(tuple(sorted(poly_clean(p).items())), "ineq")

    def poly(self) -> dict:
        return dict(self.polynomial)

    def degree(self) -> int:
        return poly_degree(self.poly())


@dataclass(frozen=True)
class ReweightPolynomial:
    """A sum-of-squares reweighting polynomial.

    `certificate` is an optional tuple of polynomials g_i with
    sum g_i^2 = coefficients; reweight() verifies it (or falls back to a
    numeric Gram check when absent).
    """

    coefficients: tuple
    degree: int
    certificate: tuple | None = None

    @staticmethod
    def from_square(g: dict) -> "ReweightPolynomial":
        p = poly_mul(g, g)
        return ReweightPolynomial(
            tuple(sorted(p.items())), poly_degree(p),
            (tuple(sorted(poly_clean(g).items())),))

    @staticmethod
    def from_coefficients(p: dict, certificate=None) -> "ReweightPolynomial":
        p = poly_clean(p)
        cert = None
        if certificate is not None:
            cert = tuple(tuple(sorted(poly_clean(g).items())) for g in certificate)
        return ReweightPolynomial(tuple(sorted(p.items())), poly_degree(p), cert)

    def poly(self) -> dict:
        return dict(self.coefficients)

    def certificate_polys(self):
        if self.certificate is None:
            return None
        return [dict(g) for g in self.certificate]

    def product(self, other: "ReweightPolynomial") -> "ReweightPolynomial":
        p = poly_mul(self.poly(), other.poly())
        cert = None
        if self.certificate is not None and other.certificate is not None:
            cert = [poly_mul(dict(g), dict(h))
                    for g in self.certificate for h in other.certificate]
        return ReweightPolynomial.from_coefficients(p, cert)


@dataclass(frozen=True)
class PseudoDistribution:
    """Moment vector of degree `degree` over `index.num_vars` variables."""

    index: MonomialIndex
    moments: np.ndarray
    degree: int
    constraints: tuple = ()
    support: tuple | None = None  # ((point ndarray, weight), ...) when exact

    @property
    def num_vars(self) -> int:
        return self.index.num_vars

    def expect(self, p: dict) -> float:
        return pseudo_expect(self, p)


def pseudo_expect(mu: PseudoDistribution, p: dict) -> float:
    """E~_mu[p].  Raises DegreeExceeded when deg p > mu.degree."""
    total = 0.0
    for e, c in p.items():
        if c == 0.0:
            continue
        total += c * mu.moments[mu.index.index_of(e)]
    return float(total)


def dense_poly(index: MonomialIndex, p: dict, degree: int) -> np.ndarray:
    """Coefficient vector of the dict polynomial p over the monomials of
    degree <= degree.  Raises DegreeExceeded when a term does not fit."""
    count = index.count_through(degree)
    out = np.zeros(count)
    for e, c in p.items():
        if c == 0.0:
            continue
        i = index.index_of(e)
        if i >= count:
            raise DegreeExceeded(f"monomial {e} above degree {degree}")
        out[i] += c
    return out


def sparse_poly(index: MonomialIndex, vec: np.ndarray) -> dict:
    """The dict polynomial with the nonzero coefficients of vec."""
    exps = index.exponent_tuples
    return {exps[i]: float(vec[i]) for i in np.flatnonzero(vec)}


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
    count = index.count_through(top)
    return index.multinomials[:count] * np.multiply.reduce(
        np.asarray(v, dtype=float)[..., None, :] ** index.exponents[:count], axis=-1)


def univariate_poly(index: MonomialIndex, powers: np.ndarray, coeffs) -> np.ndarray:
    """Coefficient vector of sum_j coeffs[j] <v, x>^j over the monomials
    of degree <= len(coeffs) - 1, from powers = linear_form_powers(index,
    v, top) with top >= len(coeffs) - 1."""
    top = len(coeffs) - 1
    if top > index.max_degree:
        raise DegreeExceeded(f"degree {top} exceeds the degree-{index.max_degree} table")
    count = index.count_through(top)
    return np.asarray(coeffs, dtype=float)[index.degrees[:count]] * powers[..., :count]


def poly_product(index: MonomialIndex, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense product of two coefficient vectors, each filling a degree
    prefix of the table."""
    ha = index.degree_of_count(a.size)
    hb = index.degree_of_count(b.size)
    table = index.sum_table(ha, hb)
    return np.bincount(table.ravel(), weights=np.outer(a, b).ravel(),
                       minlength=index.count_through(ha + hb))


def moment_matrix(mu: PseudoDistribution, localizer: dict | None = None) -> np.ndarray:
    """Moment matrix M[a,b] = E~[loc * x^(a+b)] over monomials of degree
    <= (degree - deg loc) // 2; localizer=None means the plain matrix."""
    loc = localizer if localizer is not None else poly_constant(1.0, mu.num_vars)
    dloc = poly_degree(loc)
    if dloc > mu.degree:
        raise DegreeExceeded("localizer degree exceeds the distribution degree")
    half = (mu.degree - dloc) // 2
    pairs = mu.index.sum_table(half, half)
    shifted = mu.index.sum_table(2 * half, dloc)
    out = np.zeros(pairs.shape)
    for e, c in loc.items():
        if c == 0.0:
            continue
        out += c * mu.moments[shifted[pairs, mu.index.index_of(e)]]
    return 0.5 * (out + out.T)


def _check_certificate(p: ReweightPolynomial, num_vars: int) -> bool:
    gs = p.certificate_polys()
    half = max((poly_degree(g) for g in gs), default=0)
    top = max(2 * half, p.degree)
    index = monomial_index(num_vars, top)
    diff = -dense_poly(index, p.poly(), top)
    scale = float(np.abs(diff).max(initial=0.0))
    for g in gs:
        vec = dense_poly(index, g, half)
        square = poly_product(index, vec, vec)
        diff[:square.size] += square
    err = float(np.abs(diff).max(initial=0.0))
    return err <= 1e-8 * max(scale, 1.0)


def reweight(mu: PseudoDistribution, p: ReweightPolynomial) -> PseudoDistribution:
    """Reweighted pseudo-distribution mu' = p * mu / E~[p].

    For moment-backed mu the result has degree mu.degree - deg(p) and the
    usual degree guard applies; its moments are one gather-matmul,
    y'[a] = sum_b Y[a, b] p_b / E~[p].  Support-backed mu is an actual
    distribution, so the reweighting is exact at every degree and the
    declared degree is kept.
    """
    dp = p.degree
    target = p.poly()
    if poly_degree(target) != dp:
        raise IllFormed("ReweightPolynomial degree does not match its coefficients")
    if p.certificate is not None:
        if not _check_certificate(p, mu.num_vars):
            raise NotSOS("certificate does not reproduce the polynomial")
    else:
        from .sos_solver import sos_gram_check
        if not sos_gram_check(target):
            raise NotSOS("polynomial failed the numeric Gram feasibility check")

    if mu.support is not None:
        points = np.array([pt for pt, _ in mu.support], dtype=float)
        weights = np.array([w for _, w in mu.support], dtype=float)
        vals = poly_eval(target, points)
        vals = np.where(vals < 0.0, 0.0, vals)  # SOS up to float noise
        new_w = weights * vals
        norm = float(new_w.sum())
        if norm <= NORM_EPS * max(1.0, float(np.abs(weights * vals).max(initial=0.0)) * len(new_w)):
            raise DegenerateWeight("reweighting annihilates the support")
        return from_support(points, new_w / norm, mu.degree, mu.constraints)

    if dp > mu.degree - 2:
        raise DegreeExhausted(
            f"reweighting degree {dp} exceeds budget of a degree-{mu.degree} distribution")
    coef = dense_poly(mu.index, target, dp)
    low = mu.moments[:coef.size]
    norm = float(coef @ low)
    scale = float(np.abs(coef) @ np.abs(low))
    if norm <= NORM_EPS * max(1.0, scale):
        raise DegenerateWeight(f"E~[p] = {norm:.3e} is too small to normalize")

    new_degree = mu.degree - dp
    new_moments = moment_block(mu, new_degree, dp) @ coef
    new_moments /= norm
    new_moments[0] = 1.0
    kept = tuple(c for c in mu.constraints if c.degree() <= new_degree)
    return PseudoDistribution(monomial_index(mu.num_vars, new_degree), new_moments,
                              new_degree, kept, None)


def from_support(points: np.ndarray, weights: np.ndarray, degree: int,
                 constraints: tuple = ()) -> PseudoDistribution:
    """Build a support-backed pseudo-distribution; weights assumed normalized."""
    points = as_point_rows(points)
    weights = np.asarray(weights, dtype=float)
    index = monomial_index(points.shape[1], degree)
    moments = np.zeros(index.size)
    for i in range(index.size):
        e = index.exponents[i]
        term = weights.copy()
        for j, ej in enumerate(e):
            if ej:
                term = term * points[:, j] ** int(ej)
        moments[i] = term.sum()
    moments[0] = 1.0
    support = tuple((points[i].copy(), float(weights[i])) for i in range(len(weights)))
    return PseudoDistribution(index, moments, degree, tuple(constraints), support)


def embed_actual_distribution(points, weights, degree: int,
                              constraints: tuple = ()) -> PseudoDistribution:
    """Exact moment vector of a finitely supported distribution.

    Weights must be nonnegative and sum to 1 within 1e-9.
    """
    points = as_point_rows(points)
    weights = np.asarray(weights, dtype=float)
    if points.shape[0] != weights.shape[0]:
        raise DimensionMismatch("points and weights disagree in length")
    if weights.size == 0:
        raise BadWeights("empty support")
    if float(weights.min()) < -1e-12:
        raise BadWeights(f"negative weight {weights.min()}")
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise BadWeights(f"weights sum to {weights.sum()}, not 1")
    weights = np.clip(weights, 0.0, None)
    weights = weights / weights.sum()
    return from_support(points, weights, degree, constraints)


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    min_moment_eig: float
    max_equality_residual: float
    min_localizer_eig: float
    normalized: bool

    def ok(self, psd_tol: float = PSD_EPS, con_tol: float = CON_EPS) -> bool:
        return (self.normalized
                and self.min_moment_eig >= -psd_tol
                and self.max_equality_residual <= con_tol
                and self.min_localizer_eig >= -psd_tol)


def equality_residual(mu: PseudoDistribution, q: dict) -> float:
    """max over multipliers x^m of |E~[q * x^m]| with deg(q x^m) <= degree."""
    dq = poly_degree(q)
    if dq > mu.degree:
        return 0.0
    acc = moment_block(mu, mu.degree - dq, dq) @ dense_poly(mu.index, q, dq)
    return float(np.abs(acc).max())


def validate(mu: PseudoDistribution) -> ValidationReport:
    """Measure the defining pseudo-distribution properties."""
    normalized = abs(float(mu.moments[0]) - 1.0) <= 1e-12
    eigs = np.linalg.eigvalsh(moment_matrix(mu))
    min_eig = float(eigs[0]) if eigs.size else 0.0
    max_res = 0.0
    min_loc = 0.0
    for c in mu.constraints:
        q = c.poly()
        if c.kind == "eq":
            max_res = max(max_res, equality_residual(mu, q))
        else:
            if poly_degree(q) <= mu.degree - 2:
                loc_eigs = np.linalg.eigvalsh(moment_matrix(mu, q))
                if loc_eigs.size:
                    min_loc = min(min_loc, float(loc_eigs[0]))
    return ValidationReport(min_eig, max_res, min_loc, normalized)


__all__ = [
    "MonomialIndex", "ConstraintSpec", "ReweightPolynomial", "PseudoDistribution",
    "monomial_index", "dense_poly", "sparse_poly", "moment_block",
    "linear_form_powers", "univariate_poly", "poly_product",
    "pseudo_expect", "moment_matrix", "reweight", "embed_actual_distribution",
    "from_support", "validate", "ValidationReport", "equality_residual",
    "poly_clean", "poly_degree", "poly_constant", "poly_linear", "poly_quadratic",
    "poly_add", "poly_mul", "poly_pow", "poly_eval", "as_point_rows",
    "PSD_EPS", "CON_EPS", "NORM_EPS",
]
