"""Concentrating pseudo-distributions by iterated reweighting.

`fix_scalar` drives a linear form s = <direction, x> toward a single
value m with |m| >= 1: stage A reweights by even powers s^{2k} until the
variance of s^2 is small relative to its squared mean, stage B splits
the two sign branches s ~ +-sqrt(mean) by reweighting with (s + m)^2 for
the branch m carrying more mass.  The output satisfies

    E~ (s - m)^2  <=  3 eps^2 m^2.

`fix_subspace` drives the whole vector: it draws random unit directions
v in S until one captures the subspace mass at power 2, that is
E~ <v, x>^4 >= (1 - eps)^3 E~ |proj_S x|^2 E~ <v, x>^2, reweights by
<v, x>^2 when E~ <v, x>^2 falls short of (1 - eps)^3 E~ |proj_S x|^2
and the degree allows, and fixes the scalar <v, x>, so that the mean
vector collects the subspace mass:

    |E~ x|^2  >=  (1 - delta) E~ |proj_S x|^2.

Every power-k reweighting spends 2k degrees of the moment table, and
every stage first checks whether its goal already holds, so
distributions that arrive concentrated spend almost nothing.

The fixes run on the dense kernel of `pseudodist`.  Every weight is a
polynomial in one linear form s = <v, x>, held as a coefficient vector
over the monomial table.  E~ s^2, E~ s^4, E~ (s^2 - m)^2 and
E~ (s +- m)^2 are quadratic forms of s, s^2, s^2 - m and s +- m against
moment blocks gathered once per distribution, and candidate directions
are screened a batch at a time.  The factor reports hold the same dense
form: each factor is a `ReweightPolynomial` certified by its roots, as
`reweight` requires.

A batch passes two screens before any draw is reweighted.  The first
is the capture test on E~ s^4 against E~ s^2.  The second decides in
closed form every draw whose fixed table has degree 4, that is, whose
optional power step s^{2p}, p in {0, 1}, leaves degree 4.  On such a
table `fix_scalar` has no degree for stage A, so the scalar fix is one
gate on E s^4 / (E s^2)^2 at the relaxed tolerance and then the sign
split.  The fixed table is the current one reweighted by
r^2 = s^{2p} (s / sigma +- 1)^2, and its mean and subspace mass are
ratios of moment quadratic forms gathered once per call.  A draw is
dropped only when the gate fails, or when the mean-mass test fails under
both signs, each by a relative margin of 1e-6.  A draw within the
margin, with a non-finite value, or on a table of another degree goes
through `_fix_draw`, the only code that accepts a draw, with its
certified reweightings.  A dropped draw's weight is never applied, so
the screen changes no result and no generator state.

Reports carry degree_spent, so the degree each fix pays is observable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWeight,
    DegreeExhausted,
    PreconditionViolated,
    RetryExhausted,
)
from .linalg import gram_schmidt
from .pseudodist import (
    PseudoDistribution,
    ReweightPolynomial,
    linear_form_powers,
    moment_block,
    monomial_index,
    reweight,
    univariate_poly,
)
# benchmark/tracing.py counts the calls made through these two names of
# this module; they stay until the benchmark stops wrapping attributes
from .pseudodist import poly_mul, poly_pow  # noqa: F401

DEFAULT_C = 2  # fix_subspace needs subspace mass E~ |proj_S x|^2 >= dim(S)^-C

_RELAXED_SCALAR_EPS = 0.45  # fallback scalar tolerance when degree is tight
_DRAW_BATCH = 256  # candidate directions screened per vectorized batch
_SCREEN_MARGIN = 1e-6  # relative margin a closed-form rejection must clear


@dataclass(frozen=True)
class ScalarFixReport:
    m: float                  # the fixed point, |m| >= 1
    achieved_ratio: float     # E~ (s - m)^2 / m^2
    degree_spent: int
    stage_trace: tuple        # E~ s^2 before each stage, then at the split
    eps: float
    stage_power: int          # exponent k of the per-stage weight s^{2k}
    factors: tuple = ()       # (ReweightPolynomial base, power) pairs whose
                              # product is the applied weight, up to scaling


@dataclass(frozen=True)
class SubspaceFixReport:
    chosen_direction: np.ndarray  # accepted unit vector, ambient coordinates
    samples_tried: int
    achieved: float               # |E~ x|^2 / E~ |proj_S x|^2 afterwards
    degree_spent: int
    fixed_value: float            # fixed value of <v, x>
    scalar: ScalarFixReport
    factors: tuple = ()


def stage_power(eps: float) -> int:
    """Per-stage exponent k of the stage-A weight s^{2k}: large enough that
    each stage either concentrates s^2 or grows its mean by (1 + eps)."""
    return math.ceil(4.0 + 2.0 * math.log(1.0 / eps) / eps)


# -- scalar fixing -----------------------------------------------------------


def _scalar_factors(direction, total_k, m):
    """The applied weight as (base, power) pairs: (s^2)^total_k (s + m)^2."""
    factors = []
    if total_k:
        factors.append((_linear_square(direction), total_k))
    factors.append((_linear_square(direction, m), 1))
    return tuple(factors)


def _series_pow(base, k: int) -> np.ndarray:
    """Coefficients of base(s)^k, base given by its coefficients in s."""
    out = np.ones(1)
    for _ in range(k):
        out = np.convolve(out, base)
    return out


def _power_weight(index, v, base, k: int) -> ReweightPolynomial:
    """base(s)^{2k} as a reweighting polynomial certified by base(s)^k,
    for s = <v, x> and base given by its coefficients in s."""
    root = _series_pow(base, k)
    square = _series_pow(root, 2)
    powers = linear_form_powers(index, v, len(square) - 1)
    return ReweightPolynomial(index, univariate_poly(index, powers, square),
                              (univariate_poly(index, powers, root),))


def _linear_square(v, shift: float = 0.0) -> ReweightPolynomial:
    """(<v, x> + shift)^2 as a reweighting polynomial certified by
    <v, x> + shift: a factor base in the reports."""
    return _power_weight(monomial_index(len(v), 2), v, [shift, 1.0], 1)


def fix_scalar(mu: PseudoDistribution, direction, eps: float):
    """Fix s = <direction, x> to a value m with |m| = sqrt(E~ s^2) >= 1.

    Requires E~ s^2 >= 1 (callers rescale the direction first) and degree
    >= 4.  Stage-A reweightings spend 2k degrees each and the sign split
    spends 2, all paid from the table's own degree: a stage that cannot
    leave 4 of it raises DegreeExhausted.  Returns (mu', ScalarFixReport)
    with E~ (s - m)^2 <= 3 eps^2 m^2.
    """
    direction = np.asarray(direction, dtype=float)
    if not 0.0 < eps < 1.0:
        raise PreconditionViolated(f"eps must be in (0, 1), got {eps}")
    if not direction.any():
        raise PreconditionViolated("zero direction")
    # stage A aims at eps / sqrt(2) so the sign split lands exactly on the
    # advertised 3 eps^2 contract
    eps_int = eps * 2.0 ** -0.5
    k_hat = stage_power(eps)
    if mu.degree < 4:
        raise DegreeExhausted(
            f"degree {mu.degree} cannot certify the variance of s^2")
    # every weight below is a polynomial in s = <direction, x>
    index = mu.index
    powers = linear_form_powers(index, direction, 2)
    t = univariate_poly(index, powers, [0.0, 0.0, 1.0])
    if mu.expect(t) < 1.0 - 1e-9:
        raise PreconditionViolated("E~ s^2 < 1; rescale the direction first")

    cur = mu
    spent = 0
    trace = []
    total_k = 0
    while True:
        block = moment_block(cur, 2, 2)
        m = cur.expect(t)
        trace.append(m)
        # E~ (s^2 - m)^2 as the quadratic form of s^2 - m
        central = univariate_poly(index, powers, [-m, 0.0, 1.0])
        dev = float(central @ block @ central)
        if dev <= 3.0 * eps_int ** 2 * m ** 2:
            break
        k_stage = min(k_hat, (cur.degree - 4) // 2)
        if k_stage < 1:
            raise DegreeExhausted(
                f"scalar did not concentrate within degree {mu.degree} (spent {spent})")
        nxt = reweight(cur, _power_weight(index, direction, [0.0, 1.0], k_stage))
        if nxt.expect(t) < m * (1.0 - 1e-6):
            raise PreconditionViolated(
                "monotonicity of E~ s^2 under even-power reweighting failed")
        cur = nxt
        spent += 2 * k_stage
        total_k += k_stage

    # the loop ended at m = E~ s^2 of cur, with dev = E~ (s^2 - m)^2
    root = math.sqrt(m)
    low = block[:index.count_through(1), :index.count_through(1)]
    plus = univariate_poly(index, powers, [root, 1.0])
    minus = univariate_poly(index, powers, [-root, 1.0])
    e_plus = float(plus @ low @ plus)
    e_minus = float(minus @ low @ minus)
    sign = 1.0 if e_plus > e_minus else -1.0
    m = sign * root
    norm = e_plus if sign > 0 else e_minus
    dev /= norm  # (s-m)^2 (s+m)^2 = (s^2-mean)^2
    out = reweight(cur, _power_weight(index, direction, [m, 1.0], 1))
    spent += 2
    report = ScalarFixReport(m, dev / m ** 2, spent, tuple(trace), eps, k_hat,
                             _scalar_factors(direction, total_k, m))
    return out, report


# -- subspace fixing ---------------------------------------------------------


def fix_subspace(mu: PseudoDistribution, basis, delta: float,
                 retry_budget: int = 2000, seed=0):
    """Concentrate mu so its mean vector carries the subspace mass.

    `basis` holds rows spanning the subspace S, as an array or nested
    lists; it is orthonormalized internally.  Requires degree >= 4 and
    E~ |proj_S x|^2 >= dim(S)^{-DEFAULT_C}.  Draws up to retry_budget
    random unit directions v in S; one is accepted when it captures the
    subspace mass at power 2 and is not atypically small, after which the
    distribution is reweighted by <v, x>^2 if E~ <v, x>^2 alone misses
    the capture bar and the degree allows, and the scalar <v, x> is
    fixed.  Returns (mu', SubspaceFixReport) with

        |E~ x|^2  >=  (1 - delta) E~ |proj_S x|^2.
    """
    rows = np.atleast_2d(np.asarray(basis, dtype=float))
    if rows.size == 0:
        raise PreconditionViolated("empty subspace basis")
    if not 0.0 < delta < 1.0:
        raise PreconditionViolated(f"delta must be in (0, 1), got {delta}")
    _require_count("retry_budget", retry_budget)
    rows = _orthonormal_rows(rows)
    dim = rows.shape[0]
    eps = delta / 10.0
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if mu.degree < 4:
        raise DegreeExhausted(
            f"subspace fixing needs degree >= 4, table has {mu.degree}")
    index = mu.index
    proj = _projection_weight(rows)
    mass = mu.expect(proj)
    if mass < dim ** (-float(DEFAULT_C)) * (1.0 - 1e-9):
        raise PreconditionViolated(f"subspace mass below dim^-{DEFAULT_C}")

    # everything the draws compare against depends on mu alone: the mass
    # and the moment blocks of degree 1 and 2
    block = moment_block(mu, 2, 2)
    lin, quad = index.block(1), index.block(2)
    block_lin, block_quad = block[lin, lin], block[quad, quad]
    # second-moment matrix in subspace coordinates; its top eigenvector is
    # the first candidate direction, then uniform draws take over
    top = np.linalg.eigh(rows @ block_lin @ rows.T)[1][:, -1]
    # a draw whose power step p leaves a degree-4 table is decided in
    # closed form by _doomed, from one block gathered here
    screen_power = {4: 0, 6: 1}.get(mu.degree)
    if screen_power is not None:
        screen_block = moment_block(mu, 2, 2 * screen_power + 2)
    # draws are screened a batch at a time; after an accepted draw the
    # generator is rewound to just past it, where a loop over single
    # draws would have left it
    attempt = 0
    while attempt < retry_budget:
        state = rng.bit_generator.state
        coefs = rng.standard_normal((min(_DRAW_BATCH, retry_budget - attempt), dim))
        if attempt == 0:
            coefs[0] = top + 1e-9 * coefs[0]
        coefs /= np.linalg.norm(coefs, axis=1, keepdims=True)
        directions = coefs @ rows
        powers = linear_form_powers(index, directions, 2)
        e_lo = _quadratic_forms(powers[:, lin], block_lin)
        e_hi = _quadratic_forms(powers[:, quad], block_quad)
        captures = e_hi >= (1.0 - eps) ** 3 * mass * e_lo
        # a uniform unit v in S has E~ <v, x>^2 = mass / dim on average
        typical = e_lo >= 0.5 / dim * mass
        drawn = np.flatnonzero((e_lo > 0.0) & captures & typical)
        if screen_power is not None and drawn.size:
            drawn = drawn[~_doomed(mu, directions[drawn], screen_block, proj,
                                   screen_power, mass, eps, delta)]
        for j in drawn.tolist():
            v = directions[j]
            fixed = _fix_draw(mu, v, powers[j], proj, mass, eps, delta)
            if fixed is None:
                continue
            fixed_mu, srep, sigma, powered, target = fixed
            rng.bit_generator.state = state
            rng.standard_normal((j + 1, dim))
            factors = [(_linear_square(v), 1)] if powered else []
            factors.extend(srep.factors)
            mean = fixed_mu.moments[lin]
            report = SubspaceFixReport(
                v, attempt + j + 1,
                float(mean @ mean) / target if target > 0 else 0.0,
                2 * powered + srep.degree_spent, srep.m * sigma, srep,
                tuple(factors))
            return fixed_mu, report
        attempt += coefs.shape[0]
    raise RetryExhausted(
        f"no direction fixed the subspace within {retry_budget} draws")


def _require_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise PreconditionViolated(f"{name} must be an integer >= 1, got {value!r}")


def _orthonormal_rows(basis: np.ndarray) -> np.ndarray:
    rows = gram_schmidt([basis[i] for i in range(basis.shape[0])])
    if not rows:
        raise PreconditionViolated("subspace basis has rank zero")
    return np.array(rows)


def _fix_draw(cur, v, powers, proj, mass, eps, delta):
    """The per-draw path, the only code that accepts a draw: reweight by
    <v, x>^2 when E~ <v, x>^2 misses the capture bar and the degree
    allows, fix the scalar <v, x>, and keep the result when its mean
    carries (1 - delta) of the subspace mass before and after.  `powers`
    holds the powers of <v, x> up to degree 2.  Returns (fixed table,
    ScalarFixReport, sigma, whether the power step ran, target mass), or
    None."""
    index = cur.index
    sq = univariate_poly(index, powers, [0.0, 0.0, 1.0])
    try:
        work = cur
        powered = False
        if cur.expect(sq) < (1.0 - eps) ** 3 * mass and cur.degree >= 6:
            work = reweight(cur, _power_weight(index, v, [0.0, 1.0], 1))
            powered = True
        sigma2 = work.expect(sq)
        if sigma2 <= 0.0:
            return None
        sigma = math.sqrt(sigma2)
        try:
            fixed_mu, srep = fix_scalar(work, v / sigma, eps)
        except DegreeExhausted:
            # the table is too low-degree for stage A to sharpen the
            # scalar to eps; run the sign split anyway at a loose
            # tolerance and let the mean-mass certificate below
            # accept or reject the result
            fixed_mu, srep = fix_scalar(work, v / sigma, _RELAXED_SCALAR_EPS)
    except (DegenerateWeight, DegreeExhausted, PreconditionViolated):
        return None
    mean = fixed_mu.moments[index.block(1)]
    out_mass = fixed_mu.expect(proj) if fixed_mu.degree >= 2 else 0.0
    target = max(mass, out_mass)
    if float(mean @ mean) >= (1.0 - delta) * target:
        return fixed_mu, srep, sigma, powered, target
    return None


def _doomed(cur, directions, block, proj, p, mass, eps, delta):
    """Which draws provably fail `_fix_draw` when their power step p leaves
    a degree-4 table.

    On that table `fix_scalar` has no degree for stage A: the draw passes
    the gate on E_w s^4 / (E_w s^2)^2 - 1 at the relaxed tolerance or
    fails, and the sign split reweights by (s / sigma + m)^2, m = +-1,
    sigma^2 = E_w s^2, for s = <v, x> and w = s^{2p} * cur.  So the fixed
    table is cur reweighted by r^2, r = s^p (s / sigma + m), and its mean
    and subspace mass are E~ x r^2 / E~ r^2 and E~ t r^2 / E~ r^2: forms in
    E~ x^a s^j, deg a <= 2 and 2p <= j <= 2p + 2, read off `block` =
    moment_block(cur, 2, 2p + 2).  A draw is doomed when it fails the gate,
    or when its mean misses (1 - delta) of the larger of the two masses
    under both signs; every test clears a relative margin of
    _SCREEN_MARGIN, and a draw within it, with a non-finite value, or
    whose power step is within it of the other choice, is kept.
    """
    margin = _SCREEN_MARGIN
    index = cur.index
    powers = linear_form_powers(index, directions, 2 * p + 2)
    low, mid, high = (powers[:, index.block(j)] @ block[:, index.block(j)].T
                      for j in (2 * p, 2 * p + 1, 2 * p + 2))
    quad = index.block(2)
    bar = 1.0 + 3.0 * (_RELAXED_SCALAR_EPS * 2.0 ** -0.5) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sigma = np.sqrt(high[:, 0] / low[:, 0])[:, None]
        kurtosis = np.einsum("ij,ij->i", powers[:, quad], high[:, quad]) \
            * low[:, 0] / high[:, 0] ** 2
        settled = (low[:, 0] > 0.0) & (high[:, 0] > 0.0) & np.isfinite(kurtosis)
        doomed = settled & (kurtosis > bar * (1.0 + margin))
        missed = settled & (kurtosis < bar * (1.0 - margin))
        for m in (1.0, -1.0):
            weighted = high / sigma ** 2 + 2.0 * m * mid / sigma + low
            norm = weighted[:, 0]
            mean = weighted[:, index.block(1)] / norm[:, None]
            mean_sq = np.einsum("ij,ij->i", mean, mean)
            target = np.maximum(mass, weighted @ proj / norm)
            missed &= (norm > 0.0) & np.isfinite(mean_sq) & np.isfinite(target) \
                & (mean_sq < (1.0 - delta) * target * (1.0 - margin))
    doomed |= missed
    if p:
        s2 = powers[:, quad] @ cur.moments[quad]
        doomed &= s2 < (1.0 - eps) ** 3 * mass * (1.0 - margin)
    return doomed


def _quadratic_forms(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows[i] @ matrix @ rows[i] for every row."""
    return np.einsum("ij,ij->i", rows @ matrix, rows)


def _projection_weight(rows: np.ndarray) -> np.ndarray:
    """|proj_S x|^2 = x^T (R^T R) x as a dense quadratic, for the
    orthonormal rows R of S."""
    index = monomial_index(rows.shape[1], 2)
    pairs = index.sum_table(1, 1)[1:, 1:]   # pairs[i, j] is the index of x_i x_j
    return np.bincount(pairs.ravel(), weights=(rows.T @ rows).ravel(),
                       minlength=index.count_through(2))


__all__ = [
    "ScalarFixReport", "SubspaceFixReport", "fix_scalar", "fix_subspace",
    "stage_power", "DEFAULT_C",
]
