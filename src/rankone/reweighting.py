"""Concentrating pseudo-distributions by iterated reweighting.

`fix_scalar` drives a linear form s = <direction, x> toward a single
value m with |m| >= 1: stage A reweights by even powers s^{2k} until the
2d-th central moment of s^2 is small relative to its mean, stage B
splits the two sign branches s ~ +-sqrt(mean) by reweighting with
(s + m)^{2d} for the branch m carrying more mass.  The output satisfies

    E~ (s - m)^{2d}  <=  3 eps^{2d} m^{2d}.

`fix_subspace` drives the whole vector: after a pre-stage that makes
t = |proj_S x|^2 multiplicatively concentrated, it draws random unit
directions v in S until one captures the subspace mass at even power
2k, reweights by <v, x>^{2k}, and fixes the scalar <v, x>, so that the
mean vector collects the subspace mass:

    |E~ x|^2  >=  (1 - delta) E~ |proj_S x|^2.

Every power-k reweighting spends 2k degrees of the moment table, and
every stage first checks whether its goal already holds, so
distributions that arrive concentrated spend almost nothing.

The fixes run on the dense kernel of `pseudodist`.  Every weight
is a polynomial in one linear form s = <v, x>, or a power of the
projection t, held as a coefficient vector over the monomial table.
E~ s^{2k}, E~ (s^2 - m)^{2d} and E~ (s +- m)^{2d} are quadratic forms
of s^k, (s^2 - m)^d and (s +- m)^d against moment blocks gathered once
per distribution, and candidate directions are screened a batch at a
time.  The factor reports hold the same dense form: each factor is a
`ReweightPolynomial` certified by its roots, as `reweight` requires.

A batch passes two screens before any draw is reweighted.  The first
is the capture test on E~ s^{2k+2} against E~ s^{2k}.  The second
decides in closed form every draw whose fixed table has degree 4, that
is, whose optional power step s^{2p}, p in {0, k}, leaves degree 4.  On
such a table `fix_scalar` has no degree for stage A, so the scalar fix is
one gate on E s^4 / (E s^2)^2 at the relaxed tolerance and then the sign
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
from .pseudodist import (
    PseudoDistribution,
    ReweightPolynomial,
    linear_form_powers,
    moment_block,
    monomial_index,
    poly_mul,
    poly_pow,
    reweight,
    univariate_poly,
)

DEFAULT_C = 2  # fix_subspace needs subspace mass E~ |proj_S x|^2 >= dim(S)^-C

_STAGE_CAP = 2000
_RELAXED_SCALAR_EPS = 0.45  # fallback scalar tolerance when degree is tight
_DRAW_BATCH = 256  # candidate directions screened per vectorized batch
_SCREEN_MARGIN = 1e-6  # relative margin a closed-form rejection must clear


@dataclass(frozen=True)
class ScalarFixReport:
    m: float                  # the fixed point, |m| >= 1
    achieved_ratio: float     # E~ (s - m)^{2d} / m^{2d}
    degree_spent: int
    stage_trace: tuple        # E~ s^2 before each stage, then at the split
    d: int
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
    k: int
    pre_stages: int
    fixed_value: float            # fixed value of <v, x>
    scalar: ScalarFixReport
    factors: tuple = ()


def stage_power(d: int, eps: float) -> int:
    """Per-stage exponent k of the stage-A weight s^{2k}: large enough that
    each stage either concentrates s^2 or grows its mean by (1 + eps)."""
    return math.ceil(4.0 + 2.0 * d * math.log(1.0 / eps) / eps)


def direction_power(dim: int, delta: float) -> int:
    """Default even-power exponent k for the subspace capture event.

    Chosen so the event can pass even for isotropic mass: reweighting an
    isotropic direction distribution by <v,x>^{2k} lifts E~ <v,x>^2 to a
    c_{k+1}/c_k = (1+2k)/(dim+2k) fraction of the subspace mass, which
    must clear the (1 - delta/10)^3 acceptance bar; a 25% margin keeps
    the complementary alignment event (the 0.5 c_k bound) reachable
    within the retry budget for concentrated mass too.
    """
    eps = delta / 10.0
    bar = (1.0 - eps) ** 3
    k_min = (bar * dim - 1.0) / (2.0 * (1.0 - bar))
    return max(4, math.ceil(1.25 * k_min))


def sphere_moment(dim: int, k: int) -> float:
    """E <v, u>^{2k} for v uniform on the unit sphere of R^dim, |u| = 1."""
    c = 1.0
    for j in range(k):
        c *= (1.0 + 2.0 * j) / (dim + 2.0 * j)
    return c


# -- scalar fixing -----------------------------------------------------------


def _scalar_factors(direction, total_k, m, d):
    """The applied weight as (base, power) pairs: (s^2)^total_k (s + m)^{2d}."""
    factors = []
    if total_k:
        factors.append((_linear_square(direction), total_k))
    factors.append((_linear_square(direction, m), d))
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


def fix_scalar(mu: PseudoDistribution, direction, d: int, eps: float):
    """Fix s = <direction, x> to a value m with |m| = sqrt(E~ s^2) >= 1.

    Requires E~ s^2 >= 1 (callers rescale the direction first) and degree
    >= 4d.  Stage-A reweightings spend 2k degrees each and the sign split
    spends 2d, all paid from the table's own degree: a stage that cannot
    leave 4d of it raises DegreeExhausted.  Returns (mu', ScalarFixReport)
    with E~ (s - m)^{2d} <= 3 eps^{2d} m^{2d}.
    """
    direction = np.asarray(direction, dtype=float)
    if not 0.0 < eps < 1.0:
        raise PreconditionViolated(f"eps must be in (0, 1), got {eps}")
    if d < 1:
        raise PreconditionViolated(f"d must be >= 1, got {d}")
    if not direction.any():
        raise PreconditionViolated("zero direction")
    # stage A stops a factor 2^{1/2d} early so the sign split lands exactly
    # on the advertised 3 eps^{2d} contract
    eps_int = eps * 2.0 ** (-1.0 / (2 * d))
    k_hat = stage_power(d, eps)
    d2 = 2 * d
    if mu.degree < 2 * d2:
        raise DegreeExhausted(
            f"degree {mu.degree} cannot certify a {d2}-th central moment")
    # every weight below is a polynomial in s = <direction, x>
    index = mu.index
    powers = linear_form_powers(index, direction, d2)
    t = univariate_poly(index, powers, [0.0, 0.0, 1.0])
    if mu.expect(t) < 1.0 - 1e-9:
        raise PreconditionViolated("E~ s^2 < 1; rescale the direction first")

    cur = mu
    spent = 0
    trace = []
    total_k = 0
    while True:
        block = moment_block(cur, d2, d2)
        m = cur.expect(t)
        trace.append(m)
        # E~ (s^2 - m)^{2d} as the quadratic form of (s^2 - m)^d
        central = univariate_poly(index, powers, _series_pow([-m, 0.0, 1.0], d))
        dev = float(central @ block @ central)
        if dev <= 3.0 * eps_int ** d2 * m ** d2:
            break
        k_stage = min(k_hat, (cur.degree - 2 * d2) // 2)
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

    # the loop ended at m = E~ s^2 of cur, with dev = E~ (s^2 - m)^{2d}
    root = math.sqrt(m)
    low = block[:index.count_through(d), :index.count_through(d)]
    plus = univariate_poly(index, powers, _series_pow([root, 1.0], d))
    minus = univariate_poly(index, powers, _series_pow([-root, 1.0], d))
    e_plus = float(plus @ low @ plus)
    e_minus = float(minus @ low @ minus)
    sign = 1.0 if e_plus > e_minus else -1.0
    m = sign * root
    norm = e_plus if sign > 0 else e_minus
    dev /= norm  # (s-m)^2d (s+m)^2d = (s^2-mean)^2d
    out = reweight(cur, _power_weight(index, direction, [m, 1.0], d))
    spent += d2
    factors = _scalar_factors(direction, total_k, m, d)
    report = ScalarFixReport(m, dev / m ** d2, spent, tuple(trace), d, eps,
                             k_hat, factors)
    return out, report


# -- subspace fixing ---------------------------------------------------------


def fix_subspace(mu: PseudoDistribution, basis, delta: float,
                 k: int | None = None, retry_budget: int = 2000, seed=0):
    """Concentrate mu so its mean vector carries the subspace mass.

    `basis` holds spanning rows of the subspace S (an array or any
    object with a `rows` attribute); it is orthonormalized internally.
    Requires degree >= 4 and E~ |proj_S x|^2 >= dim(S)^{-DEFAULT_C}.
    Draws up to retry_budget random unit directions v in S; one is
    accepted when it captures the subspace mass at even power 2k and is
    not atypically small, after which the distribution is reweighted by
    <v, x>^{2k} and the scalar <v, x> is fixed.  Returns (mu', SubspaceFixReport) with

        |E~ x|^2  >=  (1 - delta) E~ |proj_S x|^2.
    """
    rows = np.atleast_2d(np.asarray(getattr(basis, "rows", basis), dtype=float))
    if rows.size == 0:
        raise PreconditionViolated("empty subspace basis")
    if not 0.0 < delta < 1.0:
        raise PreconditionViolated(f"delta must be in (0, 1), got {delta}")
    if k is not None:
        _require_count("k", k)
    _require_count("retry_budget", retry_budget)
    rows = _orthonormal_rows(rows)
    dim = rows.shape[0]
    eps = delta / 10.0
    if k is None:
        k = direction_power(dim, delta)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if mu.degree < 4:
        raise DegreeExhausted(
            f"subspace fixing needs degree >= 4, table has {mu.degree}")
    index = mu.index
    proj_rp = _projection_weight(rows)
    proj = proj_rp.coefficients
    if mu.expect(proj) < dim ** (-float(DEFAULT_C)) * (1.0 - 1e-9):
        raise PreconditionViolated(f"subspace mass below dim^-{DEFAULT_C}")
    k = min(k, max(1, (mu.degree - 4) // 2))

    cur = mu
    pre = 0
    spent = 0
    # at k = 1 the test reads E~ t <= (1 + eps) E~ t, which always holds
    while k > 1 and not _moment_multiplicative_ok(cur, proj, k, eps):
        if cur.degree < 8 or pre >= _STAGE_CAP:
            break  # no budget to improve further; proceed with what holds
        cur = reweight(cur, proj_rp)
        pre += 1
        spent += 2

    # everything the draws compare against depends on cur alone: the
    # power, E~ t^k_use, and the moment blocks of degree 1, k_use, k_use+1
    mass = cur.expect(proj)
    k_use = min(k, max(1, (cur.degree - 2) // 2 - 1))
    e_tk = mass if k_use == 1 else cur.expect(poly_pow(index, proj, k_use))
    c_k = sphere_moment(dim, k_use)
    block = moment_block(cur, k_use + 1, k_use + 1)
    lo, hi, lin_block = index.block(k_use), index.block(k_use + 1), index.block(1)
    block_lo, block_hi = block[lo, lo], block[hi, hi]
    # second-moment matrix in subspace coordinates; its top eigenvector is
    # the first candidate direction, then uniform draws take over
    smat = rows @ block[lin_block, lin_block] @ rows.T
    top = np.linalg.eigh(smat)[1][:, -1]
    # a draw whose power step p leaves a degree-4 table is decided in
    # closed form by _doomed, from one block gathered here
    screen_power = next((p for p in (0, k_use) if cur.degree - 2 * p == 4), None)
    if screen_power is not None:
        screen_block = moment_block(cur, 2, 2 * screen_power + 2)
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
        powers = linear_form_powers(index, directions, k_use + 1)
        e_lo = _quadratic_forms(powers[:, lo], block_lo)
        e_hi = _quadratic_forms(powers[:, hi], block_hi)
        captures = e_hi >= (1.0 - eps) ** 3 * mass * e_lo
        typical = e_lo >= 0.5 * c_k * e_tk
        drawn = np.flatnonzero((e_lo > 0.0) & captures & typical)
        if screen_power is not None and drawn.size:
            drawn = drawn[~_doomed(cur, directions[drawn], screen_block, proj,
                                   screen_power, mass, eps, delta)]
        for j in drawn.tolist():
            v = directions[j]
            fixed = _fix_draw(cur, v, powers[j], proj, mass, k_use, eps, delta)
            if fixed is None:
                continue
            fixed_mu, srep, sigma, powered, target = fixed
            rng.bit_generator.state = state
            rng.standard_normal((j + 1, dim))
            factors = []
            if pre:
                factors.append((proj_rp, pre))
            if powered:
                factors.append((_linear_square(v), powered))
            factors.extend(srep.factors)
            mean = fixed_mu.moments[lin_block]
            report = SubspaceFixReport(
                v, attempt + j + 1,
                float(mean @ mean) / target if target > 0 else 0.0,
                spent + 2 * powered + srep.degree_spent, k_use, pre,
                srep.m * sigma, srep, tuple(factors))
            return fixed_mu, report
        attempt += coefs.shape[0]
    raise RetryExhausted(
        f"no direction fixed the subspace within {retry_budget} draws")


def _require_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise PreconditionViolated(f"{name} must be an integer >= 1, got {value!r}")


def _orthonormal_rows(basis: np.ndarray) -> np.ndarray:
    from .linalg import gram_schmidt
    rows = gram_schmidt([basis[i] for i in range(basis.shape[0])])
    if not rows:
        raise PreconditionViolated("subspace basis has rank zero")
    return np.array(rows)


def _fix_draw(cur, v, powers, proj, mass, k_use, eps, delta):
    """The per-draw path, the only code that accepts a draw: reweight by
    <v, x>^{2 k_use} when E~ <v, x>^2 misses the capture bar and the degree
    allows, fix the scalar <v, x>, and keep the result when its mean
    carries (1 - delta) of the subspace mass before and after.  `powers`
    holds the powers of <v, x> up to degree 2.  Returns (fixed table,
    ScalarFixReport, sigma, power applied, target mass), or None."""
    index = cur.index
    sq = univariate_poly(index, powers, [0.0, 0.0, 1.0])
    try:
        work = cur
        powered = 0
        if cur.expect(sq) < (1.0 - eps) ** 3 * mass and cur.degree - 2 * k_use >= 4:
            work = reweight(cur, _power_weight(index, v, [0.0, 1.0], k_use))
            powered = k_use
        sigma2 = work.expect(sq)
        if sigma2 <= 0.0:
            return None
        sigma = math.sqrt(sigma2)
        try:
            fixed_mu, srep = fix_scalar(work, v / sigma, 1, eps)
        except DegreeExhausted:
            # the table is too low-degree for stage A to sharpen the
            # scalar to eps; run the sign split anyway at a loose
            # tolerance and let the mean-mass certificate below
            # accept or reject the result
            fixed_mu, srep = fix_scalar(work, v / sigma, 1, _RELAXED_SCALAR_EPS)
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


def _projection_weight(rows: np.ndarray) -> ReweightPolynomial:
    """|proj_S x|^2 = x^T (R^T R) x as a reweighting polynomial certified
    by the linear forms <r_i, x> of the orthonormal rows r_i."""
    index = monomial_index(rows.shape[1], 2)
    pairs = index.sum_table(1, 1)[1:, 1:]   # pairs[i, j] is the index of x_i x_j
    quadratic = np.bincount(pairs.ravel(), weights=(rows.T @ rows).ravel(),
                            minlength=index.count_through(2))
    linear = univariate_poly(index, linear_form_powers(index, rows, 1), [0.0, 1.0])
    return ReweightPolynomial(index, quadratic, tuple(linear))


def _moment_multiplicative_ok(mu, p, k, eps):
    """E~ p^j <= (1 + eps)^{j-1} (E~ p)^j for all j <= k within the degree;
    p is a dense quadratic."""
    acc = p
    y1 = mu.expect(p)
    bound = 1.0
    for j in range(1, k + 1):
        if 2 * j > mu.degree:
            return True
        if j > 1:
            acc = poly_mul(mu.index, acc, p)
        bound *= (1.0 + eps) * y1
        if mu.expect(acc) > bound + 1e-300:
            return False
    return True


__all__ = [
    "ScalarFixReport", "SubspaceFixReport", "fix_scalar", "fix_subspace",
    "sphere_moment", "stage_power", "direction_power", "DEFAULT_C",
]
