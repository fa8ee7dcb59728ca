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

Support-backed distributions are reweighted through their atom weights:
exact at every power, values rescaled by their maximum before powering
so no power sum over- or underflows, and the moment table is rebuilt
once at the end.  Moment-backed distributions go through the moment
table and spend 2k degrees of budget per power-k reweighting; every
stage first checks whether its goal already holds, so distributions
that arrive concentrated spend almost nothing.

The moment path runs on the dense kernel of `pseudodist`.  Every weight
is a polynomial in one linear form s = <v, x>, or a power of the
projection t, held as a coefficient vector over the monomial table.
E~ s^{2k}, E~ (s^2 - m)^{2d} and E~ (s +- m)^{2d} are quadratic forms
of s^k, (s^2 - m)^d and (s +- m)^d against moment blocks gathered once
per distribution, and candidate directions are screened a batch at a
time.  Dicts appear only at the edge: in the `ReweightPolynomial`
handed to `reweight` and in the factor reports.

Degree accounting is explicit even on the support path, where the atoms
make every power exact: reports carry degree_spent and fix_scalar
refuses to exceed its degree_budget, keeping the complexity contract
observable.
"""

from __future__ import annotations

import math
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
    dense_poly,
    from_support,
    linear_form_powers,
    moment_block,
    poly_add,
    poly_constant,
    poly_linear,
    poly_product,
    poly_quadratic,
    reweight,
    sparse_poly,
    univariate_poly,
)
# poly_mul and poly_pow stay importable from this module although the
# moment path runs on the dense kernel: benchmark/tracing.py counts the
# dict-arithmetic calls made through these names
from .pseudodist import poly_mul, poly_pow  # noqa: F401

DEFAULT_C = 2  # fix_subspace needs subspace mass E~ |proj_S x|^2 >= dim(S)^-C

_STAGE_CAP = 2000
_MASS_FLOOR = 0.05  # accept subspace mass down to here even in low dimension
_RELAXED_SCALAR_EPS = 0.45  # fallback scalar tolerance when degree is tight
_DRAW_BATCH = 256  # candidate directions screened per vectorized batch


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


def _support_arrays(mu: PseudoDistribution):
    pts = np.array([pt for pt, _ in mu.support], dtype=float)
    w = np.array([wt for _, wt in mu.support], dtype=float)
    return pts, w


def _renormalize(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    new_w = w * np.clip(values, 0.0, None)
    total = float(new_w.sum())
    if total <= 1e-300 or not np.isfinite(total):
        raise DegenerateWeight("reweighting values annihilate the support")
    return new_w / total


# -- scalar fixing -----------------------------------------------------------


def fix_scalar(mu: PseudoDistribution, direction, d: int, eps: float,
               degree_budget: int | None = None):
    """Fix s = <direction, x> to a value m with |m| = sqrt(E~ s^2) >= 1.

    Requires E~ s^2 >= 1 (callers rescale the direction first).  Stage-A
    reweightings spend 2k degrees each and the sign split spends 2d; the
    total never exceeds degree_budget (default: the whole moment budget
    on the moment path, uncapped on the support path).  Returns
    (mu', ScalarFixReport) with E~ (s - m)^{2d} <= 3 eps^{2d} m^{2d}.
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

    if mu.support is not None:
        pts, w = _support_arrays(mu)
        w2, m, ratio, spent, trace, total_k = _scalar_stages(
            pts, w, direction, eps_int, d, k_hat, degree_budget)
        out = from_support(pts, w2, mu.degree, mu.constraints)
        factors = _scalar_factors(direction, total_k, m, d)
        report = ScalarFixReport(m, ratio, spent, trace, d, eps, k_hat, factors)
        return out, report
    return _fix_scalar_moments(mu, direction, eps, eps_int, d, k_hat,
                               degree_budget)


def _scalar_factors(direction, total_k, m, d):
    """The applied weight as (base, power) pairs: (s^2)^total_k (s + m)^{2d}."""
    lin = poly_linear(direction)
    factors = []
    if total_k:
        factors.append((ReweightPolynomial.from_square(lin), total_k))
    shift = poly_add(lin, poly_constant(m, len(np.atleast_1d(direction))))
    factors.append((ReweightPolynomial.from_square(shift), d))
    return tuple(factors)


def _scalar_stages(pts, w, direction, eps_int, d, k_hat, budget):
    """Stage loop over raw atom weights; returns
    (weights, m, achieved_ratio, degree_spent, stage_trace, total_power)."""
    s = pts @ direction
    scale = float(np.abs(s).max(initial=0.0))
    if scale == 0.0:
        raise PreconditionViolated("the linear form vanishes on the support")
    sn = s / scale
    tn = sn * sn
    d2 = 2 * d
    if float(np.dot(w, s * s)) < 1.0 - 1e-9:
        raise PreconditionViolated("E~ s^2 < 1; rescale the direction first")

    spent = 0
    trace = []
    stages = 0
    total_k = 0
    while True:
        m = float(np.dot(w, tn))
        trace.append(m * scale * scale)
        dev = float(np.dot(w, (tn - m) ** d2))
        if dev <= 3.0 * eps_int ** d2 * m ** d2:
            break
        k_stage = k_hat
        if budget is not None:
            k_stage = min(k_hat, (budget - spent - d2) // 2)
        if k_stage < 1 or stages >= _STAGE_CAP:
            raise DegreeExhausted(
                f"scalar did not concentrate within budget "
                f"(spent {spent}, stages {stages})")
        new_w = _renormalize(w, tn ** k_stage)
        new_m = float(np.dot(new_w, tn))
        if new_m < m * (1.0 - 1e-6):  # even-power reweighting never shrinks it
            raise PreconditionViolated(
                "monotonicity of E~ s^2 under even-power reweighting failed")
        w = new_w
        spent += 2 * k_stage
        stages += 1
        total_k += k_stage

    m_mean = float(np.dot(w, tn))
    root = math.sqrt(m_mean)
    e_plus = float(np.dot(w, (sn + root) ** d2))
    e_minus = float(np.dot(w, (sn - root) ** d2))
    sign = 1.0 if e_plus > e_minus else -1.0
    fixed_n = sign * root
    w = _renormalize(w, (sn + fixed_n) ** d2)
    spent += d2
    dev_n = float(np.dot(w, (sn - fixed_n) ** d2))
    m = fixed_n * scale
    ratio = dev_n / fixed_n ** d2    # scale cancels between dev and m^{2d}
    return w, m, ratio, spent, tuple(trace), total_k


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
    return ReweightPolynomial.from_coefficients(
        sparse_poly(index, univariate_poly(index, powers, square)),
        certificate=[sparse_poly(index, univariate_poly(index, powers, root))])


def _expect(mu: PseudoDistribution, vec: np.ndarray) -> float:
    """E~ of a dense coefficient vector."""
    return float(vec @ mu.moments[:vec.size])


def _fix_scalar_moments(mu, direction, eps, eps_int, d, k_hat, budget):
    d2 = 2 * d
    if mu.degree < 2 * d2:
        raise DegreeExhausted(
            f"degree {mu.degree} cannot certify a {d2}-th central moment")
    if budget is None:
        budget = mu.degree - d2
    budget = min(budget, mu.degree - 2)
    # every weight below is a polynomial in s = <direction, x>
    index = mu.index
    powers = linear_form_powers(index, direction, d2)
    t = univariate_poly(index, powers, [0.0, 0.0, 1.0])
    if _expect(mu, t) < 1.0 - 1e-9:
        raise PreconditionViolated("E~ s^2 < 1; rescale the direction first")

    cur = mu
    spent = 0
    trace = []
    total_k = 0
    while True:
        block = moment_block(cur, d2, d2)
        m = _expect(cur, t)
        trace.append(m)
        # E~ (s^2 - m)^{2d} as the quadratic form of (s^2 - m)^d
        central = univariate_poly(index, powers, _series_pow([-m, 0.0, 1.0], d))
        dev = float(central @ block @ central)
        if dev <= 3.0 * eps_int ** d2 * m ** d2:
            break
        k_stage = min(k_hat, (budget - spent - d2) // 2,
                      (cur.degree - 2 * d2) // 2)
        if k_stage < 1:
            raise DegreeExhausted(
                f"scalar did not concentrate within budget (spent {spent})")
        nxt = reweight(cur, _power_weight(index, direction, [0.0, 1.0], k_stage))
        if _expect(nxt, t) < m * (1.0 - 1e-6):
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
    Requires E~ |proj_S x|^2 >= dim(S)^{-DEFAULT_C}.  Draws up to retry_budget
    random unit directions v in S; one is accepted when it captures the
    subspace mass at even power 2k and is not atypically small, after
    which the distribution is reweighted by <v, x>^{2k} and the scalar
    <v, x> is fixed.  Returns (mu', SubspaceFixReport) with

        |E~ x|^2  >=  (1 - delta) E~ |proj_S x|^2.
    """
    rows = np.atleast_2d(np.asarray(getattr(basis, "rows", basis), dtype=float))
    if rows.size == 0:
        raise PreconditionViolated("empty subspace basis")
    if not 0.0 < delta < 1.0:
        raise PreconditionViolated(f"delta must be in (0, 1), got {delta}")
    rows = _orthonormal_rows(rows)
    dim = rows.shape[0]
    eps = delta / 10.0
    if k is None:
        k = direction_power(dim, delta)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    if mu.support is not None:
        return _fix_subspace_support(mu, rows, delta, eps, rng, retry_budget, k)
    return _fix_subspace_moments(mu, rows, delta, eps, rng, retry_budget, k)


def _orthonormal_rows(basis: np.ndarray) -> np.ndarray:
    from .linalg import gram_schmidt
    rows = gram_schmidt([basis[i] for i in range(basis.shape[0])])
    if not rows:
        raise PreconditionViolated("subspace basis has rank zero")
    return np.array(rows)


def _fix_subspace_support(mu, rows, delta, eps, rng, retry_budget, k):
    pts, w = _support_arrays(mu)
    proj = pts @ rows.T                      # subspace coordinates per atom
    t = np.einsum("ij,ij->i", proj, proj)    # |proj_S x|^2
    b2 = float(t.max(initial=0.0))
    dim = rows.shape[0]
    floor = min(dim ** (-float(DEFAULT_C)), _MASS_FLOOR)
    if float(np.dot(w, t)) < floor * (1.0 - 1e-9):
        raise PreconditionViolated(
            f"subspace mass {np.dot(w, t):.3e} below {floor:.3e}")
    tn = t / b2

    pre = 0
    spent = 0
    while not _multiplicative_ok(w, tn, k, eps):
        if pre >= _STAGE_CAP:
            raise DegreeExhausted(
                f"subspace mass did not concentrate within {pre} stages")
        w = _renormalize(w, tn)
        pre += 1
        spent += 2

    mass_n = float(np.dot(w, tn))
    c_k = sphere_moment(dim, k)
    # candidates alternate between uniform draws (cover the isotropic case,
    # where the c_k bound is tight) and draws pointing at a mass-tilted atom
    # (cover concentrated mass, where a uniform draw rarely aligns); each
    # accepted v is certified by the same event, so the mix only affects
    # how fast a certifiable direction is found
    tilt = w * tn ** min(k, 60)
    tilt_total = float(tilt.sum())
    for attempt in range(1, retry_budget + 1):
        coef = rng.standard_normal(dim)
        if attempt % 2 == 0 and tilt_total > 0.0:
            i = int(rng.choice(len(w), p=tilt / tilt_total))
            nrm = np.linalg.norm(proj[i])
            if nrm > 0.0:
                coef = proj[i] / nrm + 1e-9 * coef
        coef /= np.linalg.norm(coef)
        v = coef @ rows
        sn = (proj @ coef) / math.sqrt(b2)   # <v, x> in t's units
        s2 = sn * sn
        e_lo = float(np.dot(w, s2 ** k))
        e_hi = float(np.dot(w, s2 ** (k + 1)))
        e_tk = float(np.dot(w, tn ** k))
        if e_lo <= 0.0:
            continue
        captures = e_hi >= (1.0 - eps) ** 3 * mass_n * e_lo
        typical = e_lo >= 0.5 * c_k * e_tk
        if not (captures and typical):
            continue

        try:
            top = float(s2.max())
            w2 = _renormalize(w, (s2 / top) ** k)
            step = 2 * k
            sigma2 = float(np.dot(w2, s2)) * b2
            if sigma2 <= 0.0:
                continue
            sigma = math.sqrt(sigma2)
            w3, m_fix, ratio, fix_spent, trace, total_k = _scalar_stages(
                pts, w2, v / sigma, eps * 2.0 ** (-0.5), 1,
                stage_power(1, eps), None)
        except (DegenerateWeight, PreconditionViolated, DegreeExhausted):
            continue
        step += fix_spent
        mean = w3 @ pts
        mass = float(np.dot(w3, t))
        if float(mean @ mean) >= (1.0 - delta) * mass:
            out = from_support(pts, w3, mu.degree, mu.constraints)
            srep = ScalarFixReport(
                m_fix, ratio, fix_spent, trace, 1, eps, stage_power(1, eps),
                _scalar_factors(v / sigma, total_k, m_fix, 1))
            lin_v = poly_linear(v)
            factors = []
            if pre:
                factors.append((_projection_weight(rows), pre))
            factors.append((ReweightPolynomial.from_square(lin_v),
                            k + total_k))
            factors.append((ReweightPolynomial.from_square(poly_add(
                lin_v, poly_constant(m_fix * sigma, pts.shape[1]))), 1))
            report = SubspaceFixReport(
                v, attempt, float(mean @ mean) / mass if mass > 0 else 0.0,
                spent + step, k, pre, m_fix * sigma, srep, tuple(factors))
            return out, report
    raise RetryExhausted(
        f"no direction fixed the subspace within {retry_budget} draws")


def _multiplicative_ok(w, tn, k, eps):
    """E~ t^j <= (1 + eps)^j (E~ t)^j for all j <= k."""
    j = np.arange(1, k + 1, dtype=float)
    moments = (tn[None, :] ** j[:, None]) @ w
    y1 = moments[0]
    bounds = y1 ** j * (1.0 + eps) ** (j - 1.0)
    return bool(np.all(moments <= bounds + 1e-300))


def _fix_subspace_moments(mu, rows, delta, eps, rng, retry_budget, k):
    if mu.degree < 4:
        raise DegreeExhausted(
            f"subspace fixing needs degree >= 4, table has {mu.degree}")
    index = mu.index
    proj = dense_poly(index, poly_quadratic(rows.T @ rows), 2)
    dim = rows.shape[0]
    if _expect(mu, proj) < dim ** (-float(DEFAULT_C)) * (1.0 - 1e-9):
        raise PreconditionViolated(f"subspace mass below dim^-{DEFAULT_C}")
    k = min(k, max(1, (mu.degree - 4) // 2))
    proj_rp = _projection_weight(rows)

    cur = mu
    pre = 0
    spent = 0
    while True:
        if _moment_multiplicative_ok(cur, proj, k, eps):
            break
        if cur.degree < 8 or pre >= _STAGE_CAP:
            break  # no budget to improve further; proceed with what holds
        cur = reweight(cur, proj_rp)
        pre += 1
        spent += 2

    # everything the draws compare against depends on cur alone: the
    # power, E~ t^k_use, and the moment blocks of degree 1, k_use, k_use+1
    mass = _expect(cur, proj)
    k_use = min(k, max(1, (cur.degree - 2) // 2 - 1))
    proj_k = proj
    for _ in range(k_use - 1):
        proj_k = poly_product(index, proj_k, proj)
    e_tk = _expect(cur, proj_k)
    c_k = sphere_moment(dim, k_use)
    block = moment_block(cur, k_use + 1, k_use + 1)
    lo, hi, lin_block = index.block(k_use), index.block(k_use + 1), index.block(1)
    block_lo, block_hi = block[lo, lo], block[hi, hi]
    # second-moment matrix in subspace coordinates; its top eigenvector is
    # the first candidate direction, then uniform draws take over
    smat = rows @ block[lin_block, lin_block] @ rows.T
    top = np.linalg.eigh(smat)[1][:, -1]
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
        for j in np.flatnonzero((e_lo > 0.0) & captures & typical).tolist():
            v = directions[j]
            sq = univariate_poly(index, powers[j], [0.0, 0.0, 1.0])
            try:
                work = cur
                step = 0
                powered = 0
                if _expect(cur, sq) < (1.0 - eps) ** 3 * mass \
                        and work.degree - 2 * k_use >= 4:
                    work = reweight(work, _power_weight(index, v, [0.0, 1.0], k_use))
                    step += 2 * k_use
                    powered = k_use
                sigma2 = _expect(work, sq)
                if sigma2 <= 0.0:
                    continue
                sigma = math.sqrt(sigma2)
                try:
                    fixed_mu, srep = fix_scalar(work, v / sigma, 1, eps)
                except DegreeExhausted:
                    # the table is too low-degree for stage A to sharpen the
                    # scalar to eps; run the sign split anyway at a loose
                    # tolerance and let the mean-mass certificate below
                    # accept or reject the result
                    fixed_mu, srep = fix_scalar(work, v / sigma, 1,
                                                _RELAXED_SCALAR_EPS)
            except (DegenerateWeight, DegreeExhausted, PreconditionViolated):
                continue
            step += srep.degree_spent
            mean = fixed_mu.moments[lin_block]
            out_mass = _expect(fixed_mu, proj) if fixed_mu.degree >= 2 else 0.0
            target = max(mass, out_mass)
            if float(mean @ mean) >= (1.0 - delta) * target:
                rng.bit_generator.state = state
                rng.standard_normal((j + 1, dim))
                factors = []
                if pre:
                    factors.append((proj_rp, pre))
                if powered:
                    factors.append((ReweightPolynomial.from_square(poly_linear(v)),
                                    powered))
                factors.extend(srep.factors)
                report = SubspaceFixReport(
                    v, attempt + j + 1,
                    float(mean @ mean) / target if target > 0 else 0.0,
                    spent + step, k_use, pre, srep.m * sigma, srep,
                    tuple(factors))
                return fixed_mu, report
        attempt += coefs.shape[0]
    raise RetryExhausted(
        f"no direction fixed the subspace within {retry_budget} draws")


def _quadratic_forms(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows[i] @ matrix @ rows[i] for every row."""
    return np.einsum("ij,ij->i", rows @ matrix, rows)


def _projection_weight(rows: np.ndarray) -> ReweightPolynomial:
    """|proj_S x|^2 as a certified reweighting polynomial."""
    return ReweightPolynomial.from_coefficients(
        poly_quadratic(rows.T @ rows),
        certificate=[poly_linear(rows[i]) for i in range(rows.shape[0])])


def _moment_multiplicative_ok(mu, p, k, eps):
    """E~ p^j <= (1 + eps)^{j-1} (E~ p)^j for all j <= k within the degree;
    p is a dense quadratic."""
    acc = p
    y1 = _expect(mu, p)
    bound = 1.0
    for j in range(1, k + 1):
        if 2 * j > mu.degree:
            return True
        if j > 1:
            acc = poly_product(mu.index, acc, p)
        bound *= (1.0 + eps) * y1
        if _expect(mu, acc) > bound + 1e-300:
            return False
    return True


__all__ = [
    "ScalarFixReport", "SubspaceFixReport", "fix_scalar", "fix_subspace",
    "sphere_moment", "stage_power", "direction_power", "DEFAULT_C",
]
