"""Iterative structure rounds: driving a pseudo-distribution toward a
near-point mass by repeated subspace fixing.

The engine is the progress step: while the covariance is large relative
to the squared mean (the stopping condition fails), the mass of the
second moment concentrates on a low-dimensional subspace S' spanned by
the top sqrt(n)-ish covariance eigenvectors plus the mean direction, and
fixing that subspace grows |E~ x|^2 by a (1 + eps/4) factor (or lifts it
to the 1/(4 sqrt(n)) floor from near zero).  Since |E~ x|^2 <= 1 on the
sphere, O(log n / eps) rounds suffice.

`run_structure` iterates to the stopping condition and returns the
composite reweighting (a product of certified SOS factors kept in
base^power form: expanding powers like <v,x>^{2k} over several variables
is exponentially large, the factored form is exact and replayable).
`run_structure_2d` runs the bilinear variant over pairs (u, v) with
per-coordinate stopping against the uncentered second moment, tracking
the potential |E~ u|^2 |E~ v|^2.  `run_structure_rank_r` concatenates r
blocks into one variable, runs the plain rounds, and reads out
per-block diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegreeExhausted,
    IterLimit,
    PreconditionViolated,
    RetryExhausted,
)
from .pseudodist import PseudoDistribution, moment_block
from .reweighting import fix_subspace

_MEAN_EPS = 1e-12
_JOINT_PLANES = 12         # coupled planes tried per bilinear seeding phase
_JOINT_RETRY_BUDGET = 120  # draws per coupled plane before trying the next


@dataclass(frozen=True)
class StructureConfig:
    eps: float
    max_iters: int | None = None    # None: ceil(40 log(n) / eps) at run time
    per_iter_degree: int = 4        # moment-path degree reserved per round
    delta: float | None = None      # None: min(1/2, eps/2)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise PreconditionViolated(f"eps must be in (0, 1), got {self.eps}")
        if self.max_iters is not None and self.max_iters < 1:
            raise PreconditionViolated("max_iters must be >= 1")

    def iter_bound(self, num_vars: int) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return math.ceil(40.0 * math.log(max(num_vars, 2)) / self.eps)

    def step_delta(self) -> float:
        return self.delta if self.delta is not None else min(0.5, self.eps / 2.0)


@dataclass(frozen=True)
class StepRecord:
    mean_sq: float          # |E~ x|^2 after the step
    cov_norm: float         # ||E~ xx^T - (E~ x)(E~ x)^T||_F before the step
    degree_left: int
    chain_mass: float       # E~ |proj_{S'} x|^2 before fixing
    subspace_dim: int
    samples_tried: int
    degree_spent: int
    kind: str = "progress"  # progress | initial | scalar
    potential: float = 0.0  # |m_1|^2 |m_2|^2, bilinear rounds only
    factors: tuple = ()     # reweighting factors applied by this step


@dataclass
class StructureTrace:
    records: list = field(default_factory=list)

    def mean_history(self):
        return [r.mean_sq for r in self.records]


@dataclass(frozen=True)
class CompositeWeight:
    """Product of certified SOS reweighting factors, kept factored.

    Each entry is (base, power): reweighting by every base `power` times
    reproduces the whole composite exactly (normalization is per-step).
    """

    factors: tuple

    @property
    def degree(self) -> int:
        return sum(base.degree * power for base, power in self.factors)

    def apply(self, mu: PseudoDistribution) -> PseudoDistribution:
        from .pseudodist import reweight
        cur = mu
        for base, power in self.factors:
            for _ in range(power):
                cur = reweight(cur, base)
        return cur

    def expanded(self):
        """Single polynomial dict; only for small degrees."""
        from .pseudodist import poly_mul, poly_pow
        out = {}
        for base, power in self.factors:
            p = poly_pow(base.poly(), power)
            out = poly_mul(out, p) if out else p
        return out


def first_moments(mu: PseudoDistribution, offset: int = 0, count: int | None = None):
    """Mean vector and raw second-moment matrix of a block of variables."""
    n = mu.num_vars if count is None else count
    block = moment_block(mu, 1, 1)   # row and column 1 + i belong to x_i
    sel = np.arange(1 + offset, 1 + offset + n)
    return block[0, sel], block[np.ix_(sel, sel)]


def cross_second_moment(mu: PseudoDistribution) -> np.ndarray:
    """E~ vec(u v^T) vec(u v^T)^T for a table over pairs (u, v).

    The result is the n^2 x n^2 PSD matrix of fourth moments
    M[(i,j),(k,l)] = E~ u_i v_j u_k v_l.  It survives sign and phase
    symmetries that zero out every odd moment, which makes it the
    readout of choice when the mean vectors vanish."""
    if mu.num_vars % 2:
        raise PreconditionViolated("cross moments need an even variable count")
    if mu.degree < 4:
        raise PreconditionViolated(
            f"cross moments need degree >= 4, table has {mu.degree}")
    n = mu.num_vars // 2
    # index of the monomial u_i v_j at position i * n + j
    pairs = mu.index.sum_table(1, 1)[1:n + 1, n + 1:].ravel()
    return moment_block(mu, 2, 2)[np.ix_(pairs, pairs)]


def stopping_gap(mu: PseudoDistribution):
    """(cov_norm, mean_sq): the stopping condition is
    cov_norm <= eps * mean_sq."""
    mean, second = first_moments(mu)
    cov = second - np.outer(mean, mean)
    return float(np.linalg.norm(cov)), float(mean @ mean)


def _progress_subspace(mean, second, top_count):
    """Rows spanning top covariance eigenvectors plus the mean direction."""
    cov = second - np.outer(mean, mean)
    vals, vecs = np.linalg.eigh(cov)
    rows = [vecs[:, -(i + 1)] for i in range(min(top_count, len(vals)))]
    nm = np.linalg.norm(mean)
    if nm > _MEAN_EPS:
        rows.append(mean / nm)
    return np.array(rows)


def making_progress_step(mu: PseudoDistribution, eps: float,
                         cfg: StructureConfig, rng=None):
    """One structure round.  Requires the stopping condition to fail;
    returns (mu', StepRecord) with
    |E~_{mu'} x|^2 > max((1 + eps/4) |E~_mu x|^2, 1/(4 sqrt(n)))."""
    n = mu.num_vars
    mean, second = first_moments(mu)
    cov = second - np.outer(mean, mean)
    cov_norm = float(np.linalg.norm(cov))
    mean_sq = float(mean @ mean)
    if cov_norm <= eps * mean_sq:
        raise PreconditionViolated(
            f"stopping condition already holds ({cov_norm:.3e} <= "
            f"{eps * mean_sq:.3e})")
    top_count = math.ceil(math.sqrt(n)) + 1
    rows = _progress_subspace(mean, second, top_count)

    # mass chain: the subspace must carry at least (1+eps) |E~ x|^2, which
    # is what makes the subsequent fix a strict improvement
    chain_mass = float(sum(r @ second @ r for r in rows))
    if chain_mass < (1.0 + eps) * mean_sq - 1e-7:
        raise PreconditionViolated(
            f"progress subspace carries {chain_mass:.3e} "
            f"< (1+eps) |mean|^2 = {(1 + eps) * mean_sq:.3e}")

    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    delta = cfg.step_delta()
    k = None if mu.support is not None else max(1, (cfg.per_iter_degree - 2) // 2)
    target = max((1.0 + eps / 4.0) * mean_sq, 1.0 / (4.0 * math.sqrt(n)))
    last = None
    for _ in range(3):
        out, rep = fix_subspace(mu, rows, delta, k=k, seed=rng)
        new_mean, _ = first_moments(out)
        new_sq = float(new_mean @ new_mean)
        if new_sq > target:
            record = StepRecord(new_sq, cov_norm, out.degree, chain_mass,
                                rows.shape[0], rep.samples_tried,
                                rep.degree_spent, factors=rep.factors)
            return out, record
        last = (out, rep, new_sq)
    raise RetryExhausted(
        f"progress step improved |mean|^2 only to {last[2]:.3e}, "
        f"needed > {target:.3e}")


def run_structure(mu: PseudoDistribution, cfg: StructureConfig):
    """Iterate progress steps until the covariance is small against the
    squared mean: ||E~ xx^T - mm^T||_F <= eps |m|^2.

    Returns (mu', CompositeWeight, StructureTrace).  Raises IterLimit if
    the bound on rounds is hit first (the sign of an insufficient degree
    budget on moment-backed inputs)."""
    rng = np.random.default_rng(cfg.seed)
    trace = StructureTrace()
    factors = []
    cur = mu
    bound = cfg.iter_bound(mu.num_vars)
    for _ in range(bound):
        cov_norm, mean_sq = stopping_gap(cur)
        if cov_norm <= cfg.eps * mean_sq:
            return cur, CompositeWeight(tuple(factors)), trace
        cur, record = making_progress_step(cur, cfg.eps, cfg, rng)
        factors.extend(record.factors)
        trace.records.append(record)
    cov_norm, mean_sq = stopping_gap(cur)
    if cov_norm <= cfg.eps * mean_sq:
        return cur, CompositeWeight(tuple(factors)), trace
    raise IterLimit(
        f"no convergence in {bound} rounds "
        f"(gap {cov_norm:.3e} vs {cfg.eps * mean_sq:.3e})")


# -- bilinear variant --------------------------------------------------------


def _block_rows(rows_small: np.ndarray, offset: int, total: int) -> np.ndarray:
    rows = np.zeros((rows_small.shape[0], total))
    rows[:, offset:offset + rows_small.shape[1]] = rows_small
    return rows


def block_stopping(mu: PseudoDistribution, offset: int, n: int):
    """Per-coordinate stopping data: ||mm^T - E~ uu^T||_F and |m|^2."""
    mean, second = first_moments(mu, offset, n)
    gap = float(np.linalg.norm(np.outer(mean, mean) - second))
    return gap, float(mean @ mean), mean, second


def run_structure_2d(mu: PseudoDistribution, cfg: StructureConfig):
    """Bilinear structure rounds over pairs (u, v) of n-vectors.

    Halts when both coordinates satisfy the uncentered stopping
    condition ||m_i m_i^T - E~ u_i u_i^T||_F <= eps |m_i|^2.  Phase one
    seeds near-zero means: first a joint fix on the two-dimensional
    coupled plane (cheapest when the blocks are sign symmetric), then a
    top-eigenspace fix for any coordinate still near zero.  Phase two
    runs per-coordinate progress steps on the covariance of the
    component orthogonal to the current mean.  The trace records the
    potential |m_1|^2 |m_2|^2 after every step.
    """
    if mu.num_vars % 2:
        raise PreconditionViolated("bilinear rounds need an even variable count")
    n = mu.num_vars // 2
    rng = np.random.default_rng(cfg.seed)
    trace = StructureTrace()
    factors = []
    cur = mu
    eps = cfg.eps
    delta = cfg.step_delta()
    bound = cfg.iter_bound(n) + 2

    def record_step(kind, rep, coord):
        g1, m1, _, _ = block_stopping(cur, 0, n)
        g2, m2, _, _ = block_stopping(cur, n, n)
        trace.records.append(StepRecord(
            (m1, m2)[coord], (g1, g2)[coord], cur.degree, 0.0, 0,
            rep.samples_tried if rep else 0,
            rep.degree_spent if rep else 0, kind, m1 * m2,
            rep.factors if rep else ()))

    # phase one.  When both means are tiny the blocks are typically sign
    # symmetric (u, v) ~ (u, -v), so every per-coordinate mean stays zero
    # while the coupling lives in the degree-4 cross moments.  A single
    # fix on a coupled plane span{(a, b), (a, -b)} concentrates both
    # means at once and spends one reweighting level where
    # per-coordinate fixes would spend two; on low-degree tables that
    # halving is the difference between finishing and running out of
    # moments.  The first plane pairs the top second-moment
    # eigenvectors; later attempts draw a and b from the block
    # covariances, which explores when near-equal mixture weights make
    # the eigenvectors meaningless.  A plane where mixture components
    # collide can still certify a superposed mean, so a fix is accepted
    # only if it settles both blocks or leaves enough degree to keep
    # working.
    floor = 1.0 / (4.0 * math.sqrt(n))
    _, m1, _, sec1 = block_stopping(cur, 0, n)
    _, m2, _, sec2 = block_stopping(cur, n, n)
    if m1 <= floor and m2 <= floor:
        vals1, vecs1 = np.linalg.eigh(sec1)
        vals2, vecs2 = np.linalg.eigh(sec2)
        root1 = vecs1 * np.sqrt(np.clip(vals1, 0.0, None))
        root2 = vecs2 * np.sqrt(np.clip(vals2, 0.0, None))
        half = math.sqrt(0.5)
        k = None if cur.support is not None else max(1, (cfg.per_iter_degree - 2) // 2)
        for attempt in range(_JOINT_PLANES):
            if attempt == 0:
                alpha = vecs1[:, -1]
                beta = vecs2[:, -1]
            else:
                alpha = root1 @ rng.standard_normal(n)
                beta = root2 @ rng.standard_normal(n)
                na, nb = np.linalg.norm(alpha), np.linalg.norm(beta)
                if na < 1e-9 or nb < 1e-9:
                    continue
                alpha /= na
                beta /= nb
            rows = np.array([np.concatenate([alpha, beta]) * half,
                             np.concatenate([alpha, -beta]) * half])
            try:
                nxt, rep = fix_subspace(cur, rows, delta, k=k, seed=rng,
                                        retry_budget=_JOINT_RETRY_BUDGET)
            except (RetryExhausted, PreconditionViolated, DegreeExhausted):
                continue    # next plane, or the per-coordinate schedule
            ng1, nm1 = block_stopping(nxt, 0, n)[:2]
            ng2, nm2 = block_stopping(nxt, n, n)[:2]
            settled = ng1 <= eps * nm1 and ng2 <= eps * nm2
            if not settled and (nxt.support is None and nxt.degree < 4):
                continue
            cur = nxt
            factors.extend(rep.factors)
            record_step("initial", rep, 0)
            break
    # any coordinate whose mean is still tiny gets an initial fix on its
    # top second-moment eigenspace
    top_count = math.ceil(2.0 * math.sqrt(n))
    for coord, offset in ((0, 0), (1, n)):
        _, mean_sq, mean, second = block_stopping(cur, offset, n)
        if mean_sq > 1.0 / (4.0 * math.sqrt(n)):
            continue
        vals, vecs = np.linalg.eigh(second)
        small = np.array([vecs[:, -(i + 1)]
                          for i in range(min(top_count, n))])
        rows = _block_rows(small, offset, mu.num_vars)
        k = None if cur.support is not None else max(1, (cfg.per_iter_degree - 2) // 2)
        cur, rep = fix_subspace(cur, rows, delta, k=k, seed=rng)
        factors.extend(rep.factors)
        record_step("initial", rep, coord)

    for _ in range(bound):
        g1, m1, mean1, sec1 = block_stopping(cur, 0, n)
        g2, m2, mean2, sec2 = block_stopping(cur, n, n)
        done1 = g1 <= eps * m1
        done2 = g2 <= eps * m2
        if done1 and done2:
            return cur, CompositeWeight(tuple(factors)), trace
        # work on the coordinate furthest from stopping
        ratios = [(g1 / m1 if m1 > 0 else np.inf),
                  (g2 / m2 if m2 > 0 else np.inf)]
        coord = int(np.argmax(ratios))
        offset = (0, n)[coord]
        mean, second = (mean1, sec1) if coord == 0 else (mean2, sec2)
        nm = np.linalg.norm(mean)
        # covariance of the component orthogonal to the mean direction
        if nm > _MEAN_EPS:
            proj = np.eye(n) - np.outer(mean, mean) / (nm * nm)
            perp = proj @ second @ proj
        else:
            perp = second
        vals, vecs = np.linalg.eigh(perp)
        small = [vecs[:, -(i + 1)]
                 for i in range(min(math.ceil(math.sqrt(n)) + 1, n))]
        if nm > _MEAN_EPS:
            small.append(mean / nm)
        rows = _block_rows(np.array(small), offset, mu.num_vars)
        k = None if cur.support is not None else max(1, (cfg.per_iter_degree - 2) // 2)
        cur, rep = fix_subspace(cur, rows, delta, k=k, seed=rng)
        factors.extend(rep.factors)
        record_step("progress", rep, coord)
    g1, m1, _, _ = block_stopping(cur, 0, n)
    g2, m2, _, _ = block_stopping(cur, n, n)
    if g1 <= eps * m1 and g2 <= eps * m2:
        return cur, CompositeWeight(tuple(factors)), trace
    raise IterLimit(
        f"bilinear rounds did not stop in {bound} iterations "
        f"(gaps {g1:.3e}/{m1:.3e}, {g2:.3e}/{m2:.3e})")


def run_structure_rank_r(mu: PseudoDistribution, r: int, cfg: StructureConfig):
    """Structure rounds for r concatenated blocks with total mass 1.

    Treats the concatenation as one variable and runs the plain rounds;
    the guarantee sum_i ||m_i m_i^T - E~ u_i u_i^T||_F^2 <=
    eps^2 sum_i ||m_i m_i^T||_F^2 follows from the global stopping
    condition.  Returns (mu', CompositeWeight)."""
    if mu.num_vars % r:
        raise PreconditionViolated(
            f"{mu.num_vars} variables do not split into {r} blocks")
    out, weight, _ = run_structure(mu, cfg)
    return out, weight


def block_residuals(mu: PseudoDistribution, r: int):
    """Per-block ||m_i m_i^T - E~ u_i u_i^T||_F and ||m_i m_i^T||_F."""
    n = mu.num_vars // r
    gaps = []
    sizes = []
    for i in range(r):
        mean, second = first_moments(mu, i * n, n)
        gaps.append(float(np.linalg.norm(np.outer(mean, mean) - second)))
        sizes.append(float(mean @ mean))
    return np.array(gaps), np.array(sizes)


__all__ = [
    "StructureConfig", "StructureTrace", "StepRecord", "CompositeWeight",
    "cross_second_moment", "making_progress_step", "run_structure",
    "run_structure_2d", "run_structure_rank_r", "block_stopping",
    "block_residuals", "stopping_gap", "first_moments",
]
