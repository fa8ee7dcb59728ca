"""Bilinear structure rounds: driving a pseudo-distribution over pairs
(u, v) toward a near-point mass by repeated subspace fixing.

While a coordinate's second moment is large against its squared mean
(the stopping condition ||m_i m_i^T - E~ u_i u_i^T||_F <= eps |m_i|^2
fails), its mass concentrates on a low-dimensional subspace spanned by
the top sqrt(n)-ish eigenvectors of the component orthogonal to the mean
plus the mean direction, and fixing that subspace grows |m_i|^2.  The
potential |m_1|^2 |m_2|^2 is at most 1 on the sphere, so O(log n / eps)
rounds suffice.

`run_structure_2d(mu, eps, seed)` runs these rounds and returns the
concentrated table, a trace of its steps and the composite
reweighting, a product of certified SOS factors kept in base^power form:
expanding powers like <v,x>^{2k} over several variables is exponentially
large, while the factored form is exact and replayable.  Each base is a
dense `ReweightPolynomial` carrying its roots, so a replay checks every
certificate again.
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
from .pseudodist import PseudoDistribution, moment_block, reweight
from .reweighting import fix_subspace

_MEAN_EPS = 1e-12
_JOINT_PLANES = 12         # coupled planes tried per bilinear seeding phase
_JOINT_RETRY_BUDGET = 120  # draws per coupled plane before trying the next


@dataclass(frozen=True)
class StepRecord:
    mean_sq: float          # |m_i|^2 of the worked coordinate after the step
    gap: float              # ||m_i m_i^T - E~ u_i u_i^T||_F after the step
    degree_left: int
    samples_tried: int
    degree_spent: int
    kind: str               # initial | progress
    potential: float        # |m_1|^2 |m_2|^2 after the step
    factors: tuple          # reweighting factors applied by this step


@dataclass
class StructureTrace:
    records: list = field(default_factory=list)


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
        cur = mu
        for base, power in self.factors:
            for _ in range(power):
                cur = reweight(cur, base)
        return cur


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


# -- the rounds --------------------------------------------------------------


def _block_rows(rows_small: np.ndarray, offset: int, total: int) -> np.ndarray:
    rows = np.zeros((rows_small.shape[0], total))
    rows[:, offset:offset + rows_small.shape[1]] = rows_small
    return rows


def block_stopping(mu: PseudoDistribution, offset: int, n: int):
    """Per-coordinate stopping data: ||mm^T - E~ uu^T||_F and |m|^2."""
    mean, second = first_moments(mu, offset, n)
    gap = float(np.linalg.norm(np.outer(mean, mean) - second))
    return gap, float(mean @ mean), mean, second


def run_structure_2d(mu: PseudoDistribution, eps: float, seed: int = 0):
    """Bilinear structure rounds over pairs (u, v) of n-vectors.

    Halts when both coordinates satisfy the uncentered stopping
    condition ||m_i m_i^T - E~ u_i u_i^T||_F <= eps |m_i|^2, for eps in
    (0, 1); raises IterLimit after ceil(40 log max(n, 2) / eps) + 2
    progress rounds.  Every fix asks for a mean carrying a (1 - delta)
    share of the subspace mass, delta = min(1/2, eps/2), and powers its
    direction at most to <v, x>^2.  Phase one seeds near-zero means:
    first a joint fix on the two-dimensional coupled plane (cheapest when
    the blocks are sign symmetric), then a top-eigenspace fix for any
    coordinate still near zero.  Phase two runs per-coordinate progress
    steps on the covariance of the component orthogonal to the current
    mean.  The trace records the potential |m_1|^2 |m_2|^2 after every
    step.
    """
    if not 0.0 < eps < 1.0:
        raise PreconditionViolated(f"eps must be in (0, 1), got {eps}")
    if mu.num_vars % 2:
        raise PreconditionViolated("bilinear rounds need an even variable count")
    n = mu.num_vars // 2
    rng = np.random.default_rng(seed)
    trace = StructureTrace()
    factors = []
    cur = mu
    delta = min(0.5, eps / 2.0)
    bound = math.ceil(40.0 * math.log(max(n, 2)) / eps) + 2

    def record_step(kind, rep, coord):
        g1, m1, _, _ = block_stopping(cur, 0, n)
        g2, m2, _, _ = block_stopping(cur, n, n)
        trace.records.append(StepRecord(
            (m1, m2)[coord], (g1, g2)[coord], cur.degree, rep.samples_tried,
            rep.degree_spent, kind, m1 * m2, rep.factors))

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
                nxt, rep = fix_subspace(cur, rows, delta, seed=rng,
                                        retry_budget=_JOINT_RETRY_BUDGET)
            except (RetryExhausted, PreconditionViolated, DegreeExhausted):
                continue    # next plane, or the per-coordinate schedule
            ng1, nm1 = block_stopping(nxt, 0, n)[:2]
            ng2, nm2 = block_stopping(nxt, n, n)[:2]
            settled = ng1 <= eps * nm1 and ng2 <= eps * nm2
            if not settled and nxt.degree < 4:
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
        if mean_sq > floor:
            continue
        vals, vecs = np.linalg.eigh(second)
        small = np.array([vecs[:, -(i + 1)]
                          for i in range(min(top_count, n))])
        rows = _block_rows(small, offset, mu.num_vars)
        cur, rep = fix_subspace(cur, rows, delta, seed=rng)
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
        cur, rep = fix_subspace(cur, rows, delta, seed=rng)
        factors.extend(rep.factors)
        record_step("progress", rep, coord)
    g1, m1, _, _ = block_stopping(cur, 0, n)
    g2, m2, _, _ = block_stopping(cur, n, n)
    if g1 <= eps * m1 and g2 <= eps * m2:
        return cur, CompositeWeight(tuple(factors)), trace
    raise IterLimit(
        f"bilinear rounds did not stop in {bound} iterations "
        f"(gaps {g1:.3e}/{m1:.3e}, {g2:.3e}/{m2:.3e})")


__all__ = [
    "StructureTrace", "StepRecord", "CompositeWeight", "cross_second_moment",
    "run_structure_2d", "block_stopping", "first_moments",
]
