"""Gaussian-thresholding search for near rank-one square submatrices.

Factor matrices U and V hold N unit vectors each, and the product
A = U^T V is an N x N matrix of rank at most n.  The finder keeps an
index set I and repeatedly thresholds it against a Gaussian drawn from
the centered second moment of one side, alternating sides each round,
until the submatrix A_{I,I} passes the spectral stopping test

    eps^2 sigma_1^2 >= sum_{j>=2} sigma_j^2.

The test never touches the |I| x |I| submatrix: its singular values
obey sigma_j(A_{I,I})^2 = |I|^2 eig_j(S_u S_v) for the n x n second
moments S_u = E_{i in I} u_i u_i^T and S_v likewise, so the check runs
on an n x n symmetric product.  In the symmetric case V = U this is
exactly eps^2 lambda_1^2 >= sum_{j>=2} lambda_j^2 for the eigenvalues
of E u_i u_i^T.

Each thresholding round centers the active side, draws g from N(0, S)
for S the centered second moment, and keeps the indices whose centered
inner product with g clears sqrt(k) ||S||_F in magnitude.  The average
of those inner products' variances equals ||S||_F^2, making the cut a
sqrt(k)-sigma event with density exp(-O(k)); the cut level clamps so
the survivors never drop below n + _FLOOR_MARGIN.  Thresholding is
two-sided only: a cap and its mirror image contribute identical second
moments, and the submatrix of a sign-split cap is still rank one (its
entries follow the sign pattern s_i t_j), so both halves of the sphere
are usable population.  Up to _RETRIES draws per round are tried until
the survivors' uncentered second moment grows by the factor
1 + _GROWTH in Frobenius norm; that norm is capped by the unit
columns, so sustained growth forces the spectrum toward rank one and
the stopping test fires.  Whole searches restart from fresh Gaussian
streams when rounds stall, which escapes the occasional bad early cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDims, DimensionMismatch, Emptied, IllFormed, MaxRounds
from .linalg import BlockReader, write_blocks

_UNIT_TOL = 1e-10
_SPECTRAL_TOL = 1e-10      # slack on the stopping bound
_RETRIES = 50              # Gaussian redraws per thresholding round
_GROWTH = 0.05             # second-moment growth that ends a round early
_FLOOR_MARGIN = 4          # survivors kept beyond n: the density floor
DEFAULT_RESTARTS = 8       # fresh searches before giving up
_ZERO_COV = 1e-15
_DESK_FACTOR = 0.25        # scales the theory-size k down to desk scale


@dataclass(frozen=True)
class FactorMatrix:
    """N unit vectors in R^n, one per row of ``vectors``."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise BadDims(f"factor matrix needs shape (N, n), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise IllFormed("factor matrix has non-finite entries")
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > _UNIT_TOL:
            raise IllFormed("columns must be unit norm; use normalized()")
        object.__setattr__(self, "vectors", v)

    @classmethod
    def normalized(cls, arr) -> "FactorMatrix":
        """Scale every row to unit norm; zero rows are rejected."""
        v = np.atleast_2d(np.asarray(arr, dtype=float))
        norms = np.linalg.norm(v, axis=1)
        if np.any(norms <= _UNIT_TOL):
            raise IllFormed("cannot normalize a zero column")
        return cls(v / norms[:, None])

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


def random_factors(n: int, count: int, seed: int = 0) -> FactorMatrix:
    """Uniformly random unit columns: normalized standard Gaussians."""
    if n < 1 or count < 1:
        raise BadDims(f"need n >= 1 and count >= 1, got {n}, {count}")
    rng = np.random.default_rng(seed)
    return FactorMatrix.normalized(rng.standard_normal((count, n)))


@dataclass(frozen=True)
class RectangleResult:
    """Outcome of a rectangle search.

    indices is the final I (sorted); rank_one_distance is
    ||A_{I,I} - best rank one||_F / ||best rank one||_F from the
    submatrix's singular values; densities holds |I|/N after each
    executed round and growth the (before, after) Frobenius norms of
    the thresholded side's uncentered second moment.
    """

    indices: np.ndarray
    rank_one_distance: float
    rounds: int
    densities: tuple
    growth: tuple


def default_k(n: int, eps: float) -> int:
    """Threshold strength ceil(_DESK_FACTOR * sqrt(n) log^2(n) / eps^2).

    The undiscounted value is the theory-scale choice; _DESK_FACTOR
    shrinks it because at small N a strong cut empties the index set in
    one round.
    """
    raw = _DESK_FACTOR * math.sqrt(n) * math.log(max(n, 2)) ** 2 / (eps * eps)
    return max(1, math.ceil(raw))


def default_max_rounds(n: int, eps: float) -> int:
    """Thresholding rounds per search, max(4, ceil(log n / eps))."""
    return max(4, math.ceil(math.log(max(n, 2)) / eps))


def _second_moment(side: FactorMatrix, idx) -> np.ndarray:
    cols = side.vectors[idx]
    return cols.T @ cols / idx.size


def _submatrix_spectrum(u, v, idx):
    """sigma(A_{I,I}) / |I|, descending, via the n x n moment product."""
    su = _second_moment(u, idx)
    vals, vecs = np.linalg.eigh(su)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    prod = root.T @ _second_moment(v, idx) @ root
    m = np.linalg.eigvalsh(prod)[::-1]
    return np.sqrt(np.clip(m, 0.0, None))


def _passes(sigma, eps):
    if sigma[0] <= _ZERO_COV:
        return False
    tail = float(np.sum(sigma[1:] ** 2))
    return tail <= eps * eps * sigma[0] ** 2 + _SPECTRAL_TOL


def find_rectangle(u: FactorMatrix, v: FactorMatrix, eps: float,
                   k: float | None = None, max_rounds: int | None = None,
                   seed: int = 0, restarts: int = DEFAULT_RESTARTS) -> RectangleResult:
    """Shrink [N] to an index set whose submatrix is eps-close to rank one.

    Rounds alternate between the U side and the V side.  A round draws
    up to _RETRIES Gaussians and thresholds the absolute centered inner
    products |<u_i - mean, g>| at sqrt(k) ||S||_F, so both sign caps
    count, clamping the cut so that at least n + _FLOOR_MARGIN indices
    survive (enough columns that the tail estimate is not noise).  The
    first draw whose survivors already pass the stopping test ends the
    round; otherwise the first draw growing the active side's
    uncentered second moment by (1 + _GROWTH) wins, and failing that
    the draw with the largest norm keeps the search moving.  k and
    max_rounds default to `default_k` and `default_max_rounds`.  A
    search that exhausts max_rounds restarts with a fresh Gaussian
    stream, up to ``restarts`` times.  Emptied means every draw of some
    round wiped the index set in every restart; MaxRounds means the
    stopping test never passed.
    """
    if u.count != v.count:
        raise DimensionMismatch(
            f"factor matrices pair columns, got {u.count} and {v.count}")
    if u.n != v.n:
        raise DimensionMismatch(
            f"columns live in different spaces: {u.n} and {v.n}")
    if not 0.0 < eps < 1.0:
        raise IllFormed(f"eps must be in (0, 1), got {eps}")
    if k is None:
        k = default_k(u.n, eps)
    if not k >= 1:
        raise IllFormed(f"k must be at least 1, got {k}")
    if max_rounds is None:
        max_rounds = default_max_rounds(u.n, eps)
    if max_rounds < 0:
        raise IllFormed(f"max_rounds must be at least 0, got {max_rounds}")
    if restarts < 1:
        raise IllFormed(f"restarts must be at least 1, got {restarts}")
    # the tail estimate averages |I| samples of an (n-1)-dimensional
    # residual, so a handful more than n keeps it meaningful
    floor = max(1, min(u.n + _FLOOR_MARGIN, u.count))

    failure = None
    for restart in range(restarts):
        rng = np.random.default_rng((seed, restart))
        try:
            return _search(u, v, eps, k, max_rounds, rng, floor)
        except (Emptied, MaxRounds) as err:
            failure = err
    raise failure


def _search(u, v, eps, k, max_rounds, rng, floor):
    total = u.count
    idx = np.arange(total)
    densities = []
    growth_log = []

    for rnd in range(max_rounds + 1):
        sigma = _submatrix_spectrum(u, v, idx)
        if _passes(sigma, eps):
            tail = float(np.sum(sigma[1:] ** 2))
            return RectangleResult(idx, math.sqrt(tail) / float(sigma[0]),
                                   len(densities), tuple(densities),
                                   tuple(growth_log))
        if rnd == max_rounds:
            raise MaxRounds(
                f"spectral test still failing after {max_rounds} rounds")
        if idx.size <= floor:
            raise MaxRounds(
                "index set reached the density floor without passing")

        side = u if rnd % 2 == 0 else v
        cols = side.vectors[idx]
        dev = cols - cols.mean(axis=0)
        cov = dev.T @ dev / idx.size
        fnorm = float(np.linalg.norm(cov))
        if fnorm <= _ZERO_COV:
            side = v if side is u else u      # collapsed side cannot move
            cols = side.vectors[idx]
            dev = cols - cols.mean(axis=0)
            cov = dev.T @ dev / idx.size
            fnorm = float(np.linalg.norm(cov))
            if fnorm <= _ZERO_COV:
                raise MaxRounds("both sides collapsed without passing the test")

        vals, vecs = np.linalg.eigh(cov)
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
        cut = math.sqrt(k) * fnorm
        before = float(np.linalg.norm(cols.T @ cols / idx.size))
        finisher = None        # first draw whose survivors pass the test
        grower = None          # first draw meeting the growth target
        fallback = None        # largest-norm draw, in case neither shows
        for _ in range(_RETRIES):
            g = root @ rng.standard_normal(side.n)
            scores = np.abs(dev @ g)
            # keep the cut from dropping the set below the target
            hold = min(floor, idx.size)
            level = min(cut, float(np.partition(scores, -hold)[-hold]))
            keep = idx[scores >= level]
            if keep.size == 0 or keep.size == idx.size:
                continue
            after = float(np.linalg.norm(_second_moment(side, keep)))
            if _passes(_submatrix_spectrum(u, v, keep), eps):
                finisher = (keep, after)
                break
            if grower is None and after >= (1.0 + _GROWTH) * before:
                grower = (keep, after)
            if fallback is None or after > fallback[1]:
                fallback = (keep, after)
        chosen = finisher or grower or fallback
        if chosen is None:
            raise Emptied(
                f"every Gaussian draw emptied the index set in round {rnd}")
        idx, after = chosen
        densities.append(idx.size / total)
        growth_log.append((before, after))


# -- text format --------------------------------------------------------------


def write_factors(path, fm: FactorMatrix) -> None:
    """Write 'FACTORS n N' followed by the N x n matrix of columns."""
    write_blocks(path, f"FACTORS {fm.n} {fm.count}", [fm.vectors])


def read_factors(path) -> FactorMatrix:
    fh = BlockReader(path, "FACTORS", count=2)
    n, count = fh.header
    return FactorMatrix(fh.take((count, n)))


__all__ = [
    "FactorMatrix",
    "RectangleResult",
    "default_k",
    "default_max_rounds",
    "find_rectangle",
    "random_factors",
    "read_factors",
    "write_factors",
]
