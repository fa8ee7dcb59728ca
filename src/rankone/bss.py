"""Rank-one search in matrix subspaces.

Pipeline: a subspace W of n x n matrices (given directly, or as the
eigenvalue-1 eigenspace of a measurement operator) is turned into moment
feasibility problems over pairs (u, v) of unit vectors with uv^T in W,
at degrees 4, 6, ... up to a top degree, until one refuses W or rounds
spectrally to the target; at the top degree the solved moment table is
concentrated by the bilinear structure rounds, and the candidate u0 v0^T
is read off the first moments.  The module also houses the verifier for
candidates against measurements, the complex-to-real reduction with its
lift, instance generators with a grid-certified farness oracle, and the
SUBSPACE, MEASUREMENT and CSUBSPACE file formats (matrix blocks, see
`linalg`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDims,
    DegreeExhausted,
    DegreeTooSmall,
    DimensionMismatch,
    EmptySubspace,
    IllFormed,
    IterLimit,
    NoConvergence,
    NotPSD,
    NotSymmetric,
    RetryExhausted,
    ZeroCandidate,
)
from .linalg import BlockReader, gram_schmidt, write_blocks
from .sos_solver import DEFAULT_TOL, Certificate, build_bss_problem, solve_feasibility
from .structure import cross_second_moment, first_moments, run_structure_2d

_ORTHO_TOL = 1e-10
_PSD_SLACK = 1e-8
_ZERO_NORM = 1e-12
_MIN_FARNESS = 0.5         # the farness `random_no` certifies
_NO_TRIES = 40             # `random_no` draws before giving up
_SCREEN_STRIDE = 16        # every 16th grid point screens a `random_no` draw
_ACCEPT_TOL = 1e-7         # slack on a verified acceptance floor
DEFAULT_DEGREE = 6         # top rung of the degree ladder

# rounding retries: every level relaxes the structure stopping bar by
# _EPS_GROWTH and each level redraws _SEEDS_PER_LEVEL times; acceptance
# is always by directly verified candidate quality, so the relaxation
# never weakens what a returned candidate means
_ROUND_TRIALS = 24
_SEEDS_PER_LEVEL = 6
_EPS_GROWTH = 1.5
_MAX_STRUCTURE_EPS = 0.45


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of n x n matrices.

    `ambient` is n; `basis` holds the matrices, pairwise orthonormal in
    the Frobenius inner product within 1e-10.
    """

    ambient: int
    basis: tuple

    def __post_init__(self):
        n = self.ambient
        if n < 1:
            raise BadDims(f"ambient dimension must be positive, got {n}")
        for b in self.basis:
            if b.shape != (n, n):
                raise DimensionMismatch(
                    f"basis matrix shape {b.shape} does not match ambient {n}")
            if not np.all(np.isfinite(b)):
                raise IllFormed("basis matrix has non-finite entries")
        rows = self.matrix_rows()
        gram = rows @ rows.T
        if gram.size and float(np.abs(gram - np.eye(len(self.basis))).max()) > _ORTHO_TOL:
            raise IllFormed("basis matrices are not orthonormal within 1e-10")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix_rows(self) -> np.ndarray:
        return np.array([b.reshape(-1) for b in self.basis]).reshape(
            len(self.basis), self.ambient * self.ambient)

    def complement_matrices(self) -> tuple:
        """Orthonormal basis of the Frobenius-orthogonal complement."""
        n = self.ambient
        if not self.basis:
            return tuple(np.eye(n * n)[i].reshape(n, n) for i in range(n * n))
        _, _, vh = np.linalg.svd(self.matrix_rows(), full_matrices=True)
        return tuple(row.reshape(n, n) for row in vh[len(self.basis):])

    def project(self, mat: np.ndarray) -> np.ndarray:
        """Orthogonal projection of an n x n matrix onto the span."""
        rows = self.matrix_rows()
        coefs = rows @ np.asarray(mat, dtype=float).reshape(-1)
        return (rows.T @ coefs).reshape(self.ambient, self.ambient)


def subspace_from_matrices(matrices, ambient: int | None = None) -> SubspaceBasis:
    """Orthonormalize a spanning set of n x n matrices into a SubspaceBasis.

    Dependent members are dropped; raises EmptySubspace when nothing
    survives.
    """
    mats = [np.asarray(m, dtype=float) for m in matrices]
    if not mats:
        raise EmptySubspace("no matrices given")
    n = ambient if ambient is not None else mats[0].shape[0]
    ortho = gram_schmidt([m.reshape(-1) for m in mats])
    if not ortho:
        raise EmptySubspace("all spanning matrices were dropped as dependent")
    return SubspaceBasis(n, tuple(v.reshape(n, n) for v in ortho))


@dataclass(frozen=True)
class MeasurementOperator:
    """Symmetric n^2 x n^2 matrix with eigenvalues in [0, 1] within slack."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"measurement must be square, got {m.shape}")
        side = m.shape[0]
        n = math.isqrt(side)
        if n * n != side:
            raise BadDims(f"measurement side {side} is not a perfect square")
        if not np.all(np.isfinite(m)):
            raise IllFormed("measurement has non-finite entries")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > _ORTHO_TOL * scale:
            raise NotSymmetric("measurement is not symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
        if eigs.size and (eigs[0] < -_PSD_SLACK or eigs[-1] > 1.0 + _PSD_SLACK):
            raise NotPSD(
                f"measurement eigenvalues [{eigs[0]:.3e}, {eigs[-1]:.3e}] "
                "leave [0, 1]")

    @property
    def ambient(self) -> int:
        return math.isqrt(self.matrix.shape[0])


@dataclass(frozen=True)
class RankOneCandidate:
    """Candidate u0 v0^T with its squared projection fraction onto W."""

    u0: np.ndarray
    v0: np.ndarray
    quality: float

    @property
    def matrix(self) -> np.ndarray:
        return np.outer(self.u0, self.v0)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.u0) * np.linalg.norm(self.v0))


@dataclass(frozen=True)
class BssReport:
    """Outcome of `solve_bss`.  `degree` is the top rung asked for and
    `rung` the degree whose relaxation decided; the solver fields describe
    the solve at that rung."""

    status: str              # candidate | infeasible
    eps: float
    degree: int
    rung: int
    solver_status: str       # feasible | rounded | infeasible
    solver_iterations: int
    structure_steps: int
    quality: float | None = None
    degree_left: int | None = None
    certificate: Certificate | None = None  # the solver's, when infeasible


def projected_quality(w: SubspaceBasis, mat: np.ndarray) -> float:
    """||proj_W mat||_F^2 / ||mat||_F^2, the share of mat's mass in W.

    `solve`, `check` and the plant report of `gen` all score a candidate
    u0 v0^T with this one expression, so their qualities agree exactly.
    """
    return float(np.linalg.norm(w.project(mat)) ** 2 / np.linalg.norm(mat) ** 2)


# -- measurement front end ----------------------------------------------------


def measurement_to_subspace(measurement: MeasurementOperator) -> SubspaceBasis:
    """The eigenvalue-1 eigenspace of the measurement: the states it
    accepts with probability 1.

    Eigenvectors with eigenvalue at least 1 - 1e-8 (the slack validation
    allows above 1) are reshaped to n x n matrices.
    """
    n = measurement.ambient
    vals, vecs = np.linalg.eigh(0.5 * (measurement.matrix + measurement.matrix.T))
    keep = vals >= 1.0 - _PSD_SLACK
    if not keep.any():
        raise EmptySubspace(
            f"no eigenvalue-1 direction (largest eigenvalue is {vals[-1]:.6f})")
    mats = tuple(vecs[:, i].reshape(n, n) for i in np.flatnonzero(keep)[::-1])
    return SubspaceBasis(n, mats)


# -- the solve pipeline -------------------------------------------------------


def _default_structure_eps(eps: float, ambient: int) -> float:
    # per-block concentration at eps/sqrt(n) pushes the candidate within
    # eps of E~[uv^T] in relative Frobenius norm (Cauchy-Schwarz over the
    # sphere constraints), and E~[uv^T] lies in W exactly
    return max(0.02, eps / math.sqrt(max(ambient, 1)))


def _spectral_rounding(mu, w: SubspaceBasis):
    """Best candidate among the top cross-moment eigendirections.

    The matrix E~ vec(uv^T) vec(uv^T)^T has its range inside W for any
    feasible table (the membership constraints hold multiplicatively),
    and it survives the sign and phase symmetries that zero out E~ u,
    E~ v, and E~ uv^T, so its top eigenvectors read out the bilinear
    mass even when every odd moment vanishes.  Each candidate is the
    leading singular pair of one eigendirection, scored by its actual
    projected mass; returns (quality, candidate) or None.
    """
    n = w.ambient
    vals, vecs = np.linalg.eigh(cross_second_moment(mu))
    best = None
    for col in range(1, min(4, n * n) + 1):
        y = w.project(vecs[:, -col].reshape(n, n))
        if float(np.linalg.norm(y)) <= _ZERO_NORM:
            continue
        uu, ss, vv = np.linalg.svd(y)
        if ss[0] <= _ZERO_NORM:
            continue
        u0 = uu[:, 0] * math.sqrt(ss[0])
        v0 = vv[0] * math.sqrt(ss[0])
        quality = projected_quality(w, np.outer(u0, v0))
        if best is None or quality > best[0]:
            best = (quality, RankOneCandidate(u0, v0, quality))
    return best


def solve_bss(w: SubspaceBasis, eps: float, degree: int = DEFAULT_DEGREE, seed: int = 0,
              solver_tol: float = DEFAULT_TOL):
    """Find an approximately-in-W rank-one matrix, or certify none, by
    climbing the degree ladder 4, 6, ..., `degree`.

    Returns (RankOneCandidate | None, BssReport).  A candidate comes
    with quality = ||proj_W u0 v0^T||_F^2 / ||u0 v0^T||_F^2; None means
    the relaxation at some rung d <= degree is infeasible, which soundly
    rules out unit pairs with uv^T in W: the degree-d relaxation is a
    projection of every higher one, so a refusal at d is one at `degree`.
    The report then carries the solver's checked certificate
    (`sos_solver.Certificate`, whose margin `certificate_margin`
    recomputes from the problem of that rung).

    Each rung refuses on a certificate or returns the spectral candidate
    (top cross-moment eigendirections, immune to sign and phase
    symmetry) when it reaches 1 - eps^2.  A rung need not wait for a
    converged table: the solver offers its iterate at each conic check,
    and the rung stops at the first one whose spectral candidate reaches
    1 - eps^2, with solver status `rounded`.  Either way the candidate is
    accepted on its own recomputed quality, so a certified eps-far W can
    never be rounded.  A rung below the top otherwise climbs, as it also
    does when its solver reaches the iteration limit.
    The top rung goes on from its spectral baseline: it retries the
    structure rounds over fresh seeds (trial t runs `run_structure_2d`
    with seed `seed + t`) and a gradually relaxed stopping bar until a
    trial reaches quality 1 - eps^2; the best verified candidate wins,
    so a top rung that cannot support the strict bar still rounds
    whatever the moments contain.  Raises
    DegreeTooSmall unless `degree` is even and at least 4, NoConvergence
    when the top rung's solver reaches its iteration limit with neither a
    certificate nor a feasible point, and ZeroCandidate when every
    rounding path fails outright.
    """
    if w.dim == 0:
        raise EmptySubspace("cannot search an empty subspace")
    if not 0.0 < eps < 1.0:
        raise IllFormed(f"eps must lie in (0, 1), got {eps}")
    if degree < 4 or degree % 2 != 0:
        raise DegreeTooSmall(f"rank-one search needs an even degree >= 4, got {degree}")
    target = 1.0 - eps * eps

    def verifies(dist) -> bool:
        rounded = _spectral_rounding(dist, w)
        return rounded is not None and rounded[0] >= target

    for rung in range(4, degree + 1, 2):
        # looked up on the module at call time, so a tracer that wraps
        # these names sees every rung
        problem = build_bss_problem(w, rung)
        mu, solver_report = solve_feasibility(problem, tol=solver_tol, accept=verifies)
        if solver_report.status == "infeasible":
            report = BssReport("infeasible", eps, degree, rung, solver_report.status,
                               solver_report.iterations, 0,
                               certificate=solver_report.certificate)
            return None, report
        if solver_report.status in ("feasible", "rounded"):
            # a rounded table is rounded again here: the rounding is
            # deterministic, so this is the candidate the hook verified
            baseline = _spectral_rounding(mu, w)
            if baseline is not None and baseline[0] >= target:
                report = BssReport("candidate", eps, degree, rung, solver_report.status,
                                   solver_report.iterations, 0,
                                   quality=baseline[0], degree_left=mu.degree)
                return baseline[1], report
        elif rung == degree:
            raise NoConvergence(
                f"feasibility solver returned {solver_report.status} after "
                f"{solver_report.iterations} iterations")
    quality, candidate, steps, degree_left = _round(mu, w, eps, seed, baseline)
    report = BssReport("candidate", eps, degree, degree, solver_report.status,
                       solver_report.iterations, steps,
                       quality=quality, degree_left=degree_left)
    return candidate, report


def _round(mu, w: SubspaceBasis, eps: float, seed: int, baseline):
    """The best verified candidate of the spectral `baseline` (the top
    rung's, below the target) and the structure trials, as (quality,
    candidate, structure steps, degree left); see `solve_bss`."""
    structure_eps = _default_structure_eps(eps, w.ambient)
    n = w.ambient
    target = 1.0 - eps * eps
    best = None if baseline is None else (baseline[0], baseline[1], 0, mu.degree)
    failure = None
    for trial in range(_ROUND_TRIALS):
        eps_t = min(_MAX_STRUCTURE_EPS,
                    structure_eps * _EPS_GROWTH ** (trial // _SEEDS_PER_LEVEL))
        try:
            out, _, trace = run_structure_2d(mu, eps_t, seed + trial)
        except (DegreeExhausted, RetryExhausted, IterLimit) as err:
            failure = err
            continue
        u0, _ = first_moments(out, 0, n)
        v0, _ = first_moments(out, n, n)
        scale = float(np.linalg.norm(u0) * np.linalg.norm(v0))
        if scale <= _ZERO_NORM:
            continue
        quality = projected_quality(w, np.outer(u0, v0))
        if best is None or quality > best[0]:
            best = (quality, RankOneCandidate(u0, v0, quality),
                    len(trace.records), out.degree)
        if quality >= target:
            break
    if best is None:
        raise ZeroCandidate(
            "every rounding trial failed; the relaxation is feasible but "
            "produced no direction") from failure
    return best


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class VerificationRecord:
    quality: float
    quality_via_complement: float
    acceptance: float | None
    acceptance_floor: float | None

    def ok(self) -> bool:
        agree = abs(self.quality - self.quality_via_complement) <= 1e-10
        if self.acceptance is None:
            return agree
        return agree and self.acceptance >= self.acceptance_floor - _ACCEPT_TOL


def verify_candidate(candidate: RankOneCandidate, w: SubspaceBasis,
                     measurement: MeasurementOperator | None = None
                     ) -> VerificationRecord:
    """Recompute the candidate's quality, and its acceptance if a
    measurement is given.

    Quality is computed twice (through the basis and through the
    complement) as a cross-check.  With a measurement, acceptance is
    Tr(M rho) for rho the normalized pure state of vec(u0 v0^T), which
    must reach 2*quality - 1 when W is the eigenvalue-1 eigenspace of M.
    """
    if candidate.u0.shape != (w.ambient,) or candidate.v0.shape != (w.ambient,):
        raise DimensionMismatch(
            f"candidate vectors {candidate.u0.shape}, {candidate.v0.shape} "
            f"do not match ambient {w.ambient}")
    mat = candidate.matrix
    total = float(np.linalg.norm(mat) ** 2)
    if total <= _ZERO_NORM ** 2:
        raise ZeroCandidate("candidate outer product has vanishing norm")
    quality = projected_quality(w, mat)
    comp_rows = np.array([c.reshape(-1) for c in w.complement_matrices()])
    if comp_rows.size:
        comp_mass = float(np.linalg.norm(comp_rows @ mat.reshape(-1)) ** 2)
    else:
        comp_mass = 0.0
    quality_comp = 1.0 - comp_mass / total
    acceptance = None
    floor = None
    if measurement is not None:
        if measurement.ambient != w.ambient:
            raise DimensionMismatch(
                f"measurement ambient {measurement.ambient} does not match "
                f"subspace ambient {w.ambient}")
        state = mat.reshape(-1) / math.sqrt(total)
        acceptance = float(state @ measurement.matrix @ state)
        floor = 2.0 * quality - 1.0
    return VerificationRecord(quality, quality_comp, acceptance, floor)


# -- complex-to-real reduction ------------------------------------------------


@dataclass(frozen=True)
class ComplexSubspace:
    """Subspace of C^{n x n} given by constraints <C_j + i D_j, X> = 0.

    The inner product conjugates the constraint side, so X = A + iB
    satisfies constraint j iff <C_j, A> + <D_j, B> = 0 and
    <D_j, A> - <C_j, B> = 0.
    """

    ambient: int
    pairs: tuple  # ((C, D), ...) real n x n pairs

    def __post_init__(self):
        n = self.ambient
        if n < 1:
            raise BadDims(f"ambient dimension must be positive, got {n}")
        for c, d in self.pairs:
            if c.shape != (n, n) or d.shape != (n, n):
                raise DimensionMismatch(
                    f"constraint pair shapes {c.shape}/{d.shape} do not "
                    f"match ambient {n}")
            if not (np.all(np.isfinite(c)) and np.all(np.isfinite(d))):
                raise IllFormed("constraint pair has non-finite entries")
        if self.pairs:
            rows = np.array([np.concatenate([c.reshape(-1), d.reshape(-1)])
                             for c, d in self.pairs])
            if np.linalg.matrix_rank(rows, tol=1e-10) < len(self.pairs):
                raise IllFormed("constraint pairs are linearly dependent")

    @property
    def num_constraints(self) -> int:
        return len(self.pairs)

    def constraint_matrices(self) -> tuple:
        return tuple(c + 1j * d for c, d in self.pairs)

    def residual(self, x: np.ndarray) -> float:
        """Largest constraint violation |<W_j, x>| over the pairs."""
        worst = 0.0
        for wj in self.constraint_matrices():
            worst = max(worst, abs(complex(np.sum(np.conj(wj) * x))))
        return worst

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the constraint null space."""
        x = np.asarray(x, dtype=complex)
        ortho: list[np.ndarray] = []
        for wj in self.constraint_matrices():
            v = wj.astype(complex)
            for u in ortho:
                v = v - np.sum(np.conj(u) * v) * u
            norm = float(np.linalg.norm(v))
            if norm > 1e-12:
                ortho.append(v / norm)
        out = x.copy()
        for u in ortho:
            out = out - np.sum(np.conj(u) * out) * u
        return out


def reduce_complex_to_real(wc: ComplexSubspace) -> SubspaceBasis:
    """Real 2n x 2n subspace whose members Y satisfy the lifted pairs.

    Y belongs iff A = Y11 + Y22 and B = Y21 - Y12 satisfy every real
    constraint pair of `wc`; the basis is the orthonormalized kernel of
    the lifted linear system.
    """
    n = wc.ambient
    m = 2 * n
    if not wc.pairs:
        eye = np.eye(m * m)
        return SubspaceBasis(m, tuple(eye[i].reshape(m, m)
                                      for i in range(m * m)))
    rows = []
    for c, d in wc.pairs:
        lift_re = np.block([[c, -d], [d, c]])
        lift_im = np.block([[d, c], [-c, d]])
        rows.append(lift_re.reshape(-1))
        rows.append(lift_im.reshape(-1))
    system = np.array(rows)
    _, s, vh = np.linalg.svd(system, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * max(s[0], 1.0)))
    kernel = vh[rank:]
    if kernel.shape[0] == 0:
        raise EmptySubspace("the lifted constraint system has no kernel")
    return SubspaceBasis(m, tuple(row.reshape(m, m) for row in kernel))


@dataclass(frozen=True)
class LiftResult:
    x: np.ndarray            # complex n x n member of the subspace
    u: np.ndarray            # complex left vector
    v: np.ndarray            # complex right vector
    residual: float          # ||x - u v*||_F
    bound: float             # certified upper bound on the residual
    block_residuals: tuple   # Frobenius norms of the four real deviation blocks
    quality_real: float      # recomputed quality of the real candidate


def lift_real_solution(candidate: RankOneCandidate,
                       wc: ComplexSubspace) -> LiftResult:
    """Map a real 2n-block candidate back to a complex rank-one.

    U = u1 + i u2 and V = v1 + i v2 come from the block halves; the
    returned x is the projection of U V* into the complex subspace, and
    the certified bound follows the deviation of the real candidate
    from the lifted subspace (which dominates sqrt(2) times it and is
    itself dominated by the four block residuals summed).
    """
    n = wc.ambient
    if candidate.u0.shape != (2 * n,) or candidate.v0.shape != (2 * n,):
        raise DimensionMismatch(
            f"candidate blocks {candidate.u0.shape} do not match a lift "
            f"from ambient {n}")
    u = candidate.u0[:n] + 1j * candidate.u0[n:]
    v = candidate.v0[:n] + 1j * candidate.v0[n:]
    scale = float(np.linalg.norm(u) * np.linalg.norm(v))
    if scale <= _ZERO_NORM:
        raise ZeroCandidate("candidate lifts to a vanishing product")
    uv_star = np.outer(u, np.conj(v))
    x = wc.project(uv_star)
    residual = float(np.linalg.norm(x - uv_star))

    lifted = reduce_complex_to_real(wc)
    y = candidate.matrix
    dev = y - lifted.project(y)
    blocks = (float(np.linalg.norm(dev[:n, :n])),
              float(np.linalg.norm(dev[:n, n:])),
              float(np.linalg.norm(dev[n:, :n])),
              float(np.linalg.norm(dev[n:, n:])))
    da = dev[:n, :n] + dev[n:, n:]
    db = dev[n:, :n] - dev[:n, n:]
    bound = float(math.hypot(np.linalg.norm(da), np.linalg.norm(db)))
    quality_real = 1.0 - float(np.linalg.norm(dev) ** 2
                               / np.linalg.norm(y) ** 2)
    return LiftResult(x, u, v, residual, bound, blocks, quality_real)


# -- instance generators ------------------------------------------------------


def planted_yes(n: int, dim_w: int, seed: int = 0):
    """Subspace of dimension dim_w containing a recorded unit u v^T.

    Returns (SubspaceBasis, u, v); the plant spans the first basis
    direction exactly.
    """
    if n < 1 or not 1 <= dim_w <= n * n:
        raise BadDims(f"need 1 <= dim_w <= n^2, got n={n}, dim_w={dim_w}")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    mats = [np.outer(u, v)]
    while True:
        extra = [rng.standard_normal((n, n)) for _ in range(dim_w - len(mats))]
        w = subspace_from_matrices(mats + extra, ambient=n)
        if w.dim == dim_w:
            return w, u, v
        mats = [b.copy() for b in w.basis]  # refill the dropped directions


@functools.lru_cache(maxsize=None)
def _sphere_grid(n: int, step: float):
    """Covering grid of the unit sphere with its geodesic radius.

    n=2 walks a half circle (antipodal points project identically);
    n=3 uses latitude rows with row-adaptive longitude counts.  The grid
    depends on (n, step) alone, so it is built once and its points are
    returned read-only.
    """
    if n == 2:
        count = max(2, math.ceil(math.pi / step))
        theta = np.arange(count) * (math.pi / count)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        radius = (math.pi / count) / 2.0
    elif n == 3:
        rows = max(2, math.ceil(math.pi / step))
        radius = h = math.pi / rows
        bands = []
        for j in range(rows):
            th = (j + 0.5) * h
            m = max(1, math.ceil(2.0 * math.pi * math.sin(th) / h))
            phi = np.arange(m) * (2.0 * math.pi / m)
            bands.append(np.column_stack([
                np.full(m, math.cos(th)),
                math.sin(th) * np.cos(phi),
                math.sin(th) * np.sin(phi)]))
        pts = np.concatenate(bands)
    else:
        raise BadDims(f"grid certification supports n in {{2, 3}}, got {n}")
    pts.flags.writeable = False
    return pts, radius


def _farness_at(w: SubspaceBasis, pts: np.ndarray) -> np.ndarray:
    """min over unit v of ||proj_{W-complement} u v^T||_F for each row u.

    With the orthonormal basis B of W the squared distance is
    1 - v^T G v for G = sum_B B^T u u^T B, so the best v is exact: the
    minimum is 1 - lambda_max(G), one batched n x n eigvalsh over the rows.
    """
    mapped = np.einsum("ui,kij->ukj", pts, np.array(w.basis))  # rows u^T B
    gram = np.einsum("uki,ukj->uij", mapped, mapped)
    return np.sqrt(np.maximum(1.0 - np.linalg.eigvalsh(gram)[:, -1], 0.0))


def _certificate_grid(n: int):
    return _sphere_grid(n, 0.01 if n == 2 else 0.05)


def certify_farness(w: SubspaceBasis) -> float:
    """Certified lower bound on the distance of W from unit rank-ones.

    The distance is min over unit u, v of ||proj_{W-complement} uv^T||_F.
    The best v for each u is exact (`_farness_at`), and that
    minimum over v is 1-Lipschitz and even in u, so a grid on u alone
    with geodesic covering radius r (step 0.01 on a half circle at n = 2,
    0.05 at n = 3) certifies grid_min - r.
    """
    pts, radius = _certificate_grid(w.ambient)
    return max(float(_farness_at(w, pts).min()) - radius, 0.0)


def _screen_rejects(w: SubspaceBasis) -> bool:
    """True when every _SCREEN_STRIDE-th point of the certificate's grid,
    copied contiguous, already brings W nearer than _MIN_FARNESS plus the
    grid radius to a unit rank-one."""
    pts, radius = _certificate_grid(w.ambient)
    sample = np.ascontiguousarray(pts[::_SCREEN_STRIDE])
    return float(_farness_at(w, sample).min()) - radius < _MIN_FARNESS


def _antisymmetric_part(mats):
    return [0.5 * (m - m.T) for m in mats]


def random_no(n: int, dim_w: int, seed: int = 0):
    """Random subspace certified _MIN_FARNESS-far from all unit rank-ones.

    Returns (SubspaceBasis, farness).  Up to _NO_TRIES draws are tried
    with a growing antisymmetric bias (antisymmetric spans capture at
    most half the norm of any rank-one), so certification at 0.5
    eventually succeeds when dim_w fits the antisymmetric dimension.

    Most draws fail, so each is screened first on every
    _SCREEN_STRIDE-th point of the certificate's grid, and only the
    draws it passes pay for `certify_farness`.  The screen changes no
    result.  `_farness_at` gives each point the same bits on the
    subsample as on the full grid, so the subsample's minimum is at
    least the grid's, and a draw the screen rejects the certificate
    rejects too.  Every draw is made before it is screened, so the
    generator advances as without the screen, and an accepted draw
    carries the full certificate's value.
    """
    if n < 1 or not 1 <= dim_w <= n * n:
        raise BadDims(f"need 1 <= dim_w <= n^2, got n={n}, dim_w={dim_w}")
    rng = np.random.default_rng(seed)
    for attempt in range(_NO_TRIES):
        tilt = min(1.0, attempt / 8.0)
        mats = [rng.standard_normal((n, n)) for _ in range(dim_w)]
        if tilt > 0.0:
            anti = _antisymmetric_part(mats)
            mats = [(1.0 - tilt) * m + tilt * a for m, a in zip(mats, anti)]
        try:
            w = subspace_from_matrices(mats, ambient=n)
        except EmptySubspace:
            continue
        if w.dim != dim_w or _screen_rejects(w):
            continue
        farness = certify_farness(w)
        if farness >= _MIN_FARNESS:
            return w, farness
    raise RetryExhausted(
        f"no subspace certified {_MIN_FARNESS}-far in {_NO_TRIES} draws "
        f"(n={n}, dim_w={dim_w})")


def complex_planted(n: int, dim_w: int, seed: int = 0):
    """Complex subspace of dimension dim_w containing a planted x y*.

    Returns (ComplexSubspace, x, y) where the subspace is encoded by
    its n^2 - dim_w orthonormal constraints.
    """
    if n < 1 or not 1 <= dim_w <= n * n:
        raise BadDims(f"need 1 <= dim_w <= n^2, got n={n}, dim_w={dim_w}")
    rng = np.random.default_rng(seed)

    def unit(size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z / np.linalg.norm(z)

    x = unit(n)
    y = unit(n)
    span = [np.outer(x, np.conj(y)).reshape(-1)]
    while len(span) < dim_w:
        cand = unit(n * n).astype(complex)
        for s in span:
            cand = cand - np.vdot(s, cand) * s
        norm = float(np.linalg.norm(cand))
        if norm > 1e-8:
            span.append(cand / norm)
    rows = np.array(span)
    # svd rows satisfy vdot(vh[j], s) = 0 for every s in the span once
    # j >= dim_w, which is exactly the <W_j, X> = 0 convention
    _, _, vh = np.linalg.svd(rows, full_matrices=True)
    constraints = vh[dim_w:]
    pairs = tuple((c.reshape(n, n).real.copy(), c.reshape(n, n).imag.copy())
                  for c in constraints)
    return ComplexSubspace(n, pairs), x, y


# -- text file formats --------------------------------------------------------


def write_subspace(path, w: SubspaceBasis) -> None:
    """Write 'SUBSPACE n k' followed by the k basis matrices."""
    write_blocks(path, f"SUBSPACE {w.ambient} {w.dim}", w.basis)


def read_subspace(path) -> SubspaceBasis:
    fh = BlockReader(path, "SUBSPACE", count=2)
    n, k = fh.header
    return SubspaceBasis(n, tuple(fh.take((n, n)) for _ in range(k)))


def write_measurement(path, measurement: MeasurementOperator) -> None:
    """Write 'MEASUREMENT n' followed by the n^2 x n^2 matrix."""
    write_blocks(path, f"MEASUREMENT {measurement.ambient}", [measurement.matrix])


def read_measurement(path) -> MeasurementOperator:
    fh = BlockReader(path, "MEASUREMENT", count=1)
    (n,) = fh.header
    return MeasurementOperator(fh.take((n * n, n * n)))


def write_complex_subspace(path, wc: ComplexSubspace) -> None:
    """Write 'CSUBSPACE n k' followed by the k constraint pairs (C, D)."""
    write_blocks(path, f"CSUBSPACE {wc.ambient} {wc.num_constraints}",
                 [m for pair in wc.pairs for m in pair])


def read_complex_subspace(path) -> ComplexSubspace:
    fh = BlockReader(path, "CSUBSPACE", count=2)
    n, k = fh.header
    return ComplexSubspace(
        n, tuple((fh.take((n, n)), fh.take((n, n))) for _ in range(k)))


__all__ = [
    "SubspaceBasis", "MeasurementOperator", "RankOneCandidate", "BssReport",
    "ComplexSubspace", "LiftResult", "VerificationRecord",
    "subspace_from_matrices", "measurement_to_subspace", "projected_quality",
    "solve_bss", "verify_candidate", "reduce_complex_to_real",
    "lift_real_solution",
    "planted_yes", "random_no", "complex_planted", "certify_farness",
    "write_subspace", "read_subspace", "write_measurement",
    "read_measurement", "write_complex_subspace", "read_complex_subspace",
]
