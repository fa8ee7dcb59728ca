"""Small dense helpers and the matrix-block text format.

`gram_schmidt` orthonormalizes rows, `project_onto` projects onto the
span of orthonormal columns and `sample_gaussian` draws from a centred
Gaussian through an eigendecomposition of its covariance.

Every file the package reads or writes (SUBSPACE, MEASUREMENT,
CSUBSPACE, CANDIDATE/CCANDIDATE, FACTORS, PD) is one header line, a magic
word followed by integers, and then matrix blocks.  A block is a
`rows cols` line followed by one whitespace-separated row per line, each
entry written with repr so that it reads back exactly.  `write_blocks`
writes such a file and `BlockReader` reads one: it opens the file,
checks the magic word, parses the header integers, and hands out the
blocks one at a time, each checked against its expected shape.  Every
malformed file, a non-finite entry included, raises IllFormed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, IllFormed, NotPSD


def gram_schmidt(rows, drop_tol: float = 1e-10):
    """Orthonormalize a sequence of vectors (rows), dropping dependents.

    Modified Gram-Schmidt with one re-orthogonalization pass; a vector
    whose residual norm falls below drop_tol relative to its input norm
    is discarded.  Returns a list of unit vectors.
    """
    ortho: list[np.ndarray] = []
    for row in rows:
        v = np.asarray(row, dtype=float).copy()
        ref = max(float(np.linalg.norm(v)), 1.0)
        for _ in range(2):
            for u in ortho:
                v -= (u @ v) * u
        norm = float(np.linalg.norm(v))
        if norm > drop_tol * ref:
            ortho.append(v / norm)
    return ortho


def sample_gaussian(dim: int, covariance, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw from N(0, covariance) via the eigendecomposition transform.

    With t = max(1, trace): eigenvalues in [-1e-9 t, 1e-10 t] are taken
    as zero and anything lower raises NotPSD.  Returns shape (dim,) or
    (size, dim).
    """
    cov = np.asarray(covariance, dtype=float)
    if cov.shape != (dim, dim):
        raise DimensionMismatch(f"covariance shape {cov.shape} does not match dim {dim}")
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    scale = max(1.0, float(np.trace(cov)))
    if vals.size and float(vals[0]) < -1e-9 * scale:
        raise NotPSD(f"covariance has eigenvalue {vals[0]:.3e} below -{1e-9 * scale:.3e}")
    root = np.sqrt(np.where(vals > 1e-10 * scale, vals, 0.0))
    if size is None:
        return vecs @ (root * rng.standard_normal(dim))
    return (rng.standard_normal((size, dim)) * root) @ vecs.T


def project_onto(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the span of orthonormal columns."""
    basis = np.asarray(basis, dtype=float)
    x = np.asarray(x, dtype=float)
    if basis.ndim != 2 or x.ndim != 1 or basis.shape[0] != x.shape[0]:
        raise DimensionMismatch(
            f"basis shape {basis.shape} incompatible with vector shape {x.shape}")
    if basis.shape[1] == 0:
        return np.zeros_like(x)
    return basis @ (basis.T @ x)


def write_blocks(path, header: str, blocks) -> None:
    """Write the header line, then each matrix as a `rows cols` block."""
    lines = [header]
    for block in blocks:
        a = np.atleast_2d(np.asarray(block, dtype=float))
        if not np.all(np.isfinite(a)):
            raise IllFormed("refusing to write non-finite entries")
        lines.append(f"{a.shape[0]} {a.shape[1]}")
        lines.extend(" ".join(repr(float(x)) for x in row) for row in a)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class BlockReader:
    """A block-format file, read from its header onward.

    `kind` is the magic word, one of `magics`; `header` holds the
    `count` integers that follow it.  Each `take(shape)` returns the next
    block.
    """

    def __init__(self, path, *magics: str, count: int):
        with open(path) as fh:
            self._tokens = fh.read().split()
        if not self._tokens or self._tokens[0] not in magics:
            raise IllFormed(f"expected a {' or '.join(magics)} header")
        self.kind = self._tokens[0]
        try:
            self.header = [int(t) for t in self._tokens[1:1 + count]]
        except ValueError as exc:
            raise IllFormed(f"bad {self.kind} header: {exc}") from None
        if len(self.header) != count:
            raise IllFormed(f"{self.kind} header needs {count} integers")
        self._pos = 1 + count

    def take(self, shape) -> np.ndarray:
        """The next block, which must have this shape and finite entries."""
        tokens, pos = self._tokens, self._pos
        try:
            rows, cols = int(tokens[pos]), int(tokens[pos + 1])
            entries = [float(t) for t in tokens[pos + 2:pos + 2 + rows * cols]]
        except (ValueError, IndexError) as exc:
            raise IllFormed(f"malformed matrix block: {exc}") from None
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise IllFormed(f"matrix block truncated at token {pos}")
        if (rows, cols) != tuple(shape):
            raise IllFormed(
                f"{self.kind} block shape {(rows, cols)}, expected {tuple(shape)}")
        block = np.array(entries).reshape(rows, cols)
        if not np.all(np.isfinite(block)):
            raise IllFormed(f"{self.kind} block at token {pos} has non-finite entries")
        self._pos = pos + 2 + rows * cols
        return block


__all__ = ["gram_schmidt", "sample_gaussian", "project_onto", "write_blocks", "BlockReader"]
