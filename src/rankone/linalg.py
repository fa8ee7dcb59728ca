"""Gram-Schmidt orthonormalization and the matrix-block text format.

Every file the package reads or writes (SUBSPACE, MEASUREMENT,
CSUBSPACE, CANDIDATE/CCANDIDATE, FACTORS) is one header line, a magic
word followed by integers, and then matrix blocks.  A block is a
`rows cols` line followed by one whitespace-separated row per line, each
entry written with repr so that it reads back exactly.  `write_blocks`
writes such a file and `BlockReader` reads one: it opens the file,
checks the magic word, parses the header integers, and hands out the
blocks one at a time, each checked against its expected shape.  Every
malformed file, a non-finite entry included, raises IllFormed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IllFormed

_DROP_TOL = 1e-10          # relative residual below which a row is dependent


def gram_schmidt(rows):
    """Orthonormalize a sequence of vectors (rows), dropping dependents.

    Modified Gram-Schmidt with one re-orthogonalization pass; a vector
    whose residual norm falls below 1e-10 relative to its input norm is
    discarded.  Returns a list of unit vectors.
    """
    ortho: list[np.ndarray] = []
    for row in rows:
        v = np.asarray(row, dtype=float).copy()
        ref = max(math.sqrt(v.dot(v)), 1.0)
        for _ in range(2):
            for u in ortho:
                v -= (u @ v) * u
        norm = math.sqrt(v.dot(v))
        if norm > _DROP_TOL * ref:
            ortho.append(v / norm)
    return ortho


def write_blocks(path, header: str, blocks) -> None:
    """Write the header line, then each matrix as a `rows cols` block."""
    lines = [header]
    for block in blocks:
        a = np.atleast_2d(np.asarray(block, dtype=float))
        if not np.all(np.isfinite(a)):
            raise IllFormed("refusing to write non-finite entries")
        lines.append(f"{a.shape[0]} {a.shape[1]}")
        lines.extend(" ".join(map(repr, row)) for row in a.tolist())
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
            entries = np.array(tokens[pos + 2:pos + 2 + rows * cols], dtype=float)
        except (ValueError, IndexError) as exc:
            raise IllFormed(f"malformed matrix block: {exc}") from None
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise IllFormed(f"matrix block truncated at token {pos}")
        if (rows, cols) != tuple(shape):
            raise IllFormed(
                f"{self.kind} block shape {(rows, cols)}, expected {tuple(shape)}")
        block = entries.reshape(rows, cols)
        if not np.all(np.isfinite(block)):
            raise IllFormed(f"{self.kind} block at token {pos} has non-finite entries")
        self._pos = pos + 2 + rows * cols
        return block


__all__ = ["gram_schmidt", "write_blocks", "BlockReader"]
