"""Tests for Gram-Schmidt and the shared matrix-block text format."""

import numpy as np
import pytest

from rankone.errors import IllFormed
from rankone.linalg import BlockReader, gram_schmidt, write_blocks


# -- gram_schmidt ------------------------------------------------------------


def test_gram_schmidt_drops_dependent_vectors():
    rows = [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 1.0])]
    ortho = gram_schmidt(rows)
    assert len(ortho) == 2
    g = np.array(ortho)
    np.testing.assert_allclose(g @ g.T, np.eye(2), atol=1e-10)


def test_gram_schmidt_orthonormality_random():
    rng = np.random.default_rng(815)
    rows = rng.standard_normal((6, 9))
    g = np.array(gram_schmidt(rows))
    np.testing.assert_allclose(g @ g.T, np.eye(6), atol=1e-10)


def gram_schmidt_reference(rows):
    """gram_schmidt with every norm taken by np.linalg.norm."""
    ortho = []
    for row in rows:
        v = np.asarray(row, dtype=float).copy()
        ref = max(float(np.linalg.norm(v)), 1.0)
        for _ in range(2):
            for u in ortho:
                v -= (u @ v) * u
        norm = float(np.linalg.norm(v))
        if norm > 1e-10 * ref:
            ortho.append(v / norm)
    return ortho


def test_gram_schmidt_bit_identical_to_linalg_norm():
    """The square root of v . v is what np.linalg.norm evaluates for a
    real vector: random rows, rows with dependents among them, and rows
    scaled by 1e-300 and 1e300, whose squared norms underflow or
    overflow, give the same vectors bit for bit."""
    rng = np.random.default_rng(817)
    for _ in range(50):
        count, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        rows = rng.standard_normal((count, n)) * rng.uniform(0.01, 100.0)
        mixed = rng.standard_normal((count, count)) @ rows
        dependent = np.vstack([rows, mixed, 2.5 * rows[:1]])
        for case in (rows, dependent, rows * 1e-300, rows * 1e300,
                     np.vstack([rows, rows * 1e-300, rows * 1e300])):
            with np.errstate(over="ignore"):
                got, ref = gram_schmidt(case), gram_schmidt_reference(case)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                np.testing.assert_array_equal(g, r)


# -- matrix text format ------------------------------------------------------


def test_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(816)
    a = rng.standard_normal((3, 5))
    path = tmp_path / "m.txt"
    write_blocks(path, "M 1", [a])
    b = BlockReader(path, "M", count=1).take((3, 5))
    assert np.array_equal(a, b)
    first = path.read_bytes()
    write_blocks(path, "M 1", [b])
    assert path.read_bytes() == first


def test_matrix_text_header(tmp_path):
    path = tmp_path / "m.txt"
    write_blocks(path, "M 7 2", [np.zeros((2, 3)), np.ones((1, 1))])
    assert path.read_text().splitlines() == [
        "M 7 2", "2 3", "0.0 0.0 0.0", "0.0 0.0 0.0", "1 1", "1.0"]
    fh = BlockReader(path, "X", "M", count=2)
    assert (fh.kind, fh.header) == ("M", [7, 2])
    assert fh.take((2, 3)).shape == (2, 3)
    assert fh.take((1, 1))[0, 0] == 1.0


def test_matrix_text_rejects_bad_payload(tmp_path):
    path = tmp_path / "m.txt"
    for text in ("M 1\n2 2\n1.0 2.0\n3.0\n",      # truncated block
                 "M 1\n2 2\n1.0 2.0\n3.0 x\n",    # non-numeric entry
                 "M 1\n2 2\n1.0 nan\n3.0 4.0\n",  # non-finite entries
                 "M 1\n2 2\n1.0 2.0\n3.0 -inf\n",
                 "M 1\n1 4\n1.0 2.0 3.0 4.0\n"):  # wrong shape
        path.write_text(text)
        with pytest.raises(IllFormed):
            BlockReader(path, "M", count=1).take((2, 2))
    for text in ("N 1\n", "M\n", "M x\n", ""):    # bad header
        path.write_text(text)
        with pytest.raises(IllFormed):
            BlockReader(path, "M", count=1)
    with pytest.raises(IllFormed):
        write_blocks(path, "M 1", [np.array([[1.0, np.nan]])])


def test_write_blocks_keeps_the_element_wise_repr_bytes(tmp_path):
    """Rows formatted from `tolist()` give the bytes of the element-wise
    `repr(float(x))` writer, on awkward values, an int array and a 1-D
    input, and they read back bit for bit."""
    blocks = [np.array([[-0.0, 5e-324, 1e16], [1e-5, 0.1 + 0.2, 2.0**53 + 2]]),
              np.arange(-3, 3).reshape(2, 3),
              np.array([0.1, -2.5, 1e300])]
    path = tmp_path / "m.txt"
    write_blocks(path, "M 3", blocks)
    lines = ["M 3"]
    for block in blocks:
        a = np.atleast_2d(np.asarray(block, dtype=float))
        lines.append(f"{a.shape[0]} {a.shape[1]}")
        lines.extend(" ".join(repr(float(x)) for x in row) for row in a)
    assert path.read_text() == "\n".join(lines) + "\n"
    reader = BlockReader(path, "M", count=1)
    for block in blocks:
        a = np.atleast_2d(np.asarray(block, dtype=float))
        assert reader.take(a.shape).tobytes() == a.tobytes()
