"""Tests for the dense helpers and the shared matrix-block text format."""

import numpy as np
import pytest

from rankone.errors import DimensionMismatch, IllFormed, NotPSD
from rankone.linalg import (
    BlockReader,
    gram_schmidt,
    project_onto,
    sample_gaussian,
    write_blocks,
)


# -- sample_gaussian ---------------------------------------------------------


def test_sample_gaussian_zero_covariance():
    rng = np.random.default_rng(809)
    x = sample_gaussian(4, np.zeros((4, 4)), rng)
    np.testing.assert_allclose(x, np.zeros(4), atol=0)


def test_sample_gaussian_empirical_covariance():
    """1e5 draws from N(0, I/n) match the covariance within 5% Frobenius."""
    rng = np.random.default_rng(810)
    n = 6
    cov = np.eye(n) / n
    draws = sample_gaussian(n, cov, rng, size=100_000)
    emp = draws.T @ draws / draws.shape[0]
    assert np.linalg.norm(emp - cov) < 0.05 * np.linalg.norm(cov)


def test_sample_gaussian_rank_one_covariance():
    """Samples from a rank-one covariance stay parallel to its direction."""
    rng = np.random.default_rng(811)
    v = np.array([3.0, 0.0, 4.0]) / 5.0
    draws = sample_gaussian(3, np.outer(v, v), rng, size=64)
    residual = draws - np.outer(draws @ v, v)
    assert np.abs(residual).max() < 1e-8


def test_sample_gaussian_rejects_indefinite():
    rng = np.random.default_rng(812)
    with pytest.raises(NotPSD):
        sample_gaussian(2, np.array([[1.0, 0.0], [0.0, -0.5]]), rng)


def test_sample_gaussian_deterministic_given_seed():
    cov = np.diag([1.0, 2.0])
    a = sample_gaussian(2, cov, np.random.default_rng(13), size=5)
    b = sample_gaussian(2, cov, np.random.default_rng(13), size=5)
    assert np.array_equal(a, b)


# -- project_onto ------------------------------------------------------------


def test_project_onto_full_space_is_identity():
    rng = np.random.default_rng(813)
    x = rng.standard_normal(5)
    np.testing.assert_allclose(project_onto(np.eye(5), x), x, atol=1e-12)


def test_project_onto_single_axis():
    x = np.array([3.0, 4.0])
    basis = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(project_onto(basis, x), [3.0, 0.0], atol=0)


def test_project_onto_pythagoras():
    """|x|^2 = |Px|^2 + |x - Px|^2 within 1e-10 for random subspaces."""
    rng = np.random.default_rng(814)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, n + 1))
        basis = np.column_stack(gram_schmidt(rng.standard_normal((k, n))))
        x = rng.standard_normal(n)
        px = project_onto(basis, x)
        assert abs(x @ x - (px @ px + (x - px) @ (x - px))) < 1e-10
        # projecting twice changes nothing
        np.testing.assert_allclose(project_onto(basis, px), px, atol=1e-10)


def test_project_onto_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        project_onto(np.eye(3), np.zeros(4))


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
