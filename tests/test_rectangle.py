"""Tests for the rank-one rectangle finder.

Oracles: the stopping test is re-verified with a direct SVD of the
|I| x |I| submatrix, identical and orthonormal column families have
known exact outcomes, and the first-round survivor density is checked
against the exp(-O(k)) band by Monte Carlo.
"""

import numpy as np
import pytest

from rankone.errors import (
    BadDims,
    DimensionMismatch,
    Emptied,
    IllFormed,
    MaxRounds,
)
from rankone.rectangle import (
    FactorMatrix,
    default_k,
    find_rectangle,
    random_factors,
    read_factors,
    write_factors,
)


def submatrix(u, v, indices):
    return u.vectors[indices] @ v.vectors[indices].T


def spectral_ok(u, v, indices, eps):
    # the stopping test, recomputed from scratch on the actual submatrix
    sv = np.linalg.svd(submatrix(u, v, indices), compute_uv=False)
    return eps * eps * sv[0] ** 2 >= float(np.sum(sv[1:] ** 2)) - 1e-10


# ---------------------------------------------------------- factor matrices


def test_factor_matrix_accepts_unit_rows():
    fm = FactorMatrix(np.eye(3))
    assert fm.n == 3 and fm.count == 3


def test_factor_matrix_rejects_bad_shapes():
    with pytest.raises(BadDims):
        FactorMatrix(np.ones(4) / 2.0)
    with pytest.raises(BadDims):
        FactorMatrix(np.empty((0, 3)))


def test_factor_matrix_rejects_non_unit_rows():
    with pytest.raises(IllFormed):
        FactorMatrix(2.0 * np.eye(3))


def test_normalized_scales_rows():
    fm = FactorMatrix.normalized([[3.0, 4.0], [0.0, -2.0]])
    assert np.allclose(np.linalg.norm(fm.vectors, axis=1), 1.0)
    assert np.allclose(fm.vectors[0], [0.6, 0.8])


def test_normalized_rejects_zero_row():
    with pytest.raises(IllFormed):
        FactorMatrix.normalized([[1.0, 0.0], [0.0, 0.0]])


def test_random_factors_shape_and_determinism():
    a = random_factors(5, 40, seed=3)
    b = random_factors(5, 40, seed=3)
    assert a.vectors.shape == (40, 5)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.allclose(np.linalg.norm(a.vectors, axis=1), 1.0)
    with pytest.raises(BadDims):
        random_factors(0, 10)


def test_default_k_grows_with_dimension_and_precision():
    assert default_k(4, 0.5) >= 1
    assert default_k(16, 0.3) > default_k(4, 0.3)
    assert default_k(16, 0.1) > default_k(16, 0.3)


# ------------------------------------------------------------------ search


def test_identical_columns_stop_immediately():
    vec = np.ones(5) / np.sqrt(5.0)
    fm = FactorMatrix(np.tile(vec, (40, 1)))
    res = find_rectangle(fm, fm, eps=0.3, k=2)
    assert res.rounds == 0
    assert res.indices.size == 40
    assert res.rank_one_distance < 1e-8


def test_sign_split_family_is_already_rank_one():
    # antipodal pair +-v: the submatrix entries follow a sign pattern,
    # so the spectrum is rank one and the search stops at round zero
    v = np.array([0.6, 0.8])
    rows = np.array([v, -v, v, -v, v, v, -v, v, -v, -v])
    fm = FactorMatrix(rows)
    res = find_rectangle(fm, fm, eps=0.2, k=2)
    assert res.rounds == 0
    assert res.rank_one_distance < 1e-8


def test_orthonormal_families_concentrate_on_one_class():
    rng = np.random.default_rng(11)
    basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    labels = rng.integers(0, 4, size=400)
    fm = FactorMatrix(basis[labels])
    res = find_rectangle(fm, fm, eps=0.3, k=2, seed=1)
    assert len(set(labels[res.indices])) == 1
    assert res.rank_one_distance < 1e-8
    assert spectral_ok(fm, fm, res.indices, 0.3)


def test_random_columns_symmetric_search():
    fm = random_factors(16, 2000, seed=0)
    res = find_rectangle(fm, fm, eps=0.3, k=3, seed=0, restarts=256)
    assert res.indices.size >= 20
    assert res.rank_one_distance <= 0.3
    assert spectral_ok(fm, fm, res.indices, 0.3)


def test_two_sided_search_on_distinct_factors():
    u = random_factors(8, 600, seed=5)
    v = random_factors(8, 600, seed=6)
    res = find_rectangle(u, v, eps=0.45, k=2, seed=2, restarts=64)
    assert res.indices.size >= u.n + 4
    assert spectral_ok(u, v, res.indices, 0.45)


def test_result_logs_match_rounds():
    fm = random_factors(8, 600, seed=1)
    res = find_rectangle(fm, fm, eps=0.4, k=2, seed=3, restarts=64)
    assert len(res.densities) == res.rounds == len(res.growth)
    # densities shrink strictly and stay in (0, 1]
    dens = (1.0,) + res.densities
    assert all(b < a for a, b in zip(dens, dens[1:]))
    assert all(0.0 < d <= 1.0 for d in res.densities)
    assert all(b > 0.0 and a > 0.0 for a, b in res.growth)


def test_search_is_deterministic_per_seed():
    fm = random_factors(8, 400, seed=2)
    r1 = find_rectangle(fm, fm, eps=0.4, k=2, seed=7, restarts=64)
    r2 = find_rectangle(fm, fm, eps=0.4, k=2, seed=7, restarts=64)
    assert np.array_equal(r1.indices, r2.indices)
    assert r1.rank_one_distance == r2.rank_one_distance
    assert r1.densities == r2.densities


def test_mismatched_factors_are_rejected():
    u = random_factors(4, 30)
    with pytest.raises(DimensionMismatch):
        find_rectangle(u, random_factors(4, 20), eps=0.3)
    with pytest.raises(DimensionMismatch):
        find_rectangle(u, random_factors(5, 30), eps=0.3)


def test_bad_parameters_are_rejected():
    fm = random_factors(4, 30)
    with pytest.raises(IllFormed):
        find_rectangle(fm, fm, eps=0.0)
    with pytest.raises(IllFormed):
        find_rectangle(fm, fm, eps=1.0)
    with pytest.raises(IllFormed):
        find_rectangle(fm, fm, eps=0.3, k=0)
    with pytest.raises(IllFormed):
        find_rectangle(fm, fm, eps=0.3, k=float("nan"))
    with pytest.raises(IllFormed, match="max_rounds"):
        find_rectangle(fm, fm, eps=0.3, max_rounds=-1)
    with pytest.raises(IllFormed, match="restarts"):
        find_rectangle(fm, fm, eps=0.3, restarts=0)


def test_round_budget_exhaustion_raises():
    fm = random_factors(16, 500, seed=4)
    with pytest.raises(MaxRounds):
        find_rectangle(fm, fm, eps=0.05, k=1, max_rounds=0, restarts=2)


def test_tied_scores_empty_every_draw():
    # two antipodal caps have identical two-sided scores, so no draw can
    # split them and every retry is a no-op
    a = np.array([1.0, 1.0]) / np.sqrt(2.0)
    b = np.array([1.0, -1.0]) / np.sqrt(2.0)
    rows = np.array([a, b] * 10)
    fm = FactorMatrix(rows)
    with pytest.raises(Emptied):
        find_rectangle(fm, fm, eps=0.2, k=2, restarts=2)


def test_first_round_density_stays_in_band():
    # survivor fraction of a sqrt(k)-sigma cut lies in [e^-4k, e^-k/4]
    fm = random_factors(16, 4000, seed=3)
    cols = fm.vectors
    dev = cols - cols.mean(axis=0)
    cov = dev.T @ dev / cols.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    rng = np.random.default_rng(0)
    for k in (1, 3, 6):
        cut = np.sqrt(k) * np.linalg.norm(cov)
        dens = [
            float(np.mean(np.abs(dev @ (root @ rng.standard_normal(16))) >= cut))
            for _ in range(1000)
        ]
        mean = float(np.mean(dens))
        assert np.exp(-4.0 * k) <= mean <= np.exp(-k / 4.0)


# -------------------------------------------------------------------- files


def test_factors_round_trip(tmp_path):
    fm = random_factors(4, 12, seed=8)
    path = tmp_path / "cols.txt"
    write_factors(path, fm)
    back = read_factors(path)
    assert np.array_equal(back.vectors, fm.vectors)


def test_read_factors_rejects_corrupt_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("NOTFACTORS 2 2\n")
    with pytest.raises(IllFormed):
        read_factors(bad)
    short = tmp_path / "short.txt"
    short.write_text("FACTORS 2 2\n2 2\n1.0 0.0\n")
    with pytest.raises(IllFormed):
        read_factors(short)
