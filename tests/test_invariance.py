"""The same verdict on every copy of an instance.

Whether W holds a rank-one matrix, and how far each unit rank-one lies
from W, do not change under a change of W's orthonormal basis, under
B -> O1 B O2^T for orthogonal O1 and O2, or under the transpose
B -> B^T.  So each planted instance must be hit on every copy.  The
copies' rotations are drawn from default_rng(1000 + seed), fixed before
any result was seen.
"""

import numpy as np
import pytest

from rankone.bss import SubspaceBasis, planted_yes, solve_bss

EPS = 0.05
COPIES = ("original", "basis", "rotated", "transposed")


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def copy_of(w, seed, kind):
    """The copy `kind` of W, with O1, O2 and the dim_w x dim_w basis change
    drawn in that order from default_rng(1000 + seed)."""
    n = w.ambient
    rng = np.random.default_rng(1000 + seed)
    o1, o2, q = orthogonal(rng, n), orthogonal(rng, n), orthogonal(rng, w.dim)
    mats = {"original": w.basis,
            "basis": tuple(np.tensordot(q, np.array(w.basis), 1)),
            "rotated": tuple(o1 @ b @ o2.T for b in w.basis),
            "transposed": tuple(b.T for b in w.basis)}[kind]
    return SubspaceBasis(n, mats)


def cases():
    for n in (3, 4):
        for dim_w in range(1, n * n):
            for seed in range(8):
                for kind in COPIES:
                    yield pytest.param(n, dim_w, seed, kind,
                                       id=f"{n}-{dim_w}-{seed}-{kind}")


@pytest.mark.parametrize("n, dim_w, seed, kind", cases())
def test_every_copy_of_a_plant_is_hit(n, dim_w, seed, kind):
    """planted_yes(n, dim_w, seed) for n in {3, 4}, every dim_w < n^2 and
    seeds 0-7, at eps 0.05 and degree 4: the original and each copy gets
    a candidate that meets 1 - eps^2, on W's own copy."""
    w = copy_of(planted_yes(n, dim_w, seed)[0], seed, kind)
    cand, rep = solve_bss(w, EPS, degree=4)
    assert rep.status == "candidate"
    assert rep.quality >= 1.0 - EPS ** 2
    assert rep.quality == cand.quality
