"""Moment tables of finitely supported distributions, built exactly in
NumPy, so the tests can check the moment path against the atoms, dense
polynomials written down from {exponent: coefficient} literals, and the
top-rung tables that `solve_bss` rounds."""

import numpy as np

from rankone import bss
from rankone.errors import DegreeExceeded
from rankone.pseudodist import MonomialIndex, PseudoDistribution, monomial_index


def atom_table(points, weights, degree, constraints=()):
    """The degree-`degree` moment table y_a = sum_i w_i x_i^a of the
    distribution with weight w_i on the atom x_i (a row of `points`; 1-d
    points mean one variable), as a plain PseudoDistribution."""
    points = np.asarray(points, dtype=float)
    points = points.reshape(len(points), -1)
    weights = np.asarray(weights, dtype=float)
    assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-9, weights
    index = monomial_index(points.shape[1], degree)
    moments = weights @ np.prod(points[:, None, :] ** index.exponents, axis=2)
    moments[0] = 1.0
    return PseudoDistribution(index, moments, degree, tuple(constraints))


def dense_poly(index: MonomialIndex, terms: dict, degree: int) -> np.ndarray:
    """Coefficient vector of the polynomial written as {exponent:
    coefficient} literals, over the monomials of degree <= degree.
    Raises DegreeExceeded when a term does not fit."""
    count = index.count_through(degree)
    out = np.zeros(count)
    for e, c in terms.items():
        if c == 0.0:
            continue
        i = index.index_of(e)
        if i >= count:
            raise DegreeExceeded(f"monomial {e} above degree {degree}")
        out[i] += c
    return out


def root_tables(cases):
    """For each (n, dim_w, seed, eps, degree) of `cases`, the arguments
    (table, W, eps, seed, scored spectral candidates) that `bss._round`
    receives from solve_bss(planted_yes(n, dim_w, seed)[0], eps,
    degree=degree), with the solve's (candidate, report): the tables
    the structure trials start from.  Every case must reach `_round`."""
    found = []
    round_ = bss._round

    def recording(*args):
        found.append(args)
        return round_(*args)
    bss._round = recording
    try:
        solves = [bss.solve_bss(bss.planted_yes(n, dim_w, seed)[0], eps, degree=degree)
                  for n, dim_w, seed, eps, degree in cases]
    finally:
        bss._round = round_
    assert len(found) == len(cases), cases
    return list(zip(found, solves))
