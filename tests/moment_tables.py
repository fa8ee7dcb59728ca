"""Moment tables of finitely supported distributions, built exactly in
NumPy, so the tests can check the moment path against the atoms, and
dense polynomials written down from {exponent: coefficient} literals."""

import numpy as np

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
