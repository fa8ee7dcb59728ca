"""Moment tables of finitely supported distributions, built exactly in
NumPy, so the tests can check the moment path against the atoms."""

import numpy as np

from rankone.pseudodist import PseudoDistribution, monomial_index


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
