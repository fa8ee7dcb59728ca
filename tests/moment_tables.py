"""Moment tables of finitely supported distributions, built exactly in
NumPy, so the tests can check the moment path against the atoms, dense
polynomials written down from {exponent: coefficient} literals, and the
top-rung tables that the structure trials of `solve_bss` start from."""

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
    (table, W, eps, scored spectral candidates) that the structure
    trials of solve_bss(planted_yes(n, dim_w, seed)[0], eps,
    degree=degree) start from when every polish misses: the top rung's
    converged table.  The rung is
    solved directly, with no accept hook; a hook that declines every
    check changes no iterate, so the table is the one `solve_bss` would
    hold there.  Every case's top rung must converge to a table whose
    spectral candidates miss 1 - eps^2."""
    found = []
    for n, dim_w, seed, eps, degree in cases:
        w = bss.planted_yes(n, dim_w, seed)[0]
        mu, report = bss.solve_feasibility(bss.build_bss_problem(w, degree))
        scored = bss._spectral_rounding(mu, w)
        assert report.status == "feasible" and scored[0][0] < 1.0 - eps * eps, (n, dim_w, seed)
        found.append((mu, w, eps, scored))
    return found
