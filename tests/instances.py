"""Fixed subspaces with known rank-one structure, for the tests."""

import numpy as np

from rankone.bss import SubspaceBasis


def tiles_complement():
    """The orthogonal complement, in 3 x 3 matrices, of the Tiles
    unextendible product basis (Bennett, DiVincenzo, Mor, Shor, Smolin &
    Terhal, PRL 82, 5385, 1999): five orthonormal products a b^T that no
    further product is orthogonal to.  So the dim-4 complement holds no
    rank-one matrix; `certify_farness` puts it 0.1190 from every unit
    one, a 1 vs 1 - eps instance for every eps below that."""
    e = np.eye(3)
    minus = lambda i, j: (e[i] - e[j]) / np.sqrt(2.0)
    flat = np.ones(3) / np.sqrt(3.0)
    products = [(e[0], minus(0, 1)), (minus(0, 1), e[2]), (e[2], minus(1, 2)),
                (minus(1, 2), e[0]), (flat, flat)]
    upb = SubspaceBasis(3, tuple(np.outer(a, b) for a, b in products))
    return SubspaceBasis(3, upb.complement_matrices())
