"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; anything else is allowed to surface as a plain ValueError from
numpy or the standard library.
"""


class RankOneError(Exception):
    """Base class for all package-specific errors."""


# -- linear algebra ---------------------------------------------------------

class NotSymmetric(RankOneError):
    """Input matrix is not symmetric within tolerance."""


class NoConvergence(RankOneError):
    """An iterative solver stopped at its limit without an answer."""


class NotPSD(RankOneError):
    """A matrix required to be positive semidefinite has a negative
    eigenvalue beyond tolerance."""


class DimensionMismatch(RankOneError):
    """Operands have incompatible shapes."""


# -- pseudo-distributions ---------------------------------------------------

class DegreeExceeded(RankOneError):
    """A polynomial's degree exceeds what the moment table supports."""


class NotSOS(RankOneError):
    """A reweighting polynomial could not be certified as a sum of squares."""


class DegenerateWeight(RankOneError):
    """Reweighting polynomial has vanishing pseudo-expectation."""


class BadWeights(RankOneError):
    """Distribution weights are negative or do not sum to one."""


# -- reweighting pipeline ---------------------------------------------------

class DegreeExhausted(RankOneError):
    """The degree budget ran out before the fixing loop resolved."""


class RetryExhausted(RankOneError):
    """No sampled direction passed the acceptance event within budget."""


class PreconditionViolated(RankOneError):
    """A pipeline stage was invoked on input that violates its contract."""


# -- SDP solver -------------------------------------------------------------

class IterLimit(RankOneError):
    """Feasibility iteration limit reached without a verdict."""


class DegreeTooSmall(RankOneError):
    """Requested relaxation degree is below the minimum for the problem."""


class IllFormed(RankOneError):
    """Problem description is internally inconsistent."""


# -- separable-state front end ----------------------------------------------

class EmptySubspace(RankOneError):
    """No eigenvector cleared the measurement's eigenvalue threshold."""


class ZeroCandidate(RankOneError):
    """Candidate matrix is numerically zero and cannot be normalized."""


# -- rectangle finder -------------------------------------------------------

class Emptied(RankOneError):
    """A threshold round emptied the index set."""


class MaxRounds(RankOneError):
    """Rectangle search exceeded its round limit."""


class BadDims(RankOneError):
    """Factor matrices have incompatible dimensions."""
