"""Exception hierarchy for construction, precondition, and search failures."""


class HellyPlaneError(Exception):
    """Base class for all library errors."""


class NotSymmetric(HellyPlaneError):
    """Vertex set is not invariant under negation."""


class NotConvexBody(HellyPlaneError):
    """Hull is degenerate or the origin is not strictly inside."""


class NotPolygonal(HellyPlaneError):
    """Operation requires a polygonal unit ball."""


class ZeroDirection(HellyPlaneError):
    """A direction vector must be nonzero."""


class HypothesisFailed(HellyPlaneError):
    """Input does not satisfy the hypothesis the construction needs."""


class EvenCardinality(HellyPlaneError):
    """The vector family must have odd size."""


class TooFew(HellyPlaneError):
    """The vector family is too small."""


class BadK(HellyPlaneError):
    """Subset size k must be odd, greater than 3, and at most n."""


class NotOnBoundary(HellyPlaneError):
    """Vectors must lie exactly on the unit sphere of the norm."""


class NotUnitVectors(HellyPlaneError):
    """Vectors must have norm 1."""


class HalfplaneViolated(HellyPlaneError):
    """Vectors must lie in the closed halfplane of the given direction."""


class BadInput(HellyPlaneError, ValueError):
    """Malformed input data: not JSON, a missing key, an unparsable value."""


class PreconditionFailed(HellyPlaneError):
    """Generic precondition violation with a message."""


class TheoremFalsified(HellyPlaneError):
    """A statement the library treats as proven failed on concrete data.

    This must never fire; if it does, either the implementation is wrong or
    the statement is false, and both need a human look.
    """


class EpsilonTooLarge(HellyPlaneError):
    """Perturbation neighbourhoods would leave the unit ball."""


class SamplingExhausted(HellyPlaneError):
    """Rejection sampling exceeded its retry budget."""


class SearchBudgetExceeded(HellyPlaneError):
    """An iterative search hit its iteration cap before verifying a witness."""


class UnknownCase(HellyPlaneError):
    """No gallery fixture with that name."""


class UnknownSuite(HellyPlaneError):
    """No verification suite with that name."""
