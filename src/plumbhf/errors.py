"""Exception types shared across the package."""


class PlumbingError(Exception):
    """Base class for every error this package raises deliberately."""


class BadIdError(PlumbingError):
    """An edge endpoint is not a valid vertex id."""


class DuplicateEdgeError(PlumbingError):
    """The same unordered edge appears twice."""


class CycleDetectedError(PlumbingError):
    """The edge set does not form a forest (self-loop or cycle)."""


class CycleCreatedError(PlumbingError):
    """A degree-2 blow-down would create a multi-edge or loop."""


class OutOfRangeError(PlumbingError):
    """Continued-fraction expansion requested for a value >= -1."""


class NotCoprimeError(PlumbingError):
    """Multiplicities are not pairwise coprime."""


class NonNegDefiniteError(PlumbingError):
    """A negative-definite intersection form was required."""


class TooManyBadVerticesError(PlumbingError):
    """The counting algorithm needs at most one bad vertex."""


class ParseError(PlumbingError):
    """A graph file does not match the expected schema."""
