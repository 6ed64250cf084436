"""Exception types shared across the toolkit."""


class HJHolderError(Exception):
    """Base class for all toolkit errors."""


class DomainError(HJHolderError):
    """An argument is outside the mathematical domain of the operation."""


class EmptyIntersection(HJHolderError):
    """A cylinder contains no grid node."""


class WindowTooSmall(HJHolderError):
    """A brute-force search window did not contain the maximizer."""


class EmptyBoundary(HJHolderError):
    """No admissible boundary candidate (s < t) exists."""


class SearchFailed(HJHolderError):
    """A constant search ended without a certificate: its iteration budget ran
    out, or its numbers left the float range."""


class CflViolation(HJHolderError):
    """The stable time step fell below the hard floor."""


class Blowup(HJHolderError):
    """Solution values left the admissible range during time stepping."""


class GridTooSmall(HJHolderError):
    """Too few nodes to form the requested finite differences."""


class BoundaryOrderingFailed(HJHolderError):
    """Comparison premise lower <= upper fails on the parabolic boundary."""


class DegenerateData(HJHolderError):
    """Not enough usable samples for a fit."""


class Infeasible(HJHolderError):
    """No parameter value satisfies all active constraints."""


class PreconditionFailed(HJHolderError):
    """A documented precondition of an iteration was violated."""
