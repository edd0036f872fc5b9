"""Exception types shared across the package."""

__all__ = [
    "TrimatError",
    "ParseError",
    "SurfaceError",
    "PatternError",
    "TrichotomyError",
    "MappingError",
    "ReconstructionError",
    "BudgetExceededError",
]


class TrimatError(Exception):
    """Base class for all library errors."""


class ParseError(TrimatError, ValueError):
    """Malformed ``.tri`` / ``.imat`` / bijection input.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SurfaceError(TrimatError, ValueError):
    """An operation required a connected closed surface (or a vertex of one)
    and the input does not qualify."""


class PatternError(TrimatError, ValueError):
    """A triangle sequence does not realize the required intersection
    pattern, or a matrix fails a structural precondition."""


class TrichotomyError(TrimatError, RuntimeError):
    """A cycle realization matched none of the three known link types.

    This must never happen for genuine cycle realizations; raising instead
    of guessing keeps a would-be counterexample loud.
    """


class MappingError(TrimatError, ValueError):
    """A triangle bijection was rejected (size mismatch, not a permutation,
    or not intersection preserving where required)."""


class ReconstructionError(TrimatError, ValueError):
    """No triangulation of a closed surface realizes the given matrix."""


class BudgetExceededError(TrimatError, RuntimeError):
    """The reconstruction search hit its node budget before finishing."""
