"""Exception types raised by the public API.

All inherit from ValueError so generic callers can catch one base class;
the specific subclasses exist because callers (and tests) branch on them.
"""


class TsphnnError(ValueError):
    """Base class for all library errors."""


class InstanceSizeError(TsphnnError):
    """Instance has fewer than 3 cities."""


class DegenerateInstanceError(TsphnnError):
    """All pairwise distances are zero; normalization is undefined."""


class ParseError(TsphnnError):
    """Instance file could not be parsed; message carries line/field context."""


class InvalidTourError(TsphnnError):
    """Sequence is not a permutation of 0..n-1 or has the wrong length."""


class InvalidTourMatrixError(TsphnnError):
    """Matrix is not a permutation matrix.

    ``condition`` names the first violated check: "count" (the matrix is
    not square), "row" (some row is not a single 1 among 0s) or "column".
    """

    def __init__(self, message: str, condition: str):
        super().__init__(message)
        self.condition = condition


class EnumerationTooLargeError(TsphnnError):
    """Exact search was requested beyond the n <= 12 guard."""


class InvalidTemperatureError(TsphnnError):
    """Temperature must be strictly positive."""


class InvalidArgumentError(TsphnnError):
    """Argument outside its documented range."""
