"""Exception types raised by the public API, and its argument checks.

All inherit from ValueError so generic callers can catch one base class;
the specific subclasses exist because callers (and tests) branch on them.
Each integer argument (a count, seed or position) passes :func:`check_int`,
each real one (a penalty, temperature, rate, bound or coordinate)
:func:`check_real`, and each config record that a library entry point takes
:func:`check_record`.  Each refuses with :class:`InvalidArgumentError`,
a temperature with its subclass :class:`InvalidTemperatureError`, and the
generator's ``bound`` with the plain :class:`TsphnnError` its callers
match.
"""

import math
import numbers
import operator


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


class InvalidArgumentError(TsphnnError):
    """Argument of the wrong type or outside its documented range."""


class InvalidTemperatureError(InvalidArgumentError):
    """Temperature must be strictly positive and finite."""


def check_int(name: str, value, low: int, high: int = None) -> int:
    """``value`` as an ``int`` in [low, high], a None end being open.  Python
    and NumPy integers pass, through ``operator.index``; floats do not."""
    try:
        number = operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and number < low:
        raise InvalidArgumentError(f"{name} must be >= {low}, got {number}")
    if high is not None and number > high:
        raise InvalidArgumentError(f"{name} must be <= {high}, got {number}")
    return number


def _range_words(low, high, closed: bool) -> str:
    """How a refusal of :func:`check_real` words its range."""
    if high is not None:
        return f"in {'[' if closed else '('}{low:g}, {high:g})"
    if low is None:
        return "finite"
    return f"{'nonnegative' if closed else 'positive'} and finite"


def check_real(
    name: str, value, low=None, high=None, *, closed: bool = False, error=InvalidArgumentError
) -> float:
    """``value`` as a finite ``float`` in a range: any with no ends given,
    above ``low`` = 0 (or at least 0 when ``closed``), or between ``low``
    and ``high``, both excluded unless ``closed`` takes ``low`` in.
    Python and NumPy real numbers pass, through ``float``; strings, None,
    arrays, NaN, infinities and integers past the largest float do not.
    ``error`` is the type of the refusal."""
    number = value
    if type(value) is not float:
        if not isinstance(value, numbers.Real):
            raise error(f"{name} must be a real number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            words = _range_words(low, high, closed)
            raise error(f"{name} must be {words}, got a number past the largest float") from None
    if (
        not math.isfinite(number)
        or (low is not None and (number < low if closed else number <= low))
        or (high is not None and number >= high)
    ):
        raise error(f"{name} must be {_range_words(low, high, closed)}, got {number}")
    return number


def check_record(name: str, value, kind: type) -> None:
    """Refuse ``value`` unless it is a ``kind`` record, such as a config."""
    if not isinstance(value, kind):
        raise InvalidArgumentError(
            f"{name} must be a {kind.__name__}, got {type(value).__name__}"
        )
