"""Exception types raised by the public API, and its argument checks.

All inherit from ValueError so generic callers can catch one base class;
the specific subclasses exist because callers (and tests) branch on them.
Each integer argument (a count, seed or position) passes :func:`check_int`,
each real one (a penalty, temperature, rate, bound or coordinate)
:func:`check_real`, each name from a fixed set (a method, success metric
or report format) :func:`check_choice`, and each record or path that a
library entry point takes :func:`check_record`.  Each refuses with
:class:`InvalidArgumentError`, a temperature with its subclass
:class:`InvalidTemperatureError`, and the generator's ``bound`` with the
plain :class:`TsphnnError` its callers match.

A refusal shows the caller's value through :func:`quote`, which never
fails on that value and keeps the message short, however long or large
the value is.
"""

import math
import numbers
import operator
import reprlib


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


_SHOWN = 40  # characters of a long string, and digits of an integer
_LONGEST = 100
_HUGE = 10**_SHOWN


class _Quote(reprlib.Repr):
    """reprlib's cut of long and deep containers, which never renders one
    whole, with :func:`quote`'s forms of a string, an integer and the rest."""

    def __init__(self):
        super().__init__()
        self.maxlevel = 3
        self.maxtuple = self.maxlist = self.maxarray = self.maxdeque = 12
        self.maxdict = self.maxset = self.maxfrozenset = 12

    def repr_str(self, x, level):
        return repr(x[:_SHOWN]) + ("..." if len(x) > _SHOWN else "")

    def repr_int(self, x, level):
        if -_HUGE < x < _HUGE:
            return repr(x)
        # Never converted to a string: past 4,300 digits that raises.
        return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"

    def repr_instance(self, x, level):
        return repr(x)


_QUOTE = _Quote()


def quote(value) -> str:
    """How a refusal shows a caller's value: its ``repr`` when that is
    short, a string cut to its first 40 characters and ``...``, an integer
    of more than 40 digits as its size in bits, and a container cut after
    its first 12 items or 3 levels, as :mod:`reprlib` cuts it (which also
    sorts a dict's keys and a set's items).  No quote is longer than 103
    characters, and a value whose ``repr`` raises is named by its type.
    Never raises."""
    try:
        text = _QUOTE.repr(value)
    except Exception:
        return f"<{type(value).__name__}>"
    return text if len(text) <= _LONGEST else text[:_LONGEST] + "..."


def check_int(name: str, value, low: int, high: int = None) -> int:
    """``value`` as an ``int`` in [low, high], a None end being open.  Python
    and NumPy integers pass, through ``operator.index``; floats do not."""
    try:
        number = operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {quote(value)}") from None
    if low is not None and number < low:
        raise InvalidArgumentError(f"{name} must be >= {low}, got {quote(number)}")
    if high is not None and number > high:
        raise InvalidArgumentError(f"{name} must be <= {high}, got {quote(number)}")
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
            raise error(f"{name} must be a real number, got {quote(value)}")
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


def check_choice(name: str, value, choices) -> None:
    """Refuse ``value`` unless it is one of the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise InvalidArgumentError(f"unknown {name} {quote(value)}; have {', '.join(choices)}")


def record_refusal(name: str, value, kind) -> InvalidArgumentError:
    """The refusal of a ``value`` that is not a ``kind`` record, or not of
    one of the types in a tuple ``kind``."""
    kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    article = "an" if kinds[0] in "AEIOUaeiou" else "a"
    return InvalidArgumentError(f"{name} must be {article} {kinds}, got {type(value).__name__}")


def check_record(name: str, value, kind) -> None:
    """Refuse ``value`` unless it is a ``kind`` record, such as a config, or
    of one of the types in a tuple ``kind``."""
    if not isinstance(value, kind):
        raise record_refusal(name, value, kind)
