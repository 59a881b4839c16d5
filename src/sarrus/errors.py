"""Exception types shared across the library."""

from __future__ import annotations


# the characters of a value's repr that an error text quotes
_QUOTE_WIDTH = 40


def _quoted(value) -> str:
    """repr(value), cut to its first _QUOTE_WIDTH characters and a count of
    the rest, so that an error line stays short whatever the value."""
    text = repr(value)
    if len(text) <= _QUOTE_WIDTH:
        return text
    return f"{text[:_QUOTE_WIDTH]}... ({len(text) - _QUOTE_WIDTH} more characters)"


class SarrusError(Exception):
    """Base class for all library errors."""


class SizeMismatch(SarrusError):
    """Two objects that must share a size n do not."""


class IndexOutOfRange(SarrusError):
    """A 1-based index fell outside {1..n}."""


class ChainMismatch(SarrusError):
    """Consecutive blocks cannot share a column.

    Carries the 0-based index of the junction that failed.
    """

    def __init__(self, junction: int, message: str | None = None):
        self.junction = junction
        super().__init__(message or f"blocks {junction} and {junction + 1} do not share a column")


class InvalidWindow(SarrusError):
    """A window repeats a column index and is not a permutation.

    Carries the 1-based start position of the offending window.
    """

    def __init__(self, start: int, message: str | None = None):
        self.start = start
        super().__init__(message or f"window at start {start} is not a permutation")


class InvalidScheme(SarrusError):
    """A scheme failed validation where a valid one is required."""


class SizeLimitExceeded(SarrusError):
    """A factorial-time operation was asked for an n beyond its guard."""


# 10! terms is desk scale; 11! is not.
_FACTORIAL_LIMIT = 10


def _int_n(n, what: str) -> None:
    # a bool or an integral float equals an int, but is no size
    if type(n) is not int:
        raise ValueError(f"{what} needs an int n, got {_quoted(n)}")


def _guard(n: int, what: str, cost: str = "expands n! terms", limit: int = _FACTORIAL_LIMIT):
    if n > limit:
        raise SizeLimitExceeded(f"{what} {cost}; n = {n} exceeds the limit of {limit}")


class UnsupportedSize(SarrusError):
    """A built-in constructor does not exist for this n."""


class SizeTooSmall(SarrusError):
    """n is below the smallest size the operation is defined for."""


class NotFound(SarrusError):
    """The scheme search found no valid scheme: the classes are undersized
    (n = 2), or the result failed validation."""


class VerificationFailed(SarrusError):
    """A generated scheme failed validation or an oracle comparison."""


class ParseError(SarrusError):
    """A matrix file could not be parsed.

    ``line`` and ``column`` are 1-based; column is the field index within
    the line (0 when the error is not tied to a single field).
    """

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class NonSquare(SarrusError, ValueError):
    """A matrix's rows are not all as wide as there are rows. A ValueError
    too, as ``Matrix`` raises it."""
