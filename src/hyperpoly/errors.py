"""Exception types shared across the package.

Domain errors carry a short ``code`` string that the CLI emits in its
machine-readable error objects.  ``_quoted`` is the one bounded quote of
a value in an error message.
"""

from fractions import Fraction


def _quoted(token) -> str:
    """The repr of a token cut to 20 characters, so that an error about a
    huge token stays short: a string is cut before quoting, and an int or
    a Fraction converts only the digits that show."""
    if isinstance(token, str):
        return repr(token[:20])
    if isinstance(token, Fraction):
        return f"Fraction({_leading(token.numerator)}, {_leading(token.denominator)})"[:20]
    if isinstance(token, int) and not isinstance(token, bool):
        return _leading(token)
    return repr(token)[:20]


def _leading(n: int) -> str:
    """str(n) cut to 20 characters: n loses all but at least 21 leading
    digits first (a b-bit n has more than (b - 1) * 3 // 10 digits)."""
    excess = (abs(n).bit_length() - 1) * 3 // 10 - 20
    if excess > 0:
        n = -(-n // 10 ** excess) if n < 0 else n // 10 ** excess
    return str(n)[:20]


class HyperfieldError(Exception):
    """Base class for domain errors raised by the library."""

    code = "Error"


class EmptySumError(HyperfieldError):
    """A hyperaddition was requested for an empty list of summands."""

    code = "EmptySum"


class ZeroOperandError(HyperfieldError):
    """A zero operand was passed where a nonzero one is required."""

    code = "ZeroOperand"


class DegreeBoundExceeded(HyperfieldError):
    """An exhaustive enumeration was requested above the configured bound."""

    code = "DegreeBoundExceeded"


class NotARootError(HyperfieldError):
    """Division by T - a was requested although a is not a root."""

    code = "NotARoot"


class ConstantPolynomialError(HyperfieldError):
    """A root or factorization operation needs degree at least one."""

    code = "ConstantPolynomial"


class ResultTooLarge(HyperfieldError):
    """A result has a numerator or denominator too long to print."""

    code = "ResultTooLarge"


class InternalInvariantError(HyperfieldError):
    """An internal consistency check failed; indicates a bug, not bad input."""

    code = "InternalInvariantViolated"


class PolynomialParseError(ValueError):
    """Malformed polynomial or element text."""

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column
