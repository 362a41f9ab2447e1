"""Exception types shared across the package.

Domain errors carry a short ``code`` string that the CLI emits in its
machine-readable error objects.
"""


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
