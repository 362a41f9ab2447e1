"""Exact elements of the tropical and the sign hyperfield.

Tropical values live in logarithmic coordinates: ``TropValue.log(e)``
denotes the positive real exp(e) for an exact rational exponent ``e``,
and ``TropValue.zero()`` is the absorbing zero.  The base of the
logarithm is irrelevant (everything below only adds and compares
exponents), so all computation is exact rational arithmetic; this is
what keeps Newton-polygon slopes and division results closed under the
algorithms in :mod:`hyperpoly.tropical`.  A ``TropValue`` stores its
exponent as a reduced pair of ints, numerator and positive denominator,
and does its arithmetic on the pair; ``exponent`` builds the
``Fraction`` only when asked, and ``TropValue._from_scaled(v, L)``
decodes an exponent v / L with one gcd.

Sign values are the plain integers -1, 0 and 1; integer multiplication
restricted to them is already the right product.

Hyperadditions are multi-valued.  The tropical sum of a list is either
a single value or the full interval [0, max], captured by
:class:`TropSubset`; the sign sum is one of {0}, {1}, {-1} or the whole
field, captured by a plain ``frozenset`` of ints.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Iterable
from fractions import Fraction

from .errors import EmptySumError, ResultTooLarge

__all__ = [
    "TropValue",
    "TropSubset",
    "TROP_ZERO",
    "TROP_ONE",
    "trop_hyperadd",
    "trop_contains",
    "trop_hyperadd_subset",
    "SIGN_ELEMENTS",
    "SIGN_ALL",
    "sign_hyperadd",
    "sign_hyperadd_subset",
    "TropicalField",
    "SignField",
    "TROPICAL",
    "SIGN",
    "field_by_name",
]


class _Record:
    """Immutable value with equality, hash and repr over its ``__slots__``.

    Instances compare equal only to instances of the same type with equal
    fields; assignment and deletion raise ``AttributeError``.  Subclasses
    set their fields in ``__init__`` through ``object.__setattr__``.  Each
    subclass gets its field getter, ``_fields``, built once.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TropValue(_Record):
    """A tropical number: exp(exponent), or the zero when ``exponent`` is None.

    The exponent is kept as two ints, its numerator and denominator in
    lowest terms with the denominator positive, both None for the zero;
    ``exponent`` builds its ``Fraction`` on request.  Products, inverses
    and comparisons work on the pairs, and ``polynomials._scaled`` reads
    them as they are.  The total order puts zero below every finite value
    and orders finite values by exponent; multiplication adds exponents
    and is absorbed by zero.  Negation is the identity (every tropical
    number is its own additive inverse).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, exponent: Fraction | None = None):
        num, den = (None, None) if exponent is None else exponent.as_integer_ratio()
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _from_scaled(cls, v: int | None, scale: int) -> "TropValue":
        """The value with exponent v / scale, for a scale > 0; None is the zero."""
        if v is None:
            return TROP_ZERO
        new = cls.__new__(cls)
        g = math.gcd(v, scale)
        _set_num(new, v // g)
        _set_den(new, scale // g)
        return new

    @property
    def exponent(self) -> Fraction | None:
        return None if self._den is None else Fraction(self._num, self._den)

    @classmethod
    def zero(cls) -> "TropValue":
        return cls(None)

    @classmethod
    def log(cls, e) -> "TropValue":
        if isinstance(e, float):
            raise ValueError("tropical exponents must be exact rationals, not floats")
        return cls(e if type(e) in (int, Fraction) else Fraction(e))

    @classmethod
    def coerce(cls, x) -> "TropValue":
        """Accept a TropValue, None or "zero" (the zero), or any Fraction input."""
        if isinstance(x, TropValue):
            return x
        if x is None:
            return cls(None)
        if isinstance(x, str) and x.strip() == "zero":
            return cls(None)
        return cls.log(x)

    @property
    def is_zero(self) -> bool:
        return self._den is None

    def __mul__(self, other: "TropValue") -> "TropValue":
        a, b = self._den, other._den
        if a is None or b is None:
            return TROP_ZERO
        return TropValue._from_scaled(self._num * b + other._num * a, a * b)

    def inv(self) -> "TropValue":
        if self._den is None:
            raise ZeroDivisionError("the tropical zero has no multiplicative inverse")
        return TropValue._from_scaled(-self._num, self._den)

    def __truediv__(self, other: "TropValue") -> "TropValue":
        return self * other.inv()

    def __neg__(self) -> "TropValue":
        return self

    def __lt__(self, other: "TropValue") -> bool:
        if self._den is None:
            return other._den is not None
        if other._den is None:
            return False
        return self._num * other._den < other._num * self._den

    # The order is total, so >, <= and >= are each one call of __lt__, looked
    # up on the class at call time so that a wrapper installed there counts it.
    def __gt__(self, other: "TropValue") -> bool:
        return TropValue.__lt__(other, self)

    def __le__(self, other: "TropValue") -> bool:
        return not TropValue.__lt__(other, self)

    def __ge__(self, other: "TropValue") -> bool:
        return not TropValue.__lt__(self, other)

    def sort_key(self):
        if self._den is None:
            return (0, Fraction(0))
        return (1, self.exponent)

    def __str__(self) -> str:
        if self._den is None:
            return "zero"
        num = exact_str(self._num)
        return num if self._den == 1 else f"{num}/{exact_str(self._den)}"

    def __repr__(self) -> str:
        return f"TropValue({self})"


# the slots' own setters, which skip _Record.__setattr__ as object.__setattr__
# does but without its lookup by name
_set_num, _set_den = TropValue._num.__set__, TropValue._den.__set__

TROP_ZERO = TropValue(None)
TROP_ONE = TropValue(0)


class TropSubset(_Record):
    """Value of a tropical hypersum: a singleton {top} or the interval [0, top].

    The two descriptions of {0} (singleton zero and degenerate interval)
    denote the same set; construction normalizes both to the interval
    form, so that two subsets are equal exactly when they denote the same
    set.
    """

    __slots__ = ("top", "interval")

    def __init__(self, top: TropValue, interval: bool):
        if top.is_zero and not interval:
            interval = True
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "interval", interval)

    @classmethod
    def singleton(cls, v: TropValue) -> "TropSubset":
        return cls(v, False)

    @classmethod
    def closed_interval(cls, top: TropValue) -> "TropSubset":
        return cls(top, True)

    def contains(self, x: TropValue) -> bool:
        return x <= self.top if self.interval else x == self.top

    def scale(self, u: TropValue) -> "TropSubset":
        return TropSubset(self.top * u, self.interval)

    def __str__(self) -> str:
        return f"[0, {self.top}]" if self.interval else f"{{{self.top}}}"


def trop_hyperadd(values: Iterable[TropValue]) -> TropSubset:
    """Multi-valued sum over the tropical hyperfield.

    Returns the singleton {max} when the maximum is attained exactly
    once, and the interval [0, max] when it is attained at least twice.
    """
    vs = list(values)
    if not vs:
        raise EmptySumError("hyperaddition needs at least one summand")
    top = max(vs)
    repeated = sum(1 for v in vs if v._num == top._num and v._den == top._den) >= 2
    return TropSubset(top, repeated)


def trop_contains(c: TropValue, summands: Iterable[TropValue]) -> bool:
    """Membership c in the hypersum of ``summands``.

    Equivalent to: the maximum of {c} and the summands is attained at
    least twice, counting c itself.
    """
    return trop_hyperadd(summands).contains(c)


def trop_hyperadd_subset(a: TropValue, s: TropSubset) -> TropSubset:
    """Union of a + d over all d in s, in closed form.

    For an interval [0, x] the union is {a} when a > x (a dominates every
    member) and [0, x] otherwise.
    """
    if not s.interval:
        return trop_hyperadd([a, s.top])
    if a > s.top:
        return TropSubset(a, False)
    return TropSubset(s.top, True)


SIGN_ELEMENTS = (-1, 0, 1)
SIGN_ALL = frozenset(SIGN_ELEMENTS)


def sign_hyperadd(values: Iterable[int]) -> frozenset:
    """Multi-valued sum over the sign hyperfield.

    {0} when all summands are zero, {s} when every summand lies in
    {0, s} for one nonzero sign s, and the whole field when both signs
    occur.
    """
    vs = list(values)
    if not vs:
        raise EmptySumError("hyperaddition needs at least one summand")
    has_pos = 1 in vs
    has_neg = -1 in vs
    if has_pos and has_neg:
        return SIGN_ALL
    if has_pos:
        return frozenset((1,))
    if has_neg:
        return frozenset((-1,))
    return frozenset((0,))


def sign_hyperadd_subset(a: int, s: frozenset) -> frozenset:
    """Union of a + d over all d in s."""
    out = frozenset()
    for d in s:
        out |= sign_hyperadd([a, d])
    return out


class TropicalField:
    """Operation table of the tropical hyperfield, in log coordinates."""

    name = "tropical"
    finite = False

    zero = TROP_ZERO
    one = TROP_ONE

    @staticmethod
    def is_zero(x: TropValue) -> bool:
        return x.is_zero

    @staticmethod
    def mul(a: TropValue, b: TropValue) -> TropValue:
        return a * b

    @staticmethod
    def neg(a: TropValue) -> TropValue:
        return a

    @staticmethod
    def inv(a: TropValue) -> TropValue:
        return a.inv()

    @staticmethod
    def hyperadd(values) -> TropSubset:
        return trop_hyperadd(values)

    @staticmethod
    def hyperadd_subset(a, s) -> TropSubset:
        return trop_hyperadd_subset(a, s)

    @staticmethod
    def subset_contains(s: TropSubset, x: TropValue) -> bool:
        return s.contains(x)

    @staticmethod
    def contains(c: TropValue, terms) -> bool:
        return trop_contains(c, terms)

    @staticmethod
    def sort_key(x: TropValue):
        return x.sort_key()

    @staticmethod
    def format_element(x: TropValue) -> str:
        return str(x)

    @staticmethod
    def parse_element(text: str) -> TropValue:
        text = text.strip()
        if len(text) > MAX_NUMERAL_DIGITS or "e" in text or "E" in text:
            _check_numeral_size(text)
        return TropValue.coerce(text)

    @staticmethod
    def element_to_json(x: TropValue):
        return str(x)

    def __repr__(self):
        return "TROPICAL"


# Python's default limit on int <-> str conversions: a larger numerator or
# denominator could be parsed but never printed
MAX_NUMERAL_DIGITS = 4300


def exact_str(x) -> str:
    """``str(x)`` for an int or Fraction, or ResultTooLarge past the digit
    limit, which values computed from inputs within it can exceed."""
    try:
        return str(x)
    except ValueError:
        raise ResultTooLarge("the result has a numerator or denominator of more than "
                             f"{MAX_NUMERAL_DIGITS} digits") from None


# a superset of the decimal numerals Fraction accepts; compiled on first use
_DECIMAL = r"[-+]?(?P<int>[\d_]*)(?:\.(?P<frac>[\d_]*))?(?:[eE](?P<exp>[-+]?[\d_]+))?"


def _check_numeral_size(text: str) -> None:
    """Refuse a decimal numeral whose numerator or denominator, before
    reduction, would have more than MAX_NUMERAL_DIGITS digits.

    This runs before ``Fraction`` sees the text, because ``Fraction``
    expands an exponent in full: ``1e100000000`` would build
    10**100000000.  The caller skips numerals that are short and have no
    exponent; ``int`` refuses over-long digit runs itself.
    """
    m = re.fullmatch(_DECIMAL, text)
    if m is None:  # "zero", p/q, or not a number: Fraction decides
        return
    frac = (m["frac"] or "").replace("_", "")
    mantissa = (m["int"].replace("_", "") + frac).lstrip("0")
    shift = int((m["exp"] or "0").replace("_", "")) - len(frac)
    numerator = max(len(mantissa), 1) + max(shift, 0)
    denominator = 1 + max(-shift, 0)
    if max(numerator, denominator) > MAX_NUMERAL_DIGITS:
        raise ValueError(f"numerator or denominator exceeds {MAX_NUMERAL_DIGITS} digits")


class SignField:
    """Operation table of the sign hyperfield on the integers -1, 0, 1."""

    name = "sign"
    finite = True

    zero = 0
    one = 1
    elements = SIGN_ELEMENTS

    @staticmethod
    def is_zero(x: int) -> bool:
        return x == 0

    @staticmethod
    def mul(a: int, b: int) -> int:
        return a * b

    @staticmethod
    def neg(a: int) -> int:
        return -a

    @staticmethod
    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return a

    @staticmethod
    def hyperadd(values) -> frozenset:
        return sign_hyperadd(values)

    @staticmethod
    def hyperadd_subset(a, s) -> frozenset:
        return sign_hyperadd_subset(a, s)

    @staticmethod
    def subset_contains(s: frozenset, x: int) -> bool:
        return x in s

    @staticmethod
    def contains(c: int, terms) -> bool:
        """c in the hypersum of ``terms``: a nonzero c must occur among them,
        and 0 lies in it when both signs occur or neither does."""
        if not terms:
            raise EmptySumError("hyperaddition needs at least one summand")
        return c in terms if c else (1 in terms) == (-1 in terms)

    @staticmethod
    def sort_key(x: int):
        return x

    @staticmethod
    def format_element(x: int) -> str:
        return str(x)

    @staticmethod
    def parse_element(text: str) -> int:
        v = int(text.strip())
        if v not in SIGN_ELEMENTS:
            raise ValueError(f"sign values are -1, 0 or 1, got {str(v)[:20]}")
        return v

    @staticmethod
    def element_to_json(x: int):
        return x

    def __repr__(self):
        return "SIGN"


TROPICAL = TropicalField()
SIGN = SignField()

_FIELDS = {"tropical": TROPICAL, "sign": SIGN}


def field_by_name(name: str):
    try:
        return _FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown field {name!r}; use 'tropical' or 'sign'") from None
