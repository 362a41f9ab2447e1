"""Element arithmetic and multi-valued sums of the two hyperfields."""

import re
from fractions import Fraction
from itertools import product as iter_product

import pytest

from hyperpoly import (
    EmptySumError,
    SIGN,
    SIGN_ALL,
    TROP_ONE,
    TROP_ZERO,
    TROPICAL,
    TropSubset,
    TropValue,
    parse_element,
    sign_hyperadd,
    trop_contains,
    trop_hyperadd,
)

L = TropValue.log


def test_trop_order_and_zero():
    assert TROP_ZERO < L(-100)
    assert L(0) < L(1)
    assert L(Fraction(1, 2)) < L(1)
    assert not TROP_ZERO < TROP_ZERO
    assert max([TROP_ZERO, L(2), L(-3)]) == L(2)


def test_trop_multiplication_adds_exponents():
    assert L(1) * L(2) == L(3)
    assert TROP_ZERO * L(5) == TROP_ZERO
    assert L(5) * TROP_ZERO == TROP_ZERO
    assert L(3) * TROP_ONE == L(3)
    assert L(Fraction(1, 2)) * L(Fraction(1, 3)) == L(Fraction(5, 6))


def test_trop_inverse():
    assert L(3).inv() == L(-3)
    with pytest.raises(ZeroDivisionError):
        TROP_ZERO.inv()


def test_trop_self_inverse():
    assert -L(5) == L(5)
    assert TROPICAL.neg(L(-2)) == L(-2)


def test_trop_hyperadd_distinct_maximum():
    assert trop_hyperadd([L(0), L(1)]) == TropSubset.singleton(L(1))


def test_trop_hyperadd_repeated_maximum():
    assert trop_hyperadd([L(1), L(1), L(0)]) == TropSubset.closed_interval(L(1))


def test_trop_hyperadd_degenerate_interval():
    # [zero, zero] gives the set {0}, equal under either description
    assert trop_hyperadd([TROP_ZERO, TROP_ZERO]) == TropSubset.closed_interval(TROP_ZERO)
    assert TropSubset.singleton(TROP_ZERO) == TropSubset.closed_interval(TROP_ZERO)


def test_trop_hyperadd_empty():
    with pytest.raises(EmptySumError):
        trop_hyperadd([])


def test_trop_contains():
    assert trop_contains(L(1), [L(0), L(1)])
    assert not trop_contains(L(2), [L(1), L(1)])
    # zero belongs to every interval [0, a]
    assert trop_contains(TROP_ZERO, [L(1), L(1)])
    assert not trop_contains(TROP_ZERO, [L(1), L(0)])


def test_field_contains_matches_the_hypersum():
    # each field's membership test decides c in the hypersum without building it
    trop_values = (TROP_ZERO, L(0), L(1))
    for field, values, hyperadd in ((SIGN, (-1, 0, 1), sign_hyperadd),
                                    (TROPICAL, trop_values, trop_hyperadd)):
        for n in range(1, 5):
            for terms in iter_product(values, repeat=n):
                for c in values:
                    assert field.contains(c, list(terms)) == \
                        field.subset_contains(hyperadd(terms), c), (c, terms)
        with pytest.raises(EmptySumError):
            field.contains(field.zero, [])


def test_subset_membership():
    s = trop_hyperadd([L(1), L(1)])
    assert s.contains(L(Fraction(1, 2)))
    assert s.contains(TROP_ZERO)
    assert not s.contains(L(2))
    t = trop_hyperadd([L(0), L(2)])
    assert t.contains(L(2))
    assert not t.contains(L(0))


def test_sign_hyperadd_table():
    assert sign_hyperadd([1, -1]) == SIGN_ALL
    assert sign_hyperadd([1, 0, 1]) == frozenset({1})
    assert sign_hyperadd([0, 0]) == frozenset({0})
    assert sign_hyperadd([-1, 0, -1]) == frozenset({-1})
    with pytest.raises(EmptySumError):
        sign_hyperadd([])


def test_sign_multiplication():
    assert SIGN.mul(-1, -1) == 1
    assert SIGN.mul(0, -1) == 0
    with pytest.raises(ZeroDivisionError):
        SIGN.inv(0)


def test_element_serialization_round_trip():
    for v in (TROP_ZERO, L(0), L(-3), L(Fraction(7, 2))):
        assert TROPICAL.parse_element(TROPICAL.format_element(v)) == v
    for s in (-1, 0, 1):
        assert SIGN.parse_element(SIGN.format_element(s)) == s
    assert TROPICAL.format_element(TROP_ZERO) == "zero"
    assert TROPICAL.format_element(L(Fraction(1, 2))) == "1/2"
    with pytest.raises(ValueError):
        SIGN.parse_element("2")
    with pytest.raises(ValueError):
        TropValue.coerce(0.5)


def test_log_refuses_floats_like_coerce():
    for make in (TropValue.log, TropValue.coerce):
        with pytest.raises(ValueError, match="exact rationals, not floats"):
            make(0.5)
    assert L(-2).exponent == Fraction(-2)
    assert L(Fraction(1, 2)).exponent == Fraction(1, 2)
    assert L("3/4").exponent == Fraction(3, 4)
    assert TropValue(0.5).exponent == 0.5  # the raw constructor checks nothing


def test_tropical_numerals_past_the_digit_limit_are_refused():
    # ordinary numerals parse as before; a numeral whose numerator or
    # denominator would have more than 4300 digits is refused unbuilt
    assert TROPICAL.parse_element("1/2") == L(Fraction(1, 2))
    assert TROPICAL.parse_element("-3") == L(-3)
    assert TROPICAL.parse_element("0.5") == L(Fraction(1, 2))
    assert TROPICAL.parse_element(" zero ") == TROP_ZERO
    assert TROPICAL.parse_element("2.5E3") == L(2500)
    assert TROPICAL.parse_element("1_0e1_0") == L(10 ** 11)
    assert TROPICAL.parse_element("1e4299") == L(10 ** 4299)
    assert TROPICAL.parse_element("1e-4299") == L(Fraction(1, 10 ** 4299))
    for text in ("1e4300", "1e-4300", "1.5e-4299", "0e5000", "1e100000000", "-1e-100000000"):
        with pytest.raises(ValueError, match="4300 digits"):
            TROPICAL.parse_element(text)


def test_numerals_past_the_int_digit_limit_are_refused_on_both_fields():
    # a run of more than 4300 digits, leading zeros included, is refused
    # with the library's own message, before int() or Fraction refuses it
    # with Python's; numerals up to the limit keep their values
    zeros = "0" * 4299
    assert SIGN.parse_element(f" -{zeros}1 ") == -1
    assert SIGN.parse_element("_".join(zeros + "1")) == 1  # underscores are no digits
    assert TROPICAL.parse_element(zeros + "1") == L(1)
    assert TROPICAL.parse_element(f"1/{zeros}3") == L(Fraction(1, 3))
    assert TROPICAL.parse_element(f"1e{zeros}1") == L(10)
    assert TROPICAL.parse_element("_".join("1" * 4300)) == L(int("1" * 4300))
    for field, text, run in ((SIGN, "1" * 5000, "1"), (SIGN, "0" * 5000 + "1", "0"),
                             (TROPICAL, "0" * 5000 + "1", "0"), (TROPICAL, "1" * 5000, "1"),
                             (TROPICAL, "1/" + "0" * 5000 + "1", "0"),
                             (TROPICAL, "1e" + "0" * 5000 + "1", "0")):
        message = f"numerals have at most 4300 digits in a row, got {run * 20!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            field.parse_element(text)
        with pytest.raises(ValueError, match=re.escape(
                f"bad {field.name} value {text[:20]!r}: {message}") + "$"):
            parse_element(text, field)
