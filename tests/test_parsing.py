"""Round trips and error reporting for the text and JSON syntaxes."""

import random
import time
from fractions import Fraction

import pytest

from hyperpoly import (
    Polynomial,
    PolynomialParseError,
    SIGN,
    TROPICAL,
    TropValue,
    format_polynomial,
    parse_polynomial,
    poly_from_json,
    poly_to_json_dict,
    sign_poly,
    trop_poly,
)


def test_sign_shorthand():
    assert parse_polynomial("T^2 - T + 1", "sign") == sign_poly([1, -1, 1])
    assert parse_polynomial("T^3+T^2+T+1", SIGN) == sign_poly([1, 1, 1, 1])
    assert parse_polynomial("-T^2-1", SIGN) == sign_poly([-1, 0, -1])
    assert parse_polynomial("1", SIGN) == sign_poly([1])
    assert parse_polynomial("0", SIGN) == sign_poly([])
    assert parse_polynomial("-1:T^2+1:T", SIGN) == sign_poly([0, 1, -1])


def test_tropical_syntax():
    assert parse_polynomial("[1, 0, 1, 0]", "tropical") == trop_poly([1, 0, 1, 0])
    assert parse_polynomial("0:T^3+1:T^2+0:T+1", TROPICAL) == trop_poly([1, 0, 1, 0])
    assert parse_polynomial("zero", TROPICAL) == trop_poly([])
    assert parse_polynomial("1/2:T^2+-3:T+zero", TROPICAL) == trop_poly(
        [None, -3, Fraction(1, 2)])
    assert parse_polynomial("T^2+5", TROPICAL) == trop_poly([5, None, 0])


def test_json_object_form():
    p = parse_polynomial('{"field": "sign", "coeffs": [1, -1, 1]}', SIGN)
    assert p == sign_poly([1, -1, 1])
    q = parse_polynomial('{"field": "tropical", "coeffs": ["zero", "1/2", "3"]}', TROPICAL)
    assert q == trop_poly([None, Fraction(1, 2), 3])
    with pytest.raises(PolynomialParseError):
        parse_polynomial('{"field": "tropical", "coeffs": [1]}', SIGN)


def test_json_rejects_inexact():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("[0.5, 1]", TROPICAL)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("[2, 1]", SIGN)


def test_array_elements_judged_alone():
    # a JSON literal among unquoted tokens is judged as in the JSON form,
    # not accepted because a neighbour sent the array to the relaxed form
    for text in ("[0.5, 1]", "[0.5, 1/2]", "[1e2, zero]", "[true, zero]"):
        with pytest.raises(PolynomialParseError, match="must be exact"):
            parse_polynomial(text, TROPICAL)
    assert parse_polynomial('[1, "zero", zero]', TROPICAL) == \
        parse_polynomial("[1, zero, zero]", TROPICAL)
    with pytest.raises(PolynomialParseError, match="integers"):
        parse_polynomial("[1.0, T]", SIGN)
    # a nested token is no literal: refused as a bad value, never decoded
    with pytest.raises(PolynomialParseError, match="bad tropical value"):
        parse_polynomial("[zero, " + "[" * 10_000 + "]", TROPICAL)


def test_array_errors_name_the_element_column():
    # the column is the element's first character in the text, as in term
    # syntax, and the quoted value is the element without its blanks
    with pytest.raises(PolynomialParseError) as err:
        parse_polynomial("[1, x]", TROPICAL)
    assert str(err.value).startswith("bad tropical value 'x'")
    assert err.value.column == 4
    with pytest.raises(PolynomialParseError) as err:
        parse_polynomial("[ 1,  2/3 ,  7/0 ]", TROPICAL)
    assert str(err.value).startswith("bad tropical value '7/0'")
    assert err.value.column == 13


def test_out_of_domain_coefficient():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("2T+1", SIGN)
    with pytest.raises(PolynomialParseError) as err:
        parse_polynomial("T^2+2", SIGN)
    assert "column" in str(err.value)


def test_syntax_errors():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("T^2+++", SIGN)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("T^-1", SIGN)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("T+T", SIGN)  # duplicate exponent
    with pytest.raises(PolynomialParseError):
        parse_polynomial("1:S^2", TROPICAL)


def test_huge_exponent_rejected_quickly():
    for text, field in (("T^1000000000", SIGN), ("T^1000000000+1", SIGN),
                        ("T^1000000000", TROPICAL), ("0:T^1000000000+1", TROPICAL),
                        ("T^" + "9" * 5000, SIGN), ("T^" + "9" * 5000, TROPICAL)):
        start = time.perf_counter()
        with pytest.raises(PolynomialParseError):
            parse_polynomial(text, field)
        assert time.perf_counter() - start < 0.1, text[:20]
    assert parse_polynomial("T^10000", SIGN).degree == 10000
    assert parse_polynomial("T^010", SIGN) == parse_polynomial("T^10", SIGN)


def test_format_canonical():
    assert format_polynomial(sign_poly([1, 1, 1, 1])) == "T^3+T^2+T+1"
    assert format_polynomial(sign_poly([-1, 0, -1])) == "-T^2-1"
    assert format_polynomial(sign_poly([])) == "0"
    assert format_polynomial(trop_poly([1, 0, 1, 0])) == "0:T^3+1:T^2+0:T+1"
    assert format_polynomial(trop_poly([None, -3, Fraction(1, 2)])) == "1/2:T^2+-3:T"
    assert format_polynomial(trop_poly([])) == "zero"


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 6)
        p = Polynomial(SIGN, tuple(rng.choice((-1, 0, 1)) for _ in range(n)))
        text = format_polynomial(p)
        assert parse_polynomial(text, SIGN) == p
        coeffs = tuple(
            TropValue.zero() if rng.random() < 0.25
            else TropValue.log(Fraction(rng.randint(-12, 12), rng.randint(1, 8)))
            for _ in range(n))
        q = Polynomial(TROPICAL, coeffs)
        text = format_polynomial(q)
        assert parse_polynomial(text, TROPICAL) == q
        assert format_polynomial(parse_polynomial(text, TROPICAL)) == text


def test_json_round_trip():
    p = trop_poly([1, None, Fraction(-3, 2)])
    d = poly_to_json_dict(p)
    assert d == {"field": "tropical", "coeffs": ["1", "zero", "-3/2"]}
    assert poly_from_json(d) == p
    s = sign_poly([1, -1, 0, 1])
    d = poly_to_json_dict(s)
    assert d == {"field": "sign", "coeffs": [1, -1, 0, 1]}
    assert poly_from_json(d) == s
