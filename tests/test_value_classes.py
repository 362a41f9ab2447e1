"""The library's value classes: constructors, equality, hashing, repr text,
immutability and the tropical order, pinned for all six of them."""

from fractions import Fraction
from itertools import product as iter_product

import pytest

from hyperpoly import (
    SIGN,
    TROP_ONE,
    TROP_ZERO,
    TROPICAL,
    Factorization,
    NewtonPolygon,
    Polynomial,
    RootLocus,
    TropSubset,
    TropValue,
    all_factorizations_sign,
    newton_polygon,
    roots_with_multiplicities,
    sign_poly,
    trop_poly,
)

L = TropValue.log
F = Fraction


def _make(cls):
    """Two equal instances, built differently where the class allows it, and
    one unequal instance."""
    if cls is TropValue:
        return TropValue(F(1)), L(1), L(2)
    if cls is TropSubset:
        return TropSubset(L(1), True), TropSubset.closed_interval(L(1)), TropSubset(L(1), False)
    if cls is Polynomial:
        return Polynomial(SIGN, (1, 0, -1, 0)), sign_poly([1, 0, -1]), sign_poly([1, 0, 1])
    if cls is Factorization:
        t_minus, t_plus = sign_poly([-1, 1]), sign_poly([1, 1])
        return (Factorization((t_minus, t_plus), 1, "(T+1 * T-1)"),
                all_factorizations_sign(sign_poly([-1, 0, 1]))[0],
                Factorization((t_minus, t_plus), -1, "(T+1 * T-1)"))
    if cls is NewtonPolygon:
        return (NewtonPolygon(((0, F(0)), (1, F(-1)), (2, F(-1))), (F(-1), F(0)), 0),
                newton_polygon(trop_poly([0, 1, 1])),
                NewtonPolygon(((0, F(0)), (1, F(-1)), (2, F(-1))), (F(-1), F(0)), 1))
    assert cls is RootLocus
    return (RootLocus(L(1), 2, 1), roots_with_multiplicities(trop_poly([2, 1, 0]))[0],
            RootLocus(L(1), 2, 2))


CLASSES = [TropValue, TropSubset, Polynomial, Factorization, NewtonPolygon, RootLocus]
FIELDS = {
    TropValue: ("exponent",),
    TropSubset: ("top", "interval"),
    Polynomial: ("field", "coeffs"),
    Factorization: ("factors", "unit", "witness_nesting"),
    NewtonPolygon: ("vertices", "slopes", "zero_root_multiplicity"),
    RootLocus: ("root", "multiplicity", "start"),
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    a, b, c = _make(cls)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    fields = tuple(getattr(a, name) for name in FIELDS[cls])
    assert a != fields and not a == fields
    assert a != object()
    assert a == b == cls(*fields) == cls(**dict(zip(FIELDS[cls], fields)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_instances_are_immutable(cls):
    a = _make(cls)[0]
    for name in FIELDS[cls]:
        value = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == value
    with pytest.raises(AttributeError):
        a.other = 1


def test_repr_text():
    assert [repr(x) for x in (TropValue(), L(1), L(F(-1, 2)))] == [
        "TropValue(zero)", "TropValue(1)", "TropValue(-1/2)"]
    assert repr(TropSubset(TROP_ZERO, False)) == "TropSubset(top=TropValue(zero), interval=True)"
    assert repr(TropSubset.singleton(L(1))) == "TropSubset(top=TropValue(1), interval=False)"
    assert repr(sign_poly([1, 0, -1])) == "Polynomial(sign, -T^2+1)"
    assert repr(trop_poly([0, "zero", "1/2"])) == "Polynomial(tropical, 1/2:T^2+0)"
    assert repr(_make(Factorization)[0]) == (
        "Factorization(factors=(Polynomial(sign, T-1), Polynomial(sign, T+1)), unit=1, "
        "witness_nesting='(T+1 * T-1)')")
    assert repr(_make(NewtonPolygon)[0]) == (
        "NewtonPolygon(vertices=((0, Fraction(0, 1)), (1, Fraction(-1, 1)), "
        "(2, Fraction(-1, 1))), slopes=(Fraction(-1, 1), Fraction(0, 1)), "
        "zero_root_multiplicity=0)")
    assert repr(_make(RootLocus)[0]) == "RootLocus(root=TropValue(1), multiplicity=2, start=1)"


def test_constructor_defaults_and_normalisation():
    assert TropValue() == TropValue(None) == TropValue(exponent=None) == TROP_ZERO
    assert TropValue(exponent=F(0)) == TROP_ONE
    p = Polynomial(coeffs=[1, 0, 0], field=SIGN)
    assert type(p.coeffs) is tuple and p.coeffs == (1,)
    assert Polynomial(TROPICAL, (L(1), TROP_ZERO)) == trop_poly([1])
    assert Polynomial(SIGN, ()) == Polynomial(SIGN, [0, 0]) != Polynomial(TROPICAL, ())


def test_zero_singleton_is_the_zero_interval():
    a, b = TropSubset(TROP_ZERO, False), TropSubset(TROP_ZERO, True)
    assert a == b and hash(a) == hash(b)
    assert a.interval is True
    assert TropSubset.singleton(TROP_ZERO) == TropSubset.closed_interval(TROP_ZERO)


GRID = [TROP_ZERO, TropValue(), L(-2), L(F(-1, 3)), L(0), TropValue(0), L(F(1, 2)), L(1), L(7)]


def _key(x):
    return (not x.is_zero, x.exponent if x.exponent is not None else 0)


def test_order_agrees_with_zero_then_exponent():
    for a, b in iter_product(GRID, repeat=2):
        ka, kb = _key(a), _key(b)
        assert (a == b) == (ka == kb), (a, b)
        assert (a < b) == (ka < kb), (a, b)
        assert (a <= b) == (ka <= kb), (a, b)
        assert (a > b) == (ka > kb), (a, b)
        assert (a >= b) == (ka >= kb), (a, b)
    assert max(GRID) == L(7)
    assert max(GRID[:2]) == TROP_ZERO
    assert [_key(x) for x in sorted(GRID[::-1])] == sorted(_key(x) for x in GRID)
    assert sorted(GRID, reverse=True)[0] == L(7)
