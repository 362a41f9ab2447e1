"""Polynomial container, product coefficient sets, membership, roots."""

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from hyperpoly import (
    NEG_INF,
    Polynomial,
    SIGN,
    SIGN_ALL,
    TROPICAL,
    TropSubset,
    TropValue,
    ZeroOperandError,
    associated,
    divides_linearly,
    enumerate_product,
    in_product,
    is_root,
    monic_normal,
    poly_sort_key,
    product_coefficient_sets,
    pushforward,
    sign_poly,
    trop_poly,
)
from hyperpoly.errors import DegreeBoundExceeded
from hyperpoly.polynomials import _chain_member, _linear_tropical_member

from oracles import raw_sign_product_rows, raw_sign_product_members, raw_sign_roots

L = TropValue.log


def test_degree():
    assert sign_poly([1, 1, 1, 1]).degree == 3
    assert sign_poly([1]).degree == 0
    assert sign_poly([]).degree == NEG_INF
    assert sign_poly([1, 1, 0, 0]).degree == 1  # trailing zeros trimmed
    assert trop_poly([None, None, 0]).degree == 2


def test_zero_polynomial_distinguished():
    z = sign_poly([0, 0])
    assert z.is_zero
    assert z == sign_poly([])


def test_product_coefficient_sets_sign():
    p = sign_poly([1, 1])
    sets = product_coefficient_sets(p, p)
    assert sets == (frozenset({1}), frozenset({1}), frozenset({1}))

    mixed = product_coefficient_sets(sign_poly([1, 1]), sign_poly([-1, 1]))
    assert mixed[1] == SIGN_ALL

    # independent oracle: literal table expansion
    rng = random.Random(0)
    for _ in range(200):
        c = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 4))) + (rng.choice((1, -1)),)
        d = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 4))) + (rng.choice((1, -1)),)
        got = product_coefficient_sets(Polynomial(SIGN, c), Polynomial(SIGN, d))
        assert list(got) == raw_sign_product_rows(c, d)


def test_product_coefficient_sets_tropical():
    p = trop_poly([0, 0])  # T + 1 in multiplicative terms
    sets = product_coefficient_sets(p, p)
    assert sets[1] == TropSubset.closed_interval(L(0))
    assert sets[0] == TropSubset.singleton(L(0))


def test_product_rejects_zero_operand():
    with pytest.raises(ZeroOperandError):
        product_coefficient_sets(sign_poly([]), sign_poly([1, 1]))


def test_in_product_sign_examples():
    p = sign_poly([1, 1, 1, 1])
    t_plus = sign_poly([1, 1])
    t_minus = sign_poly([-1, 1])
    assert in_product(p, [t_plus, t_plus, t_plus])
    assert in_product(p, [t_plus, sign_poly([1, 0, 1])])
    # the middle coefficient set of (T+1)(T-1) is the whole field, but the
    # constant coefficient is forced to -1, so T^2-1 is a member and T^2+1 is not
    assert in_product(sign_poly([-1, 0, 1]), [t_plus, t_minus])
    assert in_product(sign_poly([-1, 1, 1]), [t_plus, t_minus])
    assert not in_product(sign_poly([1, 0, 1]), [t_plus, t_minus])


def test_in_product_two_factor_matches_enumeration():
    rng = random.Random(1)
    for _ in range(100):
        c = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 3))) + (rng.choice((1, -1)),)
        d = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 3))) + (rng.choice((1, -1)),)
        members = raw_sign_product_members(c, d)
        p1, p2 = Polynomial(SIGN, c), Polynomial(SIGN, d)
        for combo in iter_product((-1, 0, 1), repeat=len(c) + len(d) - 1):
            r = Polynomial(SIGN, combo)
            if r.is_zero or r.degree != p1.degree + p2.degree:
                continue
            assert in_product(r, [p1, p2]) == (combo in members)


def test_enumerate_product():
    got = enumerate_product([sign_poly([1, 1]), sign_poly([-1, 1])])
    expected = [sign_poly([-1, -1, 1]), sign_poly([-1, 0, 1]), sign_poly([-1, 1, 1])]
    assert got == expected

    assert enumerate_product([sign_poly([1, 1]), sign_poly([1, 1])]) == [sign_poly([1, 1, 1])]
    p = sign_poly([-1, 0, 1, 1])
    assert enumerate_product([sign_poly([1]), p]) == [p]


def test_enumerate_product_bound():
    factors = [sign_poly([1, 1])] * 13
    with pytest.raises(DegreeBoundExceeded):
        enumerate_product(factors)


def test_enumerate_rejects_tropical():
    with pytest.raises(ValueError):
        enumerate_product([trop_poly([0, 0])])


def test_is_root():
    assert is_root(sign_poly([1, 1, 1, 1]), -1)
    assert not is_root(sign_poly([1, 0, 1]), 1)
    assert is_root(trop_poly([None, 3, 0]), TropValue.zero())
    # oracle sweep at small degree
    for c in iter_product((-1, 0, 1), repeat=4):
        p = Polynomial(SIGN, c)
        if p.is_zero:
            continue
        for a in (-1, 0, 1):
            assert is_root(p, a) == (a in raw_sign_roots(p.coeffs))


def test_associated_and_monic():
    assert associated(sign_poly([-1, 0, -1]), sign_poly([1, 0, 1]))
    assert monic_normal(sign_poly([-1, 0, -1])) == sign_poly([1, 0, 1])
    assert associated(trop_poly([4, 3]), trop_poly([1, 0]))
    assert not associated(sign_poly([1, 1]), sign_poly([-1, 1]))
    assert monic_normal(trop_poly([4, 3])) == trop_poly([1, 0])


def test_pushforward():
    image = pushforward(lambda x: (x > 0) - (x < 0),
                        [Fraction(0), Fraction(-5), Fraction(3)], SIGN)
    assert image == sign_poly([0, -1, 1])
    p = sign_poly([1, -1, 1])
    assert pushforward(lambda x: x, p, SIGN) == p
    with pytest.warns(UserWarning):
        dropped = pushforward(lambda x: 0, p, SIGN)
    assert dropped.is_zero


def test_monomial_product_is_singleton():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 5)
        coeffs = [L(rng.randint(-4, 4)) if rng.random() > 0.2 else TropValue.zero()
                  for _ in range(n)] + [L(rng.randint(-4, 4))]
        p = Polynomial(TROPICAL, tuple(coeffs))
        k = rng.randint(0, 3)
        a = L(rng.randint(-3, 3))
        mono = Polynomial(TROPICAL, (TropValue.zero(),) * k + (a,))
        sets = product_coefficient_sets(p, mono)
        members = [s for s in sets]
        assert all(not s.interval or s.top.is_zero for s in members)
        expected = p.scale(a).shift(k)
        assert Polynomial(TROPICAL, tuple(s.top for s in sets)) == expected


def test_degree_additivity_exhaustive_small():
    polys = [Polynomial(SIGN, c + (lead,))
             for c in iter_product((-1, 0, 1), repeat=2) for lead in (1, -1)]
    for p1 in polys[:6]:
        for p2 in polys[:6]:
            for member in enumerate_product([p1, p2]):
                assert member.degree == p1.degree + p2.degree


def test_unit_membership_forces_degree_zero():
    # 1 in p * q implies deg p = deg q = 0; check no positive-degree pair reaches 1
    one = sign_poly([1])
    for c in iter_product((-1, 0, 1), repeat=2):
        for d in iter_product((-1, 0, 1), repeat=2):
            p1, p2 = Polynomial(SIGN, c), Polynomial(SIGN, d)
            if p1.is_zero or p2.is_zero:
                continue
            if p1.degree + p2.degree > 0:
                assert not in_product(one, [p1, p2])


def test_product_commutes():
    rng = random.Random(3)
    for _ in range(50):
        c = tuple(rng.choice((-1, 0, 1)) for _ in range(3)) + (rng.choice((1, -1)),)
        d = tuple(rng.choice((-1, 0, 1)) for _ in range(2)) + (rng.choice((1, -1)),)
        p1, p2 = Polynomial(SIGN, c), Polynomial(SIGN, d)
        assert product_coefficient_sets(p1, p2) == product_coefficient_sets(p2, p1)


def test_root_iff_linear_divisor_sign_exhaustive():
    # over the sign field, a root is equivalent to a quotient existing
    for n in (1, 2, 3):
        for c in iter_product((-1, 0, 1), repeat=n):
            for lead in (1, -1):
                p = Polynomial(SIGN, c + (lead,))
                for a in (-1, 0, 1):
                    has_quotient = any(
                        divides_linearly(p, a, Polynomial(SIGN, q))
                        for q in iter_product((-1, 0, 1), repeat=n)
                    )
                    assert has_quotient == is_root(p, a)


def test_divides_linearly_matches_product_sets():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 4)
        q = Polynomial(SIGN, tuple(rng.choice((-1, 0, 1)) for _ in range(n - 1))
                       + (rng.choice((1, -1)),))
        a = rng.choice((-1, 0, 1))
        lin = Polynomial(SIGN, (-a, 1))
        members = {m.coeffs for m in enumerate_product([lin, q])}
        for combo in iter_product((-1, 0, 1), repeat=n + 1):
            p = Polynomial(SIGN, combo)
            if p.is_zero or p.degree != n:
                continue
            assert divides_linearly(p, a, q) == (combo in members)


def test_linear_tropical_member_agrees_with_chain_search():
    rng = random.Random(5)
    for _ in range(60):
        factors = [Polynomial(TROPICAL, (L(rng.randint(-3, 3)), L(rng.randint(-2, 2))))
                   for _ in range(3)]
        # candidates drawn near the actual product profile
        base = [s.top for s in _chain_rows(factors)]
        for _ in range(8):
            coeffs = list(base)
            idx = rng.randrange(len(coeffs) - 1)
            if not coeffs[idx].is_zero:
                coeffs[idx] = TropValue(coeffs[idx].exponent - Fraction(rng.randint(0, 2)))
            r = Polynomial(TROPICAL, tuple(coeffs))
            if r.degree != 3:
                continue
            assert _linear_tropical_member(r, factors) == _chain_member(r, factors)


def _chain_rows(factors):
    from hyperpoly.polynomials import _product_rows

    acc = factors[0]
    rows = None
    for q in factors[1:]:
        rows = _product_rows(acc, q)
        acc = Polynomial(TROPICAL, tuple(s.top for s in rows))
    return rows


def test_sort_key_orders_lexicographically():
    polys = [sign_poly([1, 1]), sign_poly([-1, 1]), sign_poly([0, 1])]
    assert sorted(polys, key=poly_sort_key) == [
        sign_poly([-1, 1]), sign_poly([0, 1]), sign_poly([1, 1])]
    tropical = [trop_poly([1, 0]), trop_poly([None, 0]), trop_poly([-2, 0])]
    assert sorted(tropical, key=poly_sort_key) == [
        trop_poly([None, 0]), trop_poly([-2, 0]), trop_poly([1, 0])]
