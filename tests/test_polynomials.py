"""Polynomial container, product coefficient sets, membership, roots."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    NEG_INF,
    Polynomial,
    SIGN,
    SIGN_ALL,
    TROP_ZERO,
    TROPICAL,
    TropSubset,
    TropValue,
    ZeroOperandError,
    associated,
    divide,
    divide_sign,
    divides_linearly,
    enumerate_product,
    in_product,
    is_quotient,
    is_root,
    monic_normal,
    newton_polygon,
    poly_sort_key,
    product_coefficient_sets,
    pushforward,
    search_quotients,
    sign_poly,
    trop_poly,
)
from hyperpoly.errors import DegreeBoundExceeded
from oracles import (raw_sign_product_rows, raw_sign_product_members, raw_sign_roots,
                     reference_divides_linearly, reference_linear_tropical_member)
from test_chain_search import greatest_intermediates

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
    with pytest.raises(ZeroOperandError, match="no leading coefficient"):
        z.lead


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


# small exponents with denominators 1-7, so that rows often tie
EXPONENTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
# a nonzero lead after zeros anywhere, leading and interior included
TROP_COEFFS = st.builds(lambda body, lead: [*body, lead],
                        st.lists(st.none() | EXPONENTS, max_size=5), EXPONENTS)


@settings(max_examples=300, deadline=None)
@given(TROP_COEFFS, TROP_COEFFS)
def test_product_coefficient_sets_tropical_match_the_definition(c, d):
    rows = product_coefficient_sets(trop_poly(c), trop_poly(d))
    assert len(rows) == len(c) + len(d) - 1
    for i, row in enumerate(rows):
        terms = [x + y for k, x in enumerate(c) for l, y in enumerate(d)
                 if k + l == i and x is not None and y is not None]
        if not terms:  # every cross term is the zero
            assert row == TropSubset.closed_interval(TROP_ZERO)
            continue
        top = max(terms)
        tied = terms.count(top) > 1
        assert row == (TropSubset.closed_interval if tied else TropSubset.singleton)(L(top))


def test_product_rejects_zero_operand():
    with pytest.raises(ZeroOperandError):
        product_coefficient_sets(sign_poly([]), sign_poly([1, 1]))
    with pytest.raises(ValueError, match="different fields"):
        product_coefficient_sets(sign_poly([1, 1]), trop_poly([0, 0]))


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
    with pytest.raises(ValueError, match="at least one factor"):
        in_product(p, [])
    with pytest.raises(ValueError, match="different fields"):
        in_product(p, [t_plus, trop_poly([0, 0])])


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
    assert enumerate_product([p]) == [p]
    with pytest.raises(ValueError, match="at least one factor"):
        enumerate_product([])


def test_three_factor_sign_chain_matches_enumeration():
    # every ordered triple of degree-1 factors against every degree-3 target
    linear = [sign_poly([c, lead]) for c in (-1, 0, 1) for lead in (-1, 1)]
    targets = [sign_poly(cs + (lead,))
               for cs in iter_product((-1, 0, 1), repeat=3) for lead in (-1, 1)]
    cases = members = 0
    for fs in iter_product(linear, repeat=3):
        product = set(enumerate_product(fs))
        for r in targets:
            got = in_product(r, fs)
            assert got == (r in product), (str(r), [str(q) for q in fs])
            cases += 1
            members += got
    assert (cases, members) == (11664, 568)


def test_sign_chain_with_a_quadratic_factor_matches_enumeration():
    rng = random.Random(11)
    linear = [sign_poly([c, lead]) for c in (-1, 0, 1) for lead in (-1, 1)]
    quadratic = [sign_poly([c0, c1, lead])
                 for c0 in (-1, 0, 1) for c1 in (-1, 0, 1) for lead in (-1, 1)]
    members = 0
    for _ in range(40):
        fs = [rng.choice(linear), rng.choice(linear), rng.choice(quadratic)]
        rng.shuffle(fs)
        product = set(enumerate_product(fs))
        lead = fs[0].lead * fs[1].lead * fs[2].lead
        for combo in iter_product((-1, 0, 1), repeat=4):
            r = sign_poly(combo + (lead,))
            got = in_product(r, fs)
            assert got == (r in product), (str(r), [str(q) for q in fs])
            members += got
    assert members > 200


def test_long_constant_sign_chain():
    # constant factors add no degree, so a chain may be far longer than any
    # degree bound lets a product grow: the walk keeps its depth off the stack
    ones = [sign_poly([1])] * 1200
    t_plus, t_minus = sign_poly([1, 1]), sign_poly([-1, 1])
    assert in_product(t_plus, ones + [t_plus])
    assert not in_product(t_minus, ones + [t_plus])
    # (T+1)(T+1) is the single T^2+T+1, so T^2+1 passes the end check only
    assert not in_product(sign_poly([1, 0, 1]), ones + [t_plus, t_plus])
    assert enumerate_product(ones + [t_plus]) == [t_plus]


def test_long_linear_sign_chain():
    t = sign_poly([0, 1])
    assert in_product(sign_poly([0] * 1100 + [1]), [t] * 1100)


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
    # a value outside the sign field is refused, as divide_sign refuses it
    for p, a in ((sign_poly([-1, 0, 1]), 2), (sign_poly([1, 0, -1]), 5)):
        with pytest.raises(ValueError, match=f"^sign values are -1, 0 or 1, got {a}$"):
            is_root(p, a)
    # oracle sweep at small degree
    for c in iter_product((-1, 0, 1), repeat=4):
        p = Polynomial(SIGN, c)
        if p.is_zero:
            continue
        for a in (-1, 0, 1):
            assert is_root(p, a) == (a in raw_sign_roots(p.coeffs))


def test_division_entry_points_refuse_values_outside_the_field():
    p, q = trop_poly([1, 0, 1, 0]), trop_poly([0, -1, 0])
    calls = {"1": lambda: is_root(p, 1), "Fraction(1, 1)": lambda: divide(p, Fraction(1)),
             "'1'": lambda: search_quotients(p, "1"), "0": lambda: is_quotient(p, 0, q),
             repr("9" * 20): lambda: is_root(p, "9" * 50),  # cut to 20 characters
             "Fraction(1" + "0" * 10: lambda: divide(p, Fraction(10**5000, 3))}
    for shown, call in calls.items():
        with pytest.raises(ValueError, match=re.escape(
                f"tropical values are TropValue instances, got {shown}") + "$"):
            call()
    s = sign_poly([1, 1])
    calls = {"2": lambda: divides_linearly(sign_poly([-1, 0, 1]), 2, s),
             "1" * 20: lambda: is_root(s, int("1" * 30)),
             "1" + "0" * 19: lambda: divide_sign(s, 10**5000)}  # no 5,001-digit string
    for shown, call in calls.items():
        with pytest.raises(ValueError, match=f"^sign values are -1, 0 or 1, got {shown}$"):
            call()


def test_bad_sign_coefficients_and_values_are_quoted_bounded():
    calls = {"1" + "0" * 19: lambda: sign_poly([1, 10**5000]),  # no 5,001-digit string
             repr("x" * 20): lambda: sign_poly(["x" * 100]),
             "2": lambda: sign_poly([2])}
    for shown, call in calls.items():
        with pytest.raises(ValueError, match=re.escape(
                f"sign coefficients are -1, 0 or 1, got {shown}") + "$"):
            call()
    for text in ("-" + "9" * 30, "1" * 30, "2"):  # the text is str(v)[:20], as before
        with pytest.raises(ValueError, match=re.escape(
                f"sign values are -1, 0 or 1, got {text[:20]}") + "$"):
            SIGN.parse_element(text)


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


def test_divides_linearly_matches_the_relation_reference_sign():
    # every p of degree 1-5 with either leading sign, every q of degree n - 1
    def polys(n):
        return [Polynomial(SIGN, c + (lead,))
                for c in iter_product((-1, 0, 1), repeat=n) for lead in (1, -1)]

    members = 0
    for n in range(1, 6):
        ps, qs = polys(n), polys(n - 1)
        for a in (-1, 0, 1):
            for p in ps:
                for q in qs:
                    want = reference_divides_linearly(p, a, q)
                    assert divides_linearly(p, a, q) == want, (str(p), a, str(q))
                    members += want
    assert members == 2694  # the members of every (T - a) * q, counted by the reference


def _two_factor_question(rng, field):
    """(r, p, q, kind): p is T - a (a zero root one time in three) or a
    factor of degree 1-3, q has degree 0-4, both with zero coefficients,
    and r is drawn from the rows of p * q, perhaps with one middle
    coefficient moved, or is the all-tops chain with one coefficient
    raised or lowered at a hull vertex (tropical), or a drawn member with
    a wrong end coefficient (sign)."""
    if field is SIGN:
        def value(nonzero=False):
            return rng.choice((-1, 1) if nonzero else (-1, 0, 0, 1))
    else:
        def value(nonzero=False):
            if not nonzero and rng.random() < 0.25:
                return TROPICAL.zero
            return L(Fraction(rng.randint(-8, 8), rng.randint(1, 3)))

    def poly(degree):
        return Polynomial(field, tuple(value() for _ in range(degree)) + (value(True),))

    if rng.random() < 0.5:
        a = field.zero if rng.random() < 1 / 3 else value(True)
        p = Polynomial(field, (field.neg(a), field.one))
    else:
        p = poly(rng.randint(1, 3))
    q = poly(rng.randint(0, 4))
    rows = product_coefficient_sets(p, q)
    kind = rng.choice(("member", "moved") + (("wrong end",) * 2 if field is SIGN
                                             else ("above", "vertex")))
    if field is SIGN:
        cs = [rng.choice(sorted(row)) for row in rows]
        if kind == "moved" and len(cs) > 2:
            cs[rng.randrange(1, len(cs) - 1)] = value()
        elif kind == "wrong end":
            i = rng.choice((0, -1))
            cs[i] = rng.choice([v for v in ((-1, 1) if i else (-1, 0, 1)) if v != cs[i]])
        return Polynomial(SIGN, tuple(cs)), p, q, kind
    tops = [row.top for row in rows]
    if kind in ("member", "moved"):
        cs = [row.top if not row.interval or row.top.is_zero
              else rng.choice((row.top, TROPICAL.zero,
                               TropValue(row.top.exponent - rng.randint(1, 3))))
              for row in rows]
        if kind == "moved" and len(cs) > 2:
            cs[rng.randrange(1, len(cs) - 1)] = value()
    elif kind == "above":
        cs, i = list(tops), rng.randrange(len(tops))
        cs[i] = L(1) if cs[i].is_zero else TropValue(cs[i].exponent + Fraction(1, 2))
    else:
        cs = list(tops)
        i = rng.choice([i for i, h in newton_polygon(Polynomial(TROPICAL, tuple(tops))).vertices
                        if h is not None])
        lowered = TropValue(cs[i].exponent - 1)  # zeroing the lead would drop the degree
        cs[i] = lowered if i == len(cs) - 1 else rng.choice((TROPICAL.zero, lowered))
    return Polynomial(TROPICAL, tuple(cs)), p, q, kind


def test_two_factor_membership_is_the_row_check():
    # two factors are decided by the row check, which is the tropical
    # lowering's one rule where every entry is fixed: in_product, and the
    # division checks when p is T - a, agree with the rows of
    # product_coefficient_sets and with the relation reference, on drawn
    # members and on targets above the all-tops chain, below it at a hull
    # vertex, or off the sign end coefficients
    rng = random.Random(21)
    seen = Counter()
    for field in (SIGN, TROPICAL):
        for _ in range(1500):
            r, p, q, kind = _two_factor_question(rng, field)
            rows = product_coefficient_sets(p, q)
            want = len(rows) == len(r.coeffs) and all(
                c in row if field is SIGN else row.contains(c) for row, c in zip(rows, r.coeffs))
            assert in_product(r, [p, q]) == want, (str(r), str(p), str(q))
            if kind not in ("member", "moved"):
                assert not want, (str(r), str(p), str(q))
            if p.degree == 1 and p.lead == field.one:
                a = field.neg(p.coeffs[0])
                assert divides_linearly(r, a, q) == want == reference_divides_linearly(r, a, q)
                if field is TROPICAL:
                    assert is_quotient(r, a, q) == want
                seen[field.name, "zero root" if field.is_zero(a) else "root", want] += 1
            seen[field.name, kind, want] += 1
    for name, refused in (("sign", ("wrong end",)), ("tropical", ("above", "vertex"))):
        assert seen[name, "member", True] > 100
        assert seen[name, "moved", True] > 20 and seen[name, "moved", False] > 20
        assert all(seen[name, kind, False] > 100 for kind in refused)
        assert all(seen[name, root, want] > 20 for root in ("root", "zero root")
                   for want in (True, False))


def test_linear_tropical_member_agrees_with_chain_search():
    # in_product decides linear factors by the all-tops hull check alone;
    # the closed form on sorted roots and the greatest-chain lowering,
    # which does not know the factors are linear, must agree
    rng = random.Random(5)

    def exponent():
        return L(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))

    members = 0
    for _ in range(60):
        factors = [Polynomial(TROPICAL, (TROPICAL.zero if rng.random() < 0.2 else exponent(),
                                         exponent()))
                   for _ in range(rng.randint(3, 7))]
        # candidates drawn near the actual product profile
        base = [s.top for s in _chain_rows(factors)]
        for _ in range(8):
            coeffs = list(base)
            idx = rng.randrange(len(coeffs) - 1)
            if rng.random() < 0.2:
                coeffs[idx] = TROPICAL.zero
            elif not coeffs[idx].is_zero:
                coeffs[idx] = TropValue(coeffs[idx].exponent - Fraction(rng.randint(0, 2),
                                                                        rng.randint(1, 4)))
            r = Polynomial(TROPICAL, tuple(coeffs))
            want = reference_linear_tropical_member(r, factors)
            assert in_product(r, factors) == want, (str(r), [str(q) for q in factors])
            assert (greatest_intermediates(r, factors) is not None) == want
            members += want
    assert 100 < members < 380


def _chain_rows(factors):
    acc = factors[0]
    rows = None
    for q in factors[1:]:
        rows = product_coefficient_sets(acc, q)
        acc = Polynomial(TROPICAL, tuple(s.top for s in rows))
    return rows


def test_sort_key_orders_lexicographically():
    polys = [sign_poly([1, 1]), sign_poly([-1, 1]), sign_poly([0, 1])]
    assert sorted(polys, key=poly_sort_key) == [
        sign_poly([-1, 1]), sign_poly([0, 1]), sign_poly([1, 1])]
    tropical = [trop_poly([1, 0]), trop_poly([None, 0]), trop_poly([-2, 0])]
    assert sorted(tropical, key=poly_sort_key) == [
        trop_poly([None, 0]), trop_poly([-2, 0]), trop_poly([1, 0])]
