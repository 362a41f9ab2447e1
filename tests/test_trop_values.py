"""``TropValue`` as a reduced int pair: a differential test against
``Fraction`` arithmetic over every construction route, and a guard that
the tropical questions decided on scaled ints, the root loci and the
factorization among them, build no ``Fraction``."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (TROP_ZERO, TROPICAL, Polynomial, ResultTooLarge, TropValue, in_product,
                       is_root, product_coefficient_sets, tropical)

L = TropValue.log

EXPONENTS = st.one_of(
    st.none(),
    st.integers(-50, 50).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20)),
)


def _routes(e, k):
    """The value with exponent e (None for the zero), built every way the
    library builds one; k > 0 is the scale handed to the private decoder."""
    text = "zero" if e is None else str(e)
    values = [TropValue(e), TropValue.coerce(e), TROPICAL.parse_element(text),
              TropValue._from_scaled(None if e is None else e.numerator * k,
                                     k if e is None else e.denominator * k)]
    if e is not None:
        values.append(L(e))
        if e.denominator == 1:
            values += [TropValue(int(e)), L(int(e))]
    return values


def _key(e):
    """The reference order: the zero lowest, then by exponent."""
    return (0, 0) if e is None else (1, e)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(EXPONENTS, EXPONENTS, st.integers(1, 10 ** 6))
def test_pairs_agree_with_fraction_arithmetic(ea, eb, k):
    for a in _routes(ea, k):
        for same in _routes(ea, k):
            assert a == same and not a != same and hash(a) == hash(same)
        assert a.exponent == ea and type(a.exponent) is (type(None) if ea is None else Fraction)
        assert a.is_zero == (ea is None)
        assert str(a) == ("zero" if ea is None else str(ea))
        assert repr(a) == f"TropValue({a})"
        if ea is None:
            with pytest.raises(ZeroDivisionError):
                a.inv()
        else:
            assert a.inv().exponent == -ea
        for b in _routes(eb, k):
            product = None if ea is None or eb is None else ea + eb
            assert (a * b).exponent == product
            if eb is None:
                with pytest.raises(ZeroDivisionError):
                    a / b
            else:
                assert (a / b).exponent == (None if ea is None else ea - eb)
            ka, kb = _key(ea), _key(eb)
            assert (a == b) == (ka == kb) and (a != b) == (ka != kb)
            assert (a < b) == (ka < kb) and (a <= b) == (ka <= kb)
            assert (a > b) == (ka > kb) and (a >= b) == (ka >= kb)
            assert (a.sort_key() < b.sort_key()) == (ka < kb)
            assert (a.sort_key() == b.sort_key()) == (ka == kb)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(EXPONENTS, max_size=8))
def test_sort_key_sorts_as_the_exponents(es):
    values = [TropValue(e) for e in es]
    assert [v.exponent for v in sorted(values, key=TropValue.sort_key)] == sorted(es, key=_key)
    assert sorted(values, key=TropValue.sort_key) == sorted(values)


def test_text_past_the_digit_limit_raises_result_too_large():
    big = L(10 ** 4299)
    assert len(str(big)) == len(str(big * big)) == 4300
    past = big * L(9 * 10 ** 4299)  # 10^4300 has 4301 digits
    for value in (past, past.inv(), TropValue._from_scaled(3, 10 ** 4300)):
        with pytest.raises(ResultTooLarge):
            str(value)
        with pytest.raises(ResultTooLarge):
            repr(value)


def _poly(cs):
    return Polynomial(TROPICAL, tuple(cs))


def _tops(p, q):
    """The all-tops member of p * q."""
    return _poly(row.top for row in product_coefficient_sets(p, q))


def _questions(rng):
    """Seeded tropical questions of every kind decided on scaled ints."""
    def value():
        return L(Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4))))

    def poly(degree):
        return _poly([TROP_ZERO if rng.random() < 0.2 else value() for _ in range(degree)]
                     + [value()])

    calls = []
    for _ in range(40):
        roots = [rng.choice((TROP_ZERO, value())) for _ in range(rng.randint(1, 4))]
        factors = [_poly((r, L(0))) for r in roots]
        p = factors[0]
        for f in factors[1:]:
            p = _tops(p, f)
        a = rng.choice(roots)
        calls += [(tropical.divide, p, a), (tropical.search_quotients, p, a),
                  (is_root, p, a), (is_root, p, value()),
                  (in_product, p, factors),  # linear factors
                  (tropical.roots_with_multiplicities, p), (tropical.factor, poly(4))]
        calls.append((lambda p, a: tropical.is_quotient(p, a, tropical.divide(p, a)), p, a))
        q = tropical.divide(p, a)
        lowered = _poly(q.coeffs[:-1] + (q.coeffs[-1] * L(-1),))
        calls.append((tropical.is_quotient, p, a, lowered))
        f, g, h = poly(rng.randint(1, 3)), poly(rng.randint(1, 3)), poly(rng.randint(2, 3))
        calls += [(in_product, _tops(f, h), [f, h]),  # two factors
                  (in_product, _tops(_tops(f, g), h), [f, g, h]),  # chain
                  (in_product, poly(f.degree + g.degree + h.degree), [f, g, h])]
    return calls


def test_tropical_questions_build_no_fraction(monkeypatch):
    calls = _questions(random.Random(27))
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    answers = [fn(*args) for fn, *args in calls]
    monkeypatch.undo()
    assert built == []
    assert len(calls) == 480 and True in answers and False in answers
