"""Newton polygon, unique factorization, and the tropical division algorithm."""

import random
import time
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperpoly import (
    ConstantPolynomialError,
    NotARootError,
    Polynomial,
    RootLocus,
    TROPICAL,
    TropValue,
    divide,
    divides_linearly,
    factor,
    in_product,
    is_quotient,
    is_root,
    newton_polygon,
    product_coefficient_sets,
    roots_with_multiplicities,
    search_quotients,
    trop_poly,
)
from hyperpoly.polynomials import _max_plus, _scaled

from oracles import (brute_search_quotients, hull_slopes, reference_divide,
                     reference_divides_linearly, reference_newton_polygon,
                     reference_search_quotients, trop_member_raw)
from test_chain_search import HOSTILE, STEPS, _draw_member

L = TropValue.log
Z = TropValue.zero()


def _random_poly(rng, max_degree=12, max_den=8, monic=True):
    n = rng.randint(1, max_degree)
    coeffs = []
    for _ in range(n):
        if rng.random() < 0.15:
            coeffs.append(Z)
        else:
            coeffs.append(L(Fraction(rng.randint(-16, 16), rng.randint(1, max_den))))
    coeffs.append(L(0) if monic else L(rng.randint(-4, 4)))
    return Polynomial(TROPICAL, tuple(coeffs))


def _suffix_products(roots, unit):
    # products[i] = a_{i+1} * ... * a_n * unit (1-based roots), products[n] = unit
    n = len(roots)
    out = [unit] * (n + 1)
    for i in range(n - 1, -1, -1):
        out[i] = out[i + 1] * roots[i]
    return out


def _flat_roots(p):
    roots = []
    for locus in roots_with_multiplicities(p):
        roots.extend([locus.root] * locus.multiplicity)
    return roots


def test_newton_polygon_worked_example():
    p = trop_poly([1, 0, 1, 0])
    polygon = newton_polygon(p)
    assert polygon.vertices == ((0, Fraction(-1)), (2, Fraction(-1)), (3, Fraction(0)))
    assert polygon.slopes == (Fraction(0), Fraction(0), Fraction(1))
    assert polygon.zero_root_multiplicity == 0


def test_newton_polygon_skips_zero_coefficients():
    p = trop_poly([2, None, 0])
    polygon = newton_polygon(p)
    assert polygon.vertices == ((0, Fraction(-2)), (2, Fraction(0)))
    assert polygon.slopes == (Fraction(1), Fraction(1))


def test_newton_polygon_leading_zeros():
    p = trop_poly([None, None, 0])
    polygon = newton_polygon(p)
    assert polygon.zero_root_multiplicity == 2
    assert polygon.slopes == ()
    assert polygon.vertices == ((0, None), (1, None), (2, Fraction(0)))


def test_newton_polygon_rejects_constants():
    with pytest.raises(ConstantPolynomialError):
        newton_polygon(trop_poly([3]))


def test_polygon_against_chord_oracle():
    rng = random.Random(21)
    for _ in range(150):
        p = _random_poly(rng, max_degree=9, monic=False)
        points = [(i, -c.exponent) for i, c in enumerate(p.coeffs) if not c.is_zero]
        if len(points) < 2:
            continue
        assert list(newton_polygon(p).slopes) == hull_slopes(points)


def test_roots_worked_examples():
    loci = roots_with_multiplicities(trop_poly([1, 0, 1, 0]))
    assert [(l.root, l.multiplicity, l.start) for l in loci] == [
        (L(0), 2, 1), (L(1), 1, 3)]

    loci = roots_with_multiplicities(trop_poly([-1, 0, -1, 0]))
    assert [(l.root, l.multiplicity, l.start) for l in loci] == [
        (L(-1), 1, 1), (L(0), 2, 2)]

    loci = roots_with_multiplicities(trop_poly([5, 0]))
    assert [(l.root, l.multiplicity) for l in loci] == [(L(5), 1)]


def test_factor_examples():
    unit, factors = factor(trop_poly([1, 0, 1, 0]))
    assert unit == L(0)
    assert factors == [trop_poly([0, 0]), trop_poly([0, 0]), trop_poly([1, 0])]

    unit, factors = factor(Polynomial(TROPICAL, (Z, L(2))))
    assert unit == L(2)
    assert factors == [Polynomial(TROPICAL, (Z, L(0)))]


def test_factor_membership_random():
    rng = random.Random(22)
    for _ in range(100):
        p = _random_poly(rng, max_degree=8, monic=True)
        unit, factors = factor(p)
        assert in_product(p, factors)


def test_divide_worked_example_r2():
    p = trop_poly([1, 0, 1, 0])
    q = divide(p, L(1))
    assert q == trop_poly([0, -1, 0])  # T^2 + (1/r)T + 1 multiplicatively


def test_divide_zero_root_shift():
    p = trop_poly([None, None, 0, 0])  # T^3 + T^2
    assert divide(p, Z) == trop_poly([None, 0, 0])


def test_divide_worked_example_r_half():
    p = trop_poly([-1, 0, -1, 0])
    q = divide(p, L(-1))
    assert q == trop_poly([0, -1, 0])  # T^2 + rT + 1: the maximal member


def test_divide_not_a_root():
    with pytest.raises(NotARootError):
        divide(trop_poly([1, 0, 1, 0]), L(7))
    with pytest.raises(NotARootError):
        divide(trop_poly([1, 0]), Z)


@pytest.mark.parametrize("p, a, error, message", [
    (trop_poly([1, 0, 1, 0]), L(7), NotARootError, "7 is not a root of the polynomial"),
    # the message cuts the root's text to 20 characters
    (trop_poly([1, 0, 1, 0]), L(Fraction(-123456789, 1000000007)), NotARootError,
     "-123456789/100000000 is not a root of the polynomial"),
    (trop_poly([1, 0]), Z, NotARootError,
     "zero is not a root (the constant coefficient is nonzero)"),
    (trop_poly([3]), L(1), ConstantPolynomialError, "a polynomial of degree >= 1 is required"),
    (trop_poly([]), Z, ConstantPolynomialError, "a polynomial of degree >= 1 is required"),
], ids=["non-root", "long-root", "zero-root", "constant", "zero-polynomial"])
def test_search_quotients_refuses_as_divide_does(p, a, error, message):
    for operation in (divide, search_quotients):
        with pytest.raises(error) as got:
            operation(p, a)
        assert type(got.value) is error and str(got.value) == message, operation.__name__


def test_is_quotient_probe_grid():
    p = trop_poly([1, 0, 1, 0])
    a = L(1)
    for e in (-3, -2, Fraction(-3, 2), -1):
        assert is_quotient(p, a, trop_poly([0, e, 0]))
    assert is_quotient(p, a, trop_poly([0, None, 0]))  # s = zero
    for e in (Fraction(-1, 2), 0, 1):
        assert not is_quotient(p, a, trop_poly([0, e, 0]))
    # the naive elementary-symmetric candidate and both partial outputs fail
    assert not is_quotient(p, a, trop_poly([0, 0, 0]))
    assert not is_quotient(p, a, trop_poly([2, 1, 0]))
    assert not is_quotient(p, a, trop_poly([1, 1, 0]))


def test_step2_only_output_rejected_for_small_root():
    p = trop_poly([-1, 0, -1, 0])
    a = L(-1)
    step2_only = trop_poly([0, 1, 2])  # multiplicatively r^-2 T^2 + r^-1 T + 1
    assert not is_quotient(p, a, step2_only)
    assert is_quotient(p, a, divide(p, a))


def test_division_correct_on_random_inputs():
    rng = random.Random(23)
    for _ in range(200):
        p = _random_poly(rng, max_degree=10)
        for locus in roots_with_multiplicities(p):
            q = divide(p, locus.root)
            assert is_quotient(p, locus.root, q)


# exponents with denominators 1-7, and values that may be the zero
EXPONENTS = st.builds(Fraction, st.integers(-14, 14), st.integers(1, 7))
VALUES = st.one_of(st.just(Z), EXPONENTS.map(TropValue))


@st.composite
def root_built_poly(draw):
    """A polynomial with a drawn root multiset: its coefficients are the
    tops c_k = c_n * a_{k+1} * ... * a_n over the ascending roots, and a
    coefficient off the hull's vertices (a_k = a_{k+1}) may be lowered,
    to zero too, which leaves the roots unchanged.  Repeated and zero
    roots, and so leading zero coefficients, are common."""
    n = draw(st.integers(1, 12))
    pool = draw(st.lists(VALUES, min_size=1, max_size=4))
    roots = sorted((draw(st.sampled_from(pool)) for _ in range(n)), key=TropValue.sort_key)
    coeffs = [L(draw(EXPONENTS))]
    for root in reversed(roots):
        coeffs.append(coeffs[-1] * root)
    coeffs.reverse()
    for k in range(1, n):
        if roots[k - 1] == roots[k] and not coeffs[k].is_zero and draw(st.booleans()):
            drop = draw(st.one_of(st.none(), EXPONENTS.filter(lambda e: e > 0)))
            coeffs[k] = Z if drop is None else L(coeffs[k].exponent - drop)
    return Polynomial(TROPICAL, tuple(coeffs))


@st.composite
def free_poly(draw):
    """Any coefficients, zeros and leading zeros included."""
    lower = draw(st.lists(VALUES, min_size=1, max_size=11))
    return Polynomial(TROPICAL, (*lower, L(draw(EXPONENTS))))


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(root_built_poly(), free_poly()), st.lists(VALUES, max_size=3))
def test_divide_matches_reference(p, others):
    # every root, some other values and zero: the same quotient, or a
    # NotARootError with the same message
    roots = {TropValue(s) for s in reference_newton_polygon(p).slopes}
    for a in sorted(roots | set(others) | {Z}, key=TropValue.sort_key):
        try:
            expected = reference_divide(p, a)
        except NotARootError as e:
            with pytest.raises(NotARootError) as got:
                divide(p, a)
            assert str(got.value) == str(e)
        else:
            assert divide(p, a) == expected, (str(p), str(a))


def _linear(a):
    return Polynomial(TROPICAL, (a, TROPICAL.one))


@st.composite
def division_question(draw):
    """(p, a, q) for the check p in (T + a) * q, mostly members, built:
    q is ``divide(p, a)`` with coefficients lowered where both of their
    rows of (T + a) * q are intervals, or p is drawn from those rows for
    any a and q (a constant q too), then perhaps has one coefficient
    raised.  The rest are a zero q and a q of the wrong degree."""
    mode = draw(st.sampled_from(("divided",) * 3 + ("rows",) * 3 + ("raised", "zero", "degree")))
    if mode == "divided":
        p = draw(st.one_of(root_built_poly(), free_poly()))
        a = draw(st.sampled_from([locus.root for locus in roots_with_multiplicities(p)]))
        q = divide(p, a)
        rows = product_coefficient_sets(_linear(a), q)
        inside = [i for i, d in enumerate(q.coeffs)
                  if not d.is_zero and rows[i].interval and rows[i + 1].interval]
        cs = list(q.coeffs)
        for i in draw(st.sets(st.sampled_from(inside))) if inside else ():
            cs[i] = Z if draw(st.booleans()) else L(cs[i].exponent - draw(STEPS))
        return p, a, Polynomial(TROPICAL, tuple(cs))
    a = draw(VALUES)
    degree = draw(st.integers(0, 5))
    q = Polynomial(TROPICAL, (*draw(st.lists(VALUES, min_size=degree, max_size=degree)),
                              L(draw(EXPONENTS))))
    p = Polynomial(TROPICAL, tuple(_draw_member(draw, row)
                                   for row in product_coefficient_sets(_linear(a), q)))
    if mode == "raised":
        cs = list(p.coeffs)
        i = draw(st.integers(0, len(cs) - 1))
        step = draw(STEPS)
        cs[i] = L(step if cs[i].is_zero else cs[i].exponent + step)
        p = Polynomial(TROPICAL, tuple(cs))
    elif mode == "zero":
        q = Polynomial(TROPICAL, ())
    elif mode == "degree":
        q = Polynomial(TROPICAL, q.coeffs + (L(draw(EXPONENTS)),) * draw(st.sampled_from((1, 2)))
                       if draw(st.booleans()) or q.degree == 0 else q.coeffs[1:])
    return p, a, q


def test_divides_linearly_matches_the_relation_reference():
    verdicts = []

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(division_question())
    def check(question):
        p, a, q = question
        want = reference_divides_linearly(p, a, q)
        assert divides_linearly(p, a, q) == want, (str(p), str(a), str(q))
        verdicts.append(want)

    check()
    # the strategy builds members, which random coefficients almost never are
    assert sum(verdicts) > len(verdicts) / 2


def _check_polygon_against_reference(p):
    """The polygon, its vertex and slope types, and the root loci and
    factorization built from the reference polygon's slopes alone: one
    locus per run of equal slopes, the zero root first."""
    want = reference_newton_polygon(p)
    got = newton_polygon(p)
    assert got == want, str(p)
    assert [type(h) for _, h in got.vertices] == [type(h) for _, h in want.vertices]
    assert [type(s) for s in got.slopes] == [type(s) for s in want.slopes]
    zero_mult = want.zero_root_multiplicity
    runs = []  # [slope, multiplicity, 1-based start]
    for k, slope in enumerate(want.slopes, start=zero_mult + 1):
        if runs and runs[-1][0] == slope:
            runs[-1][1] += 1
        else:
            runs.append([slope, 1, k])
    loci = ([RootLocus(Z, zero_mult, 1)] if zero_mult else []) + [
        RootLocus(TropValue(slope), m, k) for slope, m, k in runs]
    assert roots_with_multiplicities(p) == loci, str(p)
    linear = [Polynomial(TROPICAL, (locus.root, TROPICAL.one))
              for locus in loci for _ in range(locus.multiplicity)]
    assert factor(p) == (p.lead, linear), str(p)


@st.composite
def wide_poly(draw):
    """Degree 1-48: up to four leading zeros, then coefficients that may be
    the zero, then a nonzero lead."""
    n = draw(st.integers(1, 48))
    zeros = draw(st.integers(0, min(n, 4)))
    rest = draw(st.lists(VALUES, min_size=n - zeros, max_size=n - zeros))
    return Polynomial(TROPICAL, (Z,) * zeros + tuple(rest) + (L(draw(EXPONENTS)),))


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(wide_poly(), root_built_poly()))
def test_newton_polygon_matches_reference(p):
    _check_polygon_against_reference(p)


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(wide_poly(), root_built_poly(), free_poly()))
def test_roots_and_factor_read_the_public_polygon(p):
    # the root loci come from the int hull, and must be the segments
    # between the public polygon's finite vertices, each with its slope
    polygon = newton_polygon(p)
    zero_mult = polygon.zero_root_multiplicity
    hull = polygon.vertices[zero_mult:]
    loci = [RootLocus(Z, zero_mult, 1)] if zero_mult else []
    for (i1, h1), (i2, h2) in zip(hull, hull[1:]):
        slope = polygon.slopes[i1 - zero_mult]
        assert slope == (h2 - h1) / (i2 - i1), str(p)
        loci.append(RootLocus(TropValue(slope), i2 - i1, i1 + 1))
    assert roots_with_multiplicities(p) == loci, str(p)
    assert factor(p) == (p.lead, [_linear(locus.root) for locus in loci
                                  for _ in range(locus.multiplicity)]), str(p)


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(free_poly(), free_poly())
def test_max_plus_is_the_top_of_each_product_row(p, q):
    scale, a, b = _scaled(p.coeffs, q.coeffs)
    tops = _max_plus(a, b)
    assert [TropValue._from_scaled(v, scale) for v in tops] == [
        row.top for row in product_coefficient_sets(p, q)], (str(p), str(q))


def test_hostile_denominators_polygon_matches_reference():
    # coefficient i has denominator HOSTILE[i % 4], and the top four are
    # nonzero, so the scale of every case is the lcm of all four
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(3, 48)
        coeffs = [L(rng.randint(-2, 2) + Fraction(rng.choice((-2, -1, 1, 2)), HOSTILE[i % 4]))
                  for i in range(n + 1)]
        for i in range(n - 3):
            if rng.random() < 0.25:
                coeffs[i] = Z
        p = Polynomial(TROPICAL, tuple(coeffs))
        assert len(str(lcm(*(c.exponent.denominator for c in coeffs if not c.is_zero)))) > 1300
        start = time.perf_counter()
        _check_polygon_against_reference(p)
        for locus in roots_with_multiplicities(p):
            assert divide(p, locus.root) == reference_divide(p, locus.root), seed
        assert time.perf_counter() - start < 1, seed


def test_maximality_single_raise_fails():
    rng = random.Random(24)
    for _ in range(60):
        p = _random_poly(rng, max_degree=8)
        for locus in roots_with_multiplicities(p):
            if locus.root.is_zero:
                continue
            q = divide(p, locus.root)
            for i, c in enumerate(q.coeffs):
                raised = list(q.coeffs)
                raised[i] = L(c.exponent + 1) if not c.is_zero else L(-50)
                cand = Polynomial(TROPICAL, tuple(raised))
                if cand.degree != q.degree:
                    continue
                assert not is_quotient(p, locus.root, cand)


def test_search_quotients_dominated_by_division_output():
    p = trop_poly([1, 0, 1, 0])
    a = L(1)
    top = divide(p, a)
    found = search_quotients(p, a)
    assert top in found
    for q in found:
        assert all(c <= t for c, t in zip(q.coeffs, top.coeffs))
    # the family T^2 + sT + 1 appears with lowered middle coefficients
    assert trop_poly([0, -2, 0]) in found
    assert trop_poly([0, None, 0]) in found


def test_search_quotients_edge_budgets():
    p = trop_poly([1, 0, 1, 0])
    a = L(1)
    top = divide(p, a)
    for max_changed in (-1, 0):
        assert search_quotients(p, a, max_changed=max_changed) == [top]
    assert search_quotients(p, a, max_changed=4) == search_quotients(p, a, max_changed=3)
    # a delta of 0 reproduces the coefficient and adds no duplicate
    assert search_quotients(p, a, deltas=(0,)) == [trop_poly([0, None, 0]), top]
    zero_root = trop_poly([None, 1, 0, 1, 0])
    assert search_quotients(zero_root, Z) == [p]


def test_search_quotients_refuses_float_deltas():
    # 0.1 is no exact rational: it would lower by a binary fraction over 2^55
    p = trop_poly([1, 0, 1, 0])
    with pytest.raises(ValueError) as want:
        L(0.1)
    with pytest.raises(ValueError) as got:
        search_quotients(p, L(1), deltas=(0.1,))
    assert str(got.value) == str(want.value)


def test_search_quotients_matches_perturbation_oracle():
    """The relation walk returns the oracle's list, order included."""
    rng = random.Random(30)
    seen = dict.fromkeys(("repeated root", "zero middle", "zero root", "several found"), 0)
    for k in range(54):
        n = 1 + k % 9
        # small integer exponents make repeated roots common
        coeffs = [Z if rng.random() < 0.2 else L(rng.randint(-3, 3)) for _ in range(n)]
        if rng.random() < 0.25:
            coeffs[0] = Z
        p = Polynomial(TROPICAL, tuple(coeffs) + (L(rng.randint(-1, 1)),))
        loci = roots_with_multiplicities(p)
        seen["repeated root"] += any(l.multiplicity > 1 for l in loci)
        seen["zero middle"] += any(c.is_zero for c in p.coeffs[1:])
        seen["zero root"] += loci[0].root.is_zero
        for locus in loci:
            for deltas in ((1, 2), (Fraction(1, 2), 3), (0,), (-1, Fraction(1, 3))):
                for max_changed in (-1, 0, 1, 2, 3, n + 1):
                    # the oracle builds sum_k C(n, k) (len(deltas) + 1)^k candidates
                    work = sum(comb(n, j) * (len(deltas) + 1) ** j
                               for j in range(1, min(max_changed, n) + 1))
                    if work > 800:
                        continue
                    got = search_quotients(p, locus.root, deltas=deltas, max_changed=max_changed)
                    assert got == brute_search_quotients(
                        p, locus.root, deltas=deltas, max_changed=max_changed), (p, locus.root)
                    seen["several found"] += len(got) > 1
    assert all(count >= 10 for count in seen.values()), seen


def test_search_quotients_matches_the_reference():
    """At workload sizes, where the perturbation oracle skips every case,
    the walk on scaled ints returns the ``TropValue`` walk's list."""
    seen = dict.fromkeys(("repeated root", "zero middle", "zero root", "several found"), 0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(root_built_poly(), free_poly()))
    def check(p):
        loci = roots_with_multiplicities(p)
        seen["repeated root"] += any(l.multiplicity > 1 for l in loci)
        seen["zero middle"] += any(c.is_zero for c in p.coeffs[1:])
        seen["zero root"] += loci[0].root.is_zero
        for locus in loci:
            got = search_quotients(p, locus.root)
            assert got == reference_search_quotients(p, locus.root), (str(p), str(locus.root))
            seen["several found"] += len(got) > 1

    check()
    assert all(count >= 20 for count in seen.values()), seen


def test_search_quotients_with_hostile_denominators_match_the_reference():
    # roots, lead and one delta have Mersenne denominators 2^p - 1, the
    # delta's often one that p lacks, so the scale is an lcm of hundreds
    # of digits; p is built around a triple root, so lowered quotients exist
    several = 0
    for seed in range(12):
        rng = random.Random(seed)

        def exponent():
            return rng.randint(-2, 2) + Fraction(rng.choice((-2, -1, 1, 2)), rng.choice(HOSTILE))

        pool = [L(exponent()), L(exponent()), Z]
        roots = sorted([rng.choice(pool)] * 3 + [rng.choice(pool)] * rng.randint(0, 1),
                       key=TropValue.sort_key)
        coeffs = [L(exponent())]
        for root in reversed(roots):
            coeffs.append(coeffs[-1] * root)
        p = Polynomial(TROPICAL, tuple(reversed(coeffs)))
        deltas = (1, Fraction(1, rng.choice(HOSTILE)))
        for locus in roots_with_multiplicities(p):
            for max_changed in (1, 2, p.degree):
                got = search_quotients(p, locus.root, deltas=deltas, max_changed=max_changed)
                assert got == reference_search_quotients(
                    p, locus.root, deltas=deltas, max_changed=max_changed), seed
                several += len(got) > 1
    assert several >= 10


def test_proof_inequalities():
    rng = random.Random(25)
    for _ in range(150):
        p = _random_poly(rng, max_degree=10)
        roots = _flat_roots(p)
        n = p.degree
        products = _suffix_products(roots, p.lead)
        for locus in roots_with_multiplicities(p):
            a = locus.root
            if a.is_zero:
                continue
            k, m = locus.start, locus.multiplicity
            d = divide(p, a).coeffs
            for i in range(k + m - 1, n):
                assert a * d[i] <= products[i]          # a d_i <= a_{i+1}..a_n c_n
            for i in range(0, k - 1):
                assert d[i] <= products[i + 1]          # d_i <= a_{i+2}..a_n c_n


def test_simple_root_shortcuts_and_uniqueness():
    rng = random.Random(26)
    checked = 0
    for _ in range(400):
        p = _random_poly(rng, max_degree=6)
        loci = roots_with_multiplicities(p)
        roots = _flat_roots(p)
        n = p.degree
        products = _suffix_products(roots, p.lead)
        for locus in loci:
            if locus.root.is_zero:
                continue
            k, m = locus.start, locus.multiplicity
            d = divide(p, locus.root).coeffs
            c = p.coeffs
            for i in range(k + m - 1, n - 1):
                if roots[i] < roots[i + 1]:
                    assert d[i] == c[i + 1]
            for i in range(1, k - 1):
                if roots[i - 1] < roots[i]:
                    assert d[i] == locus.root.inv() * c[i]
        if all(l.multiplicity == 1 for l in loci) and not loci[0].root.is_zero:
            # all roots simple: the quotient is unique; any change breaks it
            a = loci[rng.randrange(len(loci))].root
            q = divide(p, a)
            for i, cv in enumerate(q.coeffs):
                for delta in (Fraction(1), Fraction(-1), Fraction(1, 2)):
                    alt = list(q.coeffs)
                    alt[i] = L(cv.exponent + delta) if not cv.is_zero else L(0)
                    cand = Polynomial(TROPICAL, tuple(alt))
                    if cand == q or cand.degree != q.degree:
                        continue
                    assert not is_quotient(p, a, cand)
                if not cv.is_zero:
                    alt = list(q.coeffs)
                    alt[i] = Z
                    cand = Polynomial(TROPICAL, tuple(alt))
                    if cand.degree == q.degree:
                        assert not is_quotient(p, a, cand)
            checked += 1
    assert checked > 20


def test_every_positive_degree_polynomial_has_roots():
    rng = random.Random(27)
    for _ in range(200):
        p = _random_poly(rng, max_degree=7, monic=False)
        loci = roots_with_multiplicities(p)
        assert sum(l.multiplicity for l in loci) == p.degree
        for locus in loci:
            assert is_root(p, locus.root)


def test_root_set_matches_polygon_slopes():
    rng = random.Random(28)
    for _ in range(150):
        p = _random_poly(rng, max_degree=8, monic=False)
        roots = [l.root for l in roots_with_multiplicities(p)]
        candidates = set(roots)
        # midpoints between consecutive distinct roots, and outliers
        finite = [r for r in roots if not r.is_zero]
        for r1, r2 in zip(finite, finite[1:]):
            candidates.add(L(Fraction(r1.exponent + r2.exponent, 2)))
        if finite:
            candidates.add(L(finite[0].exponent - 5))
            candidates.add(L(finite[-1].exponent + 5))
        candidates.add(Z)
        for cand in candidates:
            assert is_root(p, cand) == (cand in roots)


def test_is_root_and_divide_follow_the_hypersum_definition():
    # polynomials of degree 1-6 with zero coefficients, leading ones among
    # them, a third over the HOSTILE denominators; candidates: the zero,
    # every Newton-polygon slope (a root), and each slope moved by 1/7
    # either way when that is no slope (no root).  The definition: 0 lies
    # in the hypersum of the terms c_i * a^i, on Fractions, where at the
    # zero root every term but c_0 is the zero.  divide shares is_root's
    # root test, so it refuses exactly the non-roots.
    rng = random.Random(41)
    zero_roots = 0
    for k in range(240):
        den = rng.choice(HOSTILE) if k % 3 == 0 else rng.randint(1, 6)

        def exponent():
            return rng.randint(-2, 2) + Fraction(rng.randint(-12, 12), den)

        coeffs = [Z if rng.random() < 0.25 else L(exponent()) for _ in range(rng.randint(1, 6))]
        p = Polynomial(TROPICAL, (*coeffs, L(exponent())))
        slopes = set(newton_polygon(p).slopes)
        near = {s + d for s in slopes for d in (Fraction(1, 7), Fraction(-1, 7))} - slopes
        for a, root in [(Z, p.coeffs[0].is_zero), *((L(s), True) for s in slopes),
                        *((L(v), False) for v in near)]:
            terms = [None if c.is_zero or (a.is_zero and i) else
                     c.exponent + (0 if a.is_zero else i * a.exponent)
                     for i, c in enumerate(p.coeffs)]
            assert trop_member_raw(None, terms) == root, (str(p), str(a))
            assert is_root(p, a) == root, (str(p), str(a))
            try:
                divide(p, a)
            except NotARootError:
                assert not root, (str(p), str(a))
            else:
                assert root, (str(p), str(a))
            zero_roots += a.is_zero and root
    assert zero_roots > 20


def test_linear_product_members_have_the_root():
    # any member of (T + a) * q has a as a root
    rng = random.Random(29)
    for _ in range(80):
        a = L(rng.randint(-4, 4)) if rng.random() > 0.1 else Z
        q = _random_poly(rng, max_degree=5, monic=False)
        from hyperpoly import product_coefficient_sets

        lin = Polynomial(TROPICAL, (a, L(0)))
        rows = product_coefficient_sets(lin, q)
        member = Polynomial(TROPICAL, tuple(s.top for s in rows))
        assert is_root(member, a)
        lowered = tuple(
            s.top if not s.interval or s.top.is_zero
            else L(s.top.exponent - 1) for s in rows)
        other = Polynomial(TROPICAL, lowered)
        if other.degree == member.degree:
            assert is_root(other, a)


def test_scaling_leaves_roots_fixed():
    p = trop_poly([1, 0, 1, 0])
    scaled = p.scale(L(7))
    assert _flat_roots(p) == _flat_roots(scaled)
    q = divide(scaled, L(1))
    assert is_quotient(scaled, L(1), q)
