"""Cross-checks for n-fold tropical membership against a grid oracle.

For integer exponents the greatest chain through a target has integer
coefficients, between the all-tops chain and the floor of
``polynomials._greatest_chain``, so a search over that integer grid
(plus zero) finds a witness whenever one exists.  The oracle below
scales rational exponents to integers first and is complete on such
instances, at brute-force cost.  The property tests check every
``in_product`` answer with a certificate instead: each member comes with
the greatest intermediates, whose links are checked against the rows of
``product_coefficient_sets``, with none of the code that decides
membership, over fractional exponents the grid does not cover, two to
four factors, and targets off the forced end coefficients.  Further
tests pin the all-tops hull check, which decides linear factors (no
explicit chain member of any factors fails it), the lowering on targets
above that chain or off it at a hull vertex, the chase that the
lowering's floor ends, the replay that jumps over repeated sweeps and
the floor taken on demand against the plain lowering of ``oracles``,
and questions that the heuristic search it replaced answered wrongly
or slowly.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hyperpoly
from hyperpoly import (Polynomial, TROPICAL, TropValue, in_product, polynomials,
                       product_coefficient_sets, trop_poly)
from hyperpoly.parsing import format_polynomial, parse_polynomial
from hyperpoly.polynomials import _chain_member, _greatest_chain, _linear_tropical_member, _scaled
from oracles import plain_lowering

L = TropValue.log
Z = TropValue.zero()


def _row_holds(value, terms):
    """value in the hypersum of terms, from the definition on ints with None
    the zero: the maximum of value and terms is attained twice, or all are zero."""
    entries = [e for e in (value, *terms) if e is not None]
    return not entries or entries.count(max(entries)) > 1


def grid_oracle(r, fs):
    """Exhaustive search for intermediates w_1 .. w_{n-1} with w_i in
    w_{i-1} * fs[i], w_0 = fs[0] and r in w_{n-1} * fs[n].

    Exponents are scaled to integers.  Each intermediate coefficient
    ranges over zero and the integers from the floor, the lowest exponent
    of r and fs[0] less the number of intermediate coefficients times
    the spread of the other factors' exponents and 0, up to the highest
    all-tops coefficient.  The search runs coefficient by coefficient and
    drops a partial chain at its first failing row."""
    polys = (r, *fs)
    scale = lcm(*(c.exponent.denominator for p in polys for c in p.coeffs if not c.is_zero))
    target, *qs = [[None if c.is_zero else int(c.exponent * scale) for c in p.coeffs]
                   for p in polys]

    def terms(w, q, i):
        return [w[k] + q[i - k] for k in range(len(w)) if 0 <= i - k < len(q)
                and w[k] is not None and q[i - k] is not None]

    tops = [qs[0]]
    for q in qs[1:-1]:
        tops.append([max(terms(tops[-1], q, i), default=None)
                     for i in range(len(tops[-1]) + len(q) - 1)])
    spread = [0, *(e for q in qs[1:] for e in q if e is not None)]
    lo = (min(e for e in target + qs[0] if e is not None)
          - sum(map(len, tops[1:])) * (max(spread) - min(spread)))
    hi = max((e for w in tops[1:] for e in w if e is not None), default=lo)
    grid = [None, *range(lo, hi + 1)]

    def extend(chain, w):
        """Whether the partial intermediate w after ``chain`` completes."""
        idx, below = len(chain), chain[-1]
        size, last = len(below) + len(qs[idx]) - 1, idx == len(qs) - 2
        if len(w) == size:  # the last intermediate still owes the target rows above it
            return (all(_row_holds(target[j], terms(w, qs[-1], j))
                        for j in range(size, len(target))) if last else extend(chain + [w], []))
        i = len(w)
        return any(extend(chain, w + [x]) for x in grid
                   if _row_holds(x, terms(below, qs[idx], i))
                   and (not last or _row_holds(target[i], terms(w + [x], qs[-1], i))))

    if len(qs) == 2:
        return len(target) == len(qs[0]) + len(qs[1]) - 1 and all(
            _row_holds(c, terms(qs[0], qs[1], i)) for i, c in enumerate(target))
    return extend([qs[0]], [])


def test_interior_intermediate_found():
    # membership requires the middle coefficient of the intermediate to sit
    # strictly inside its interval: (T+1)^2 then (T+4), target tie at 1/4
    f = trop_poly([0, 0])
    g = trop_poly([2, 0])
    r = trop_poly([2, -1, 2, 0])  # T^3 + 4T^2 + (1/2)T + 4 multiplicatively
    assert in_product(r, [f, f, g])
    assert grid_oracle(r, [f, f, g])
    # a linear coefficient above everything the cross terms can reach fails
    bad = trop_poly([2, 3, 2, 0])
    assert not in_product(bad, [f, f, g])
    assert not grid_oracle(bad, [f, f, g])


def test_zero_intermediate_coefficient():
    # the image of (T+1)(T-1) over a field has a vanishing middle term;
    # the corresponding tropical intermediate needs its interval coefficient at zero
    f = trop_poly([0, 0])
    r = Polynomial(TROPICAL, (L(4), L(4), Z, L(0)))  # wants w = T^2 + zero*T + 1
    g = trop_poly([4, 0])
    assert in_product(r, [f, f, g]) == grid_oracle(r, [f, f, g])


def test_chain_search_matches_grid_oracle_randomized():
    rng = random.Random(77)
    agree = members = 0
    for _ in range(80):
        factors = [
            Polynomial(TROPICAL, tuple(L(rng.randint(-2, 2))
                                       for _ in range(rng.randint(1, 2))) + (L(rng.randint(-1, 1)),))
            for _ in range(3)
        ]
        total = sum(q.degree for q in factors)
        lead = TROPICAL.one
        const = TROPICAL.one
        for q in factors:
            lead = lead * q.lead
            const = const * q.coeffs[0]
        tops = factors[0]
        for q in factors[1:]:
            tops = Polynomial(TROPICAL,
                              tuple(s.top for s in product_coefficient_sets(tops, q)))
        for probe in range(6):
            if probe < 3:
                # perturb the all-tops profile downward: mostly members
                middle = tuple(
                    Z if rng.random() < 0.1 or c.is_zero else
                    (c if rng.random() < 0.5 else TropValue(c.exponent - Fraction(rng.randint(0, 4), 2)))
                    for c in tops.coeffs[1:-1])
            else:
                middle = tuple(
                    Z if rng.random() < 0.15 else L(Fraction(rng.randint(-8, 8), 2))
                    for _ in range(total - 1))
            r = Polynomial(TROPICAL, (const,) + middle + (lead,))
            if r.degree != total:
                continue
            got = in_product(r, factors)
            want = grid_oracle(r, factors)
            assert got == want, (str(r), [str(q) for q in factors])
            agree += 1
            members += want
    assert agree > 150
    assert members > 40


def test_four_factor_linear_consistency():
    # all-linear lists go through the closed form; compare with the chain
    # search forced through general code by mixing in a quadratic factor
    rng = random.Random(78)
    for _ in range(40):
        lin = [Polynomial(TROPICAL, (L(rng.randint(-2, 2)), L(0))) for _ in range(2)]
        quad_roots = [L(rng.randint(-2, 2)) for _ in range(2)]
        lo, hi = min(quad_roots), max(quad_roots)
        quad = Polynomial(TROPICAL, (lo * hi, hi, L(0)))  # the maximal member profile
        assert in_product(quad, [Polynomial(TROPICAL, (a, L(0))) for a in quad_roots])
        target_factors = lin + [quad]
        # any member of the full linear product must be reachable with the
        # quadratic treated as an opaque factor when the quadratic's own
        # slack is not needed: probe the all-tops profile
        acc = target_factors[0]
        for q in target_factors[1:]:
            rows = product_coefficient_sets(acc, q)
            acc = Polynomial(TROPICAL, tuple(s.top for s in rows))
        assert in_product(acc, target_factors)


def test_target_above_the_all_tops_chain_is_refused_at_once():
    # the max-plus product of (1 + T + T^2)^8 with its middle coefficient
    # raised: the all-tops chain holds every row, so the lowering's first
    # sweep reaches the target and refutes it at that coefficient, which
    # alone is largest in its row and cannot come down
    fs = [trop_poly([0, 0, 0])] * 8
    raised = [0] * 17
    raised[8] = 1
    start = time.perf_counter()
    assert not in_product(trop_poly(raised), fs)
    assert time.perf_counter() - start < 1.0
    assert in_product(trop_poly([0] * 17), fs)


def test_target_below_the_all_tops_chain_is_refused_at_once():
    # the README's example: it lies below the all-tops chain but misses
    # its value at a hull vertex, whose cross term strictly beats its row,
    # so the lowering brings that term down link by link to the first factor
    r = parse_polynomial("0:T^10+-2:T^9+1:T^8+-1:T^7+5/3:T^6+-1:T^5+2:T^4+-1:T^3"
                         "+2:T^2+-1:T+2", TROPICAL)
    fs = _parse_all("0:T^2+-3:T+0;0:T^2+-2:T+1;0:T^2+-3:T+0;0:T^2+-2:T+1;0:T^2+-3:T+0")
    start = time.perf_counter()
    assert not in_product(r, fs)
    assert time.perf_counter() - start < 0.1


# (target, factors, witness intermediates): members that the heuristic
# tie-candidate search, which the lowering replaced, missed
MISSED_MEMBERS = [
    ("-4:T^5+-2:T^4+-4:T^3+1:T+2", "-1:T^2+-1:T+1;-1:T+0;-1:T+0;-1:T+1",
     "-2:T^3+-1:T^2+0:T+1;-3:T^4+-4:T^3+-2:T^2+0:T+1"),
    ("-1:T^5+-2:T^4+3:T^3+4:T^2+4:T+4", "-1:T^2+1:T+1;-1:T+1;1:T+1;0:T+1",
     "-2:T^3+-1:T^2+2:T+2;-1:T^4+0:T^3+3:T^2+3:T+3"),
]


def _parse_all(texts):
    return [parse_polynomial(t, TROPICAL) for t in texts.split(";")]


def assert_links_check_out(r, fs, chain):
    """Each link w_i in w_{i-1} * fs[i] of the chain fs[0], *chain, r,
    checked on ``TropValue``s against the rows of ``product_coefficient_sets``,
    with none of the code that decides membership."""
    for left, q, product in zip([fs[0], *chain], fs[1:], [*chain, r]):
        rows = product_coefficient_sets(left, q)
        assert len(rows) == len(product.coeffs) and all(
            row.contains(c) for row, c in zip(rows, product.coeffs)), (
            str(product), str(left), str(q))


@pytest.mark.parametrize("target, factors, chain", MISSED_MEMBERS, ids=["case1", "case2"])
def test_missed_member_witness_checks_out_link_by_link(target, factors, chain):
    assert_links_check_out(parse_polynomial(target, TROPICAL), _parse_all(factors),
                           _parse_all(chain))


@pytest.mark.parametrize("target, factors, chain", MISSED_MEMBERS, ids=["case1", "case2"])
def test_missed_member_is_found(target, factors, chain):
    assert in_product(parse_polynomial(target, TROPICAL), _parse_all(factors))


def _passes_the_hull_check(r, fs):
    tops = fs[0]
    for q in fs[1:]:
        tops = Polynomial(TROPICAL, tuple(row.top for row in product_coefficient_sets(tops, q)))
    _, target, scaled_tops = _scaled(r.coeffs, tops.coeffs)
    return _linear_tropical_member(target, scaled_tops)


def test_missed_members_pass_the_hull_check():
    for target, factors, _ in MISSED_MEMBERS:
        assert _passes_the_hull_check(parse_polynomial(target, TROPICAL), _parse_all(factors))


# exponents with denominators 1-7; None is the tropical zero
EXPONENTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
STEPS = st.builds(Fraction, st.integers(1, 6), st.integers(1, 7))
COEFFS = st.one_of(st.none(), EXPONENTS)


@st.composite
def tropical_factor(draw):
    degree = draw(st.integers(1, 3))
    coeffs = draw(st.lists(COEFFS, min_size=degree, max_size=degree)) + [draw(EXPONENTS)]
    return trop_poly(coeffs)


def _draw_member(draw, row):
    """A member of a row of ``product_coefficient_sets``: its top, or for an interval
    also zero or a value below the top."""
    if not row.interval or row.top.is_zero:
        return row.top
    choice = draw(st.sampled_from(("top", "zero", "below")))
    if choice == "below":
        return TropValue(row.top.exponent - draw(STEPS))
    return row.top if choice == "top" else TROPICAL.zero


@st.composite
def chain_question(draw):
    """Factors and a target: the end of an explicit chain, that end with its
    constant raised, lowered or zeroed or its lead raised or lowered, or
    the all-tops chain with middle coefficients lowered, or with one raised."""
    fs = draw(st.lists(tropical_factor(), min_size=2, max_size=4))
    mode = draw(st.sampled_from(("chain", "ends", "lowered", "raised")))
    current = fs[0]
    for q in fs[1:]:
        rows = product_coefficient_sets(current, q)
        if mode in ("chain", "ends"):
            current = Polynomial(TROPICAL, tuple(_draw_member(draw, row) for row in rows))
        else:
            current = Polynomial(TROPICAL, tuple(row.top for row in rows))
    cs = list(current.coeffs)
    middle = range(1, len(cs) - 1)
    if mode == "ends":
        # a zero lead would lower the degree
        i, change = draw(st.sampled_from([(0, "raised"), (0, "lowered"), (0, "zero"),
                                          (-1, "raised"), (-1, "lowered")]))
        if change == "zero" or change == "lowered" and cs[i].is_zero:
            cs[i] = TROPICAL.zero
        else:
            step = draw(STEPS) if change == "raised" else -draw(STEPS)
            cs[i] = TropValue(step if cs[i].is_zero else cs[i].exponent + step)
    elif mode == "lowered":
        for i in draw(st.sets(st.sampled_from(middle), min_size=1)):
            cs[i] = (TROPICAL.zero if cs[i].is_zero or draw(st.booleans())
                     else TropValue(cs[i].exponent - draw(STEPS)))
    elif mode == "raised":
        i = draw(st.sampled_from(middle))
        step = draw(STEPS)
        cs[i] = TropValue(step if cs[i].is_zero else cs[i].exponent + step)
    return Polynomial(TROPICAL, tuple(cs)), fs


@st.composite
def chain_member(draw):
    """The end of an explicit left-nested chain of 2-5 factors."""
    fs = draw(st.lists(tropical_factor(), min_size=2, max_size=5))
    current = fs[0]
    for q in fs[1:]:
        current = Polynomial(TROPICAL, tuple(_draw_member(draw, row)
                                             for row in product_coefficient_sets(current, q)))
    return current, fs


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chain_member())
def test_no_chain_member_fails_the_hull_check(question):
    r, fs = question
    assert _passes_the_hull_check(r, fs), (str(r), [str(q) for q in fs])


def greatest_intermediates(r, fs):
    """``_greatest_chain`` on the scaled coefficients of r and fs, its
    intermediates decoded to polynomials, or None."""
    scale, target, *coeffs = _scaled(r.coeffs, *(q.coeffs for q in fs))
    chain = _greatest_chain(target, coeffs)
    return chain and [trop_poly([None if e is None else Fraction(e, scale) for e in w])
                      for w in chain]


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chain_question())
def test_every_member_comes_with_greatest_intermediates(question):
    r, fs = question
    chain = greatest_intermediates(r, fs)
    assert in_product(r, fs) == (chain is not None), (str(r), [str(q) for q in fs])
    if chain is not None:
        assert_links_check_out(r, fs, chain)


# 2^a - 1 and 2^b - 1 are coprime for coprime a and b: each of these has
# 157 to 664 digits, and their lcm has 1,388
HOSTILE = [2**p - 1 for p in (521, 607, 1279, 2203)]


def _hostile_question(seed):
    rng = random.Random(seed)

    def exponent():
        return rng.randint(-2, 2) + Fraction(rng.choice((-2, -1, 1, 2)), rng.choice(HOSTILE))

    fs = [trop_poly([exponent() for _ in range(3)]) for _ in range(3)]
    tops = fs[0]
    for q in fs[1:]:
        tops = Polynomial(TROPICAL,
                          tuple(row.top for row in product_coefficient_sets(tops, q)))
    cs = list(tops.coeffs)
    i = rng.randrange(1, len(cs) - 1)
    nudge = Fraction(rng.choice((-1, 1)), rng.choice(HOSTILE))
    cs[i] = rng.choice((TROPICAL.zero, TropValue(cs[i].exponent + nudge)))
    return rng.choice((tops, Polynomial(TROPICAL, tuple(cs)))), fs


# the verdicts on _hostile_question(0 .. 29) of the heuristic search that
# the lowering replaced, and of its TropValue reference
HOSTILE_VERDICTS = [False, False, False, False, True, True, True, True, True, True,
                    False, False, False, False, False, True, False, True, True, False,
                    True, True, False, False, True, True, False, False, False, True]


def test_hostile_denominators_match_the_reference():
    for seed, want in enumerate(HOSTILE_VERDICTS):
        r, fs = _hostile_question(seed)
        scale = lcm(*(c.exponent.denominator for p in (r, *fs) for c in p.coeffs
                      if not c.is_zero))
        assert len(str(scale)) > 700
        assert _chain_member(TROPICAL, r.coeffs, [q.coeffs for q in fs]) == want, seed
        assert in_product(r, fs) == want, seed
        if want:
            assert_links_check_out(r, fs, greatest_intermediates(r, fs))


def test_check_product_with_hostile_denominators():
    r, fs = _hostile_question(0)
    env = dict(os.environ, PYTHONPATH=str(Path(hyperpoly.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "hyperpoly", "check-product", "--field", "tropical",
         f"--poly={format_polynomial(r)}", "--factors=" + ";".join(map(format_polynomial, fs))],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{str(in_product(r, fs)).lower()}\n"
    assert out.stderr == ""


def _random_factor(rng, degree):
    return trop_poly([None if rng.random() < 0.3 else rng.randint(-1, 1) for _ in range(degree)]
                     + [rng.randint(-1, 1)])


def test_four_factor_chains_match_the_grid_oracle():
    # explicit chain ends with tied rows lowered or zeroed, and the same
    # ends with one middle coefficient moved, against the exhaustive grid
    rng = random.Random(24)
    answers = set()
    for _ in range(60):
        fs = [_random_factor(rng, degree) for degree in rng.sample([2, 1, 1, 1], 4)]
        current = fs[0]
        for q in fs[1:]:
            current = Polynomial(TROPICAL, tuple(
                row.top if not row.interval or row.top.is_zero else
                rng.choice((row.top, TROPICAL.zero, TropValue(row.top.exponent - 1)))
                for row in product_coefficient_sets(current, q)))
        cs = list(current.coeffs)
        if rng.random() < 0.5:
            i = rng.randrange(1, len(cs) - 1)
            cs[i] = rng.choice((TROPICAL.zero, L(rng.randint(-2, 3))))
        r = Polynomial(TROPICAL, tuple(cs))
        want = grid_oracle(r, fs)
        assert in_product(r, fs) == want, (str(r), [str(q) for q in fs])
        answers.add(want)
    assert answers == {True, False}


def test_quadratic_factor_differs_from_its_roots():
    # a quadratic factor is not the product of its linear factors: the
    # hull check passes both, and only the latter chain reaches the target
    r = parse_polynomial("0:T^4+-2:T^3+0:T^2+-4:T+-4", TROPICAL)
    quadratic = _parse_all("0:T^2+-2:T+-4;0:T+0;0:T+0")
    roots = _parse_all("0:T+-2;0:T+-2;0:T+0;0:T+0")
    assert not in_product(r, quadratic) and not grid_oracle(r, quadratic)
    assert in_product(r, roots) and grid_oracle(r, roots)


def test_degree_twelve_question_is_refused_quickly():
    # the heuristic search answered this after a minute of backtracking
    r = parse_polynomial("2:T^12+2:T^11+3:T^10+3:T^9+3:T^8+3:T^7+3:T^6+3:T^5+3:T^4"
                         "+2:T^3+1:T^2+-1:T+-1", TROPICAL)
    fs = _parse_all("1:T^2+1:T+0;2:T^2+1:T+2;-1:T^2+-1:T+-2;-1:T^2+-2:T+0;"
                    "-1:T^2+-1:T+-1;2:T^2+-2:T+0")
    start = time.perf_counter()
    assert not in_product(r, fs)
    assert time.perf_counter() - start < 1.0


# w = (0, w1, w2, 0) in (1 + T + T^2)(1 + T): rows 2 and 6 of w * q want
# w2 - w1 = 1 and w2 - w1 = 0 at the target's zeros, so lowering chases
# w1 and w2 down together until the floor makes them zero; with the
# middle term of q at -depth instead, the chase ends at a tie with it
CHASE = (trop_poly([0, 1, None, 0, 1, 0, None, 0, 0]), [trop_poly([0, 0, 0]), trop_poly([0, 0])])


@pytest.mark.parametrize("depth, middle", [(None, [None, None]), (3, [-4, -4]),
                                           (10**9, [-10**9 - 1, -10**9 - 1])])
def test_chase_ends_at_the_floor_or_a_distant_tie(depth, middle):
    r, fs = CHASE
    fs = fs + [trop_poly([0, 1, None if depth is None else -depth, None, 0, 0])]
    start = time.perf_counter()
    chain = greatest_intermediates(r, fs)
    assert time.perf_counter() - start < 0.5
    assert chain == [trop_poly([0, *middle, 0])]
    assert in_product(r, fs)
    assert_links_check_out(r, fs, chain)
    if depth is None or depth < 10:
        assert grid_oracle(r, fs)


def _count_jumps(monkeypatch):
    """Wrap ``_replay_windows`` so that each jump it makes is recorded."""
    jumps, replay = [], polynomials._replay_windows

    def counted(*args):
        jumped = replay(*args)
        jumps.append(jumped)
        return jumped

    monkeypatch.setattr(polynomials, "_replay_windows", counted)
    return jumps


def test_replay_lands_where_the_plain_lowering_does(monkeypatch):
    # a seeded walk from CHASE (on scaled ints, with a tie at -12) changes
    # one or two exponents of a chain whose replay jumps, leads kept, and
    # keeps each new chain that jumps too; the plain lowering, which walks
    # every sweep, must land where each jump landed
    jumps = _count_jumps(monkeypatch)
    rng = random.Random(25)
    pool = [((0, 1, None, 0, 1, 0, None, 0, 0), ((0, 0, 0), (0, 0), (0, 1, -12, None, 0, 0)))]
    seen = set()
    for _ in range(6000):
        target, fs = rng.choice(pool)
        levels = [list(target), *map(list, fs)]
        for _ in range(rng.randint(1, 2)):
            w = rng.choice(levels)
            i = rng.randrange(len(w) - 1)
            w[i] = (rng.choice((None, 0, 1, -1, 2, -12)) if w[i] is None
                    else rng.choice((None, w[i] - 1, w[i] + 1, -12)))
        question = (tuple(levels[0]), tuple(map(tuple, levels[1:])))
        if question in seen:
            continue
        seen.add(question)
        jumps.clear()
        chain = _greatest_chain(*question)
        if any(jumps):
            assert chain == plain_lowering(*question), question
            pool.append(question)
    assert len(pool) > 50


@pytest.mark.parametrize("depth", [12, 14, 10**9])
def test_replay_stops_at_the_last_repeated_window(monkeypatch, depth):
    # the bounds (0, w1, w2, 0) chase down to a tie with -depth; a replay
    # one window longer than the pair condition allows overshoots it, and
    # the lowering then refutes a member
    jumps = _count_jumps(monkeypatch)
    target, fs = (0, 1, None, 0, 1, 0, None, 1, 0), [(0, 0, 0), (0, 0), (0, 1, None, -depth, 1, 0)]
    chain = _greatest_chain(target, fs)
    assert any(jumps)
    assert chain == [(0, -depth - 2, -depth - 1, 0)]
    if depth < 100:
        assert chain == plain_lowering(target, fs)


def _all_tops(fs):
    """The all-tops chain's end: each row's maximum, level by level, on
    scaled ints with None the zero."""
    tops = fs[0]
    for q in fs[1:]:
        tops = tuple(max((tops[k] + q[i - k] for k in range(len(tops)) if 0 <= i - k < len(q)
                          and tops[k] is not None and q[i - k] is not None), default=None)
                     for i in range(len(tops) + len(q) - 1))
    return tops


def _lowered(draw, tops):
    """tops with the lead kept and one to three other coefficients lowered
    by 1-3 or zeroed."""
    target = list(tops)
    for i in draw(st.sets(st.integers(0, len(target) - 2), min_size=1, max_size=3)):
        step = draw(st.integers(1, 3))
        target[i] = None if target[i] is None or draw(st.booleans()) else target[i] - step
    return tuple(target)


@st.composite
def lowering_chain(draw):
    """Scaled factors, 3-4 of degree 1-2 with exponents in -3..3 and
    nonzero leads, and a target: the all-tops chain with a lead kept and
    one to three other coefficients lowered or zeroed."""
    coeff = st.one_of(st.none(), st.integers(-3, 3))
    fs = [(*draw(st.lists(coeff, min_size=degree, max_size=degree)), draw(st.integers(-3, 3)))
          for degree in draw(st.lists(st.integers(1, 2), min_size=3, max_size=4))]
    return _lowered(draw, _all_tops(fs)), fs


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lowering_chain())
def test_floor_on_demand_lowers_as_the_plain_lowering(question):
    # the floor is taken when a bound first comes down without refuting,
    # partway through the first sweep; only such chains are kept, and the
    # plain lowering, which takes its floor up front, must agree
    taken, chain_floor = [], polynomials._chain_floor

    def counted(*args):
        taken.append(args)
        return chain_floor(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "_chain_floor", counted)
        chain = _greatest_chain(*question)
    assume(taken)
    assert len(taken) == 1
    assert chain == plain_lowering(*question), question


@st.composite
def any_chain(draw):
    """Scaled factors, 2-4 of degree 1-3 with exponents in -3..3, zeros
    allowed below nonzero leads, and a target with a nonzero lead: the
    all-tops chain itself, a target below it (one to three coefficients
    lowered or zeroed), a built member (each tied row's value drawn below
    its top, link by link) or a target off it (each coefficient drawn
    afresh)."""
    coeff = st.one_of(st.none(), st.integers(-3, 3))
    fs = [(*draw(st.lists(coeff, min_size=degree, max_size=degree)), draw(st.integers(-3, 3)))
          for degree in draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))]
    tops = _all_tops(fs)
    place = draw(st.sampled_from(["at", "below", "member", "off"]))
    if place == "at":
        return tops, fs
    if place == "below":
        return _lowered(draw, tops), fs
    if place == "member":
        w = fs[0]
        for q in fs[1:]:
            rows = [sorted((w[k] + q[i - k] for k in range(len(w)) if 0 <= i - k < len(q)
                            and w[k] is not None and q[i - k] is not None), reverse=True)
                    for i in range(len(w) + len(q) - 1)]
            w = tuple(None if not row else row[0] if len(row) == 1 or row[0] > row[1]
                      else draw(st.one_of(st.none(), st.integers(row[0] - 3, row[0])))
                      for row in rows)
        return w, fs
    body = draw(st.lists(st.one_of(coeff, st.integers(-12, 12)),
                         min_size=len(tops) - 1, max_size=len(tops) - 1))
    return (*body, draw(st.sampled_from([tops[-1], tops[-1] - 1, tops[-1] + 1]))), fs


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(any_chain())
def test_the_one_rule_lowers_as_the_two_rules(question):
    # the lowering's one rule (an entry whose bound alone is its row's
    # largest comes down to the runner-up) against the plain lowering's two
    # (a value above the terms comes down to them, a term alone largest
    # comes down to the larger of the value and the runner-up term): the
    # same greatest chain, or None from both
    assert _greatest_chain(*question) == plain_lowering(*question), question
