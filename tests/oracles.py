"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately dumb and written from the definitions:
the sign hyperaddition as a literal 3x3 table folded over subsets, raw
cartesian enumeration of product members and quotients, factorizations
as products over every bracketing of every ordering, and the lower
convex hull evaluated as a minimum over chords.  None of it shares code
with the library paths it checks.

The exceptions are the sign multiplicity and irreducibility oracles,
which the library computes by closed forms (Descartes' rule of signs
and the classification of irreducibles).  They are the recursive and
split-search definitions, built on the library's ``is_root``,
``all_quotients_sign`` and ``product_coefficient_sets``; the tests check each of
those against the raw enumerations here.  The tropical quotient search
oracle likewise perturbs ``divide``'s answer, and keeps what
``reference_divides_linearly`` accepts: the coefficient relations of
p in (T - a) * q checked one by one, where the library decides that
membership by its chain search.  The tests require the same verdict
from both.  The tropical quotient search reference is the quotient walk
on ``TropValue`` coefficients, relations tested with
``TROPICAL.contains``, where the library walks integer-scaled exponents;
the tests require the same list from both.  The tropical chain reference
is the library's tropical chain search written on ``TropValue``
coefficients through ``product_coefficient_sets`` and
``TropSubset.contains``, where the library runs it on integer-scaled
exponents, after a check against the hull of the all-tops chain that
decides the end coefficients and linear factors alone; the tests require
the same verdict from both.  The closed form for linear factors, suffix
products of the sorted roots on TropValue coefficients, is kept as a
third reference for that check.  The Newton polygon reference is
the monotone-chain hull on the Fraction heights themselves, where the
library builds it on integer-scaled exponents; the tests require the
same vertices, slopes and zero multiplicity from both.  The two division
references reach the same quotients another way: tropical division by
the sorted root list expanded from that reference polygon, and sign
division by the root test of ``raw_sign_roots`` (the hypersum folded
over the literal table) followed by a second scan for the first sign
flip, where the library reads the root test and the split off one list
of terms.  The tests require the same quotient or the same error from
both.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations
from itertools import product as iter_product

from hyperpoly import (SIGN, TROPICAL, ConstantPolynomialError, InternalInvariantError,
                       NewtonPolygon, NotARootError, Polynomial, TropValue,
                       all_quotients_sign, divide, is_root, poly_sort_key,
                       product_coefficient_sets)

# the binary sign hyperaddition, written out
SIGN_TABLE = {
    (0, 0): frozenset({0}),
    (0, 1): frozenset({1}),
    (0, -1): frozenset({-1}),
    (1, 0): frozenset({1}),
    (1, 1): frozenset({1}),
    (1, -1): frozenset({-1, 0, 1}),
    (-1, 0): frozenset({-1}),
    (-1, 1): frozenset({-1, 0, 1}),
    (-1, -1): frozenset({-1}),
}


def table_hyperadd(values):
    """Fold the binary table over the list (left-nested unions)."""
    values = list(values)
    acc = frozenset({values[0]})
    for v in values[1:]:
        out = set()
        for d in acc:
            out |= SIGN_TABLE[(d, v)]
        acc = frozenset(out)
    return acc


def raw_sign_product_rows(c, d):
    """Coefficient sets of the product of sign coefficient tuples c and d."""
    rows = []
    for i in range(len(c) + len(d) - 1):
        terms = [c[k] * d[i - k]
                 for k in range(max(0, i - len(d) + 1), min(len(c) - 1, i) + 1)]
        rows.append(table_hyperadd(terms))
    return rows


def raw_sign_product_members(c, d):
    """All members of the product as coefficient tuples."""
    rows = raw_sign_product_rows(c, d)
    return {combo for combo in iter_product(*rows) if combo[-1] != 0}


# the monic irreducible sign polynomials, by their printed names
SIGN_IRREDUCIBLES = {"T": (0, 1), "T-1": (-1, 1), "T+1": (1, 1), "T^2+1": (1, 0, 1)}


@cache
def _bracketed_members(seq):
    """Members of the product of the factor tuples in ``seq``, in that
    order, over every bracketing."""
    if len(seq) == 1:
        return frozenset(seq)
    out = set()
    for i in range(1, len(seq)):
        for a in _bracketed_members(seq[:i]):
            for b in _bracketed_members(seq[i:]):
                out |= raw_sign_product_members(a, b)
    return frozenset(out)


def brute_factorizations_sign(c):
    """The unit of the sign coefficient tuple ``c`` and the multisets of
    monic irreducibles (sorted tuples of names) whose product, over some
    bracketing of some ordering, contains the monic associate of ``c``."""
    unit = c[-1]
    target = tuple(unit * x for x in c)
    n = len(c) - 1
    found = set()
    for size in range(1, n + 1):
        for names in combinations_with_replacement(sorted(SIGN_IRREDUCIBLES), size):
            factors = [SIGN_IRREDUCIBLES[x] for x in names]
            if sum(len(q) - 1 for q in factors) != n:
                continue
            if any(target in _bracketed_members(order) for order in set(permutations(factors))):
                found.add(names)
    return unit, found


def raw_nesting_members(text):
    """Members of the bracketed product written as a witness string such
    as ``((T+1 * T+1) * (T-1 * T-1))``, and the names of its leaves."""

    def parse(i):
        if text[i] == "(":
            left, left_names, i = parse(i + 1)
            assert text.startswith(" * ", i), text
            right, right_names, i = parse(i + 3)
            assert text[i] == ")", text
            members = set()
            for a in left:
                for b in right:
                    members |= raw_sign_product_members(a, b)
            return members, left_names + right_names, i + 1
        j = i
        while j < len(text) and text[j] not in " )":
            j += 1
        return {SIGN_IRREDUCIBLES[text[i:j]]}, [text[i:j]], j

    members, names, end = parse(0)
    assert end == len(text), text
    return members, names


def raw_sign_quotients(c, a):
    """All tuples q with c in (T - a) * q, by full enumeration.

    ``c`` is the coefficient tuple of a polynomial of degree n >= 1;
    candidates run over all 3^n vectors.
    """
    n = len(c) - 1
    out = set()
    for q in iter_product((-1, 0, 1), repeat=n):
        if q[-1] == 0:
            continue
        lin = (-a, 1)  # T - a
        if c in raw_sign_product_members(lin, q):
            out.add(q)
    return out


def raw_sign_roots(c):
    """Roots of a sign coefficient tuple by evaluating the defining hypersum."""
    roots = []
    for a in (-1, 0, 1):
        terms = [ci * a ** i for i, ci in enumerate(c)]
        if 0 in table_hyperadd(terms):
            roots.append(a)
    return roots


def brute_multiplicity_sign(p, a):
    """Root multiplicity by its definition: 0 for a non-root, else one
    plus the largest multiplicity of a over all quotients by T - a."""
    memo = {}

    def rec(poly):
        key = poly.coeffs
        if key not in memo:
            if poly.degree < 1 or not is_root(poly, a):
                memo[key] = 0
            else:
                memo[key] = 1 + max((rec(q) for q in all_quotients_sign(poly, a)),
                                     default=0)
        return memo[key]

    return rec(p)


def brute_is_irreducible_sign(p):
    """False iff p lies in q1 * q2 for some q1, q2 of positive degree,
    searched over every split of the degree (q1 monic, q2 of either
    leading sign)."""
    n = p.degree
    for d1 in range(1, n // 2 + 1):
        # q1 can be taken monic: p in q1*q2 iff p in (-q1)*(-q2)
        for c1 in iter_product((-1, 0, 1), repeat=d1):
            q1 = Polynomial(SIGN, c1 + (1,))
            for c2 in iter_product((-1, 0, 1), repeat=n - d1):
                for lead in (1, -1):
                    rows = product_coefficient_sets(q1, Polynomial(SIGN, c2 + (lead,)))
                    if all(c in row for c, row in zip(p.coeffs, rows)):
                        return False
    return True


def hull_values(points):
    """The maximal convex minorant at integer abscissas, via chords.

    ``points`` are (i, height) pairs with exact rational heights; the
    value at x is the minimum over all chords between points j <= x <= k
    (single points count as degenerate chords).
    """
    xs = sorted(i for i, _ in points)
    lo, hi = xs[0], xs[-1]
    values = {}
    for x in range(lo, hi + 1):
        best = None
        for (j, hj) in points:
            for (k, hk) in points:
                if not (j <= x <= k):
                    continue
                if j == k:
                    if j != x:
                        continue
                    v = Fraction(hj)
                else:
                    v = Fraction(hj) + Fraction(hk - hj, k - j) * (x - j)
                if best is None or v < best:
                    best = v
        values[x] = best
    return values


def hull_slopes(points):
    values = hull_values(points)
    xs = sorted(values)
    return [values[x] - values[x - 1] for x in xs[1:]]


def trop_member_raw(target_exp, term_exps):
    """Membership in a tropical hypersum from the definition: the maximum
    of the terms and the target together is attained at least twice.
    Exponents are Fractions or None for zero."""

    def key(e):
        return (0, Fraction(0)) if e is None else (1, e)

    pool = list(term_exps) + [target_exp]
    top = max(pool, key=key)
    return sum(1 for e in pool if key(e) == key(top)) >= 2


def reference_divides_linearly(p, a, q) -> bool:
    """Membership of p in (T - a) * q via the coefficient relations, over
    either field: deg p = 1 + deg q, c_n = d_{n-1}, c_0 = (-a)d_0 and
    c_i in (-a)d_i + d_{i-1} for the middle indices."""
    f = p.field
    n = p.degree
    if q.field is not f or q.is_zero or p.is_zero or q.degree != n - 1:
        return False
    c, d = p.coeffs, (None,) + q.coeffs + (None,)
    na = f.neg(a)

    def relation(c_i, d_prev, d_i):
        if d_prev is None:
            return c_i == f.mul(na, d_i)
        if d_i is None:
            return c_i == d_prev
        return f.contains(c_i, [f.mul(na, d_i), d_prev])

    return all(relation(c[i], d[i], d[i + 1]) for i in range(n + 1))


def brute_search_quotients(p, a, *, deltas=(1, 2), max_changed=2):
    """``search_quotients`` by perturbing up to ``max_changed`` coefficients
    of ``divide(p, a)`` in every combination and filtering each candidate
    polynomial through ``reference_divides_linearly``."""
    top = divide(p, a)
    found = {top}
    coeffs = list(top.coeffs)
    positions = range(len(coeffs))

    def candidates(i):
        c = coeffs[i]
        out = []
        if not c.is_zero:
            out.extend(TropValue(c.exponent - Fraction(d)) for d in deltas)
        out.append(TropValue.zero())
        return out

    for count in range(1, min(max_changed, len(coeffs)) + 1):
        for idxs in combinations(positions, count):
            pools = [candidates(i) for i in idxs]
            for combo in iter_product(*pools):
                trial = list(coeffs)
                for i, v in zip(idxs, combo):
                    trial[i] = v
                cand = Polynomial(TROPICAL, tuple(trial))
                if cand.degree == top.degree and reference_divides_linearly(p, a, cand):
                    found.add(cand)
    return sorted(found, key=poly_sort_key)


def reference_search_quotients(p, a, *, deltas=(1, 2), max_changed=2):
    """``tropical.search_quotients`` walking ``TropValue`` coefficients:
    the options are ``divide``'s coefficients and their lowered values,
    and each relation multiplies by a and tests membership with
    ``TROPICAL.contains``, where the library walks scaled integer
    exponents with a relation of its own."""
    options = []
    for t in divide(p, a).coeffs:
        # top_i, then the other values position i may take, each once
        lowered = [] if t.is_zero else [v for v in dict.fromkeys(
            TropValue(t.exponent - Fraction(d)) for d in deltas) if v != t] + [TropValue.zero()]
        options.append(((t, 0), *((v, 1) for v in lowered)))
    return _reference_linear_quotients(p, a, options, max(max_changed, 0))


def _reference_linear_quotients(p, a, options, budget=0):
    """The q with p in (T - a) * q whose d_i come from options[i], sorted,
    walked over p's own field: relation i reads c_i in (-a)d_i + d_{i-1},
    with the field's zero for d_{-1} and d_n, and the prefixes are
    grouped by their last value."""
    f, c, n = p.field, p.coeffs, p.degree
    na = f.neg(a)
    groups = {f.zero: [((), budget)]}  # d_{i-1} -> [(d_0 .. d_{i-1}, budget left)]
    for i in range(n):
        grown = {}
        for prev, prefixes in groups.items():
            for v, cost in options[i]:
                if f.contains(c[i], [f.mul(na, v), prev]):
                    for d, left in prefixes:
                        if cost <= left:
                            grown.setdefault(v, []).append((d + (v,), left - cost))
        groups = grown
    # relation n, with d_n = 0
    return sorted((Polynomial(f, d) for prev, prefixes in groups.items()
                   if f.contains(c[n], [f.zero, prev]) for d, _ in prefixes), key=poly_sort_key)


def reference_tropical_chain_member(r, fs):
    """The tropical branch of ``polynomials._chain_member`` on TropValue
    coefficients, without its hull check or its answer for linear
    factors: refuse a target above the all-tops chain, then search the
    intermediates depth first over ``reference_tropical_options`` and check
    the last link row by row, which alone decides two factors."""
    f = r.field
    last = len(fs) - 1
    # every member lies coefficientwise below the all-tops chain
    tops = fs[0]
    for q in fs[1:]:
        tops = Polynomial(f, tuple(s.top for s in product_coefficient_sets(tops, q)))
    if any(t < c for t, c in zip(tops.coeffs, r.coeffs)):
        return False
    anchor_pool = reference_tropical_anchor_pool(r, fs)
    seen = set()  # (step, intermediate) pairs already explored without success

    def step(cs: tuple, idx: int) -> bool:
        if (idx, cs) in seen:
            return False
        if idx == last:
            rows = product_coefficient_sets(Polynomial(f, cs), fs[idx])
            found = len(rows) == len(r.coeffs) and all(
                row.contains(x) for row, x in zip(rows, r.coeffs))
        else:
            rows = product_coefficient_sets(Polynomial(f, cs), fs[idx])
            options = reference_tropical_options(rows, anchor_pool[idx], fs[idx + 1])
            found = any(step(w, idx + 1) for w in iter_product(*options))
        if not found:
            seen.add((idx, cs))
        return found

    return step(fs[0].coeffs, 1)


def reference_linear_tropical_member(r, fs) -> bool:
    """Closed-form membership in a product of linear tropical factors.

    After normalizing by the unit, the coefficients of a member satisfy
    c_i <= a_{i+1} ... a_n (suffix product of the sorted roots), with
    equality when i = 0 or a_i < a_{i+1}.
    """
    f = TROPICAL
    unit = f.one
    roots = []
    for q in fs:
        unit = f.mul(unit, q.lead)
        roots.append(f.mul(q.coeffs[0], f.inv(q.lead)))
    roots.sort()
    c = r.scale(f.inv(unit)).coeffs
    suffix = f.one
    for i in range(len(roots) - 1, -1, -1):
        suffix = f.mul(suffix, roots[i])  # a_{i+1} ... a_n, 1-based
        if i == 0 or roots[i - 1] < roots[i]:
            if c[i] != suffix:
                return False
        elif not c[i] <= suffix:
            return False
    return True


def reference_tropical_options(rows, anchors, next_factor) -> list:
    """Candidates per coefficient of a tropical intermediate: an interval row
    tries its top, then ties against ``anchors`` (target-derived), against
    the singleton rows and the next factor's cross-term ratios, then zero."""
    anchors = set(anchors)
    anchors.update(s.top.exponent for s in rows if not s.interval and not s.top.is_zero)
    next_exps = [c.exponent for c in next_factor.coeffs if not c.is_zero]
    ratios = {l1 - l2 for l1 in next_exps for l2 in next_exps}
    ties = {a + d for a in anchors for d in ratios} | anchors
    out = []
    for row in rows:
        if not row.interval:
            out.append([row.top])
            continue
        cands = [row.top]
        cands.extend(sorted((TropValue(v) for v in ties
                             if TROPICAL.zero < TropValue(v) < row.top), reverse=True))
        cands.append(TROPICAL.zero)
        out.append(cands)
    return out


def reference_tropical_anchor_pool(r, fs):
    """Target coefficients pulled back through the factors still to come.

    A coefficient of the intermediate built at step ``idx`` reaches the
    final rows multiplied by one coefficient of each later factor, so
    the exponents that can tie against a target coefficient are the
    target exponents minus such chain sums.
    """
    pools = {}
    targets = [c.exponent for c in r.coeffs if not c.is_zero]
    for idx in range(1, len(fs) - 1):
        chain_sums = {Fraction(0)}
        for q in fs[idx + 1:]:
            exps = [c.exponent for c in q.coeffs if not c.is_zero]
            chain_sums = {s + e for s in chain_sums for e in exps}
        pools[idx] = {t - s for t in targets for s in chain_sums}
    return pools


def _reference_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_newton_polygon(p):
    """``tropical.newton_polygon`` on the Fraction heights themselves: the
    monotone-chain lower hull of the points (i, -e_i) over the nonzero
    coefficients, where the library builds it on scaled integer exponents."""
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("a polynomial of degree >= 1 is required")
    points = [(i, -c.exponent) for i, c in enumerate(p.coeffs) if not c.is_zero]
    zero_mult = points[0][0]  # leading zero coefficients c_0..c_{l-1}

    hull = []
    for pt in points:
        while len(hull) >= 2 and _reference_cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)

    slopes = []
    for (i1, h1), (i2, h2) in zip(hull, hull[1:]):
        step = Fraction(h2 - h1, i2 - i1)
        slopes.extend([step] * (i2 - i1))

    vertices = tuple((i, None) for i in range(zero_mult)) + tuple(hull)
    return NewtonPolygon(vertices, tuple(slopes), zero_mult)


def _reference_sorted_roots(p):
    """The roots of p in nondecreasing order, expanded from the reference
    Newton polygon's per-unit-step slopes: the zero roots first."""
    polygon = reference_newton_polygon(p)
    return ([TropValue.zero()] * polygon.zero_root_multiplicity
            + [TropValue(s) for s in polygon.slopes])


def reference_divide(p, a):
    """``tropical.divide`` by the sorted root list: for a nonzero root of
    multiplicity m starting at position k, the coefficients above its
    locus descend from c_n, those below climb from c_0, and the locus is
    filled with explicit suffix products of the roots.

    * i = n-1 down to k+m-1:  d_i = max(c_{i+1}, a * d_{i+1})
    * i = 1 up to k-2:        d_i = max(c_i / a, d_{i-1} / a), after d_0 = c_0 / a
    * i = k-1 .. k+m-2:       d_i = a_{i+2} * ... * a_n * c_n
    """
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("a polynomial of degree >= 1 is required")
    n = p.degree
    c = p.coeffs

    if a.is_zero:
        if not c[0].is_zero:
            raise NotARootError("zero is not a root (the constant coefficient is nonzero)")
        return Polynomial(TROPICAL, c[1:])

    roots = _reference_sorted_roots(p)
    if a not in roots:
        raise NotARootError(f"{a} is not a root of the polynomial")
    k = roots.index(a) + 1
    m = roots.count(a)

    inv_a = a.inv()
    d = [None] * n

    if k <= n - m:
        d[n - 1] = c[n]
        for i in range(n - 2, k + m - 2, -1):
            d[i] = max(c[i + 1], a * d[i + 1])
    if k >= 2:
        d[0] = inv_a * c[0]
        for i in range(1, k - 1):
            d[i] = max(inv_a * c[i], inv_a * d[i - 1])
    suffix = c[n]
    products = [suffix]  # products[j] = a_{n-j+1} * ... * a_n * c_n
    for root in reversed(roots):
        suffix = suffix * root
        products.append(suffix)
    for i in range(k - 1, k + m - 1):
        d[i] = products[n - i - 1]  # a_{i+2} * ... * a_n * c_n

    if any(v is None for v in d):
        raise InternalInvariantError("division recursion left a coefficient unset")
    return Polynomial(TROPICAL, tuple(d))


def reference_divide_sign(p, a):
    """``signs.divide_sign`` by the root test of ``raw_sign_roots`` and a
    second scan for the first sign flip: with l the lowest nonzero
    coefficient index and k the first index whose successor coefficient
    flips sign against c_l (relative to powers of a), descending from
    i = n-1:

    * d_i = c_{i+1}          if c_{i+1} != 0 and i > k
    * d_i = a * d_{i+1}      if c_{i+1} == 0 and i > k
    * d_i = -a^{i+1-l} * c_l if l <= i <= k
    * d_i = 0                if i < l
    """
    if a not in (-1, 0, 1):
        raise ValueError(f"sign values are -1, 0 or 1, got {a!r}")
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("a polynomial of degree >= 1 is required")
    n = p.degree
    c = p.coeffs

    if a == 0:
        if c[0] != 0:
            raise NotARootError("0 is not a root (the constant coefficient is nonzero)")
        return Polynomial(SIGN, c[1:])

    if a not in raw_sign_roots(c):
        raise NotARootError(f"{a} is not a root of the polynomial")

    l = next(i for i, v in enumerate(c) if v != 0)
    k = None
    for i in range(n):
        if c[i + 1] == -a ** (i + 1 - l) * c[l]:
            k = i
            break
    if k is None:
        raise InternalInvariantError("no sign flip found although a is a root")

    d = [0] * n
    for i in range(n - 1, -1, -1):
        if i > k:
            d[i] = c[i + 1] if c[i + 1] != 0 else a * d[i + 1]
        elif i >= l:
            d[i] = -a ** (i + 1 - l) * c[l]
        # below l the coefficients stay 0
    return Polynomial(SIGN, tuple(d))
