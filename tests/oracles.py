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
``all_quotients_sign`` and ``_product_rows``; the tests check each of
those against the raw enumerations here.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations
from itertools import product as iter_product

from hyperpoly import SIGN, Polynomial, all_quotients_sign, is_root
from hyperpoly.polynomials import _product_rows

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
                    rows = _product_rows(q1, Polynomial(SIGN, c2 + (lead,)))
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
