"""Independent checkers for the benchmark's answers.

Everything here is written from the definitions and imports nothing
from ``hyperpoly``, so a fault in the library cannot hide itself in
its own check.  Polynomials are plain coefficient tuples c0..cn with a
nonzero last entry:

* sign polynomials hold the ints -1, 0, 1;
* tropical polynomials hold exact log coordinates as ``Fraction`` and
  ``None`` for the tropical zero.

The workload generators in ``workloads.py`` build their inputs with
the same arithmetic, and the parsers at the bottom read the CLI's
printed answers.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import permutations, product as cartesian

# ---------------------------------------------------------------------------
# sign hyperfield

# a + b over {-1, 0, 1}: opposite signs give the whole field
SIGN_TABLE = {
    (-1, -1): frozenset({-1}), (-1, 0): frozenset({-1}), (-1, 1): frozenset({-1, 0, 1}),
    (0, -1): frozenset({-1}), (0, 0): frozenset({0}), (0, 1): frozenset({1}),
    (1, -1): frozenset({-1, 0, 1}), (1, 0): frozenset({1}), (1, 1): frozenset({1}),
}

SIGN_IRREDUCIBLES = ((0, 1), (-1, 1), (1, 1), (1, 0, 1))  # T, T-1, T+1, T^2+1


def sign_sum(values) -> frozenset:
    """The hypersum of ``values``, folding the 3x3 table left to right."""
    values = list(values)
    acc = frozenset({values[0]})
    for v in values[1:]:
        acc = frozenset().union(*(SIGN_TABLE[(d, v)] for d in acc))
    return acc


def sign_rows(p, q) -> list:
    """Coefficient sets of the product p * q, from the cross terms."""
    n, m = len(p) - 1, len(q) - 1
    return [sign_sum(p[k] * q[i - k] for k in range(max(0, i - m), min(n, i) + 1))
            for i in range(n + m + 1)]


def sign_in_two(r, p, q) -> bool:
    rows = sign_rows(p, q)
    return len(r) == len(rows) and all(c in row for c, row in zip(r, rows))


def sign_members(p, q) -> set:
    """Every member of p * q with a nonzero leading coefficient."""
    return {cs for cs in cartesian(*(sorted(row) for row in sign_rows(p, q))) if cs[-1] != 0}


def sign_nested_members(factors) -> set:
    """Members of the left-nested product ((q1 q2) q3) ..."""
    current = {tuple(factors[0])}
    for q in factors[1:]:
        current = set().union(*(sign_members(w, q) for w in current))
    return current


def chain_holds(r, factors, chain, in_two) -> bool:
    """r is in the left-nested product of ``factors`` through ``chain``,
    the intermediates w2 .. w_{k-1} with w2 in q1 q2, w3 in w2 q3, ...;
    ``in_two`` is the field's two-factor membership test."""
    steps = [tuple(factors[0])] + [tuple(w) for w in chain] + [tuple(r)]
    return len(steps) == len(factors) and all(
        in_two(steps[j + 1], steps[j], factors[j + 1]) for j in range(len(factors) - 1))


def sign_quotients(p, a) -> set:
    """All q of degree deg p - 1 with p in (T - a) q, by full enumeration."""
    n = len(p) - 1
    lin = (-a, 1)
    return {lower + (lead,)
            for lower in cartesian((-1, 0, 1), repeat=n - 1) for lead in (-1, 1)
            if sign_in_two(p, lin, lower + (lead,))}


def sign_changes(cs) -> int:
    nonzero = [c for c in cs if c]
    return sum(1 for x, y in zip(nonzero, nonzero[1:]) if x != y)


def descartes_multiplicity(p, a) -> int:
    """Baker-Lorscheid: sign changes for 1, those of p(-T) for -1, the
    lowest nonzero index for 0."""
    if a == 0:
        return next(i for i, c in enumerate(p) if c)
    if a == 1:
        return sign_changes(p)
    return sign_changes([c if i % 2 == 0 else -c for i, c in enumerate(p)])


def sign_roots(p) -> list:
    return [a for a in (-1, 0, 1) if descartes_multiplicity(p, a)]


def monic(p):
    return tuple(c * p[-1] for c in p)


def sign_is_irreducible(p) -> bool:
    return monic(p) in SIGN_IRREDUCIBLES


def parse_nesting(text: str):
    """Parse a witness like ``((T+1 * T-1) * T)`` into nested pairs of
    coefficient tuples."""
    pos = 0

    def node():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            left = node()
            if text[pos:pos + 3] != " * ":
                raise ValueError(f"bad nesting {text!r}")
            pos += 3
            right = node()
            if text[pos] != ")":
                raise ValueError(f"bad nesting {text!r}")
            pos += 1
            return (left, right)
        end = pos
        while end < len(text) and text[end] not in " )":
            end += 1
        leaf = parse_sign_text(text[pos:end])
        pos = end
        return leaf

    tree = node()
    if pos != len(text):
        raise ValueError(f"trailing text in nesting {text!r}")
    return tree


def nesting_leaves(tree) -> list:
    if isinstance(tree[0], int):
        return [tree]
    return nesting_leaves(tree[0]) + nesting_leaves(tree[1])


def nesting_members(tree) -> set:
    """Members of the product bracketed as ``tree``."""
    if isinstance(tree[0], int):
        return {tree}
    left, right = nesting_members(tree[0]), nesting_members(tree[1])
    return set().union(*(sign_members(a, b) for a in left for b in right))


def _bracketings(leaves):
    """Every binary bracketing of every ordering of ``leaves``."""
    if len(leaves) == 1:
        yield leaves[0]
        return
    for order in set(permutations(leaves)):
        for cut in range(1, len(order)):
            for left in _bracketings(list(order[:cut])):
                for right in _bracketings(list(order[cut:])):
                    yield (left, right)


def sign_factorization_multisets(p) -> set:
    """Multisets of monic irreducibles some arrangement of which reaches
    the monic associate of p (for completeness checks at small degree)."""
    target = monic(p)
    n = len(p) - 1
    found = set()

    def multisets(start, remaining, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        for j in range(start, len(SIGN_IRREDUCIBLES)):
            d = len(SIGN_IRREDUCIBLES[j]) - 1
            if d <= remaining:
                yield from multisets(j, remaining - d, acc + [SIGN_IRREDUCIBLES[j]])

    for ms in multisets(0, n, []):
        if any(target in nesting_members(tree) for tree in _bracketings(list(ms))):
            found.add(tuple(sorted(ms)))
    return found


# ---------------------------------------------------------------------------
# tropical hyperfield (log coordinates, None = zero)


def tkey(e):
    return (0, Fraction(0)) if e is None else (1, e)


def tmul(a, b):
    return None if a is None or b is None else a + b


def trop_in_sum(c, terms) -> bool:
    """c lies in the hypersum of ``terms``: the maximum of the terms and c
    together is attained at least twice."""
    pool = [tkey(t) for t in terms] + [tkey(c)]
    top = max(pool)
    return pool.count(top) >= 2


def trop_terms(p, q) -> list:
    n, m = len(p) - 1, len(q) - 1
    return [[tmul(p[k], q[i - k]) for k in range(max(0, i - m), min(n, i) + 1)]
            for i in range(n + m + 1)]


def trop_in_two(r, p, q) -> bool:
    rows = trop_terms(p, q)
    return len(r) == len(rows) and all(trop_in_sum(c, row) for c, row in zip(r, rows))


def trop_tops(factors):
    """Coefficientwise bound on every member of the left-nested product:
    each step takes the top of every hypersum."""
    current = tuple(factors[0])
    for q in factors[1:]:
        current = tuple(max(row, key=tkey) for row in trop_terms(current, q))
    return current


def hull_roots(p) -> list:
    """Roots of p, ascending, zero roots first: the unit-step slopes of the
    lower hull of (i, -e_i), where the hull at x is the least chord value."""
    points = [(i, -e) for i, e in enumerate(p) if e is not None]
    lo, hi = points[0][0], points[-1][0]

    def hull_at(x):
        best = None
        for j, hj in points:
            for k, hk in points:
                if j <= x <= k and (j < k or j == x):
                    v = hj if j == k else hj + (hk - hj) * Fraction(x - j, k - j)
                    if best is None or v < best:
                        best = v
        return best

    values = [hull_at(x) for x in range(lo, hi + 1)]
    return [None] * lo + [b - a for a, b in zip(values, values[1:])]


def raised_coefficients(q, eps=Fraction(1, 64)):
    """q with one coefficient raised, for every coefficient: finite ones by
    ``eps``, zero ones to a value far below every other exponent."""
    floor = min(e for e in q if e is not None) - 100
    for i, e in enumerate(q):
        yield q[:i] + (floor if e is None else e + eps,) + q[i + 1:]


def is_max_quotient(p, a, q) -> bool:
    lin = (a, Fraction(0))
    return trop_in_two(p, lin, q) and not any(
        trop_in_two(p, lin, up) for up in raised_coefficients(q))


def perturbed_quotients(top) -> set:
    """The space ``search_quotients`` documents: every polynomial of the
    same degree as ``top`` that lowers at most two of its coefficients,
    each by 1, by 2 or to zero."""
    options = [([e - 1, e - 2] if e is not None else []) + [None] for e in top]
    out = {top}
    n = len(top)
    for i in range(n):
        for v in options[i]:
            out.add(top[:i] + (v,) + top[i + 1:])
            for j in range(i + 1, n):
                for w in options[j]:
                    cand = list(top)
                    cand[i], cand[j] = v, w
                    out.add(tuple(cand))
    return {c for c in out if c[-1] is not None}


# ---------------------------------------------------------------------------
# reading answers


def frac_or_zero(text):
    return None if text == "zero" else Fraction(text)


def parse_sign_text(text: str):
    """Coefficient tuple of a canonical sign polynomial such as ``T^3-T+1``."""
    terms = re.findall(r"([+-]?)(T\^\d+|T|1)", text)
    if "".join(sign + body for sign, body in terms) != text:
        raise ValueError(f"not a canonical sign polynomial: {text!r}")
    coeffs = {0 if body == "1" else 1 if body == "T" else int(body[2:]): -1 if sign == "-" else 1
              for sign, body in terms}
    return tuple(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


def parse_trop_text(text: str):
    """Coefficient tuple of a canonical tropical polynomial ``e:T^k+...``."""
    coeffs = {}
    for term in text.split("+"):
        if ":" in term:
            e, mono = term.split(":")
            k = 1 if mono == "T" else int(mono[2:])
        else:
            e, k = term, 0
        coeffs[k] = Fraction(e)
    n = max(coeffs)
    return tuple(coeffs.get(i) for i in range(n + 1))


# ---------------------------------------------------------------------------
# answers, by question kind


def _sign_factorizations_ok(p, records) -> bool:
    """records: (factors, unit, witness) with factors as coefficient tuples."""
    n = len(p) - 1
    target = monic(p)
    seen = set()
    for factors, unit, witness in records:
        factors = sorted(tuple(f) for f in factors)
        tree = parse_nesting(witness)
        if (unit != p[-1] or any(f not in SIGN_IRREDUCIBLES for f in factors)
                or sum(len(f) - 1 for f in factors) != n
                or sorted(nesting_leaves(tree)) != factors
                or target not in nesting_members(tree) or tuple(factors) in seen):
            return False
        seen.add(tuple(factors))
    return n > 4 or seen == sign_factorization_multisets(p)


def _product_ok(e, verdict) -> bool:
    if verdict != e["member"]:
        return False
    if not e["member"]:
        return any(tkey(c) > tkey(t) for c, t in zip(e["r"], trop_tops(e["factors"])))
    if "path" in e:
        return chain_holds(e["r"], e["factors"], e["chain"], trop_in_two)
    return chain_holds(e["r"], e["factors"], e["chain"], sign_in_two) and (
        len(e["r"]) > 7 or tuple(e["r"]) in sign_nested_members(e["factors"]))


def _roots_ok(e, loci) -> bool:
    """loci: (root, multiplicity, 1-based start) triples."""
    expanded = []
    for root, mult, start in loci:
        if start != len(expanded) + 1:
            return False
        expanded.extend([root] * mult)
    return expanded == e["roots"]


def _search_ok(e, found) -> bool:
    lin = (e["a"], Fraction(0))
    found = [tuple(q) for q in found]
    tops = [q for q in found
            if all(len(o) == len(q) and all(tkey(x) <= tkey(y) for x, y in zip(o, q))
                   for o in found)]
    if len(set(found)) != len(found) or len(tops) != 1 \
            or not is_max_quotient(e["p"], e["a"], tops[0]):
        return False
    valid = {c for c in perturbed_quotients(tops[0]) if trop_in_two(e["p"], lin, c)}
    return set(found) == valid


def _trop(cs):
    return tuple(frac_or_zero(c) for c in cs)


def check_answer(e, ans) -> bool:
    """Verdict on one in-process answer, as the worker serialized it."""
    kind = e["kind"]
    if kind == "divide_sign":
        return len(ans) == len(e["p"]) - 1 and sign_in_two(e["p"], (-e["a"], 1), tuple(ans))
    if kind == "all_quotients_sign":
        got = [tuple(q) for q in ans]
        if len(set(got)) != len(got) or not all(
                sign_in_two(e["p"], (-e["a"], 1), q) for q in got):
            return False
        if e["a"] == 0:
            return got == [e["p"][1:]]
        return len(e["p"]) > 8 or set(got) == sign_quotients(e["p"], e["a"])
    if kind == "multiplicity_sign":
        return ans == descartes_multiplicity(e["p"], e["a"])
    if kind == "is_irreducible_sign":
        return ans == sign_is_irreducible(e["p"])
    if kind == "all_factorizations_sign":
        return _sign_factorizations_ok(e["p"], ans)
    if kind == "in_product":
        return _product_ok(e, ans)
    if kind == "roots_with_multiplicities":
        return _roots_ok(e, [(frac_or_zero(r), m, s) for r, m, s in ans])
    if kind == "factor":
        unit, factors = ans
        return frac_or_zero(unit) == e["p"][-1] and \
            [_trop(f) for f in factors] == [(a, Fraction(0)) for a in e["roots"]]
    if kind == "divide":
        return is_max_quotient(e["p"], e["a"], _trop(ans))
    if kind == "is_quotient":
        verdict, q = ans
        return verdict == trop_in_two(e["p"], (e["a"], Fraction(0)), _trop(q))
    if kind == "search_quotients":
        return _search_ok(e, [_trop(q) for q in ans])
    raise ValueError(f"unknown question kind {kind!r}")


def check_cli(e, out: str, svg) -> bool:
    """Verdict on one CLI invocation from its stdout (and SVG file text)."""
    form = e["form"]
    if form == "divide_sign":
        q = tuple(json.loads(out)["coeffs"]) if e.get("json") else parse_sign_text(out.strip())
        return len(q) == len(e["p"]) - 1 and sign_in_two(e["p"], (-e["a"], 1), q)
    if form == "quotients":
        got = [parse_sign_text(line) for line in out.splitlines()]
        return len(set(got)) == len(got) and set(got) == sign_quotients(e["p"], e["a"])
    if form == "multiplicity":
        return int(out) == descartes_multiplicity(e["p"], e["a"])
    if form == "irreducible":
        verdict = json.loads(out)["irreducible"] if e.get("json") else out == "true\n"
        return verdict == sign_is_irreducible(e["p"])
    if form == "factorizations":
        records = [([parse_sign_text(f) for f in r["factors"]], r["unit"], r["witness_nesting"])
                   for r in json.loads(out)]
        return _sign_factorizations_ok(e["p"], records)
    if form == "check_product":
        return out == "true\n" and chain_holds(e["r"], e["factors"], e["chain"], sign_in_two)
    if form == "roots":
        loci = [(frac_or_zero(r["root"]), r["multiplicity"], r["start"])
                for r in json.loads(out)["roots"]]
        return _roots_ok(e, loci)
    if form == "factor":
        if e.get("json"):
            data = json.loads(out)
            unit, factors = frac_or_zero(data["unit"]), [_trop(f) for f in data["factors"]]
        else:
            lines = out.splitlines()
            unit = frac_or_zero(lines[0].removeprefix("unit "))
            factors = [parse_trop_text(t) for t in lines[1:]]
        return unit == e["p"][-1] and factors == [(a, Fraction(0)) for a in e["roots"]]
    if form == "divide_tropical":
        return is_max_quotient(e["p"], e["a"], parse_trop_text(out.strip()))
    if form == "newton":
        data = json.loads(out)
        finite = [r for r in e["roots"] if r is not None]
        return ([Fraction(s) for s in data["slopes"]] == finite
                and data["zero_mult"] == len(e["roots"]) - len(finite)
                and svg is not None and svg.startswith("<svg") and svg.endswith("</svg>\n"))
    raise ValueError(f"unknown CLI form {form!r}")
