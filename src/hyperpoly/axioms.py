"""Machine-checkable axiom suites for the two hyperfields.

The sign field is finite, so every law is checked over all triples of
elements (at most 27 cases per law).  The tropical field is infinite;
its laws are checked on a hand-picked pool of degenerate triples (zeros,
repeated values) plus a seeded random sample of rational exponents with
small denominators, with forced collisions mixed in so the interval
branch of the hyperaddition is exercised.

``check_axioms`` never raises on a violation: failures become report
entries, one list of counterexamples per law.  Every law goes through
one step, which counts a case and, when the law fails, records the
elements it was checked on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .fields import TROPICAL, TropValue

__all__ = ["check_axioms", "DEGENERATE_TROPICAL_POOL"]

DEGENERATE_TROPICAL_POOL = (
    TropValue.zero(),
    TropValue.log(0),
    TropValue.log(1),
    TropValue.log(-1),
    TropValue.log(Fraction(1, 2)),
)


def _fmt(field, *xs):
    return "(" + ", ".join(field.format_element(x) for x in xs) + ")"


def _fold_left(field, values):
    acc = field.hyperadd(values[:2])
    for v in values[2:]:
        acc = field.hyperadd_subset(v, acc)
    return acc


def _folds_agree(field, values) -> bool:
    """The closed-form n-ary sum equals the left and the right fold of the binary one."""
    closed = field.hyperadd(values)
    return closed == _fold_left(field, values) and closed == _fold_left(field, values[::-1])


def _sample_tropical_triples(budget, seed):
    import random  # loaded on first use: start-up stays small

    rng = random.Random(seed)

    def value():
        if rng.randrange(6) == 0:
            return TropValue.zero()
        return TropValue.log(Fraction(rng.randint(-24, 24), rng.randint(1, 16)))

    triples = list(product(DEGENERATE_TROPICAL_POOL, repeat=3))
    for _ in range(budget):
        a, b = value(), value()
        # force collisions so repeated-maximum cases are well represented
        c = a if rng.random() < 0.4 else value()
        triples.append((a, b, c))
    return triples


def check_axioms(field, sample_budget: int = 1000, seed: int = 0) -> dict:
    """Verify the hyperfield axioms; returns a report dict.

    Laws covered: the multiplicative monoid/group laws, distributivity
    of multiplication over hypersums, the hypergroup laws HG1-HG6 of the
    hyperaddition, self-inverseness over the tropical field, and the
    agreement of the closed-form n-ary hypersum with left and right
    folds of the binary one.
    """
    if field.finite:
        triples = list(product(field.elements, repeat=3))
        exhaustive = True
    else:
        triples = _sample_tropical_triples(sample_budget, seed)
        exhaustive = False

    zero, one = field.zero, field.one
    laws = []

    def law(name, description):
        entry = {"law": name, "description": description, "cases": 0, "failures": []}
        laws.append(entry)
        return entry

    mul_assoc = law("HF1-mul-assoc", "(a*b)*c == a*(b*c)")
    mul_comm = law("HF1-mul-comm", "a*b == b*a")
    mul_ident = law("HF1-mul-identity", "1*a == a")
    mul_inv = law("HF1-mul-inverse", "a*inv(a) == 1 for nonzero a")
    mul_zero = law("HF1-mul-zero", "0*a == 0")
    distrib = law("HF2-distributive", "a*(b+c) == (a*b)+(a*c) as sets")
    nonempty = law("HG1-nonempty", "a+b is never empty")
    comm = law("HG2-commutative", "a+b == b+a")
    neutral = law("HG3-neutral", "a+0 == {a}")
    inverse = law("HG4-inverse", "0 in a+(-a), and -a is the only such element")
    assoc = law("HG5-associative", "union over a+(b+c) == union over (a+b)+c")
    revers = law("HG6-reversible", "a in b+c iff -b in (-a)+c")
    nary = law("nary-fold", "closed-form n-ary sum == left fold == right fold")
    self_inv = None
    if field is TROPICAL:
        self_inv = law("trop-self-inverse", "-a == a for every tropical value")

    def check(entry, holds, *shown):
        entry["cases"] += 1
        if not holds:
            entry["failures"].append(_fmt(field, *shown))

    seen_singles = set()
    seen_pairs = set()

    for a, b, c in triples:
        key_a = field.sort_key(a)
        key_ab = (key_a, field.sort_key(b))

        if key_a not in seen_singles:
            seen_singles.add(key_a)
            check(mul_ident, field.mul(one, a) == a, a)
            check(mul_zero, field.mul(zero, a) == zero, a)
            if not field.is_zero(a):
                check(mul_inv, field.mul(a, field.inv(a)) == one, a)
            s = field.hyperadd([a, zero])
            check(neutral, field.subset_contains(s, a) and _subset_is_singleton(field, s, a), a)
            check(inverse, field.subset_contains(field.hyperadd([a, field.neg(a)]), zero), a)
            if self_inv is not None:
                check(self_inv, field.neg(a) == a, a)

        if key_ab not in seen_pairs:
            seen_pairs.add(key_ab)
            s = field.hyperadd([a, b])
            check(nonempty, bool(s), a, b)  # a tropical sum always holds its top
            check(comm, s == field.hyperadd([b, a]), a, b)
            # HG4 uniqueness: no b distinct from -a may satisfy 0 in a+b
            if b != field.neg(a):
                check(inverse, not field.subset_contains(s, zero), a, b)

        check(mul_assoc, field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c)), a, b, c)
        check(mul_comm, field.mul(a, b) == field.mul(b, a), a, b)
        check(distrib, _scale_subset(field, a, field.hyperadd([b, c]))
              == field.hyperadd([field.mul(a, b), field.mul(a, c)]), a, b, c)
        check(assoc, field.hyperadd_subset(a, field.hyperadd([b, c]))
              == field.hyperadd_subset(c, field.hyperadd([a, b])), a, b, c)
        check(revers, field.subset_contains(field.hyperadd([b, c]), a)
              == field.subset_contains(field.hyperadd([field.neg(a), c]), field.neg(b)), a, b, c)
        # one case per triple, showing the first tuple whose folds disagree
        bad = next((tup for tup in ((a, b, c), (a, b, c, a), (a, b, c, b, a))
                    if not _folds_agree(field, tup)), ())
        check(nary, not bad, *bad)

    return {
        "field": field.name,
        "exhaustive": exhaustive,
        "triples": len(triples),
        "laws": laws,
        "ok": all(not entry["failures"] for entry in laws),
    }


def _subset_is_singleton(field, s, expected):
    if field.finite:
        return s == frozenset((expected,))
    return (not s.interval and s.top == expected) or (s.interval and s.top.is_zero and expected.is_zero)


def _scale_subset(field, a, s):
    if field.finite:
        return frozenset(field.mul(a, d) for d in s)
    return s.scale(a)
