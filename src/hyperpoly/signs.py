"""Division, multiplicity, irreducibility and factorization search for
sign polynomials.

Everything here is exact computation over {-1, 0, 1}.  Three operations
are closed forms from the source paper and run in O(n):

* division by a linear term reads the terms c_i * a^i once, from the
  root test ``polynomials._sign_root`` that ``is_root`` calls too: both
  signs occur among them exactly at a nonzero root, and the first term
  opposite to the lowest nonzero one splits a two-range recursion;
* root multiplicity is Descartes' rule of signs: the multiplicity of 1
  is the number of sign changes in the nonzero coefficients, that of -1
  the same count for p(-T), and that of 0 the lowest nonzero index;
* the monic irreducibles are exactly T, T-1, T+1 and T^2+1, so p is
  irreducible iff it has degree 1 or its coefficients are (u, 0, u) for
  a unit u, which needs no root test.

Two operations are exhaustive enumerations.  The quotient set of a
division by T - 1 or T + 1 is the set of paths through the division
relations when every coefficient may be 1, 0 or -1, listed by the
quotient walk shared with the tropical search
(``polynomials._linear_quotients``); dividing by T only shifts.  The
other is the factorization search.  Every public operation with a
``max_degree`` argument refuses degrees above it (default
``DEFAULT_DEGREE_BOUND`` = 12) with ``DegreeBoundExceeded``; the closed
forms keep that check so that their errors match the enumerations'.
The brute-force definitions of multiplicity and irreducibility live in
the tests as oracles for the closed forms.

Unique factorization fails over the sign field, so factorizations are
reported as multisets of monic irreducibles together with a witness
arrangement: the n-fold product depends on the nesting, and a multiset
counts as soon as one bracketing of one ordering contains the target.
The product set of a multiset, over all its arrangements, depends only
on the multiset and never on the target.  It is built once per process
from the same two-factor step as ``enumerate_product`` and kept for the
life of the process.  The degree bound is checked first, so the table
holds no multiset above the largest degree that passed that check.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iter_product
from types import MappingProxyType

from .errors import ConstantPolynomialError, NotARootError
from .fields import SIGN, _Record
from .parsing import format_polynomial
from .polynomials import (
    DEFAULT_DEGREE_BOUND,
    Polynomial,
    _check_bound,
    _check_sign_value,
    _linear_quotients,
    _product_members,
    _sign_root,
    poly_sort_key,
    sign_poly,
)

__all__ = [
    "DEFAULT_DEGREE_BOUND",
    "MONIC_IRREDUCIBLES",
    "Factorization",
    "divide_sign",
    "all_quotients_sign",
    "is_irreducible_sign",
    "classify_irreducibles",
    "all_factorizations_sign",
    "multiplicity_sign",
]

# the complete list of monic irreducible sign polynomials
MONIC_IRREDUCIBLES = (
    sign_poly((0, 1)),      # T
    sign_poly((-1, 1)),     # T - 1
    sign_poly((1, 1)),      # T + 1
    sign_poly((1, 0, 1)),   # T^2 + 1
)


def divide_sign(p: Polynomial, a: int) -> Polynomial:
    """A quotient q with p in (T - a) * q, for a root a of p.

    The root test ``_sign_root`` reads the terms c_i * a^i.  For a = 0
    the quotient is the coefficient shift.  For a = +/-1 the terms split
    the recursion: let l be the lowest nonzero term and j the first term
    of the opposite sign.  Then

    * d_i = c_{i+1} if c_{i+1} != 0, else a * d_{i+1}, for i = n-1 down to j
    * d_l = -a * c_l and d_i = a * d_{i-1}, for l < i < j
    * d_i = 0 below l
    """
    _check_sign_value(a)
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("a polynomial of degree >= 1 is required")
    n = p.degree
    c = p.coeffs

    terms = _sign_root(c, a)
    if terms is None:
        raise NotARootError("0 is not a root (the constant coefficient is nonzero)" if a == 0
                            else f"{a} is not a root of the polynomial")
    if a == 0:
        return Polynomial(SIGN, c[1:])
    l = next(i for i, t in enumerate(terms) if t)
    j = terms.index(-terms[l], l)

    d = [0] * n
    for i in range(n - 1, j - 1, -1):  # c_n != 0, so d_{n-1} = c_n
        d[i] = c[i + 1] if c[i + 1] else a * d[i + 1]
    low = -a * c[l]
    for i in range(l, j):
        d[i] = low
        low *= a
    return Polynomial(SIGN, tuple(d))


def all_quotients_sign(p: Polynomial, a: int,
                       max_degree: int = DEFAULT_DEGREE_BOUND) -> list:
    """The exact set {q : deg q = deg p - 1 and p in (T - a) * q}, sorted.

    For a = 0 it is a closed form: T * q is the single polynomial
    shifted up from q, so the set is the shift of p or empty.  For a unit
    a every coefficient of q ranges over {1, 0, -1}, and the shared
    quotient walk keeps the paths that satisfy every division relation,
    which is the set the raw enumeration of the 3^n vectors produces.
    """
    _check_sign_value(a)
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("a polynomial of degree >= 1 is required")
    _check_bound(p.degree, max_degree)
    if a == 0:
        return [Polynomial(SIGN, p.coeffs[1:])] if p.coeffs[0] == 0 else []
    na = -a

    def holds(c, v, prev):  # c in (-a)v + prev
        return SIGN.contains(c, [na * v, prev])

    # every sign value may stand at every position, none at a cost
    found = _linear_quotients(p.coeffs, 0, holds, [((1, 0), (0, 0), (-1, 0))] * p.degree)
    return sorted((Polynomial(SIGN, d) for d in found), key=poly_sort_key)


def is_irreducible_sign(p: Polynomial,
                        max_degree: int = DEFAULT_DEGREE_BOUND) -> bool:
    """True iff p is a unit multiple of T, T-1, T+1 or T^2+1, read off
    the classification: p has degree 1, or its coefficients are (u, 0, u)."""
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("irreducibility needs degree >= 1")
    _check_bound(p.degree, max_degree)
    return p.degree == 1 or p.coeffs == (p.lead, 0, p.lead)


def classify_irreducibles(max_degree: int) -> list:
    """All monic irreducible sign polynomials of degree <= max_degree,
    ordered by degree and then by coefficient array."""
    _check_bound(max_degree, DEFAULT_DEGREE_BOUND)
    found = [q for q in MONIC_IRREDUCIBLES if q.degree <= max_degree]
    found.sort(key=lambda q: (q.degree, poly_sort_key(q)))
    return found


class Factorization(_Record):
    """A multiset of monic irreducible factors with the unit and one
    arrangement (ordering plus nesting) that witnessed membership."""

    __slots__ = ("factors", "unit", "witness_nesting")

    def __init__(self, factors: tuple, unit: int, witness_nesting: str):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "witness_nesting", witness_nesting)

    def to_json_dict(self) -> dict:
        return {
            "factors": [format_polynomial(q) for q in self.factors],
            "unit": self.unit,
            "witness_nesting": self.witness_nesting,
        }


def all_factorizations_sign(p: Polynomial,
                            max_degree: int = DEFAULT_DEGREE_BOUND) -> list:
    """All multisets of monic irreducibles whose product reaches p.

    Membership is tested over every bracketing of every ordering of the
    multiset (binary products commute, so unordered recursive splits
    cover them all); the first successful arrangement is recorded as the
    witness.
    """
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("factorization needs degree >= 1")
    n = p.degree
    _check_bound(n, max_degree)
    unit = p.lead
    target = p.scale(unit).coeffs  # unit^2 = 1, so this is the monic associate

    degrees = [q.degree for q in MONIC_IRREDUCIBLES]
    found = []
    for counts in iter_product(*(range(n // d + 1) for d in degrees)):
        if sum(c * d for c, d in zip(counts, degrees)) != n:
            continue
        reachable = _reachable(counts)
        if target in reachable:
            factors = []
            for q, count in zip(MONIC_IRREDUCIBLES, counts):
                factors.extend([q] * count)
            factors.sort(key=poly_sort_key)
            found.append(Factorization(tuple(factors), unit, reachable[target]))
    found.sort(key=lambda f: (len(f.factors), tuple(poly_sort_key(q) for q in f.factors)))
    return found


@cache
def _reachable(counts: tuple) -> MappingProxyType:
    """The product set of the multiset with these counts over
    MONIC_IRREDUCIBLES, over every bracketing of every ordering, as a map
    from each member's coefficient tuple to the first arrangement found.

    The set depends only on the multiset, so it is computed once per
    process and shared read-only by every caller.
    """
    if sum(counts) == 1:
        q = MONIC_IRREDUCIBLES[counts.index(1)]
        return MappingProxyType({q.coeffs: format_polynomial(q)})
    result = {}
    for sub in iter_product(*(range(c + 1) for c in counts)):
        rest = tuple(c - s for c, s in zip(counts, sub))
        if not any(sub) or sub > rest:  # unordered split, visit each pair once
            continue
        right = _reachable(rest)
        for ca, wa in _reachable(sub).items():
            for cb, wb in right.items():
                witness = f"({wa} * {wb})"
                for combo in _product_members(ca, cb):
                    result.setdefault(combo, witness)
    return MappingProxyType(result)


def multiplicity_sign(p: Polynomial, a: int,
                      max_degree: int = DEFAULT_DEGREE_BOUND) -> int:
    """Root multiplicity by Descartes' rule of signs (0 for a non-root).

    The multiplicity of 0 is the lowest nonzero index, that of 1 the
    number of sign changes in the nonzero coefficients, and that of -1
    the same count for p(-T).  This equals the recursive definition "one
    plus the largest multiplicity among all quotients by T - a".
    """
    _check_sign_value(a)
    if p.is_zero:
        raise ConstantPolynomialError("multiplicity of the zero polynomial is undefined")
    _check_bound(p.degree if p.degree >= 1 else 0, max_degree)
    if a == 0:
        return next(i for i, c in enumerate(p.coeffs) if c != 0)
    signs = [c for c in (p.reflect() if a == -1 else p).coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)
