"""Division, multiplicity, irreducibility and factorization search for
sign polynomials.

Everything here is exact computation over {-1, 0, 1}.  Three operations
are closed forms from the source paper and run in O(n):

* division by a linear term runs a four-case recursion keyed to the
  lowest nonzero coefficient and the first sign flip;
* root multiplicity is Descartes' rule of signs: the multiplicity of 1
  is the number of sign changes in the nonzero coefficients, that of -1
  the same count for p(-T), and that of 0 the lowest nonzero index;
* the monic irreducibles are exactly T, T-1, T+1 and T^2+1, so p is
  irreducible iff it has degree 1, or degree 2 and no root.

Two operations are exhaustive enumerations: the quotient set of a
linear division and the factorization search.  Every public operation
with a ``max_degree`` argument refuses degrees above it (default
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

from dataclasses import dataclass
from functools import cache
from itertools import product as iter_product
from types import MappingProxyType

from .errors import (
    ConstantPolynomialError,
    DegreeBoundExceeded,
    InternalInvariantError,
    NotARootError,
)
from .fields import SIGN
from .parsing import format_polynomial
from .polynomials import (
    DEFAULT_DEGREE_BOUND,
    Polynomial,
    _product_members,
    is_root,
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


def _check_bound(n, max_degree):
    if n > max_degree:
        raise DegreeBoundExceeded(f"degree {n} exceeds the bound {max_degree}")


def _check_sign_value(a):
    if a not in (-1, 0, 1):
        raise ValueError(f"sign values are -1, 0 or 1, got {a!r}")


def divide_sign(p: Polynomial, a: int) -> Polynomial:
    """A quotient q with p in (T - a) * q, for a root a of p.

    For a = 0 the quotient is the coefficient shift.  For a = +/-1 let l
    be the lowest nonzero coefficient index and k the first index whose
    successor coefficient flips sign against c_l (relative to powers of
    a); then, descending from i = n-1:

    * d_i = c_{i+1}          if c_{i+1} != 0 and i > k
    * d_i = a * d_{i+1}      if c_{i+1} == 0 and i > k
    * d_i = -a^{i+1-l} * c_l if l <= i <= k
    * d_i = 0                if i < l
    """
    _check_sign_value(a)
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("a polynomial of degree >= 1 is required")
    n = p.degree
    c = p.coeffs

    if a == 0:
        if c[0] != 0:
            raise NotARootError("0 is not a root (the constant coefficient is nonzero)")
        return Polynomial(SIGN, c[1:])

    if not is_root(p, a):
        raise NotARootError(f"{a} is not a root of the polynomial")

    l = next(i for i, v in enumerate(c) if v != 0)
    k = None
    for i in range(n):
        if c[i + 1] == -SIGN.pow(a, i + 1 - l) * c[l]:
            k = i
            break
    if k is None:
        raise InternalInvariantError("no sign flip found although a is a root")

    d = [0] * n
    for i in range(n - 1, -1, -1):
        if i > k:
            d[i] = c[i + 1] if c[i + 1] != 0 else a * d[i + 1]
        elif i >= l:
            d[i] = -SIGN.pow(a, i + 1 - l) * c[l]
        # below l the coefficients stay 0
    return Polynomial(SIGN, tuple(d))


def all_quotients_sign(p: Polynomial, a: int,
                       max_degree: int = DEFAULT_DEGREE_BOUND) -> list:
    """The exact set {q : deg q = deg p - 1 and p in (T - a) * q}, sorted.

    Enumerates the 3^n coefficient vectors as a depth-first sweep with
    the membership relations checked as each position is filled, which
    prunes to the same set the raw enumeration produces.
    """
    _check_sign_value(a)
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("a polynomial of degree >= 1 is required")
    n = p.degree
    _check_bound(n, max_degree)
    c = p.coeffs

    if a == 0:
        return [Polynomial(SIGN, c[1:])] if c[0] == 0 else []

    out = []
    d0 = -a * c[0]  # forced by c_0 = -a d_0 since a is a unit
    stack = [(d0,)]
    while stack:
        d = stack.pop()
        i = len(d)
        if i == n:
            if d[n - 1] == c[n]:
                out.append(Polynomial(SIGN, d))
            continue
        for v in (1, 0, -1):
            if c[i] in SIGN.hyperadd((-a * v, d[i - 1])):
                stack.append(d + (v,))
    out.sort(key=poly_sort_key)
    return out


def is_irreducible_sign(p: Polynomial,
                        max_degree: int = DEFAULT_DEGREE_BOUND) -> bool:
    """True iff p is a unit multiple of T, T-1, T+1 or T^2+1.

    By the classification of sign irreducibles this means degree 1, or
    degree 2 with no root in {-1, 0, 1}.
    """
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("irreducibility needs degree >= 1")
    _check_bound(p.degree, max_degree)
    return p.degree == 1 or (p.degree == 2 and not any(is_root(p, a) for a in (-1, 0, 1)))


def classify_irreducibles(max_degree: int,
                          hard_cap: int = DEFAULT_DEGREE_BOUND) -> list:
    """All monic irreducible sign polynomials of degree <= max_degree,
    ordered by degree and then by coefficient array."""
    _check_bound(max_degree, hard_cap)
    found = [q for q in MONIC_IRREDUCIBLES if q.degree <= max_degree]
    found.sort(key=lambda q: (q.degree, poly_sort_key(q)))
    return found


@dataclass(frozen=True)
class Factorization:
    """A multiset of monic irreducible factors with the unit and one
    arrangement (ordering plus nesting) that witnessed membership."""

    factors: tuple
    unit: int
    witness_nesting: str

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
