"""Polynomials over a hyperfield and the multi-valued product.

A polynomial is a finite coefficient tuple ``c0..cn`` over one of the
two fields, with trailing zeros trimmed so that ``cn`` is nonzero for
every nonzero polynomial; the zero polynomial is the empty tuple and
has degree ``NEG_INF``.

The product of two polynomials is a *set*: its i-th coefficient ranges
over the hypersum of all cross terms ``c_k * d_l`` with ``k + l = i``.
n-fold products are defined by the left-nested recursion (the product
is not associative, so the nesting matters); membership tests for three
or more factors search over the intermediate polynomials of the chain.
Over the sign field the intermediates range over finite sets and the
search is exhaustive.  Over the tropical field each intermediate
coefficient is confined to a singleton or an interval [0, top]; the
search tries the interval top first and otherwise backtracks over a
finite set of tie values derived from the target and the remaining
factors, except that a product of linear factors is decided by the
exact closed-form criterion (each coefficient bounded by the product of
the larger roots, with equality forced at strict root increases).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable, Iterable, Sequence

from .errors import DegreeBoundExceeded, ZeroOperandError
from .fields import SIGN, TROPICAL, TropValue

__all__ = [
    "NEG_INF",
    "Polynomial",
    "sign_poly",
    "trop_poly",
    "product_coefficient_sets",
    "in_product",
    "enumerate_product",
    "is_root",
    "associated",
    "monic_normal",
    "pushforward",
    "divides_linearly",
    "poly_sort_key",
    "DEFAULT_DEGREE_BOUND",
]

NEG_INF = float("-inf")

# the default max_degree of every bounded sign operation and of the CLI
DEFAULT_DEGREE_BOUND = 12


@dataclass(frozen=True)
class Polynomial:
    """Immutable coefficient sequence c0..cn over a hyperfield."""

    field: object
    coeffs: tuple

    def __post_init__(self):
        cs = tuple(self.coeffs)
        while cs and self.field.is_zero(cs[-1]):
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self):
        """Largest index with a nonzero coefficient; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ZeroOperandError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def scale(self, unit) -> "Polynomial":
        return Polynomial(self.field, tuple(self.field.mul(unit, c) for c in self.coeffs))

    def shift(self, k: int) -> "Polynomial":
        """Multiply by T^k (k >= 0)."""
        return Polynomial(self.field, (self.field.zero,) * k + self.coeffs)

    def reflect(self) -> "Polynomial":
        """Substitute T -> -T (negate odd coefficients)."""
        f = self.field
        return Polynomial(f, tuple(f.neg(c) if i % 2 else c for i, c in enumerate(self.coeffs)))

    def __str__(self) -> str:
        from .parsing import format_polynomial

        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.field.name}, {self})"


def sign_poly(coeffs: Iterable[int]) -> Polynomial:
    cs = tuple(coeffs)
    for c in cs:
        if c not in (-1, 0, 1):
            raise ValueError(f"sign coefficients are -1, 0 or 1, got {c!r}")
    return Polynomial(SIGN, cs)


def trop_poly(coeffs: Iterable) -> Polynomial:
    """Build a tropical polynomial; entries go through ``TropValue.coerce``
    (ints/Fractions/"p/q" are log coordinates, None and "zero" are the zero)."""
    return Polynomial(TROPICAL, tuple(TropValue.coerce(c) for c in coeffs))


def poly_sort_key(p: Polynomial):
    """Deterministic ordering key: lexicographic on the coefficient array."""
    return tuple(p.field.sort_key(c) for c in p.coeffs)


def _require_nonzero(*polys):
    for p in polys:
        if p.is_zero:
            raise ZeroOperandError("operation undefined for the zero polynomial")


def _product_rows(p: Polynomial, q: Polynomial):
    """Per-index hypersums of the cross terms of p and q."""
    f = p.field
    n, m = p.degree, q.degree
    rows = []
    for i in range(n + m + 1):
        terms = [
            f.mul(p.coeffs[k], q.coeffs[i - k])
            for k in range(max(0, i - m), min(n, i) + 1)
        ]
        rows.append(f.hyperadd(terms))
    return rows


def product_coefficient_sets(p: Polynomial, q: Polynomial) -> tuple:
    """The coefficient sets of the two-factor product, index 0..deg p + deg q."""
    _require_nonzero(p, q)
    if p.field is not q.field:
        raise ValueError("operands live over different fields")
    return tuple(_product_rows(p, q))


def is_root(p: Polynomial, a) -> bool:
    """True iff 0 lies in the hypersum of the terms c_i * a^i."""
    _require_nonzero(p)
    f = p.field
    terms = [f.mul(c, f.pow(a, i)) for i, c in enumerate(p.coeffs)]
    return f.subset_contains_zero(f.hyperadd(terms))


def associated(p: Polynomial, q: Polynomial) -> bool:
    """True iff p = u * q for a unit u (the product with a constant is a singleton)."""
    _require_nonzero(p, q)
    if p.field is not q.field or p.degree != q.degree:
        return False
    u = p.field.mul(p.lead, p.field.inv(q.lead))
    return p == q.scale(u)


def monic_normal(p: Polynomial) -> Polynomial:
    """The unique monic associate of p."""
    _require_nonzero(p)
    return p.scale(p.field.inv(p.lead))


def pushforward(f: Callable, source, target_field) -> Polynomial:
    """Apply a coefficient map and rebuild the polynomial over the target field.

    ``source`` is a Polynomial or a plain coefficient sequence.  When the
    image of the leading coefficient is zero the degree drops; a warning
    is emitted because most callers expect the degree to be preserved.
    """
    coeffs = source.coeffs if isinstance(source, Polynomial) else tuple(source)
    image = tuple(f(c) for c in coeffs)
    if image and target_field.is_zero(image[-1]):
        warnings.warn("pushforward maps the leading coefficient to zero; degree drops",
                      stacklevel=2)
    return Polynomial(target_field, image)


def divides_linearly(p: Polynomial, a, q: Polynomial) -> bool:
    """Membership of p in (T - a) * q via the coefficient relations.

    Over the tropical field -a = a, so the linear factor reads T + a.
    The relations are: deg p = 1 + deg q, c_n = d_{n-1}, c_0 = (-a)d_0
    and c_i in (-a)d_i + d_{i-1} for the middle indices.
    """
    f = p.field
    n = p.degree
    if q.field is not f or q.is_zero or p.is_zero or q.degree != n - 1:
        return False
    c, d = p.coeffs, q.coeffs
    na = f.neg(a)
    if c[n] != d[n - 1]:
        return False
    if c[0] != f.mul(na, d[0]):
        return False
    for i in range(1, n):
        row = f.hyperadd([f.mul(na, d[i]), d[i - 1]])
        if not f.subset_contains(row, c[i]):
            return False
    return True


# ---------------------------------------------------------------------------
# membership in n-fold products


def in_product(r: Polynomial, factors: Sequence[Polynomial]) -> bool:
    """Decide r in q1 * q2 * ... * qn with the left-nested n-fold product."""
    fs = list(factors)
    if not fs:
        raise ValueError("at least one factor is required")
    f = r.field
    for q in fs:
        if q.field is not f:
            raise ValueError("factors live over different fields")
    _require_nonzero(*fs)
    if r.is_zero:
        return False
    if len(fs) == 1:
        return r == fs[0]
    if r.degree != sum(q.degree for q in fs):
        return False
    # the top and bottom rows are single-term hypersums at every nesting
    # level, so both end coefficients of any member are forced exactly
    lead = f.one
    const = f.one
    for q in fs:
        lead = f.mul(lead, q.lead)
        const = f.mul(const, q.coeffs[0])
    if r.lead != lead or r.coeffs[0] != const:
        return False
    if len(fs) == 2:
        rows = _product_rows(fs[0], fs[1])
        return all(f.subset_contains(rows[i], r.coeffs[i]) for i in range(len(rows)))
    if f is TROPICAL and all(q.degree == 1 for q in fs):
        return _linear_tropical_member(r, fs)
    return _chain_member(r, fs)


def _linear_tropical_member(r: Polynomial, fs) -> bool:
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
    n = len(roots)
    suffix = f.one
    bounds = [f.one] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix = f.mul(suffix, roots[i])
        bounds[i] = suffix
    for i in range(n):
        forced = i == 0 or roots[i - 1] < roots[i]
        if forced:
            if c[i] != bounds[i]:
                return False
        elif not c[i] <= bounds[i]:
            return False
    return True


def _chain_member(r: Polynomial, fs) -> bool:
    """Left-to-right search over the intermediate polynomials of the chain."""
    f = r.field
    target = r.coeffs

    if f is SIGN:
        def options_for(rows, idx):
            return [sorted(row) for row in rows]
    else:
        anchor_pool = _tropical_anchor_pool(r, fs)

        def options_for(rows, idx):
            # candidate values for an interval coefficient: the top first,
            # then ties against target-derived values and against sibling
            # cross terms at the next step, then zero
            anchors = set(anchor_pool[idx])
            anchors.update(s.top.exponent for s in rows
                           if not s.interval and not s.top.is_zero)
            next_exps = [c.exponent for c in fs[idx + 1].coeffs if not c.is_zero]
            ratios = {l1 - l2 for l1 in next_exps for l2 in next_exps}
            ties = {a + d for a in anchors for d in ratios} | anchors
            out = []
            for row in rows:
                if not row.interval:
                    out.append([row.top])
                    continue
                cands = [row.top]
                cands.extend(sorted((TropValue(v) for v in ties
                                     if TROPICAL.zero < TropValue(v) < row.top),
                                    reverse=True))
                cands.append(TROPICAL.zero)
                out.append(cands)
            return out

    seen = set()  # intermediates already explored without success

    def step(current: Polynomial, idx: int) -> bool:
        key = (idx, current.coeffs)
        if key in seen:
            return False
        rows = _product_rows(current, fs[idx])
        if idx == len(fs) - 1:
            if len(rows) == len(target) and all(
                    f.subset_contains(rows[i], target[i]) for i in range(len(rows))):
                return True
            seen.add(key)
            return False
        options = options_for(rows, idx)
        for combo in iter_product(*options):
            w = Polynomial(f, combo)
            if w.degree != len(rows) - 1:
                continue
            if step(w, idx + 1):
                return True
        seen.add(key)
        return False

    return step(fs[0], 1)


def _tropical_anchor_pool(r: Polynomial, fs):
    """Target coefficients pulled back through the factors still to come.

    A coefficient of the intermediate built at step ``idx`` reaches the
    final rows multiplied by one coefficient of each later factor, so
    the exponents that can tie against a target coefficient are the
    target exponents minus such chain sums.
    """
    pools = {}
    targets = [c.exponent for c in r.coeffs if not c.is_zero]
    for idx in range(1, len(fs) - 1):
        chain_sums = [Fraction(0)]
        for q in fs[idx + 1:]:
            exps = [c.exponent for c in q.coeffs if not c.is_zero]
            chain_sums = [s + e for s in chain_sums for e in exps]
        pools[idx] = {t - s for t in targets for s in chain_sums}
    return pools


# ---------------------------------------------------------------------------
# exhaustive product enumeration over the sign field


def _product_members(c: tuple, d: tuple):
    """The members of the two-factor sign product of coefficient tuples c
    and d with a nonzero lead, in the order of the sorted rows."""
    rows = _product_rows(Polynomial(SIGN, c), Polynomial(SIGN, d))
    for combo in iter_product(*(sorted(row) for row in rows)):
        if combo[-1] != 0:
            yield combo


def enumerate_product(factors: Sequence[Polynomial],
                      max_degree: int = DEFAULT_DEGREE_BOUND) -> list:
    """The exact left-nested product set over the sign field, sorted."""
    fs = list(factors)
    if not fs:
        raise ValueError("at least one factor is required")
    if any(q.field is not SIGN for q in fs):
        raise ValueError("enumerate_product is defined over the sign field only")
    _require_nonzero(*fs)
    total = sum(q.degree for q in fs)
    if total > max_degree:
        raise DegreeBoundExceeded(
            f"total degree {total} exceeds the enumeration bound {max_degree}")
    current = {fs[0].coeffs}
    for q in fs[1:]:
        current = {m for cs in current for m in _product_members(cs, q.coeffs)}
    polys = [Polynomial(SIGN, cs) for cs in current]
    polys.sort(key=poly_sort_key)
    return polys
