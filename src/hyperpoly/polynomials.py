"""Polynomials over a hyperfield and the multi-valued product.

A polynomial is a finite coefficient tuple ``c0..cn`` over one of the
two fields, with trailing zeros trimmed so that ``cn`` is nonzero for
every nonzero polynomial; the zero polynomial is the empty tuple and
has degree ``NEG_INF``.  ``Polynomial.__post_init__`` is the single
normalising step (coefficients to a tuple, trailing zeros trimmed), and
every construction runs it exactly once.

The product of two polynomials is a *set*: its i-th coefficient ranges
over the hypersum of all cross terms ``c_k * d_l`` with ``k + l = i``.
The product kernels, the membership search and the division checks
read plain coefficient tuples; a ``Polynomial`` is built only at the API
edge, for a caller's inputs and answers.
n-fold products are defined by the left-nested recursion (the product
is not associative, so the nesting matters).  Two factors are decided by
the row check alone, each target coefficient against its row's cross
terms, which is the definition of membership.  Three or more are one
depth-first search over the chain's intermediates, ending in that row
check.  The end coefficients of a member are forced, the products of
the factors' ends; a sign search checks them on the ints first, and a
sign step tries every member of the two-factor product, so that search
is exhaustive.  A tropical intermediate coefficient lies in a singleton
or an interval [0, top]; a step tries the top first, then tie values
derived from the target and the remaining factors.  That search runs on
exponents scaled by the lcm of their denominators: the scaling turns
every exponent into an int and keeps order and sums, so the search adds
and compares plain ints and decides what it would on Fractions.
``_scaled``, which encodes tuples of ``TropValue``s, is the one encoder
for this, shared with the Newton polygon, tropical division and the
quotient search in ``tropical``, as ``_lower_hull`` is the one hull
routine.  Before a tropical search, a target failing the all-tops check
``_linear_tropical_member`` is refused at once; no member fails it, and
it decides the end coefficients and linear factors.  The search's first
descent, each interval's top, meets the intermediates of that all-tops
chain and reuses their rows.  So tropical membership multiplies no
``TropValue``, and the search, which can miss members, runs only with
three or more factors, one of degree two or more.

Each field has one root test, on its own encoding, shared by ``is_root``
and both divisions: ``_tropical_root`` on ``_scaled`` exponents, which
also gives a division's split, and ``_sign_root`` on the ints.

A quotient q of p by T - a is a q with p in (T - a) * q, so
``divides_linearly`` checks a given q as membership in that two-factor
product, which ``_chain_member`` decides by its row check alone, on the
tuples (-a, 1) and q's coefficients.  Every division entry point refuses
a root outside its field with a ``ValueError``.
Listing the quotients reads the product as a chain of relations,
relation i linking only d_{i-1} and d_i, which ``_linear_quotients``
walks for both fields.  The walk knows no field: each caller hands it
coefficient tuples in its own encoding, with its own zero and relation,
the sign one on {-1, 0, 1} and the tropical one on ``_scaled``
exponents.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Sequence
from itertools import product as iter_product

from .errors import DegreeBoundExceeded, ZeroOperandError
from .fields import SIGN, TROPICAL, TropValue, _Record

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


def _check_bound(n, max_degree):
    if n > max_degree:
        raise DegreeBoundExceeded(f"degree {n} exceeds the bound {max_degree}")


class Polynomial(_Record):
    """Immutable coefficient sequence c0..cn over a hyperfield."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        cs = tuple(self.coeffs)
        while cs and self.field.is_zero(cs[-1]):
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.field is other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

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


def _product_rows(f, c: tuple, d: tuple) -> list:
    """Per-index hypersums over f of the cross terms of coefficient tuples c and d."""
    n, m = len(c) - 1, len(d) - 1
    return [f.hyperadd([f.mul(c[k], d[i - k]) for k in range(max(0, i - m), min(n, i) + 1)])
            for i in range(n + m + 1)]


def product_coefficient_sets(p: Polynomial, q: Polynomial) -> tuple:
    """The coefficient sets of the two-factor product, index 0..deg p + deg q."""
    _require_nonzero(p, q)
    if p.field is not q.field:
        raise ValueError("operands live over different fields")
    return tuple(_product_rows(p.field, p.coeffs, q.coeffs))


def is_root(p: Polynomial, a) -> bool:
    """True iff 0 lies in the hypersum of the terms c_i * a^i."""
    _require_nonzero(p)
    if p.field is TROPICAL:
        _check_trop_value(a)
        _, cs, (e,) = _scaled(p.coeffs, (a,))
        return _tropical_root(cs, e) is not None
    _check_sign_value(a)
    return _sign_root(p.coeffs, a) is not None


def _check_sign_value(a):
    if a not in (-1, 0, 1):
        raise ValueError(f"sign values are -1, 0 or 1, got {a!r}")


def _check_trop_value(a):
    if not isinstance(a, TropValue):
        raise ValueError(f"tropical values are TropValue instances, got {a!r:.20}")


def _sign_root(cs: tuple, a: int):
    """The terms c_i * a^i of the sign coefficients cs if 0 lies in their
    hypersum (both signs occur, or neither does), else None (no root)."""
    terms = [c * a ** i for i, c in enumerate(cs)]
    return terms if SIGN.contains(0, terms) else None


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
    """Membership of p in (T - a) * q, decided by ``_chain_member`` on the
    coefficient tuples (-a, 1) and q's.

    Over the tropical field -a = a, so the linear factor reads T + a."""
    f = p.field
    (_check_trop_value if f is TROPICAL else _check_sign_value)(a)
    if q.field is not f or q.is_zero or p.is_zero or q.degree != p.degree - 1:
        return False
    return _chain_member(f, p.coeffs, [(f.neg(a), f.one), q.coeffs])


def _linear_quotients(c: tuple, zero, holds: Callable, options, budget: int = 0) -> list:
    """The quotients of the coefficient tuple c by T - a whose d_i come
    from options[i], as coefficient tuples d, unsorted.

    options[i] holds (value, cost) pairs; a quotient's costs add up to at
    most ``budget``.  ``holds(c_i, d_i, d_{i-1})`` is the caller's
    relation c_i in (-a)d_i + d_{i-1}, on the caller's encoding, with
    ``zero`` for d_{-1} and d_n: c in x + 0 means c = x, so the end
    relations are the equalities c_0 = (-a)d_0 and c_n = d_{n-1}.  The
    walk extends the prefixes d_0 .. d_{i-1} one position at a time,
    grouped by their last value: relation i depends only on d_{i-1} and
    d_i, so it is evaluated once per pair of values, and a failed one
    drops the whole group.
    """
    n = len(c) - 1
    groups = {zero: [((), budget)]}  # d_{i-1} -> [(d_0 .. d_{i-1}, budget left)]
    for i in range(n):
        grown = {}
        for prev, prefixes in groups.items():
            for v, cost in options[i]:
                if holds(c[i], v, prev):
                    for d, left in prefixes:
                        if cost <= left:
                            grown.setdefault(v, []).append((d + (v,), left - cost))
        groups = grown
    # relation n, with d_n = 0
    return [d for prev, prefixes in groups.items() if holds(c[n], zero, prev)
            for d, _ in prefixes]


# ---------------------------------------------------------------------------
# membership in n-fold products


def in_product(r: Polynomial, factors: Sequence[Polynomial]) -> bool:
    """Decide r in q1 * q2 * ... * qn with the left-nested n-fold product:
    one factor is r itself, and ``_chain_member`` decides two or more."""
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
    return _chain_member(f, r.coeffs, [q.coeffs for q in fs])


def _chain_member(field, target: tuple, coeffs) -> bool:
    """Depth-first search over the intermediate coefficient tuples: a sign
    step tries the members of the two-factor product, a tropical step the
    candidates of ``_tropical_options``, and the last step checks the
    target row by row, a sign coefficient against its row's cross terms.
    The target and the factors ``coeffs`` are nonzero coefficient tuples
    over ``field``, of matching degrees.

    Two factors: the row check alone, which is the definition of
    membership.  Three or more: a sign target must first have the forced
    end coefficients, the products of the factors' ends; a tropical one
    must pass ``_linear_tropical_member``, which decides the ends and
    alone decides linear factors, before the search, whose first descent
    reuses the rows of that all-tops pass.  The tropical search runs on
    ``_scaled`` exponents, plain ints."""
    last = len(coeffs) - 1
    if field is TROPICAL:
        _, target, *coeffs = _scaled(target, *coeffs)
        rows = {}  # (idx, intermediate) -> its rows with coeffs[idx], from the all-tops pass

        def is_last_link(cs):
            return len(cs) + len(coeffs[last]) == len(target) + 1 and all(
                _at_most(c, top) if tied else c == top for c, (top, tied) in
                zip(target, rows.get((last, cs)) or _scaled_rows(cs, coeffs[last])))

        if last == 1:
            return is_last_link(coeffs[0])
        tops = coeffs[0]
        for idx in range(1, last + 1):
            level = rows[idx, tops] = tuple(_scaled_rows(tops, coeffs[idx]))
            tops = tuple(top for top, _ in level)
        if not _linear_tropical_member(target, tops):
            return False
        if all(len(d) == 2 for d in coeffs):
            return True
        anchor_pool = _tropical_anchor_pool(target, coeffs)

        def children(cs, idx):
            level = rows.get((idx, cs)) or tuple(_scaled_rows(cs, coeffs[idx]))
            return iter_product(*_tropical_options(level, anchor_pool[idx], coeffs[idx + 1]))
    else:
        def is_last_link(cs):  # cs keeps a nonzero lead, so the rows line up with the target
            terms = [[] for _ in target]  # the cross terms of each row
            for k, x in enumerate(cs):
                for i, y in enumerate(coeffs[last], k):
                    terms[i].append(x * y)
            return all(map(SIGN.contains, target, terms))

        if last == 1:
            return is_last_link(coeffs[0])
        if (target[0] != math.prod(c[0] for c in coeffs)
                or target[-1] != math.prod(c[-1] for c in coeffs)):
            return False

        def children(cs, idx):
            return _product_members(cs, coeffs[idx])

    seen = set()  # (step, intermediate) pairs already explored without success

    def step(cs: tuple, idx: int) -> bool:
        if (idx, cs) in seen:
            return False
        if idx == last:
            found = is_last_link(cs)
        else:
            found = any(step(w, idx + 1) for w in children(cs, idx))
        if not found:
            seen.add((idx, cs))
        return found

    return step(coeffs[0], 1)


def _scaled(*groups) -> tuple:
    """The scale L, then each group, a tuple of ``TropValue``s such as a
    polynomial's coefficients or a 1-tuple holding a root, as a tuple of
    ints.

    An exponent e becomes e * L, with L the lcm of the denominators of
    all exponents, and the zero becomes None.  The map preserves order
    and sums, so code that only adds, subtracts and compares exponents
    decides on these ints exactly what it would on the Fractions, and
    an int v it computes decodes to the exponent Fraction(v, L).
    """
    ratios = [[None if c.exponent is None else c.exponent.as_integer_ratio() for c in g]
              for g in groups]
    scale = math.lcm(*{r[1] for rs in ratios for r in rs if r is not None})
    return (scale, *(tuple([None if r is None else r[0] * (scale // r[1]) for r in rs])
                     for rs in ratios))


def _tropical_root(cs: tuple, e):
    """Where a, with scaled exponent e (None for the zero), splits the
    division of the scaled coefficients cs: the first index at which the
    terms c_i * a^i reach their maximum if they reach it twice, else None
    (no root).  At the zero root that is 0 exactly when c_0 is the zero."""
    if e is None:
        return None if cs[0] is not None else 0
    terms = [None if x is None else x + i * e for i, x in enumerate(cs)]
    top = max(t for t in terms if t is not None)
    return terms.index(top) if terms.count(top) > 1 else None


def _linear_tropical_member(target: tuple, tops: tuple) -> bool:
    """Whether scaled ``target`` is at most the all-tops chain ``tops`` and
    equal to it at each vertex of its hull: true of every chain member,
    and for linear factors exactly membership.

    ``tops`` is the max-plus product of the factors, so its hull is the
    Minkowski sum of theirs.  By induction a member w of the chain so far
    has the hull of its all-tops chain U, and at a vertex k + l of the sum
    w_k q_l = U_k q_l strictly beats the rest of its row, a singleton.
    Linear factors' tops are suffix products of the sorted roots, with
    vertices where the roots strictly increase: the closed form."""
    points = [(i, -t) for i, t in enumerate(tops) if t is not None]
    return all(_at_most(c, t) for c, t in zip(target, tops)) and (
        target == tops or all(target[i] == tops[i] for i, _ in _lower_hull(points)))


def _lower_hull(points) -> list:
    """Monotone-chain lower hull of points sorted by x; collinear ones are no vertices."""
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0:
                break
            hull.pop()
        hull.append((x, y))
    return hull


def _at_most(c, top) -> bool:
    """c <= top for scaled exponents, None (the zero) lowest."""
    return c is None or (top is not None and c <= top)


def _scaled_rows(a: tuple, b: tuple):
    """The rows of the tropical product of scaled coefficient tuples a and b,
    generated in index order so that a failing row check stops early.

    Row i is (top, tied): the maximum of the cross terms (None for the
    zero), and whether the row is the interval [0, top] rather than the
    singleton {top}, that is, whether the maximum is attained twice or
    every term is zero.
    """
    n, m = len(a) - 1, len(b) - 1
    for i in range(n + m + 1):
        top, tied = None, True
        for k in range(i - m if i > m else 0, (i if i < n else n) + 1):
            x, y = a[k], b[i - k]
            if x is None or y is None:
                continue
            s = x + y
            if top is None or s > top:
                top, tied = s, False
            elif s == top:
                tied = True
        yield top, tied


def _tropical_options(rows, anchors, next_coeffs) -> list:
    """Candidates per coefficient of a tropical intermediate: an interval row
    tries its top, then ties against ``anchors`` (target-derived), against
    the singleton rows and the next factor's cross-term ratios, then zero.
    Rows come from ``_scaled_rows``, and candidates are scaled exponents."""
    anchors = set(anchors)
    anchors.update(top for top, tied in rows if not tied)
    next_exps = [e for e in next_coeffs if e is not None]
    ratios = {l1 - l2 for l1 in next_exps for l2 in next_exps}
    ties = {a + d for a in anchors for d in ratios} | anchors
    out = []
    for top, tied in rows:
        if not tied:
            out.append((top,))
        elif top is None:
            out.append((None,))  # the row is {zero}
        else:
            out.append([top, *sorted((v for v in ties if v < top), reverse=True), None])
    return out


def _tropical_anchor_pool(target: tuple, coeffs) -> dict:
    """Target exponents pulled back through the factors still to come.

    A coefficient of the intermediate built at step ``idx`` reaches the
    final rows multiplied by one coefficient of each later factor, so
    the exponents that can tie against a target coefficient are the
    target exponents minus such chain sums.  All values are scaled.
    """
    pools = {}
    targets = [c for c in target if c is not None]
    for idx in range(1, len(coeffs) - 1):
        chain_sums = {0}
        for d in coeffs[idx + 1:]:
            chain_sums = {s + e for s in chain_sums for e in d if e is not None}
        pools[idx] = {t - s for t in targets for s in chain_sums}
    return pools


# ---------------------------------------------------------------------------
# exhaustive product enumeration over the sign field


def _product_members(c: tuple, d: tuple):
    """The members of the two-factor sign product of coefficient tuples c
    and d, in the order of the sorted rows.  With nonzero leads c_n and
    d_m the top row is the single term c_n * d_m, so every member has a
    nonzero lead and is trimmed as it stands."""
    return iter_product(*(sorted(row) for row in _product_rows(SIGN, c, d)))


def enumerate_product(factors: Sequence[Polynomial],
                      max_degree: int = DEFAULT_DEGREE_BOUND) -> list:
    """The exact left-nested product set over the sign field, sorted."""
    fs = list(factors)
    if not fs:
        raise ValueError("at least one factor is required")
    if any(q.field is not SIGN for q in fs):
        raise ValueError("enumerate_product is defined over the sign field only")
    _require_nonzero(*fs)
    _check_bound(sum(q.degree for q in fs), max_degree)
    current = {fs[0].coeffs}
    for q in fs[1:]:
        current = {m for cs in current for m in _product_members(cs, q.coeffs)}
    return sorted((Polynomial(SIGN, cs) for cs in current), key=poly_sort_key)
