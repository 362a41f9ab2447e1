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
is not associative, so the nesting matters).  Over the sign field two
factors are decided by the row check alone, each target coefficient
against its row's cross terms, which is the definition of membership;
three or more are one depth-first search over the chain's
intermediates, ending in that row check: the end coefficients of a
member are forced, the products of the factors' ends, and are checked
on the ints first, and a step tries every member of the two-factor
product, so the search is exhaustive.  Tropical membership runs on
exponents scaled by the lcm of their denominators: the scaling turns
every exponent into an int and keeps order and sums, so the code adds
and compares plain ints and decides what it would on Fractions.
``_scaled``, which encodes tuples of ``TropValue``s, is the one encoder
for this, shared with the Newton polygon, tropical division and the
quotient search in ``tropical``, as ``_lower_hull`` is the one hull
routine.  The input's shape picks one of two tropical deciders.  A
product of linear factors is decided by the paper's closed form, the
hull check ``_linear_tropical_member`` against the max-plus product of
the factors.  Any other product, two factors included, is decided by
``_greatest_chain``, which lowers bounds from the all-tops chain to the
greatest chain through the target, or proves there is none.  So
tropical membership multiplies no ``TropValue``, and each of its
answers is a proof.

Each field has one root test, on its own encoding, shared by ``is_root``
and both divisions: ``_tropical_root`` on ``_scaled`` exponents, which
also gives a division's split, and ``_sign_root`` on the ints.

A quotient q of p by T - a is a q with p in (T - a) * q, so
``divides_linearly`` checks a given q as membership in that two-factor
product, which ``_chain_member`` decides on the tuples (-a, 1) and q's
coefficients.  Every division entry point refuses a root outside its
field with a ``ValueError``.
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
from functools import reduce
from itertools import accumulate, combinations
from itertools import product as iter_product

from .errors import DegreeBoundExceeded, ZeroOperandError, _quoted
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
        raise ValueError(f"sign values are -1, 0 or 1, got {_quoted(a)}")


def _check_trop_value(a):
    if not isinstance(a, TropValue):
        raise ValueError(f"tropical values are TropValue instances, got {_quoted(a)}")


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
    """Whether the target is in the left-nested product of the factors
    ``coeffs``, nonzero coefficient tuples over ``field`` of matching degrees.

    Over the tropical field, on ``_scaled`` exponents, the factors' shape
    picks the decider: ``_linear_tropical_member`` against the max-plus
    product of the factors when every factor is linear, the paper's
    closed form, and ``_greatest_chain`` for any other product, two
    factors included.  Over the sign field two factors are the row
    check alone, each target coefficient against its row's cross terms,
    which is the definition of membership.  Three or more must have the
    forced end coefficients, the products of the factors' ends, and a
    depth-first search over the intermediates tries every member of each
    two-factor product."""
    if field is TROPICAL:
        _, target, *coeffs = _scaled(target, *coeffs)
        if all(len(d) == 2 for d in coeffs):
            return _linear_tropical_member(target, reduce(_max_plus, coeffs))
        return _greatest_chain(target, coeffs) is not None

    last = len(coeffs) - 1

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
    seen = set()  # (step, intermediate) pairs already explored without success

    def step(cs: tuple, idx: int) -> bool:
        if (idx, cs) in seen:
            return False
        if idx == last:
            found = is_last_link(cs)
        else:
            found = any(step(w, idx + 1) for w in _product_members(cs, coeffs[idx]))
        if not found:
            seen.add((idx, cs))
        return found

    return step(coeffs[0], 1)


def _greatest_chain(target: tuple, coeffs) -> list | None:
    """The greatest intermediates w_1 .. w_{n-1} of a tropical chain from
    w_0 = coeffs[0] through w_i in w_{i-1} * coeffs[i] to w_n = target, or
    None when there is no such chain.  Everything is ``_scaled``, None the
    zero.

    A row of a link holds when the maximum of its entries, the value
    w_i[j] and the terms w_{i-1}[k] + coeffs[i][j - k], is attained twice
    or every entry is the zero.  Bounds start at the all-tops
    intermediates, the max-plus products of the leading factors, and
    only come down, by two rules per row, where ``first`` and ``second``
    are the largest and the runner-up term bound (equal for a tie):

    1. a value bound above ``first`` comes down to ``first``; at the target
       that refutes membership;
    2. a term that alone is largest and above the value bound comes down to
       the larger of the value bound and ``second``; in the first link,
       whose terms are fixed, that refutes membership.

    Two factors have no intermediates, so the rules read the row check:
    rule 1 at the target says c <= top, and rule 2 in the first link says
    c = top unless the row is tied.  One sweep decides, and stops at the
    first failing row.

    Why the answer is exact.  Every chain lies below the all-tops chain,
    and each rule lowers a bound only past values that no chain below the
    bounds can take, so every chain stays below the bounds.  When no rule
    applies, every row holds with its entries at their bounds, so the
    bounds are a chain: the greatest one.  (That it exists also follows
    from each row relation being closed under the coordinatewise maximum,
    as Jeavons and Cooper observe for max-closed constraints: the larger
    of two rows' maxima keeps its ties, or both rows attain it.)

    Why the sweeps end.  Rule 2 can chase two bounds downward for ever:
    a zero target coefficient may ask w[1] + c to tie w[2] + d in one row
    and w[1] + c' to tie w[2] + d' in another.  So a bound below ``floor``
    becomes the zero.  That is sound: raising a set of finite
    intermediate coefficients that ties nothing outside itself keeps a
    chain a chain, until it ties something, and the all-tops chain caps
    the raise, so the greatest chain links each of its finite
    coefficients, tie by tie through at most all of them, to a target or
    first-factor coefficient, and each tie moves the value by at most the
    spread D of the factor exponents and 0.  With the floor every bound
    takes finitely many values, so the sweeps end.  A chase or a long
    descent toward a distant tie still takes a number of sweeps that grows
    with the exponents, so ``_replay_windows`` jumps over repeated sweeps.
    """
    last = len(coeffs) - 1
    levels = [*map(list, accumulate(coeffs[:last], _max_plus)), target]
    size = sum(map(len, levels[1:last]))
    floor = None  # two factors move no bound: each rule refutes membership at once
    if last > 1:
        spread = [0, *(e for q in coeffs[1:] for e in q if e is not None)]
        floor = (min(e for e in target + coeffs[0] if e is not None)
                 - size * (max(spread) - min(spread)))
    history = []  # the intermediates before each of the latest sweeps
    while True:
        history.append([tuple(w) for w in levels[1:last]])
        moved = False
        for idx in range(1, last + 1):
            below, q, w = levels[idx - 1], coeffs[idx], levels[idx]
            m, n = len(q) - 1, len(below) - 1
            for i, v in enumerate(w):
                first = second = None
                for k in range(i - m if i > m else 0, (i if i < n else n) + 1):
                    x, y = below[k], q[i - k]
                    if x is None or y is None:
                        continue
                    s = x + y
                    if first is None or s > first:
                        first, second, top = s, first, k
                    elif second is None or s > second:
                        second = s
                if v is not None and (first is None or v > first):  # rule 1
                    if idx == last:
                        return None
                    w[i] = v = None if first is None or first < floor else first
                    moved = True
                if (first is not None and (v is None or first > v)
                        and (second is None or first > second)):  # rule 2
                    if idx == 1:
                        return None
                    if v is None or second is not None and second > v:
                        v = second
                    below[top] = None if v is None or v - q[i - top] < floor else v - q[i - top]
                    moved = True
        if not moved:
            return history[-1]
        if len(history) > size:
            if _replay_windows(levels, history, coeffs, floor):
                history.clear()
            else:
                del history[0]


def _replay_windows(levels, history, coeffs, floor) -> bool:
    """Jump ``_greatest_chain`` over sweeps that would repeat a window of
    the latest ones, shifted: True if it lowered ``levels``.

    In a window of the latest p sweeps, from a snapshot in ``history`` to
    ``levels``, let each bound b move down by d_b, none to the zero.  The
    sweeps only compare entries of one row, and set a bound to an entry of
    its row less a constant.  So from the bounds lowered by j d the same p
    sweeps lower them by d once more, comparison for comparison, while
    any two entries of a row with different d stay apart (their ranges
    over the window, shifted by j d, are disjoint) and no bound passes
    ``floor``.  A bound set from an entry with another d shares a value
    with it in the window, so it lets no jump through.
    """
    for then in reversed(history):
        pairs = [(a, b) for was, w in zip(then, levels[1:-1]) for a, b in zip(was, w)]
        if any(b is None and a is not None for a, b in pairs):
            continue
        jump = min((b - floor) // (a - b) for a, b in pairs if a != b)
        before = [levels[0], *then, levels[-1]]
        for idx in range(1, len(levels)):
            q, below, was = coeffs[idx], levels[idx - 1], before[idx - 1]
            for i, v in enumerate(levels[idx]):
                entries = [(was[k] + q[i - k], below[k] + q[i - k]) for k in range(len(below))
                           if 0 <= i - k < len(q) and below[k] is not None and q[i - k] is not None]
                if v is not None:
                    entries.append((before[idx][i], v))
                for (hi, lo), (hi2, lo2) in map(sorted, combinations(entries, 2)):
                    if hi - lo != hi2 - lo2:  # the upper entry closes in at the rate
                        rate = hi2 - lo2 - hi + lo
                        jump = min(jump, (lo2 - hi - 1) // rate if rate > 0 else jump)
                        if hi >= lo2:
                            jump = 0
        if jump > 0:
            for w, was in zip(levels[1:-1], then):
                for i, (a, b) in enumerate(zip(was, w)):
                    if b is not None:
                        w[i] = b - jump * (a - b)
            return True
    return False


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


def _max_plus(a: tuple, b: tuple) -> tuple:
    """The max-plus product of scaled coefficient tuples a and b, None the
    zero: the top of each row of the tropical product a * b."""
    n, m = len(a) - 1, len(b) - 1
    tops = []
    for i in range(n + m + 1):
        top = None
        for k in range(i - m if i > m else 0, (i if i < n else n) + 1):
            x, y = a[k], b[i - k]
            if x is not None and y is not None and (top is None or x + y > top):
                top = x + y
        tops.append(top)
    return tuple(tops)


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
