"""Newton-polygon roots and division for tropical polynomials.

A tropical polynomial of degree n has exactly n roots counted with
multiplicity.  In log coordinates they are read off the lower convex
hull of the points (i, -e_i) taken over the indices with a nonzero
coefficient c_i = exp(e_i): the hull's slope over each unit step is the
log coordinate of one root, and every leading zero coefficient
contributes one zero root.  Zero coefficients elsewhere impose no
constraint on the hull and are simply omitted from its input.

Division by a linear term T + a reads everything it needs off the
terms c_i * a^i, through the root test ``_tropical_root`` that
``is_root`` shares: a is a root when their maximum is attained twice,
and the first index attaining it, the left end of a's hull segment,
splits a two-range recursion.  The coefficients from there up descend
from the leading one, and those below climb from the constant one.  The
result is the coefficientwise-maximal polynomial q with p in (T+a)*q;
the quotient is unique exactly when all roots are simple.  Quotients
near the maximal one are searched by the quotient walk shared with the
sign field, offering each position its maximal value or a lowered one,
with the tropical relation: c in x + y is c <= x when x = y, and c =
max(x, y) otherwise.

The hull, the division and the quotient search run on exponents scaled
to ints by ``polynomials._scaled``, the one encoder that the chain
search uses as well, and the hull is its ``_lower_hull``.  The scaling
keeps order and sums, so they decide on ints what they would on
Fractions, and only answers are decoded.  One int core,
``_maximal_quotient``, finds the maximal quotient for both ``divide``
and ``search_quotients``, at the zero root too, where it is the shift:
each encodes its inputs once and calls it, ``divide`` decodes its
answer and the search walks its ints as they are.  One private int
hull, ``_hull``, serves the polygon and the roots.  The polygon's
vertex heights and slopes are its public Fractions, each decoded once
from the hull's ints, while ``roots_with_multiplicities`` and
``factor`` decode each root from the hull's ints through
``TropValue._from_scaled``, one gcd and no Fraction.  The divisions
decode through it too: a quotient coefficient equal to one of p's, as
is every one copied from p, is p's own value, and the searched
quotients are sorted on their ints, which share one scale and so sort
as ``poly_sort_key`` sorts the values, before each distinct exponent
is decoded once.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstantPolynomialError, NotARootError
from .fields import TROP_ZERO, TROPICAL, TropValue, _Record, exact_str
from .polynomials import (Polynomial, _at_most, _check_trop_value, _linear_quotients,
                          _lower_hull, _scaled, _tropical_root, divides_linearly)

__all__ = [
    "NewtonPolygon",
    "RootLocus",
    "newton_polygon",
    "roots_with_multiplicities",
    "factor",
    "divide",
    "is_quotient",
    "search_quotients",
    "render_newton_svg",
]


class NewtonPolygon(_Record):
    """Lower convex hull data of a tropical polynomial.

    ``vertices`` lists (index, height) pairs; a ``None`` height marks a
    leading zero coefficient (no constraint, conventionally +infinity).
    ``slopes`` are the per-unit-step hull increments, nondecreasing; the
    number of finite slopes plus ``zero_root_multiplicity`` equals the
    degree.
    """

    __slots__ = ("vertices", "slopes", "zero_root_multiplicity")

    def __init__(self, vertices: tuple, slopes: tuple, zero_root_multiplicity: int):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "zero_root_multiplicity", zero_root_multiplicity)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[i, "+inf" if h is None else exact_str(h)] for i, h in self.vertices],
            "slopes": [exact_str(s) for s in self.slopes],
            "zero_mult": self.zero_root_multiplicity,
        }


class RootLocus(_Record):
    """A root with its multiplicity and 1-based start position in the
    nondecreasing root list."""

    __slots__ = ("root", "multiplicity", "start")

    def __init__(self, root: TropValue, multiplicity: int, start: int):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "start", start)


def _require_positive_degree(p: Polynomial):
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("a polynomial of degree >= 1 is required")


def _hull(p: Polynomial) -> tuple:
    """The scale, the zero root's multiplicity and the lower hull of the
    points (i, -e_i) on p's ``_scaled`` exponents, over its nonzero
    coefficients: the one hull that the polygon and the roots read."""
    _require_positive_degree(p)
    scale, cs = _scaled(p.coeffs)
    points = [(i, -e) for i, e in enumerate(cs) if e is not None]
    zero_mult = points[0][0]  # leading zero coefficients c_0..c_{l-1}
    return scale, zero_mult, _lower_hull(points)


def newton_polygon(p: Polynomial) -> NewtonPolygon:
    """Lower convex hull of the points (i, -e_i) over nonzero coefficients.

    The hull is ``_hull``'s, on the ``_scaled`` exponents, and each
    vertex's height and each segment's slope is decoded from it once."""
    scale, zero_mult, hull = _hull(p)
    slopes = []
    for (i1, h1), (i2, h2) in zip(hull, hull[1:]):
        slopes.extend([Fraction(h2 - h1, (i2 - i1) * scale)] * (i2 - i1))

    vertices = (tuple((i, None) for i in range(zero_mult))
                + tuple((i, Fraction(h, scale)) for i, h in hull))
    return NewtonPolygon(vertices, tuple(slopes), zero_mult)


def roots_with_multiplicities(p: Polynomial) -> list:
    """The sorted root loci of p: the zero root first, then one locus per
    hull segment, whose slope is the root and whose width its multiplicity.

    The roots are read off ``_hull``'s scaled ints, the polygon's own
    hull, and each slope is decoded by ``TropValue._from_scaled``."""
    scale, zero_mult, hull = _hull(p)
    loci = [RootLocus(TROP_ZERO, zero_mult, 1)] if zero_mult else []
    for (i1, h1), (i2, h2) in zip(hull, hull[1:]):
        loci.append(RootLocus(TropValue._from_scaled(h2 - h1, (i2 - i1) * scale), i2 - i1, i1 + 1))
    return loci


def factor(p: Polynomial):
    """Unique factorization: the unit c_n and the linear factors T + a_i, ascending."""
    factors = []
    for locus in roots_with_multiplicities(p):
        factors.extend([Polynomial(TROPICAL, (locus.root, TROPICAL.one))] * locus.multiplicity)
    return p.lead, factors


def divide(p: Polynomial, a: TropValue) -> Polynomial:
    """The maximal q with p in (T + a) * q; raises NotARootError otherwise.

    ``_maximal_quotient`` divides on the ``_scaled`` exponents; a
    coefficient d_i equal to c_{i+1}, as is every one copied from p, is
    decoded as p's own value, and any other by ``TropValue._from_scaled``."""
    _check_trop_value(a)
    _require_positive_degree(p)
    scale, cs, (e,) = _scaled(p.coeffs, (a,))
    return Polynomial(TROPICAL, tuple(
        x if v == y else TropValue._from_scaled(v, scale)
        for v, y, x in zip(_maximal_quotient(cs, e, a), cs[1:], p.coeffs[1:])))


def _maximal_quotient(cs: tuple, e, a: TropValue) -> list:
    """The maximal quotient of the scaled coefficients cs by T + a, with
    e the scaled exponent of a (None for the zero), as scaled ints;
    raises NotARootError when a is not a root.

    ``_tropical_root`` decides the root and gives j, the first index at
    which the terms c_i * a^i reach their maximum, the left end of a's
    hull segment.  At the zero root the quotient is the shift, cs
    without its constant.  Otherwise the recursion runs in two ranges
    that meet at j:

    * i = n-1 down to j:  d_i = max(c_{i+1}, a * d_{i+1}), after d_{n-1} = c_n
    * i = 0 up to j-1:    d_i = max(c_i, d_{i-1}) / a, after d_0 = c_0 / a
    """
    j = _tropical_root(cs, e)
    if j is None:
        raise NotARootError("zero is not a root (the constant coefficient is nonzero)"
                            if e is None else f"{str(a)[:20]} is not a root of the polynomial")
    if e is None:
        return list(cs[1:])

    n = len(cs) - 1
    d = [None] * n
    d[n - 1] = above = cs[n]
    for i in range(n - 2, j - 1, -1):
        # on a's own segment c_{i+1} <= a * d_{i+1}, so this is the suffix product
        above += e
        if cs[i + 1] is not None and cs[i + 1] >= above:
            above = cs[i + 1]
        d[i] = above
    below = None
    for i in range(j):
        if cs[i] is not None and (below is None or cs[i] > below):
            below = cs[i]
        if below is not None:
            below -= e
            d[i] = below
    return d


def is_quotient(p: Polynomial, a: TropValue, q: Polynomial) -> bool:
    """Exact check of p in (T + a) * q: ``divides_linearly``, membership
    in the two-factor product decided on scaled integer exponents."""
    return divides_linearly(p, a, q)


def search_quotients(p: Polynomial, a: TropValue, *, deltas=(1, 2), max_changed: int = 2) -> list:
    """Bounded search for valid quotients near the maximal one.

    Lowers up to ``max_changed`` coefficients of the maximal quotient
    ``divide(p, a)`` (to the exponent minus each delta, or to zero) and
    returns every such q with p in (T + a) * q, sorted; the maximal
    quotient is always among them.  It refuses what ``divide`` refuses,
    with the same errors.  The shared quotient walk offers top_i at no
    cost and each lowered value at a cost of one change.  One
    ``_scaled`` call encodes p, a and the deltas, so the scale takes in
    the deltas' denominators too; the maximal quotient comes as ints
    from ``divide``'s core, the answers are sorted on their ints, and each
    distinct exponent of them is decoded once, as p's own value where it
    equals one of p's.  The deltas are exact rationals, as ``TropValue.log``
    takes them: a float is refused with its ``ValueError``.  For exploring
    the quotient set at desk scale, not for characterizing it.
    """
    _check_trop_value(a)
    _require_positive_degree(p)
    scale, cs, (e, *ds) = _scaled(p.coeffs, (a, *map(TropValue.log, deltas)))
    options = []
    for t in _maximal_quotient(cs, e, a):
        # top_i, then the other values position i may take, each once
        lowered = [] if t is None else [v for v in dict.fromkeys(t - d for d in ds)
                                        if v != t] + [None]
        options.append(((t, 0), *((v, 1) for v in lowered)))

    def holds(c, v, prev):  # c in a*v + prev, a max-plus hypersum of two terms
        x = None if v is None or e is None else v + e
        if x == prev:
            return _at_most(c, x)
        return c == (x if prev is None or (x is not None and x > prev) else prev)

    found = _linear_quotients(cs, None, holds, options, max(max_changed, 0))
    # one scale for all, so the ints sort as poly_sort_key sorts the values
    found.sort(key=lambda d: [(0, 0) if v is None else (1, v) for v in d])
    own = dict(zip(cs, p.coeffs))  # a value equal to one of p's is p's own
    decoded = {v: own[v] if v in own else TropValue._from_scaled(v, scale)
               for v in {v for d in found for v in d}}
    return [Polynomial(TROPICAL, tuple(map(decoded.__getitem__, d))) for d in found]


def render_newton_svg(p: Polynomial, polygon: NewtonPolygon | None = None) -> str:
    """Draw the polygon: finite points, the hull polyline, axes labeled i
    and rho(i); zero coefficients are annotated in the margin."""
    if polygon is None:
        polygon = newton_polygon(p)
    finite = [(i, -c.exponent) for i, c in enumerate(p.coeffs) if not c.is_zero]
    missing = [i for i, c in enumerate(p.coeffs) if c.is_zero]
    hull = [(i, h) for i, h in polygon.vertices if h is not None]

    # scaled in exact arithmetic; only the pixel coordinates become floats
    x_lo, x_hi = min(i for i, _ in finite), max(i for i, _ in finite)
    y_lo, y_hi = min(h for _, h in finite), max(h for _, h in finite)
    if x_hi == x_lo:
        x_hi += 1
    if y_hi == y_lo:
        y_hi += 1

    width, height, margin = 420, 300, 50

    def sx(x):
        return float(margin + Fraction(x - x_lo, x_hi - x_lo) * (width - 2 * margin))

    def sy(y):
        return float(height - margin - Fraction(y - y_lo, y_hi - y_lo) * (height - 2 * margin))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<line x1="{margin:.1f}" y1="{height - margin:.1f}" x2="{width - margin / 2:.1f}" '
        f'y2="{height - margin:.1f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{margin:.1f}" y1="{height - margin:.1f}" x2="{margin:.1f}" '
        f'y2="{margin / 2:.1f}" stroke="black" stroke-width="1"/>',
        f'<text x="{width - margin / 2 + 4:.1f}" y="{height - margin + 4:.1f}" '
        f'font-size="12">i</text>',
        f'<text x="{margin - 10:.1f}" y="{margin / 2 - 4:.1f}" font-size="12">ρ(i)</text>',
    ]
    path = " ".join(f"{sx(i):.2f},{sy(h):.2f}" for i, h in hull)
    lines.append(f'<polyline points="{path}" fill="none" stroke="black" stroke-width="2"/>')
    for i, h in finite:
        lines.append(f'<circle cx="{sx(i):.2f}" cy="{sy(h):.2f}" r="3" fill="black"/>')
        lines.append(f'<text x="{sx(i) + 5:.2f}" y="{sy(h) - 5:.2f}" font-size="10">'
                     f'({i}, {exact_str(h)})</text>')
    for k, i in enumerate(missing):
        lines.append(
            f'<text x="{margin:.1f}" y="{12 + 12 * k:.1f}" font-size="10">'
            f'c_{i} = zero (height +inf)</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
