"""Concrete coefficient morphisms and randomized factorization oracles.

Two morphisms are provided: the sign map on exact rationals, and the
t-adic valuation on Laurent polynomials in one variable t over the
rationals.  The valuation is written multiplicatively, v(f) =
exp(-ord_t f) in log coordinates, so that a lower t-order means a
larger tropical value and v(f + g) <= max(v(f), v(g)); the Laurent
polynomials stand in for a full field of generalized power series,
which is more than the tests need.

The oracles multiply random polynomials exactly over the source ring,
push both the factors and the product through a morphism, and check
that the image of the product lies in the hyperproduct of the images.
Laurent polynomials are plain ``{exponent: Fraction}`` dicts; rational
polynomials are Fraction lists.  Each source ring is one (zero, one,
add, mul) tuple, and one polynomial product and one random-polynomial
generator serve both rings.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial, reduce

from .fields import SIGN, TROPICAL, TROP_ZERO, TropValue
from .parsing import format_polynomial
from .polynomials import Polynomial, in_product, pushforward

__all__ = [
    "sign_map",
    "t_adic_valuation",
    "sign_image",
    "valuation_image",
    "laurent_add",
    "laurent_mul",
    "laurent_str",
    "rational_poly_mul",
    "laurent_poly_mul",
    "check_morphism_laws",
    "check_pushforward_lemma",
    "nonuniqueness_witness",
]


def sign_map(x) -> int:
    """The sign of an exact rational: x/|x| for nonzero x, else 0."""
    x = Fraction(x)
    return (x > 0) - (x < 0)


def laurent_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        c2 = out.get(e, Fraction(0)) + c
        if c2:
            out[e] = c2
        else:
            out.pop(e, None)
    return out


def laurent_mul(f: dict, g: dict) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            c = out.get(e, Fraction(0)) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def laurent_str(f: dict) -> str:
    if not f:
        return "0"
    return " + ".join(f"({c})t^{e}" for e, c in sorted(f.items()))


def t_adic_valuation(f: dict) -> TropValue:
    """exp(-ord_t f) in log coordinates; the zero Laurent polynomial maps to zero."""
    if not f:
        return TROP_ZERO
    return TropValue.log(-min(f))


def sign_image(coeffs) -> Polynomial:
    """Push a rational-coefficient polynomial into the sign field."""
    return pushforward(sign_map, coeffs, SIGN)


def valuation_image(coeffs) -> Polynomial:
    """Push a Laurent-coefficient polynomial into the tropical field."""
    return pushforward(t_adic_valuation, coeffs, TROPICAL)


def _poly_mul(ring, f, g) -> list:
    """The product of coefficient lists f and g over ``ring``, a source
    ring given as (zero, one, add, mul)."""
    zero, _, add, mul = ring
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = add(out[i + j], mul(a, b))
    return out


_RATIONALS = (Fraction(0), Fraction(1), operator.add, operator.mul)
_LAURENT = ({}, {0: Fraction(1)}, laurent_add, laurent_mul)


def rational_poly_mul(f, g):
    return _poly_mul(_RATIONALS, f, g)


def laurent_poly_mul(f, g):
    return _poly_mul(_LAURENT, f, g)


# ---------------------------------------------------------------------------
# random generators (numerators in [-9, 9], denominators in [1, 4])


def _random_rational(rng, nonzero=False):
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if x or not nonzero:
            return x


def _random_laurent(rng, nonzero=False):
    while True:
        f = {}
        for _ in range(rng.randint(1, 2)):
            f = laurent_add(f, {rng.randint(-3, 3): _random_rational(rng)})
        if f or not nonzero:
            return f


def _random_poly(rng, rand_elem) -> list:
    """A polynomial of degree 1-4 with a nonzero lead, from ``rand_elem``."""
    deg = rng.randint(1, 4)
    return [rand_elem(rng) for _ in range(deg)] + [rand_elem(rng, nonzero=True)]


# name -> (map, target field, random element, element text, source ring)
_MORPHISMS = {
    "sign": (sign_map, SIGN, _random_rational, str, _RATIONALS),
    "valuation": (t_adic_valuation, TROPICAL, _random_laurent, laurent_str, _LAURENT),
}


def check_morphism_laws(morphism: str = "sign", trials: int = 200, seed: int = 0) -> dict:
    """Sampled verification of the morphism laws.

    f(0) = 0, f(1) = 1, f(ab) = f(a)f(b), and compatibility with sums:
    whenever b = sum(a_i) in the source, f(b) lies in the hypersum of
    the f(a_i).
    """
    import random  # loaded on first use: start-up stays small

    fmap, field, rand_elem, fmt, (zero, one, add, mul) = _MORPHISMS[morphism]
    rng = random.Random(seed)

    failures = []
    if fmap(zero) != field.zero:
        failures.append("f(0) != 0")
    if fmap(one) != field.one:
        failures.append("f(1) != 1")
    for _ in range(trials):
        a, b = rand_elem(rng), rand_elem(rng)
        if fmap(mul(a, b)) != field.mul(fmap(a), fmap(b)):
            failures.append(f"f(ab) != f(a)f(b) at a={fmt(a)}, b={fmt(b)}")
        terms = [rand_elem(rng) for _ in range(rng.randint(2, 4))]
        if not field.contains(fmap(reduce(add, terms)), [fmap(t) for t in terms]):
            failures.append("f(sum) not in hypersum of images at "
                            + ", ".join(fmt(t) for t in terms))
    return {"morphism": morphism, "trials": trials, "seed": seed,
            "failures": failures, "ok": not failures}


def check_pushforward_lemma(trials: int = 500, seed: int = 0,
                            morphism: str = "sign") -> dict:
    """Randomized check that factorizations push forward along a morphism.

    Each trial multiplies 2-4 random factor polynomials exactly over the
    source ring and asserts that the image of the product is a member of
    the left-nested hyperproduct of the images of the factors.  The
    underlying statement holds in general, so any failure recorded here
    indicates an implementation bug.
    """
    import random  # loaded on first use: start-up stays small

    fmap, field, rand_elem, fmt, ring = _MORPHISMS[morphism]
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        factors = [_random_poly(rng, rand_elem) for _ in range(rng.randint(2, 4))]
        product = reduce(partial(_poly_mul, ring), factors)
        image_factors = [pushforward(fmap, f, field) for f in factors]
        image_product = pushforward(fmap, product, field)
        if not in_product(image_product, image_factors):
            failures.append({
                "trial": trial,
                "factors": [[fmt(c) for c in f] for f in factors],
                "product": [fmt(c) for c in product],
                "image_factors": [format_polynomial(q) for q in image_factors],
                "image_product": format_polynomial(image_product),
            })
    return {"morphism": morphism, "trials": trials, "seed": seed,
            "failures": failures, "ok": not failures}


def nonuniqueness_witness() -> dict:
    """Two distinct real factorizations with the same sign image.

    (T+1)(T^2+1) and (T+1)^3 are different irreducible factorizations
    over the reals, yet both products map to the same sign polynomial;
    the pushed factor multisets differ, so no factorization concept that
    is preserved under morphisms can be unique over the sign field.
    """
    factorizations = [
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0), Fraction(1)]],
        [[Fraction(1), Fraction(1)]] * 3,
    ]
    results = []
    for factors in factorizations:
        product = reduce(rational_poly_mul, factors)
        image_factors = [sign_image(f) for f in factors]
        image_product = sign_image(product)
        results.append({
            "rational_factors": [[str(c) for c in f] for f in factors],
            "rational_product": [str(c) for c in product],
            "image_factors": sorted(format_polynomial(q) for q in image_factors),
            "image_product": format_polynomial(image_product),
            "membership": in_product(image_product, image_factors),
        })
    images_equal = results[0]["image_product"] == results[1]["image_product"]
    multisets_differ = results[0]["image_factors"] != results[1]["image_factors"]
    return {
        "cases": results,
        "common_image": results[0]["image_product"],
        "images_equal": images_equal,
        "multisets_differ": multisets_differ,
        "memberships_hold": all(r["membership"] for r in results),
        "ok": images_equal and multisets_differ and all(r["membership"] for r in results),
    }
