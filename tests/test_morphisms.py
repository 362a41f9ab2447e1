"""Coefficient morphisms and the factorization-pushforward oracle."""

import random
from fractions import Fraction

from hyperpoly import (
    TROP_ZERO,
    TropValue,
    check_morphism_laws,
    check_pushforward_lemma,
    in_product,
    nonuniqueness_witness,
    sign_image,
    sign_map,
    sign_poly,
    t_adic_valuation,
    trop_poly,
    valuation_image,
)
from hyperpoly.morphisms import laurent_mul, laurent_poly_mul, rational_poly_mul

F = Fraction


def test_sign_map():
    assert sign_map(-5) == -1
    assert sign_map(0) == 0
    assert sign_map(F(7, 3)) == 1


def test_t_adic_valuation():
    assert t_adic_valuation({2: F(1)}) == TropValue.log(-2)
    assert t_adic_valuation({0: F(3), 1: F(1)}) == TropValue.log(0)
    assert t_adic_valuation({}) == TROP_ZERO
    assert t_adic_valuation({-1: F(1, 2)}) == TropValue.log(1)


def test_valuation_is_multiplicative():
    f = {1: F(2), 3: F(-1)}
    g = {-2: F(1, 3)}
    assert t_adic_valuation(laurent_mul(f, g)) == t_adic_valuation(f) * t_adic_valuation(g)


def test_sign_image_worked_example():
    # (T+1)(T+2) = T^2+3T+2 maps onto a member of (T+1)*(T+1)
    product = rational_poly_mul([F(1), F(1)], [F(2), F(1)])
    assert product == [F(2), F(3), F(1)]
    image = sign_image(product)
    assert image == sign_poly([1, 1, 1])
    assert in_product(image, [sign_poly([1, 1]), sign_poly([1, 1])])


def test_valuation_image_worked_example():
    # (T+t)(T+t^2) = T^2 + (t+t^2)T + t^3
    f1 = [{1: F(1)}, {0: F(1)}]
    f2 = [{2: F(1)}, {0: F(1)}]
    product = laurent_poly_mul(f1, f2)
    image = valuation_image(product)
    assert image == trop_poly([-3, -1, 0])
    assert in_product(image, [valuation_image(f1), valuation_image(f2)])


def test_valuation_image_negative_orders():
    # (t^2)T + t^-1 maps to Log(-2) T + Log(1)
    image = valuation_image([{-1: F(1)}, {2: F(1)}])
    assert image == trop_poly([1, -2])


def test_single_factor_trial_is_trivial():
    p = [F(1), F(2)]
    assert in_product(sign_image(p), [sign_image(p)])


def test_morphism_laws():
    for morphism in ("sign", "valuation"):
        report = check_morphism_laws(morphism, trials=300, seed=1)
        assert report["ok"], report["failures"][:3]


def test_pushforward_lemma_trials():
    for morphism in ("sign", "valuation"):
        report = check_pushforward_lemma(trials=120, seed=5, morphism=morphism)
        assert report["ok"], report["failures"][:1]
        assert report["trials"] == 120


def test_pushforward_deterministic():
    a = check_pushforward_lemma(trials=40, seed=9, morphism="valuation")
    b = check_pushforward_lemma(trials=40, seed=9, morphism="valuation")
    assert a == b


def test_nonuniqueness_witness():
    report = nonuniqueness_witness()
    assert report["ok"]
    assert report["common_image"] == "T^3+T^2+T+1"
    assert report["images_equal"]
    assert report["multisets_differ"]
    assert report["memberships_hold"]
    first, second = report["cases"]
    assert first["rational_product"] == ["1", "1", "1", "1"]
    assert second["rational_product"] == ["1", "3", "3", "1"]
    assert first["image_factors"] == sorted(["T+1", "T^2+1"])
    assert second["image_factors"] == ["T+1", "T+1", "T+1"]


def _double_loop_product(f, g, times):
    """The exact product of coefficient lists f and g by a plain double loop
    over index pairs; ``times`` multiplies two coefficients into an
    {exponent: coefficient} dict; zero coefficients are dropped at the end."""
    rows = [{} for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            for e, c in times(a, b).items():
                rows[i + j][e] = rows[i + j].get(e, 0) + c
    return [{e: c for e, c in row.items() if c} for row in rows]


def _laurent_times(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_exact_products_match_a_double_loop():
    rng = random.Random(3)

    def small():  # few values, so that sums cancel often
        return F(rng.randint(-2, 2), rng.randint(1, 2))

    def laurent():
        return {e: c for e in rng.sample(range(-2, 3), rng.randint(0, 3)) if (c := small())}

    for _ in range(300):
        f = [small() for _ in range(rng.randint(1, 5))]
        g = [small() for _ in range(rng.randint(1, 5))]
        expected = _double_loop_product(f, g, lambda a, b: {0: a * b})
        assert rational_poly_mul(f, g) == [row.get(0, F(0)) for row in expected]
        f = [laurent() for _ in range(rng.randint(1, 4))]
        g = [laurent() for _ in range(rng.randint(1, 4))]
        assert laurent_poly_mul(f, g) == _double_loop_product(f, g, _laurent_times)
        assert laurent_mul(f[0], g[0]) == _laurent_times(f[0], g[0])
