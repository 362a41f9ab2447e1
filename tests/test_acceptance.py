"""Acceptance criteria: exact-value reproduction of the worked examples
plus the exhaustive and property suites, each with its runtime budget.

Every check is exact arithmetic (tolerance zero).  One pass/fail line is
printed per criterion; run pytest with -rP (or -s) to see them.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product as iter_product

import hyperpoly
from hyperpoly import (
    Polynomial,
    SIGN,
    TROPICAL,
    TropValue,
    all_factorizations_sign,
    all_quotients_sign,
    check_axioms,
    check_pushforward_lemma,
    classify_irreducibles,
    divide,
    divide_sign,
    factor,
    in_product,
    is_irreducible_sign,
    is_quotient,
    is_root,
    newton_polygon,
    nonuniqueness_witness,
    roots_with_multiplicities,
    sign_poly,
    trop_poly,
)

from oracles import brute_is_irreducible_sign

L = TropValue.log
Z = TropValue.zero()


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.name}: {status} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s: {elapsed:.2f}s"
        return False


def _all_sign_polys(degree):
    for lower in iter_product((-1, 0, 1), repeat=degree):
        for lead in (1, -1):
            yield Polynomial(SIGN, lower + (lead,))


def test_criterion_1_sign_axioms_exhaustive():
    with Budget("1 (sign axiom suite)", 1.0):
        report = check_axioms(SIGN)
        assert report["exhaustive"] and report["triples"] == 27
        names = {e["law"] for e in report["laws"]}
        for req in ("HG1", "HG2", "HG3", "HG4", "HG5", "HG6", "HF2"):
            assert any(n.startswith(req) for n in names), req
        for entry in report["laws"]:
            assert entry["failures"] == [], entry


def test_criterion_2_worked_example_large_root():
    with Budget("2 (polygon example, r=2)", 1.0):
        p = trop_poly([1, 0, 1, 0])
        polygon = newton_polygon(p)
        assert polygon.vertices == ((0, Fraction(-1)), (2, Fraction(-1)), (3, Fraction(0)))
        loci = roots_with_multiplicities(p)
        assert [(l.root, l.multiplicity) for l in loci] == [(L(0), 2), (L(1), 1)]

        q = divide(p, L(1))
        assert q == trop_poly([0, -1, 0])

        probe_accept = [Z, L(-4), L(-3), L(-2), L(Fraction(-3, 2)), L(-1)]
        for s in probe_accept:
            assert is_quotient(p, L(1), Polynomial(TROPICAL, (L(0), s, L(0))))
        probe_reject = [L(Fraction(-1, 2)), L(0), L(1)]
        for s in probe_reject:
            assert not is_quotient(p, L(1), Polynomial(TROPICAL, (L(0), s, L(0))))
        # naive elementary-symmetric candidate and the two partial outputs
        assert not is_quotient(p, L(1), trop_poly([0, 0, 0]))
        assert not is_quotient(p, L(1), trop_poly([2, 1, 0]))
        assert not is_quotient(p, L(1), trop_poly([1, 1, 0]))


def test_criterion_3_worked_example_small_root():
    with Budget("3 (polygon example, r=1/2)", 1.0):
        p = trop_poly([-1, 0, -1, 0])
        loci = roots_with_multiplicities(p)
        assert [(l.root, l.multiplicity) for l in loci] == [(L(-1), 1), (L(0), 2)]
        step2_only = trop_poly([0, 1, 2])
        assert not is_quotient(p, L(-1), step2_only)
        q = divide(p, L(-1))
        assert q == trop_poly([0, -1, 0])
        assert is_quotient(p, L(-1), q)


def test_criterion_4_fundamental_theorem_property_suite():
    with Budget("4 (tropical property suite)", 30.0):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(1, 12)
            coeffs = []
            for _ in range(n):
                if rng.random() < 0.15:
                    coeffs.append(Z)
                else:
                    coeffs.append(L(Fraction(rng.randint(-16, 16), rng.randint(1, 8))))
            p = Polynomial(TROPICAL, tuple(coeffs) + (L(0),))

            unit, factors = factor(p)
            assert unit == L(0)
            assert in_product(p, factors)

            roots = []
            for locus in roots_with_multiplicities(p):
                roots.extend([locus.root] * locus.multiplicity)
            products = [p.lead] * (n + 1)
            for i in range(n - 1, -1, -1):
                products[i] = products[i + 1] * roots[i]

            for locus in roots_with_multiplicities(p):
                a = locus.root
                q = divide(p, a)
                assert is_quotient(p, a, q)
                if a.is_zero:
                    continue
                k, m = locus.start, locus.multiplicity
                d = q.coeffs
                for i in range(k + m - 1, n):
                    assert a * d[i] <= products[i]
                for i in range(0, k - 1):
                    assert d[i] <= products[i + 1]

                for _ in range(20):
                    trial = list(d)
                    for idx in rng.sample(range(n), rng.randint(1, min(2, n))):
                        c = trial[idx]
                        move = rng.random()
                        if move < 0.2 or c.is_zero:
                            trial[idx] = L(rng.randint(-8, 8))
                        elif move < 0.6:
                            trial[idx] = L(c.exponent - Fraction(rng.randint(1, 4), 2))
                        elif move < 0.8:
                            trial[idx] = Z
                        else:
                            trial[idx] = L(c.exponent + Fraction(rng.randint(1, 4), 2))
                    cand = Polynomial(TROPICAL, tuple(trial))
                    if cand.degree != q.degree:
                        continue
                    if is_quotient(p, a, cand):
                        assert all(x <= y for x, y in zip(cand.coeffs, d))


def test_criterion_5_irreducible_classification():
    with Budget("5 (irreducible classification)", 10.0):
        got = classify_irreducibles(4)
        expected = {sign_poly([0, 1]), sign_poly([-1, 1]), sign_poly([1, 1]),
                    sign_poly([1, 0, 1])}
        assert set(got) == expected and len(got) == 4
        for n in (3, 4):
            for p in _all_sign_polys(n):
                assert not is_irreducible_sign(p), str(p)
        # the split-search definition over every monic polynomial of
        # degree <= 4, in the order of degree and coefficient array
        monic = [Polynomial(SIGN, lower + (1,))
                 for n in range(1, 5) for lower in iter_product((-1, 0, 1), repeat=n)]
        assert got == [p for p in monic if brute_is_irreducible_sign(p)]


def test_criterion_6_nonunique_factorization():
    with Budget("6 (failure of unique factorization)", 5.0):
        cubic = sign_poly([1, 1, 1, 1])
        got = all_quotients_sign(cubic, -1)
        assert got == [sign_poly([1, -1, 1]), sign_poly([1, 0, 1]), sign_poly([1, 1, 1])]

        found = all_factorizations_sign(cubic)
        multisets = {tuple(sorted(str(q) for q in f.factors)): f for f in found}
        assert set(multisets) == {
            tuple(sorted(["T+1", "T^2+1"])),
            tuple(sorted(["T+1", "T+1", "T+1"])),
            tuple(sorted(["T-1", "T-1", "T+1"])),
        }
        witness = multisets[tuple(sorted(["T-1", "T-1", "T+1"]))].witness_nesting
        assert "(T-1 * T-1)" in witness

        for n in (1, 2):
            for p in _all_sign_polys(n):
                assert len(all_factorizations_sign(p)) == 1, str(p)


def test_criterion_7_sign_division_sweep():
    with Budget("7 (exhaustive division sweep)", 60.0):
        cases = 0
        for n in range(1, 9):
            for p in _all_sign_polys(n):
                for a in (-1, 1):
                    if not is_root(p, a):
                        continue
                    q = divide_sign(p, a)
                    assert q in all_quotients_sign(p, a)
                    cases += 1
                if is_root(p, -1):
                    pulled = divide_sign(p.reflect(), 1).reflect().scale(-1)
                    assert divide_sign(p, -1) == pulled
        assert cases > 30000


def test_criterion_8_pushforward_lemma():
    with Budget("8 (pushforward trials)", 10.0):
        for morphism in ("sign", "valuation"):
            report = check_pushforward_lemma(trials=500, seed=0, morphism=morphism)
            assert report["trials"] == 500
            assert report["failures"] == [], report["failures"][:1]

        witness = nonuniqueness_witness()
        assert witness["ok"]
        first, second = witness["cases"]
        assert first["rational_product"] == ["1", "1", "1", "1"]
        assert second["rational_product"] == ["1", "3", "3", "1"]
        assert witness["common_image"] == "T^3+T^2+T+1"
        assert first["image_factors"] != second["image_factors"]


def test_criterion_9_quadratic_cubic_criterion():
    with Budget("9 (quadratic/cubic criterion)", 5.0):
        for n in (2, 3):
            for p in _all_sign_polys(n):
                rootless = not any(is_root(p, a) for a in (-1, 0, 1))
                assert is_irreducible_sign(p) == rootless, str(p)
                assert brute_is_irreducible_sign(p) == rootless, str(p)
        rng = random.Random(9)
        for _ in range(200):
            coeffs = (L(Fraction(rng.randint(-12, 12), rng.randint(1, 6))),
                      L(rng.randint(-6, 6)) if rng.random() > 0.2 else Z,
                      L(rng.randint(-3, 3)))
            p = Polynomial(TROPICAL, coeffs)
            loci = roots_with_multiplicities(p)
            assert sum(l.multiplicity for l in loci) == 2
            for locus in loci:
                assert is_root(p, locus.root)


DOCUMENTED_INVOCATIONS = [
    ["divide", "--field", "sign", "--poly", "T^3+T^2+T+1", "--root", "-1"],
    ["quotients", "--field", "sign", "--poly", "T^3+T^2+T+1", "--root", "-1"],
    ["factorizations", "--field", "sign", "--poly", "T^3+T^2+T+1", "--json"],
    ["newton", "--field", "tropical", "--poly", "[1,0,1,0]"],
    ["roots", "--field", "tropical", "--poly", "[1,0,1,0]", "--json"],
    ["factor", "--field", "tropical", "--poly", "[1,0,1,0]"],
    ["divide", "--field", "tropical", "--poly", "[1,0,1,0]", "--root", "1"],
    ["multiplicity", "--field", "sign", "--poly", "T^3+T^2+T+1", "--root", "-1"],
    ["check-product", "--field", "sign", "--poly", "T^3+T^2+T+1",
     "--factors", "T+1;T+1;T+1"],
    ["irreducible", "--field", "sign", "--poly", "T^2+1"],
]


def _run_cli(argv):
    # the child imports the package this process imported, wherever it lives
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hyperpoly.__file__)))
    return subprocess.run([sys.executable, "-m", "hyperpoly"] + argv,
                          capture_output=True, env=env)


def test_criterion_10_cli_determinism():
    with Budget("10 (CLI determinism)", 90.0):
        selftest = ["selftest", "--trials", "100", "--seed", "0"]
        first = _run_cli(selftest)
        second = _run_cli(selftest)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert b"selftest: PASS" in first.stdout

        for argv in DOCUMENTED_INVOCATIONS:
            a = _run_cli(argv)
            b = _run_cli(argv)
            assert a.returncode == 0, (argv, a.stderr)
            assert a.stdout == b.stdout
            assert a.stdout  # every documented example produces output
