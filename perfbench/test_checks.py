"""The benchmark's independent checkers on the worked examples of the
project README.  Run with ``python -m pytest perfbench/test_checks.py``."""

import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

F = Fraction
CUBIC = (1, 1, 1, 1)            # T^3+T^2+T+1
T_PLUS_1, T_MINUS_1 = (1, 1), (-1, 1)


def test_sign_hypersum_table():
    assert checks.sign_sum([1, -1]) == {-1, 0, 1}
    assert checks.sign_sum([1, 0, 1]) == {1}
    assert checks.sign_sum([0, 0]) == {0}
    assert checks.sign_sum([-1, 0, -1]) == {-1}


def test_divide_and_quotients_of_the_cubic():
    # divide --poly "T^3+T^2+T+1" --root -1 prints T^2+T+1
    assert checks.sign_in_two(CUBIC, T_PLUS_1, (1, 1, 1))
    assert checks.sign_quotients(CUBIC, -1) == {(1, -1, 1), (1, 0, 1), (1, 1, 1)}
    assert checks.sign_quotients(CUBIC, 1) == set()
    assert checks.parse_sign_text("T^2-T+1") == (1, -1, 1)


def test_multiplicity_is_the_descartes_count():
    assert checks.descartes_multiplicity(CUBIC, -1) == 3
    assert checks.descartes_multiplicity(CUBIC, 1) == 0
    assert checks.descartes_multiplicity((0, 0, -1, 1), 0) == 2
    assert checks.sign_roots(CUBIC) == [-1]


def test_irreducibles():
    assert checks.sign_is_irreducible((1, 0, 1))        # irreducible --poly "T^2+1"
    assert checks.sign_is_irreducible((1, -1))          # -T+1, associate of T-1
    assert not checks.sign_is_irreducible((1, 1, 1))


def test_factorizations_of_the_cubic():
    found = checks.sign_factorization_multisets(CUBIC)
    assert found == {tuple(sorted(ms)) for ms in (
        (T_PLUS_1,) * 3, (T_PLUS_1, (1, 0, 1)), (T_MINUS_1, T_MINUS_1, T_PLUS_1))}
    tree = checks.parse_nesting("(T+1 * (T-1 * T-1))")
    assert sorted(checks.nesting_leaves(tree)) == sorted([T_PLUS_1, T_MINUS_1, T_MINUS_1])
    assert CUBIC in checks.nesting_members(tree)
    records = [([T_PLUS_1, T_MINUS_1, T_MINUS_1], 1, "(T+1 * (T-1 * T-1))")]
    assert not checks._sign_factorizations_ok(CUBIC, records)   # incomplete at degree 3
    records += [([T_PLUS_1] * 3, 1, "(T+1 * (T+1 * T+1))"),
                ([T_PLUS_1, (1, 0, 1)], 1, "(T+1 * T^2+1)")]
    assert checks._sign_factorizations_ok(CUBIC, records)


def test_check_product_of_the_cubic():
    # check-product --poly "T^3+T^2+T+1" --factors "T+1;T+1;T+1" prints true
    assert checks.chain_holds(CUBIC, [T_PLUS_1] * 3, [(1, 1, 1)], checks.sign_in_two)
    assert CUBIC in checks.sign_nested_members([T_PLUS_1] * 3)


def test_witness_of_t4_plus_1_holds_only_under_its_own_bracketing():
    target = (1, 0, 0, 0, 1)
    tree = checks.parse_nesting("((T+1 * T+1) * (T-1 * T-1))")
    assert target in checks.nesting_members(tree)
    for order in set(permutations([T_PLUS_1, T_PLUS_1, T_MINUS_1, T_MINUS_1])):
        assert target not in checks.sign_nested_members(list(order))


def test_tropical_worked_example():
    # [1,0,1,0]: Newton slopes {0, 0, 1}; divide by T + 2 (root 1) gives 0:T^2+-1:T+0
    p = (F(1), F(0), F(1), F(0))
    assert checks.hull_roots(p) == [0, 0, 1]
    assert checks.hull_roots((None, None, F(3), F(1))) == [None, None, 2]
    q = checks.parse_trop_text("0:T^2+-1:T+0")
    assert q == (F(0), F(-1), F(0))
    assert checks.is_max_quotient(p, F(1), q)
    assert checks.trop_in_two(p, (F(1), F(0)), (F(0), F(-2), F(0)))
    assert not checks.is_max_quotient(p, F(1), (F(0), F(-2), F(0)))


def test_tropical_products():
    assert checks.trop_in_sum(F(1), [F(2), F(2)])
    assert not checks.trop_in_sum(F(1), [F(2), F(0)])
    assert checks.trop_in_sum(None, [None])
    linear = [(F(0), F(0))] * 3                         # (T + 1)^3 in log coordinates
    assert checks.trop_tops(linear) == (F(0),) * 4
    assert checks.chain_holds((F(0), F(-1), F(0), F(0)), linear, [(F(0), F(0), F(0))],
                              checks.trop_in_two)
    assert not checks.chain_holds((F(0), F(1), F(0), F(0)), linear, [(F(0), F(0), F(0))],
                                  checks.trop_in_two)


def test_perturbed_quotients_space():
    top = (F(0), F(1))
    space = checks.perturbed_quotients(top)
    assert space == {(F(0), F(1)), (F(-1), F(1)), (F(-2), F(1)), (None, F(1)),
                     (F(0), F(0)), (F(0), F(-1)), (F(-1), F(0)), (F(-1), F(-1)),
                     (F(-2), F(0)), (F(-2), F(-1)), (None, F(0)), (None, F(-1))}
