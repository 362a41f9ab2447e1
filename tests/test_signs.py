"""Sign-polynomial division, irreducibility, and factorization search."""

from itertools import product as iter_product

import pytest

from hyperpoly import (
    ConstantPolynomialError,
    DegreeBoundExceeded,
    MONIC_IRREDUCIBLES,
    NotARootError,
    Polynomial,
    SIGN,
    all_factorizations_sign,
    all_quotients_sign,
    associated,
    classify_irreducibles,
    divide_sign,
    in_product,
    is_irreducible_sign,
    is_root,
    multiplicity_sign,
    sign_poly,
)

from oracles import (
    brute_factorizations_sign,
    brute_is_irreducible_sign,
    brute_multiplicity_sign,
    raw_nesting_members,
    raw_sign_quotients,
)

T = sign_poly([0, 1])
T_PLUS = sign_poly([1, 1])
T_MINUS = sign_poly([-1, 1])
T2_PLUS = sign_poly([1, 0, 1])
CUBIC = sign_poly([1, 1, 1, 1])


def _all_polys(degree):
    for lower in iter_product((-1, 0, 1), repeat=degree):
        for lead in (1, -1):
            yield Polynomial(SIGN, lower + (lead,))


def test_divide_sign_worked_examples():
    assert divide_sign(CUBIC, -1) == sign_poly([1, 1, 1])
    assert divide_sign(sign_poly([-1, 0, 1]), 1) == T_PLUS
    # T^3 - T: divide by the zero root, then by 1
    p = sign_poly([0, -1, 0, 1])
    shifted = divide_sign(p, 0)
    assert shifted == sign_poly([-1, 0, 1])
    assert divide_sign(shifted, 1) == T_PLUS


def test_divide_sign_membership():
    assert in_product(CUBIC, [T_PLUS, sign_poly([1, 1, 1])])
    assert in_product(sign_poly([-1, 0, 1]), [T_MINUS, T_PLUS])


def test_divide_sign_errors():
    with pytest.raises(NotARootError):
        divide_sign(T2_PLUS, 1)
    with pytest.raises(NotARootError):
        divide_sign(T_PLUS, 0)
    with pytest.raises(ConstantPolynomialError):
        divide_sign(sign_poly([1]), 1)


def test_all_quotients_worked_examples():
    got = all_quotients_sign(CUBIC, -1)
    assert got == [sign_poly([1, -1, 1]), T2_PLUS, sign_poly([1, 1, 1])]
    assert all_quotients_sign(T_MINUS, 1) == [sign_poly([1])]
    assert all_quotients_sign(T, 0) == [sign_poly([1])]
    assert all_quotients_sign(T_PLUS, 0) == []


def test_all_quotients_against_raw_enumeration():
    for n in (1, 2, 3, 4):
        for p in _all_polys(n):
            for a in (-1, 1):
                got = {q.coeffs for q in all_quotients_sign(p, a)}
                assert got == raw_sign_quotients(p.coeffs, a)


def test_all_quotients_bound():
    with pytest.raises(DegreeBoundExceeded):
        all_quotients_sign(Polynomial(SIGN, (1,) * 14), 1)
    with pytest.raises(DegreeBoundExceeded):
        classify_irreducibles(13)
    with pytest.raises(DegreeBoundExceeded):
        all_factorizations_sign(Polynomial(SIGN, (1,) * 14))
    with pytest.raises(DegreeBoundExceeded):
        multiplicity_sign(Polynomial(SIGN, (1,) * 14), -1)
    with pytest.raises(DegreeBoundExceeded):
        is_irreducible_sign(Polynomial(SIGN, (1,) * 14))


def test_division_sweep_small():
    for n in (1, 2, 3, 4, 5):
        for p in _all_polys(n):
            for a in (-1, 1):
                if not is_root(p, a):
                    continue
                q = divide_sign(p, a)
                assert q in all_quotients_sign(p, a)


def test_reflection_identity_small():
    for n in (1, 2, 3, 4, 5, 6):
        for p in _all_polys(n):
            if not is_root(p, -1):
                continue
            pulled = divide_sign(p.reflect(), 1).reflect().scale(-1)
            assert divide_sign(p, -1) == pulled


def test_irreducible_examples():
    assert is_irreducible_sign(T2_PLUS)
    assert not is_irreducible_sign(sign_poly([1, 1, 1]))
    assert not is_irreducible_sign(sign_poly([1, -1, 1]))
    assert is_irreducible_sign(sign_poly([-1, 0, -1]))  # unit multiple of T^2+1


def test_irreducible_against_split_search_oracle():
    for n in range(1, 6):
        for p in _all_polys(n):
            assert is_irreducible_sign(p) == brute_is_irreducible_sign(p), str(p)


def test_classification():
    assert set(classify_irreducibles(1)) == {T, T_MINUS, T_PLUS}
    assert set(classify_irreducibles(2)) == {T, T_MINUS, T_PLUS, T2_PLUS}
    assert set(classify_irreducibles(4)) == {T, T_MINUS, T_PLUS, T2_PLUS}
    assert tuple(MONIC_IRREDUCIBLES) == (T, T_MINUS, T_PLUS, T2_PLUS)
    assert classify_irreducibles(4) == [T_MINUS, T, T_PLUS, T2_PLUS]
    assert classify_irreducibles(0) == []


def test_quadratic_cubic_criterion_exhaustive():
    # degree 2 and 3: irreducible iff rootless
    for n in (2, 3):
        for p in _all_polys(n):
            rootless = not any(is_root(p, a) for a in (-1, 0, 1))
            assert is_irreducible_sign(p) == rootless


def test_factorizations_worked_example():
    found = all_factorizations_sign(CUBIC)
    multisets = {tuple(sorted(str(q) for q in f.factors)) for f in found}
    assert multisets == {
        tuple(sorted(["T+1", "T^2+1"])),
        tuple(sorted(["T+1", "T+1", "T+1"])),
        tuple(sorted(["T-1", "T-1", "T+1"])),
    }
    by_multiset = {tuple(sorted(str(q) for q in f.factors)): f for f in found}
    witness = by_multiset[tuple(sorted(["T-1", "T-1", "T+1"]))].witness_nesting
    assert "(T-1 * T-1)" in witness
    assert all(f.unit == 1 for f in found)


def test_factorizations_simple_cases():
    assert [tuple(f.factors) for f in all_factorizations_sign(sign_poly([1, 1, 1]))] == [
        (T_PLUS, T_PLUS)]
    assert [tuple(f.factors) for f in all_factorizations_sign(T2_PLUS)] == [(T2_PLUS,)]
    neg = sign_poly([-1, 0, -1])
    found = all_factorizations_sign(neg)
    assert len(found) == 1 and found[0].unit == -1 and found[0].factors == (T2_PLUS,)


def test_unique_factorization_holds_up_to_degree_two():
    for n in (1, 2):
        for p in _all_polys(n):
            assert len(all_factorizations_sign(p)) == 1, str(p)


def test_unique_factorization_fails_at_degree_three():
    assert len(all_factorizations_sign(CUBIC)) == 3


def test_factorizations_against_bracketing_oracle():
    # every sign polynomial of degree <= 5, both leading signs: the same
    # multisets and unit as the oracle, and each witness re-evaluated
    # from its own bracketing contains the monic associate
    for n in range(1, 6):
        for p in _all_polys(n):
            unit, multisets = brute_factorizations_sign(p.coeffs)
            found = all_factorizations_sign(p)
            assert {tuple(sorted(str(q) for q in f.factors)) for f in found} == multisets, str(p)
            assert len(found) == len(multisets)
            monic = tuple(unit * c for c in p.coeffs)
            for f in found:
                assert f.unit == unit
                members, names = raw_nesting_members(f.witness_nesting)
                assert sorted(names) == sorted(str(q) for q in f.factors)
                assert monic in members, (str(p), f.witness_nesting)
    # T^4+1 factors only under a bracketing that is not left-nested
    assert brute_factorizations_sign((1, 0, 0, 0, 1)) == (1, {("T+1", "T+1", "T-1", "T-1")})
    found = all_factorizations_sign(sign_poly([1, 0, 0, 0, 1]))
    assert [tuple(map(str, f.factors)) for f in found] == [("T-1", "T-1", "T+1", "T+1")]


def test_irreducible_member_has_associated_factor():
    # whenever an irreducible p appears in a searched factorization of a
    # product containing it, some factor is associated to p
    for p in (T_PLUS, T_MINUS, T2_PLUS):
        for other in (T_PLUS, T_MINUS):
            for member in _members_of_pair(p, other):
                if not is_irreducible_sign(member):
                    continue
                for f in all_factorizations_sign(member):
                    assert any(associated(member, q) for q in f.factors)


def _members_of_pair(p, q):
    from hyperpoly import enumerate_product

    return enumerate_product([p, q])


def test_multiplicity_examples():
    assert multiplicity_sign(CUBIC, -1) == 3
    assert multiplicity_sign(T2_PLUS, 1) == 0
    assert multiplicity_sign(T_MINUS, 1) == 1
    assert multiplicity_sign(sign_poly([0, -1, 0, 1]), 0) == 1
    assert multiplicity_sign(sign_poly([0, -1, 0, 1]), 1) == 1


def test_multiplicity_counts_repeated_factors():
    # (T+1)^2 squared pattern: T^2+T+1 has -1 with multiplicity 2
    assert multiplicity_sign(sign_poly([1, 1, 1]), -1) == 2


def test_multiplicity_against_recursive_oracle():
    for n in range(0, 7):
        for p in _all_polys(n):
            for a in (-1, 0, 1):
                assert multiplicity_sign(p, a) == brute_multiplicity_sign(p, a), (str(p), a)


def test_closed_forms_keep_bound_and_errors():
    # the closed forms need no bound, but refuse what the enumerations refuse
    big = Polynomial(SIGN, (1,) * 14)
    assert multiplicity_sign(big, -1, max_degree=13) == 13
    assert is_irreducible_sign(big, max_degree=13) is False
    with pytest.raises(ConstantPolynomialError):
        multiplicity_sign(sign_poly([]), 1)
    with pytest.raises(ConstantPolynomialError):
        is_irreducible_sign(sign_poly([1]))
    with pytest.raises(ValueError):
        multiplicity_sign(T_MINUS, 2)
