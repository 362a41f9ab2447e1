"""Axiom suites: exhaustive over the sign field, sampled over the tropical."""

from hyperpoly import SIGN, TROPICAL, check_axioms
from hyperpoly.fields import SignField, TropValue, sign_hyperadd, trop_hyperadd


def test_sign_axioms_exhaustive():
    report = check_axioms(SIGN)
    assert report["exhaustive"]
    assert report["triples"] == 27
    for entry in report["laws"]:
        assert entry["failures"] == [], entry
    assert report["ok"]


def test_tropical_axioms_sampled():
    report = check_axioms(TROPICAL, sample_budget=1000, seed=7)
    assert not report["exhaustive"]
    for entry in report["laws"]:
        assert entry["failures"] == [], entry
    assert report["ok"]


def test_axiom_report_covers_hypergroup_laws():
    names = {entry["law"] for entry in check_axioms(SIGN)["laws"]}
    for required in ("HG1", "HG2", "HG3", "HG4", "HG5", "HG6", "HF2"):
        assert any(name.startswith(required) for name in names), required


def test_reversibility_instance():
    # 1 in 1 + (-1) iff -1 in (-1) + (-1), both true over the sign field
    assert 1 in sign_hyperadd([1, -1])
    assert -1 in sign_hyperadd([-1, -1])


def test_tropical_determinism():
    a = check_axioms(TROPICAL, sample_budget=200, seed=3)
    b = check_axioms(TROPICAL, sample_budget=200, seed=3)
    assert a == b


def test_degenerate_pool_exercises_interval_branch():
    one = TropValue.log(0)
    assert trop_hyperadd([one, one]).interval


class _MixedSignsSumToNothing(SignField):
    """The sign table with 1 + (-1) and (-1) + 1 empty."""

    @staticmethod
    def hyperadd(values) -> frozenset:
        return frozenset() if 1 in values and -1 in values else sign_hyperadd(values)


def test_empty_sum_fails_hg1():
    laws = {entry["law"]: entry for entry in check_axioms(_MixedSignsSumToNothing())["laws"]}
    assert laws["HG1-nonempty"]["cases"] == 9
    assert laws["HG1-nonempty"]["failures"] == ["(-1, 1)", "(1, -1)"]
