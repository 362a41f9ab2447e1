"""The benchmark's tracer wraps library functions by name; every name it
lists must exist, or a traced run fails before it measures anything, and
its per-path counters must count the path they are named after."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import hyperpoly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _load_tracer().LAYERS
    assert layers
    for module_name, names in layers.items():
        module = getattr(hyperpoly, module_name)
        for name in names:
            owner, _, attr = name.rpartition(".")
            # the tracer replaces methods through the class's own __dict__
            scope = vars(getattr(module, owner)) if owner else vars(module)
            assert callable(scope.get(attr)), f"{module_name}.{name}"


# runs in a fresh interpreter, because installing the tracer patches modules
_COUNT_PATHS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from hyperpoly import polynomials, sign_poly
tracer = tracer_module.Tracer().install()
counts = []
t_plus = sign_poly([1, 1])
for factors in ([t_plus, t_plus], [t_plus, t_plus, t_plus]):
    before = tracer.snapshot()
    assert polynomials.in_product(sign_poly([1] * len(factors) + [1]), factors)
    after = tracer.snapshot()
    counts.append({k: after[k] - before[k] for k in (
        "polynomials.in_product.two_factor.calls", "polynomials._chain_member.calls")})
print(json.dumps(counts))
"""


def test_in_product_path_counters():
    env = dict(os.environ, PYTHONPATH=str(Path(hyperpoly.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COUNT_PATHS, str(TRACER)], env=env,
                         capture_output=True, text=True, check=True).stdout
    # every product of two or more factors takes the one chain path
    for counts in json.loads(out):
        assert counts == {"polynomials.in_product.two_factor.calls": 0,
                          "polynomials._chain_member.calls": 1}


# a three-factor and a two-factor tropical membership decided by the
# lowering to the greatest chain, which runs on scaled integer exponents:
# no row sets, no hypersums, no multiplied TropValues; a division check is
# membership in the two-factor product (T + a) * q, and takes the same
# path on the coefficient tuples, wrapping none of them in a Polynomial.
# None of the three runs the all-tops hull check: each has a factor that
# is not linear, and the hull check decides linear factors only
_COUNT_TROPICAL_CHAIN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from hyperpoly import TropValue, polynomials, tropical, trop_poly
tracer = tracer_module.Tracer().install()
p, a = trop_poly([0, "3/2", 1, 0]), TropValue.log(1)
q = tropical.divide(p, a)
three = (trop_poly(["1/2", "5/6", "5/6", "5/6", "1/3"]),
         [trop_poly([0, 0, 0]), trop_poly(["1/2", 0]), trop_poly([0, "1/3"])])
two = (trop_poly(["1/2", "1/2", "-1/3", 0]), [trop_poly(["1/2", 0, 0]), trop_poly([0, 0])])
questions = [lambda: polynomials.in_product(*three), lambda: polynomials.in_product(*two),
             lambda: tropical.is_quotient(p, a, q)]
out = []
for question in questions:
    before = tracer.snapshot()
    member = question()
    after = tracer.snapshot()
    out.append([member, {k: after[k] - before[k] for k in (
        "polynomials._chain_member.calls", "polynomials._linear_tropical_member.calls",
        "polynomials._product_rows.calls", "polynomials.Polynomial.__post_init__.calls",
        "fields.trop_hyperadd.calls", "fields.TropValue.__mul__.calls")}])
print(json.dumps(out))
"""


def test_tropical_chain_counters():
    env = dict(os.environ, PYTHONPATH=str(Path(hyperpoly.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COUNT_TROPICAL_CHAIN, str(TRACER)], env=env,
                         capture_output=True, text=True, check=True).stdout
    answers = json.loads(out)
    assert len(answers) == 3  # three factors, two factors, a division check
    for member, counts in answers:
        assert member is True
        assert counts == {"polynomials._chain_member.calls": 1,
                          "polynomials._linear_tropical_member.calls": 0,
                          "polynomials._product_rows.calls": 0,
                          "polynomials.Polynomial.__post_init__.calls": 0,
                          "fields.trop_hyperadd.calls": 0,
                          "fields.TropValue.__mul__.calls": 0}


# a chain of linear tropical factors is decided by the all-tops hull check
# on scaled ints: no Polynomial, and no TropValue multiplied or compared
_COUNT_LINEAR_CHAIN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from hyperpoly import TROPICAL, Polynomial, polynomials, product_coefficient_sets, trop_poly
factors = [trop_poly(["1/2", 0]), trop_poly([None, 0]), trop_poly([-1, 0]),
           trop_poly(["1/2", 0]), trop_poly([2, "1/3"])]
tops = factors[0]
for q in factors[1:]:
    tops = Polynomial(TROPICAL, tuple(row.top for row in product_coefficient_sets(tops, q)))
tracer = tracer_module.Tracer().install()
before = tracer.snapshot()
member = polynomials.in_product(tops, factors)
after = tracer.snapshot()
print(json.dumps([member, {k: after[k] - before[k] for k in (
    "polynomials._chain_member.calls", "polynomials._linear_tropical_member.calls",
    "polynomials.Polynomial.__post_init__.calls", "polynomials._product_rows.calls",
    "fields.trop_hyperadd.calls", "fields.TropValue.__mul__.calls",
    "fields.TropValue.__lt__.calls")}]))
"""


def test_linear_tropical_chain_counters():
    env = dict(os.environ, PYTHONPATH=str(Path(hyperpoly.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COUNT_LINEAR_CHAIN, str(TRACER)], env=env,
                         capture_output=True, text=True, check=True).stdout
    member, counts = json.loads(out)
    assert member is True
    assert counts == {"polynomials._chain_member.calls": 1,
                      "polynomials._linear_tropical_member.calls": 1,
                      "polynomials.Polynomial.__post_init__.calls": 0,
                      "polynomials._product_rows.calls": 0,
                      "fields.trop_hyperadd.calls": 0,
                      "fields.TropValue.__mul__.calls": 0,
                      "fields.TropValue.__lt__.calls": 0}


# the sign product kernels read coefficient tuples: a Polynomial is built
# for an answer only, never to wrap an operand of _product_rows
_COUNT_SIGN_PRODUCTS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from hyperpoly import divides_linearly, enumerate_product, in_product, signs, sign_poly
tracer = tracer_module.Tracer().install()
t_plus, t_minus = sign_poly([1, 1]), sign_poly([-1, 1])
factors = [t_plus, t_minus, t_plus]
target = sign_poly([-1, -1, 1, 1])
quintic = sign_poly([1, 0, -1, 1, 0, -1])
cubic, quotient = sign_poly([1, 0, -1, 1]), sign_poly([1, -1, 1])
steps = {"enumerate_product": lambda: len(enumerate_product(factors)),
         "in_product": lambda: in_product(target, factors),
         "all_factorizations_sign": lambda: len(signs.all_factorizations_sign(quintic)),
         "divides_linearly": lambda: divides_linearly(cubic, -1, quotient)}
counts = {}
for name, step in steps.items():
    before = tracer.snapshot()
    answer = step()
    after = tracer.snapshot()
    counts[name] = [answer, {k: after[k] - before[k] for k in (
        "polynomials.Polynomial.__post_init__.calls", "polynomials._product_rows.calls")}]
print(json.dumps(counts))
"""


def test_sign_product_counters():
    env = dict(os.environ, PYTHONPATH=str(Path(hyperpoly.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COUNT_SIGN_PRODUCTS, str(TRACER)], env=env,
                         capture_output=True, text=True, check=True).stdout

    def counts(polys, rows):
        return {"polynomials.Polynomial.__post_init__.calls": polys,
                "polynomials._product_rows.calls": rows}

    # five answers; no operand wrapped; the monic target of a cold table search;
    # the chain's last link checks the target's coefficients against their
    # cross terms, so in_product builds the middle step's rows only, and a
    # division check, the two-factor membership in (T - a) * q, none, and
    # it passes T - a as the coefficient tuple (-a, 1)
    assert json.loads(out) == {"enumerate_product": [5, counts(5, 4)],
                               "in_product": [True, counts(0, 1)],
                               "all_factorizations_sign": [3, counts(1, 885)],
                               "divides_linearly": [True, counts(0, 0)]}


# the tracer wraps Polynomial.__post_init__ and TropValue.__lt__, so one
# construction is one normalisation and each derived comparison one __lt__
_COUNT_VALUE_OPS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from hyperpoly import SIGN, Polynomial, TropValue
tracer = tracer_module.Tracer().install()
a, b = TropValue.log(1), TropValue.log(2)
steps = {"construct": lambda: Polynomial(SIGN, (1, 0, 0)), "gt": lambda: a > b,
         "le": lambda: a <= b, "ge": lambda: a >= b}
counts = {}
for name, step in steps.items():
    before = tracer.snapshot()
    step()
    after = tracer.snapshot()
    counts[name] = {k: after[k] - before[k] for k in (
        "polynomials.Polynomial.__post_init__.calls", "fields.TropValue.__lt__.calls")}
print(json.dumps(counts))
"""


def test_value_op_counters():
    env = dict(os.environ, PYTHONPATH=str(Path(hyperpoly.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COUNT_VALUE_OPS, str(TRACER)], env=env,
                         capture_output=True, text=True, check=True).stdout
    counts = json.loads(out)
    assert counts.pop("construct") == {"polynomials.Polynomial.__post_init__.calls": 1,
                                       "fields.TropValue.__lt__.calls": 0}
    for op, seen in counts.items():
        assert seen == {"polynomials.Polynomial.__post_init__.calls": 0,
                        "fields.TropValue.__lt__.calls": 1}, op


# both divisions decide the root and find their split from one list of
# terms: no Newton polygon, no root list, no separate root test; the
# tropical division, the factorization and the tropical root test, at a
# nonzero root and at the zero root, run on scaled integer exponents, so
# none of them multiplies or compares a TropValue
_COUNT_DIVISIONS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from hyperpoly import TropValue, polynomials, signs, sign_poly, tropical, trop_poly
tracer = tracer_module.Tracer().install()
steps = {"tropical": lambda: tropical.divide(trop_poly([1, 0, 1, 0]), TropValue.log(1)),
         "sign": lambda: signs.divide_sign(sign_poly([1, 1, 1, 1]), -1),
         "factor": lambda: tropical.factor(trop_poly([None, "1/2", 0, "1/3", "-1/6"])),
         "root": lambda: polynomials.is_root(trop_poly([1, 0, 1, 0]), TropValue.log(1)),
         "zero root": lambda: polynomials.is_root(trop_poly([None, 1, 0]), TropValue.zero())}
counts = {}
for name, step in steps.items():
    before = tracer.snapshot()
    answer = step()
    after = tracer.snapshot()
    if name == "factor":
        answer = " ".join(map(str, [answer[0], *answer[1]]))
    counts[name] = [str(answer), {k: after[k] - before[k] for k in (
        "tropical.newton_polygon.calls", "tropical.roots_with_multiplicities.calls",
        "polynomials.is_root.calls", "fields.TropValue.__mul__.calls",
        "fields.TropValue.__lt__.calls")}]
print(json.dumps(counts))
"""


def test_division_counters():
    env = dict(os.environ, PYTHONPATH=str(Path(hyperpoly.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COUNT_DIVISIONS, str(TRACER)], env=env,
                         capture_output=True, text=True, check=True).stdout
    none = {"tropical.newton_polygon.calls": 0, "tropical.roots_with_multiplicities.calls": 0,
            "polynomials.is_root.calls": 0, "fields.TropValue.__mul__.calls": 0,
            "fields.TropValue.__lt__.calls": 0}
    # factor reads the one polygon that its root loci read
    polygon_once = dict(none, **{"tropical.newton_polygon.calls": 1,
                                 "tropical.roots_with_multiplicities.calls": 1})
    root_test = dict(none, **{"polynomials.is_root.calls": 1})
    assert json.loads(out) == {
        "tropical": ["0:T^2+-1:T+0", none], "sign": ["T^2+T+1", none],
        "factor": ["-1/6 0:T 0:T+1/12 0:T+1/12 0:T+1/2", polygon_once],
        "root": ["True", root_test], "zero root": ["True", root_test]}


# the tropical quotient walk runs on scaled integer exponents, at a
# nonzero root and at the zero root: no TropValue multiplied or compared,
# no hypersum, and the maximal quotient comes from divide's int core
# without a call to divide
_COUNT_QUOTIENT_SEARCH = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
from hyperpoly import TropValue, tropical, trop_poly
tracer = tracer_module.Tracer().install()
steps = {"nonzero": (trop_poly([1, 0, 1, 0]), TropValue.log(1)),
         "zero": (trop_poly([None, 1, 0, 1, 0]), TropValue.zero())}
counts = {}
for name, (p, a) in steps.items():
    before = tracer.snapshot()
    answer = tropical.search_quotients(p, a)
    after = tracer.snapshot()
    counts[name] = [list(map(str, answer)), {k: after[k] - before[k] for k in (
        "tropical.search_quotients.calls", "tropical.divide.calls",
        "fields.TropValue.__mul__.calls", "fields.TropValue.__lt__.calls",
        "fields.trop_hyperadd.calls")}]
print(json.dumps(counts))
"""


def test_quotient_search_counters():
    env = dict(os.environ, PYTHONPATH=str(Path(hyperpoly.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COUNT_QUOTIENT_SEARCH, str(TRACER)], env=env,
                         capture_output=True, text=True, check=True).stdout
    none = {"tropical.search_quotients.calls": 1, "tropical.divide.calls": 0,
            "fields.TropValue.__mul__.calls": 0, "fields.TropValue.__lt__.calls": 0,
            "fields.trop_hyperadd.calls": 0}
    # the README's worked example at its root 1, with lowered middle
    # coefficients, and its shift by T at the zero root
    assert json.loads(out) == {
        "nonzero": [["0:T^2+0", "0:T^2+-3:T+0", "0:T^2+-2:T+0", "0:T^2+-1:T+0"], none],
        "zero": [["0:T^3+1:T^2+0:T+1"], none]}
