"""Same answers: the benchmark's ``sign`` and ``tropical`` questions for
seeds 1-3, asked through the benchmark worker's own preparation and
printed with its answer form, one canonical JSON line whose SHA-256 is
pinned.  The ``cli`` questions of the same seeds are a second pinned
line: each documented invocation run in-process through
``hyperpoly.cli.run``, with its exit code, stdout and SVG text.  The
``selftest`` reports are a third: the axiom reports of both fields and
of two broken field tables, the morphism law and pushforward reports,
the non-uniqueness witness and the ``selftest`` output.  The README's
command-line examples and the refused invocations of the CLI's hostile
input matrix, with their exit codes, output and error text, are a
fourth.  Seeded sign chains of 3-10 factors asked through ``in_product``
are a fifth: the workload asks only two to four factors.  A change that
moves a digest changes some answer; print the text in two checkouts and
diff them to see which:

    PYTHONPATH=src python tests/test_answer_digest.py > answers.json
    PYTHONPATH=src python tests/test_answer_digest.py cli > cli.json
    PYTHONPATH=src python tests/test_answer_digest.py reports > reports.json
    PYTHONPATH=src python tests/test_answer_digest.py readme > readme.json
    PYTHONPATH=src python tests/test_answer_digest.py chains > chains.json
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402

import hyperpoly  # noqa: E402
import hyperpoly.cli  # noqa: E402
from hyperpoly.axioms import check_axioms  # noqa: E402
from hyperpoly.fields import (SIGN, TROPICAL, SignField, TropicalField,  # noqa: E402
                              TropSubset, TropValue)
from hyperpoly.morphisms import (check_morphism_laws, check_pushforward_lemma,  # noqa: E402
                                 nonuniqueness_witness)
from oracles import raw_sign_product_rows  # noqa: E402
from test_cli import _hostile_argvs, _readme_examples  # noqa: E402

WORKLOADS = ("sign", "tropical")
SEEDS = (1, 2, 3)
DIGEST = "e5a18a25002fcb1ec5fe334c116dc85ce7de52df47f57b39da98100ebe3e223d"
CLI_DIGEST = "878c781ddd3b4aeeaea4410cce1c49739abb56e6263b606bf6d3c3709d747581"
REPORT_DIGEST = "e22155248545c10f3cdb7c3e76b5500aa7541ec2a8912eace5da561efff24336"
README_DIGEST = "1a7e91f56361427d17bd8d565ba284276e3cfbc5bbaccf422a74c4d713220f21"
CHAIN_DIGEST = "6f4850a9af1df91c26d917329f46707efdb0cb4490a209ad465e06761265deb5"
CHAIN_SEEDS = (1, 2, 3)
CHAINS_PER_SEED = 40  # members, and as many non-members


def _hull_roots(p) -> list:
    """``checks.hull_roots`` by a monotone-chain lower hull: the same roots
    in linear time.  The builder reads the roots to pick the division
    questions; its cubic chord scan would take most of this test's time."""
    hull = []
    for x, y in ((i, -e) for i, e in enumerate(p) if e is not None):
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                  <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
            hull.pop()
        hull.append((x, y))
    roots = [None] * hull[0][0]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        roots += [Fraction(y2 - y1, x2 - x1)] * (x2 - x1)
    return roots


def answer_text() -> str:
    """Every question's answer, or its exception, in one JSON line."""
    out = []
    for name in WORKLOADS:
        for seed in SEEDS:
            with mock.patch.object(workloads.checks, "hull_roots", _hull_roots):
                w = workloads.build(name, seed)
            inputs = [hyperpoly.parse_polynomial(text, field) if kind == "p"
                      else hyperpoly.parse_element(text, hyperpoly.field_by_name(field))
                      for kind, field, text in w.inputs]
            calls = worker._prepare(w.questions, inputs)
            for question, (fn, args) in zip(w.questions, calls):
                try:
                    answer = worker._plain(question["kind"], fn(*args), args)
                except Exception as exc:
                    answer = {"error": f"{type(exc).__name__}: {exc}"}
                out.append([name, seed, question["kind"], question["args"], answer])
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def cli_answer_text() -> str:
    """Every ``cli`` question's exit code, stdout and SVG text in one JSON
    line; ``{svg}`` in an invocation names a file in a temporary directory."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        svg = Path(tmp) / "newton.svg"
        for seed in SEEDS:
            with mock.patch.object(workloads.checks, "hull_roots", _hull_roots):
                w = workloads.build("cli", seed)
            for question in w.questions:
                stdout = io.StringIO()
                code = hyperpoly.cli.run([a.replace("{svg}", str(svg)) for a in question["args"]],
                                         out=stdout)
                svg_text = svg.read_text(encoding="utf-8") if svg.exists() else None
                svg.unlink(missing_ok=True)
                out.append([seed, question["args"], code, stdout.getvalue(), svg_text])
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


class _MaxSignField(SignField):
    """A broken sign table: a + b is {max(a, b)}, so a + (-a) misses 0."""

    name = "max-sign"

    @staticmethod
    def hyperadd(values) -> frozenset:
        return frozenset((max(values),))

    @staticmethod
    def hyperadd_subset(a, s) -> frozenset:
        return frozenset(max(a, d) for d in s)


class _SingletonTropicalField(TropicalField):
    """A broken tropical table: every sum of elements is the singleton {max},
    while a + S keeps the true table's interval, and -a negates the
    exponent."""

    name = "singleton-tropical"

    @staticmethod
    def neg(a: TropValue) -> TropValue:
        return a if a.is_zero else TropValue(-a.exponent)

    @staticmethod
    def hyperadd(values) -> TropSubset:
        return TropSubset.singleton(max(values))


def report_text() -> str:
    """The ``selftest`` checks' reports, with every failure's text, and the
    ``selftest`` output, in one JSON line."""
    out = [check_axioms(SIGN)]
    out += [check_axioms(TROPICAL, budget, seed)
            for budget, seed in ((100, 0), (300, 1), (500, 2))]
    out += [check_axioms(_MaxSignField()), check_axioms(_SingletonTropicalField(), 200, 3)]
    for morphism in ("sign", "valuation"):
        for seed in (0, 1):
            out.append(check_morphism_laws(morphism, trials=200, seed=seed))
            out.append(check_pushforward_lemma(trials=100, seed=seed, morphism=morphism))
    out.append(nonuniqueness_witness())
    stdout = io.StringIO()
    out.append([hyperpoly.cli.run(["selftest", "--trials", "20"], out=stdout), stdout.getvalue()])
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def _run_in_process(argv) -> tuple:
    """Exit code, stdout and stderr of ``hyperpoly.cli.run(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = hyperpoly.cli.run(argv, out=stdout)
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def readme_text() -> str:
    """Each README command-line example's exit code, stdout, stderr and SVG
    text, then each hostile-input argv's exit code and stderr, in one JSON
    line.  They run in a temporary working directory, where a relative
    ``--svg`` path lands, with argparse's usage text 80 columns wide."""
    out = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.chdir(tmp)
        try:
            for argv, _ in _readme_examples():
                svg = Path(tmp) / "polygon.svg"
                result = _run_in_process(argv)
                svg_text = svg.read_text(encoding="utf-8") if svg.exists() else None
                svg.unlink(missing_ok=True)
                out.append([argv, *result, svg_text])
            for argv in _hostile_argvs():
                code, _, stderr = _run_in_process(argv)
                out.append([[a[:40] for a in argv], code, stderr])
        finally:
            os.chdir(cwd)
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def _sign_factors(rng) -> list:
    """3-10 sign coefficient tuples of degree 0-3 each, 12 in all at most."""
    while True:
        degrees = [rng.randint(0, 3) for _ in range(rng.randint(3, 10))]
        if sum(degrees) <= 12:
            return [tuple(rng.choice((-1, 0, 1)) for _ in range(n)) + (rng.choice((-1, 1)),)
                    for n in degrees]


def _ask(factors, target) -> bool:
    return hyperpoly.in_product(hyperpoly.sign_poly(target),
                                [hyperpoly.sign_poly(q) for q in factors])


def _chain_answers(seed) -> list:
    """Seeded sign chain questions [seed, factors, target, answer], with
    coefficient tuples lowest first, members first.

    A member is built from real products: each step draws one value of
    every row of the two-factor product, the rows written out by the
    oracle.  A non-member is a drawn target that passes the end check,
    its end coefficients the products of the factors' ends, and that
    ``in_product`` refuses; a chain of constants has a single product,
    so it is drawn again."""
    rng = random.Random(seed)
    members, others = [], []
    while len(members) < CHAINS_PER_SEED:
        factors = _sign_factors(rng)
        w = factors[0]
        for q in factors[1:]:
            w = tuple(rng.choice(sorted(row)) for row in raw_sign_product_rows(w, q))
        members.append([seed, factors, w, _ask(factors, w)])
    while len(others) < CHAINS_PER_SEED:
        factors = _sign_factors(rng)
        degree = sum(len(q) - 1 for q in factors)
        if degree == 0:
            continue
        inner = [rng.choice((-1, 0, 1)) for _ in range(degree - 1)]
        target = (math.prod(q[0] for q in factors), *inner, math.prod(q[-1] for q in factors))
        if not _ask(factors, target):
            others.append([seed, factors, target, False])
    return members + others


def chain_answer_text() -> str:
    """Every seeded sign chain question with ``in_product``'s answer in one
    JSON line."""
    return json.dumps([q for seed in CHAIN_SEEDS for q in _chain_answers(seed)],
                      separators=(",", ":"))


def test_answers_keep_their_digest():
    assert hashlib.sha256(answer_text().encode()).hexdigest() == DIGEST


def test_cli_answers_keep_their_digest():
    assert hashlib.sha256(cli_answer_text().encode()).hexdigest() == CLI_DIGEST


def test_reports_keep_their_digest():
    assert hashlib.sha256(report_text().encode()).hexdigest() == REPORT_DIGEST


def test_readme_and_refusals_keep_their_digest():
    assert hashlib.sha256(readme_text().encode()).hexdigest() == README_DIGEST


def test_sign_chains_keep_their_digest():
    text = chain_answer_text()
    answers = [answer for *_, answer in json.loads(text)]
    assert answers == ([True] * CHAINS_PER_SEED + [False] * CHAINS_PER_SEED) * len(CHAIN_SEEDS)
    assert hashlib.sha256(text.encode()).hexdigest() == CHAIN_DIGEST


if __name__ == "__main__":
    texts = {"cli": cli_answer_text, "reports": report_text, "readme": readme_text,
             "chains": chain_answer_text}
    print(texts.get(" ".join(sys.argv[1:]), answer_text)())
