"""Same answers: the benchmark's ``sign`` and ``tropical`` questions for
seeds 1-3, asked through the benchmark worker's own preparation and
printed with its answer form, one canonical JSON line whose SHA-256 is
pinned.  The ``cli`` questions of the same seeds are a second pinned
line: each documented invocation run in-process through
``hyperpoly.cli.run``, with its exit code, stdout and SVG text.  A
change that moves a digest changes some answer; print the text in two
checkouts and diff them to see which:

    PYTHONPATH=src python tests/test_answer_digest.py > answers.json
    PYTHONPATH=src python tests/test_answer_digest.py cli > cli.json
"""

import hashlib
import io
import json
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

WORKLOADS = ("sign", "tropical")
SEEDS = (1, 2, 3)
DIGEST = "e5a18a25002fcb1ec5fe334c116dc85ce7de52df47f57b39da98100ebe3e223d"
CLI_DIGEST = "878c781ddd3b4aeeaea4410cce1c49739abb56e6263b606bf6d3c3709d747581"


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


def test_answers_keep_their_digest():
    assert hashlib.sha256(answer_text().encode()).hexdigest() == DIGEST


def test_cli_answers_keep_their_digest():
    assert hashlib.sha256(cli_answer_text().encode()).hexdigest() == CLI_DIGEST


if __name__ == "__main__":
    print(cli_answer_text() if sys.argv[1:] == ["cli"] else answer_text())
