"""End-to-end CLI behaviour: outputs, exit codes, determinism."""

import argparse
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import hyperpoly
from hyperpoly import TROPICAL, cli

BASE = [sys.executable, "-m", "hyperpoly"]
# children import the package this process imported, wherever it lives
ENV = dict(os.environ, PYTHONPATH=str(Path(hyperpoly.__file__).resolve().parents[1]))
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, timeout=None):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, timeout=timeout,
                          env=ENV)


def test_divide_sign():
    r = run_cli("divide", "--field", "sign", "--poly", "T^3+T^2+T+1", "--root", "-1")
    assert r.returncode == 0
    assert r.stdout == "T^2+T+1\n"


def test_divide_tropical():
    r = run_cli("divide", "--field", "tropical", "--poly", "[1,0,1,0]", "--root", "1")
    assert r.returncode == 0
    assert r.stdout == "0:T^2+-1:T+0\n"


def test_quotients():
    r = run_cli("quotients", "--field", "sign", "--poly", "T^3+T^2+T+1", "--root", "-1")
    assert r.returncode == 0
    assert r.stdout == "T^2-T+1\nT^2+1\nT^2+T+1\n"


def test_newton_json_and_svg(tmp_path):
    svg = tmp_path / "polygon.svg"
    r = run_cli("newton", "--field", "tropical", "--poly", "[1,0,1,0]", "--svg", str(svg))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data == {
        "vertices": [[0, "-1"], [2, "-1"], [3, "0"]],
        "slopes": ["0", "0", "1"],
        "zero_mult": 0,
    }
    content = svg.read_text()
    assert content.startswith("<svg")
    assert "polyline" in content


def test_newton_svg_to_missing_directory(tmp_path):
    svg = tmp_path / "missing" / "polygon.svg"
    r = run_cli("newton", "--field", "tropical", "--poly", "[1,0,1,0]", "--svg", str(svg))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
    assert not svg.exists()


def test_newton_with_zero_coefficients():
    r = run_cli("newton", "--field", "tropical", "--poly", "[zero, zero, 0]")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["zero_mult"] == 2
    assert data["vertices"][0] == [0, "+inf"]


def test_roots_both_fields():
    r = run_cli("roots", "--field", "tropical", "--poly", "[1,0,1,0]")
    assert r.stdout == "root 0 multiplicity 2\nroot 1 multiplicity 1\n"
    r = run_cli("roots", "--field", "sign", "--poly", "T^3+T^2+T+1")
    assert r.stdout == "root -1 multiplicity 3\n"


def test_factor_tropical():
    r = run_cli("factor", "--field", "tropical", "--poly", "[1,0,1,0]", "--json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data == {"unit": "0", "factors": [["0", "0"], ["0", "0"], ["1", "0"]]}


def test_check_product():
    r = run_cli("check-product", "--field", "sign", "--poly", "T^3+T^2+T+1",
                "--factors", "T+1;T+1;T+1")
    assert r.stdout == "true\n"
    r = run_cli("check-product", "--field", "sign", "--poly", "T^3+T^2+T+1",
                "--factors", "T+1;T-1;T-1")
    assert r.stdout == "false\n"
    r = run_cli("check-product", "--field", "tropical", "--poly", "[1,0,1,0]",
                "--factors", "T+0;T+0;T+1")
    assert r.stdout == "true\n"


def test_irreducible():
    assert run_cli("irreducible", "--field", "sign", "--poly", "T^2+1").stdout == "true\n"
    assert run_cli("irreducible", "--field", "sign", "--poly", "T^2+T+1").stdout == "false\n"


def test_factorizations_json():
    r = run_cli("factorizations", "--field", "sign", "--poly", "T^3+T^2+T+1", "--json")
    data = json.loads(r.stdout)
    assert len(data) == 3
    assert all(set(rec) == {"factors", "unit", "witness_nesting"} for rec in data)


def test_factorizations_text_golden():
    # the witness strings are part of the output; these are pinned
    expected = {
        "T^3+T^2+T+1": (
            "unit 1; factors {T^2+1, T+1}; witness (T^2+1 * T+1)\n"
            "unit 1; factors {T-1, T-1, T+1}; witness (T+1 * (T-1 * T-1))\n"
            "unit 1; factors {T+1, T+1, T+1}; witness (T+1 * (T+1 * T+1))\n"),
        "T^4+1": (
            "unit 1; factors {T-1, T-1, T+1, T+1}; witness ((T+1 * T+1) * (T-1 * T-1))\n"),
        "T^5-T^4+T-1": (
            "unit 1; factors {T-1, T^2+1, T+1, T+1}; "
            "witness ((T+1 * T+1) * (T^2+1 * T-1))\n"
            "unit 1; factors {T-1, T-1, T-1, T+1, T+1}; "
            "witness ((T+1 * T+1) * (T-1 * (T-1 * T-1)))\n"
            "unit 1; factors {T-1, T+1, T+1, T+1, T+1}; "
            "witness ((T+1 * T+1) * ((T+1 * T+1) * T-1))\n"),
    }
    for poly, text in expected.items():
        r = run_cli("factorizations", "--field", "sign", "--poly", poly)
        assert r.returncode == 0
        assert r.stdout == text, poly


def test_multiplicity():
    r = run_cli("multiplicity", "--field", "sign", "--poly", "T^3+T^2+T+1", "--root", "-1")
    assert r.stdout == "3\n"
    r = run_cli("multiplicity", "--field", "tropical", "--poly", "[1,0,1,0]", "--root", "0")
    assert r.stdout == "2\n"


def test_usage_errors_exit_2():
    assert run_cli("divide", "--field", "sign", "--poly", "T^2+++", "--root", "1").returncode == 2
    assert run_cli("factor", "--field", "sign", "--poly", "T+1").returncode == 2
    assert run_cli("quotients", "--field", "tropical", "--poly", "[0,0]",
                   "--root", "0").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("divide", "--field", "sign", "--poly", "T^2-1").returncode == 2


def test_zero_denominator_is_named(capsys):
    # a value, a term coefficient and an array element, each with its column
    for argv, where in ((["divide", "--poly", "0:T+1", "--root", "1/0"], ""),
                        (["roots", "--poly", "1/0:T+1"], " (column 0)"),
                        (["roots", "--poly", "[1/0,0]"], " (column 1)")):
        out = io.StringIO()
        assert cli.run([argv[0], "--field", "tropical", *argv[1:]], out=out) == 2, argv
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err == f"error: bad tropical value '1/0': zero denominator{where}\n"


def test_one_field_refusals(capsys):
    refused = {}
    for name, (_, _, arguments, one_field) in cli._COMMANDS.items():
        if one_field is None:
            continue
        only, message = one_field
        other = "sign" if only is TROPICAL else "tropical"
        argv = [name, "--field", other, "--poly", "T"]
        for flag, options in arguments:
            if options.get("required"):
                argv += [flag, "1"]
        out = io.StringIO()
        assert cli.run(argv, out=out) == 2, argv
        captured = capsys.readouterr()
        assert out.getvalue() == "" and captured.out == ""
        assert captured.err == f"error: {message}\n"
        refused[name] = other
    assert refused == {"factor": "sign", "quotients": "tropical", "irreducible": "tropical",
                       "factorizations": "tropical", "newton": "sign"}


BRACKETS = "[" * 50_000 + "]" * 50_000
HOSTILE_POLYS = ["--", "[" * 100_000, BRACKETS,
                 '{"field": "sign", "coeffs": ' + "[" * 100_000, "[1e400]", "[nan, 0]",
                 "[1/0, 1]", "T^10001", "[" + ", ".join(["1"] * 2001) + "]", "",
                 "9" * 4299]
HOSTILE_VALUES = ["--", "1/0", "", "9" * 4299]
SAFE_VALUES = {"--root": "1", "--factors": "T+1"}


def _hostile_argvs():
    """Every command on every field it accepts, with one hostile value at a time."""
    for name, (_, _, arguments, one_field) in cli._COMMANDS.items():
        for field in ("sign", "tropical") if one_field is None else (one_field[0].name,):
            def argv(poly="T+1", flag=None, value=None, field=field):
                out = [name, f"--field={field}", f"--poly={poly}"]
                for other, _ in arguments:
                    given = value if other == flag else SAFE_VALUES.get(other)
                    if given is not None:
                        out.append(f"{other}={given}")
                return out

            yield from (argv(poly) for poly in HOSTILE_POLYS)
            yield from (argv(flag=flag, value=value)
                        for flag, _ in arguments for value in HOSTILE_VALUES)
            yield argv(field="--")
            yield argv() + ["--max-degree=--"]
    yield ["selftest", "--trials=--"]
    yield ["selftest", "--seed=--"]


# argvs whose exit code is pinned, beyond being one of the documented ones
PINNED_EXITS = {("newton", "--field=tropical", "--poly=T+1", "--svg="): 2,
                ("roots", "--field=sign", f"--poly={BRACKETS}"): 2,
                ("roots", "--field=tropical", f"--poly={BRACKETS}"): 2}
STDERR_LIMIT = 4096  # bytes: an error quotes a cut of the offending token, never all of it


def test_hostile_input_matrix(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # an --svg value that is a writable path lands here
    pinned = {}
    for argv in _hostile_argvs():
        start = time.perf_counter()
        try:
            code = cli.run(argv, out=io.StringIO())
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
        took = time.perf_counter() - start
        err = capsys.readouterr().err
        shown = [a[:40] for a in argv]
        assert code in (0, 2, 3), shown
        assert took < 2, (shown, took)
        assert len(err.encode()) <= STDERR_LIMIT, (shown, len(err.encode()))
        if tuple(argv) in PINNED_EXITS:
            pinned[tuple(argv)] = code
    assert pinned == PINNED_EXITS


def test_subcommands_are_the_table():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [*cli._COMMANDS, "selftest"]


def test_negative_bounds_rejected_at_parse_time():
    r = run_cli("quotients", "--poly", "T^3-1", "--root", "1", "--max-degree", "-1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "--max-degree" in r.stderr
    r = run_cli("selftest", "--trials", "-1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "--trials" in r.stderr


def test_domain_errors_exit_3():
    r = run_cli("divide", "--field", "sign", "--poly", "T^2+1", "--root", "1")
    assert r.returncode == 3
    assert r.stdout == ""
    r = run_cli("divide", "--field", "sign", "--poly", "T^2+1", "--root", "1", "--json")
    assert r.returncode == 3
    data = json.loads(r.stdout)
    assert data["error"]["code"] == "NotARoot"
    r = run_cli("newton", "--field", "tropical", "--poly", "[3]")
    assert r.returncode == 3


def test_oversized_json_integers_exit_2():
    nines = "9" * 5000
    for field, poly in (("tropical", f"[{nines},0]"), ("sign", f"[{nines},0]"),
                        ("tropical", f'{{"field": "tropical", "coeffs": [{nines}, 0]}}')):
        r = run_cli("roots", "--field", field, "--poly", poly)
        assert r.returncode == 2, (field, poly[:20])
        assert r.stdout == ""
        assert r.stderr.startswith("error: ")
        assert "Traceback" not in r.stderr


def test_exponent_numerals_past_the_digit_limit_exit_2_fast():
    for argv in (("divide", "--field", "tropical", "--poly", "[0,0]", "--root", "1e5000"),
                 ("roots", "--field", "tropical", "--poly", "1e5000:T+0"),
                 ("roots", "--field", "tropical", "--poly", "1e100000000:T+0")):
        r = run_cli(*argv, timeout=5)
        assert r.returncode == 2, argv
        assert r.stderr.startswith("error: ")
        assert "Traceback" not in r.stderr


def test_results_past_the_digit_limit_exit_3():
    # each input parses, but a root or a slope has an 8,598-digit numerator
    for argv in (("roots", "--field", "tropical", "--poly", "1e4299:T+1e-4299"),
                 ("factor", "--field", "tropical", "--poly", "1e4299:T^2+0:T+1e-4299"),
                 ("newton", "--field", "tropical", "--poly", "1e4299:T^2+1e-4299")):
        r = run_cli(*argv, timeout=5)
        assert r.returncode == 3, argv
        assert r.stdout == ""
        assert r.stderr.startswith("error [ResultTooLarge]: ")
        assert "Traceback" not in r.stderr
    r = run_cli("roots", "--field", "tropical", "--poly", "1e4299:T+1e-4299", "--json",
                timeout=5)
    assert r.returncode == 3
    assert json.loads(r.stdout)["error"]["code"] == "ResultTooLarge"
    assert r.stderr == ""


def test_newton_svg_past_the_float_range(tmp_path):
    svg = tmp_path / "polygon.svg"
    r = run_cli("newton", "--field", "tropical", "--poly", "1e309:T^2+0", "--svg", str(svg),
                timeout=5)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["slopes"] == ["-5" + "0" * 308] * 2
    text = svg.read_text(encoding="utf-8")
    assert '<polyline points="50.00,50.00 370.00,250.00"' in text
    assert "(2, -1" + "0" * 309 + ")" in text


def test_sign_degree_bound_on_roots_and_check_product():
    r = run_cli("roots", "--field", "sign", "--poly", "T^14+1", timeout=5)
    assert r.returncode == 3
    assert r.stderr.startswith("error [DegreeBoundExceeded]: ")
    pairs = ";".join(["T-1;T+1"] * 8)
    r = run_cli("check-product", "--field", "sign", "--poly", "T^16+1", "--factors", pairs,
                timeout=5)
    assert r.returncode == 3
    assert r.stderr.startswith("error [DegreeBoundExceeded]: ")
    # within a raised bound the search runs: the constant terms rule the
    # pairs out, and (T+1)^15 (T-1) nested to the left reaches T^16-1
    for factors, answer in ((pairs, "false\n"), (";".join(["T+1"] * 15 + ["T-1"]), "true\n")):
        r = run_cli("check-product", "--field", "sign", "--max-degree", "16",
                    "--poly", "T^16-1", "--factors", factors, timeout=5)
        assert (r.returncode, r.stdout) == (0, answer)


def test_long_constant_sign_chains_answer():
    # constant factors add no degree, so the default bound lets these in
    for count in (400, 1200):
        factors = ";".join(["1"] * count + ["T+1"])
        for poly, answer in (("T+1", "true\n"), ("T-1", "false\n")):
            r = run_cli("check-product", "--field", "sign", "--poly", poly, "--factors", factors,
                        timeout=20)
            assert (r.returncode, r.stdout, r.stderr) == (0, answer, "")


def test_byte_identical_reruns():
    invocations = [
        ("divide", "--field", "sign", "--poly", "T^3+T^2+T+1", "--root", "-1"),
        ("quotients", "--field", "sign", "--poly", "T^3+T^2+T+1", "--root", "-1", "--json"),
        ("factorizations", "--field", "sign", "--poly", "T^3+T^2+T+1", "--json"),
        ("newton", "--field", "tropical", "--poly", "[1,0,1,0]"),
        ("roots", "--field", "tropical", "--poly", "[1/2,0,-3,0]", "--json"),
    ]
    for argv in invocations:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def _readme_examples():
    """(argv, comment lines) for each hyperpoly line of the README's
    command-line block; the comment lines are the # lines that follow it."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("hyperpoly "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return examples


def test_readme_examples(tmp_path):
    # run where polygon.svg may land
    examples = _readme_examples()
    assert {argv[0] for argv, _ in examples} == {
        "roots", "factor", "divide", "quotients", "check-product", "irreducible",
        "factorizations", "newton", "multiplicity"}
    for argv, comments in examples:
        r = subprocess.run(BASE + argv, capture_output=True, text=True, cwd=tmp_path, env=ENV)
        assert r.returncode == 0, (argv, r.stderr)
        if argv[0] == "factorizations":  # the comment describes the output
            assert len(json.loads(r.stdout)) == 3 and '"(T+1 * (T-1 * T-1))"' in r.stdout
        elif argv[0] == "newton" or "--json" in argv:
            assert json.loads(r.stdout) == json.loads(comments[-1]), argv
        else:
            assert comments and r.stdout == "".join(c + "\n" for c in comments), argv
    assert (tmp_path / "polygon.svg").read_text().startswith("<svg")


# modules whose import cost a CLI call would pay on every start
_COLD_START = """
import io, sys
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}
before = set(sys.modules)
import hyperpoly, hyperpoly.cli
print(*sorted(HEAVY & (set(sys.modules) - before)), sep=",")
code = hyperpoly.cli.run(["divide", "--field", "sign", "--poly=T^3-T", "--root=1"],
                         out=io.StringIO())
print(code, *sorted(HEAVY & (set(sys.modules) - before)), sep=",")
"""


def test_cold_start_loads_no_heavy_modules():
    r = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True, text=True,
                       env=ENV, check=True)
    assert r.stdout == "\n0\n"
    # without site, whose start-up files may import them first, the package
    # itself must load neither typing nor random
    code = _COLD_START.replace('HEAVY = {', 'HEAVY = {"typing", "random", ')
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env=ENV, check=True)
    assert r.stdout == "\n0\n"
