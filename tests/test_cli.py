"""End-to-end CLI behaviour: outputs, exit codes, determinism."""

import json
import subprocess
import sys

BASE = [sys.executable, "-m", "hyperpoly"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


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
