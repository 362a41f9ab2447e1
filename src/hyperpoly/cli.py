"""Command-line front end.

Exit codes: 0 on success, 2 on usage or parse errors (bad syntax never
reaches the library) and on an --svg file that cannot be written, 3 on
domain errors such as NotARoot, DegreeBoundExceeded or ResultTooLarge
(an answer with a numerator or denominator too long to print).  With
--json, domain errors are reported as a machine-readable object
{"error": {"code": ..., "message": ...}} on stdout.  All output is
deterministic: identical command lines produce byte-identical output.

``_COMMANDS`` is the single declaration of the polynomial commands, read
by both ``build_parser`` and ``run``; only ``selftest`` is declared apart.
"""

from __future__ import annotations

import argparse
import sys

from .axioms import check_axioms
from .errors import HyperfieldError, PolynomialParseError
from .fields import SIGN, TROPICAL, field_by_name
from .morphisms import check_pushforward_lemma, nonuniqueness_witness
from .parsing import format_polynomial, parse_element, parse_polynomial, poly_to_json_dict
from .polynomials import DEFAULT_DEGREE_BOUND, _check_bound, divides_linearly, in_product, is_root
from .signs import (
    all_factorizations_sign,
    all_quotients_sign,
    classify_irreducibles,
    divide_sign,
    is_irreducible_sign,
    multiplicity_sign,
)
from .tropical import divide, factor, newton_polygon, render_newton_svg, roots_with_multiplicities


def _dump(obj) -> str:
    import json  # imported here, so that text output does not load it at start-up

    return json.dumps(obj, indent=2)


class _UsageError(Exception):
    pass


def _lines(polys) -> str:
    return "".join(format_polynomial(q) + "\n" for q in polys)


# Each polynomial command takes the parsed arguments, the field and the
# parsed --poly, and returns (data, text): the --json value and the text
# output, or None as the text when the command prints JSON only.

def cmd_roots(args, field, p):
    if field is TROPICAL:
        records = [{"root": str(l.root), "multiplicity": l.multiplicity, "start": l.start}
                   for l in roots_with_multiplicities(p)]
    else:
        records = [{"root": a, "multiplicity": m} for a in (-1, 0, 1)
                   if (m := multiplicity_sign(p, a, max_degree=args.max_degree)) > 0]
    data = {"field": field.name, "poly": poly_to_json_dict(p)["coeffs"], "roots": records}
    text = "".join(f"root {r['root']} multiplicity {r['multiplicity']}\n" for r in records)
    return data, text or "no roots\n"


def cmd_factor(args, field, p):
    unit, factors = factor(p)
    data = {"unit": str(unit), "factors": [poly_to_json_dict(q)["coeffs"] for q in factors]}
    return data, f"unit {unit}\n" + _lines(factors)


def cmd_divide(args, field, p):
    a = parse_element(args.root, field)
    q = divide(p, a) if field is TROPICAL else divide_sign(p, a)
    return poly_to_json_dict(q), _lines([q])


def cmd_quotients(args, field, p):
    qs = all_quotients_sign(p, parse_element(args.root, field), max_degree=args.max_degree)
    return [poly_to_json_dict(q)["coeffs"] for q in qs], _lines(qs)


def cmd_check_product(args, field, p):
    factors = [parse_polynomial(text, field) for text in args.factors.split(";")]
    # bounded here, not in in_product: the pushforward trials reach degree 16
    if field is SIGN:
        _check_bound(p.degree, args.max_degree)
    member = in_product(p, factors)
    return {"member": member}, ("true" if member else "false") + "\n"


def cmd_irreducible(args, field, p):
    answer = is_irreducible_sign(p, max_degree=args.max_degree)
    return {"irreducible": answer}, ("true" if answer else "false") + "\n"


def cmd_factorizations(args, field, p):
    records = [f.to_json_dict() for f in all_factorizations_sign(p, max_degree=args.max_degree)]
    text = "".join(f"unit {r['unit']}; factors {{{', '.join(r['factors'])}}}; "
                   f"witness {r['witness_nesting']}\n" for r in records)
    return records, text


def cmd_newton(args, field, p):
    polygon = newton_polygon(p)
    data = polygon.to_json_dict()  # a result too large to print then writes no file
    # the file comes first, so that a path that cannot be written leaves
    # no partial result on stdout
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_newton_svg(p, polygon))
        except OSError as exc:
            raise _UsageError(f"cannot write {args.svg[:20]}: {exc.strerror or exc}") from None
    return data, None


def cmd_multiplicity(args, field, p):
    a = parse_element(args.root, field)
    if field is SIGN:
        m = multiplicity_sign(p, a, max_degree=args.max_degree)
    else:
        m = sum(l.multiplicity for l in roots_with_multiplicities(p) if l.root == a)
    return {"multiplicity": m}, f"{m}\n"


def cmd_selftest(args, out):
    failures = 0

    report = check_axioms(SIGN)
    bad = sum(len(entry["failures"]) for entry in report["laws"])
    failures += bad
    out.write(f"axioms sign: {len(report['laws'])} laws, {bad} counterexamples\n")

    report = check_axioms(TROPICAL, sample_budget=500, seed=args.seed)
    bad = sum(len(entry["failures"]) for entry in report["laws"])
    failures += bad
    out.write(f"axioms tropical (sampled): {len(report['laws'])} laws, {bad} counterexamples\n")

    cases = 0
    sweep_failures = 0
    for p, a in _signs_sweep(8):
        q = divide_sign(p, a)
        cases += 1
        if not divides_linearly(p, a, q):
            sweep_failures += 1
    failures += sweep_failures
    out.write(f"division sweep (sign, degree<=8): {cases} cases, {sweep_failures} failures\n")

    irr = classify_irreducibles(4)
    names = ", ".join(format_polynomial(q) for q in irr)
    ok = len(irr) == 4
    if not ok:
        failures += 1
    out.write(f"irreducible classification (degree<=4): {names}\n")

    for morphism in ("sign", "valuation"):
        rep = check_pushforward_lemma(trials=args.trials, seed=args.seed, morphism=morphism)
        failures += len(rep["failures"])
        passed = rep["trials"] - len(rep["failures"])
        out.write(f"pushforward trials ({morphism}): {passed}/{rep['trials']} passed\n")

    witness = nonuniqueness_witness()
    if not witness["ok"]:
        failures += 1
    out.write(f"non-unique factorization witness: {'ok' if witness['ok'] else 'FAILED'}\n")

    out.write("selftest: PASS\n" if failures == 0 else f"selftest: FAIL ({failures})\n")
    return 0 if failures == 0 else 1


def _signs_sweep(max_degree):
    from itertools import product as iter_product

    from .polynomials import Polynomial

    for n in range(1, max_degree + 1):
        for lower in iter_product((-1, 0, 1), repeat=n):
            for lead in (1, -1):
                p = Polynomial(SIGN, lower + (lead,))
                for a in (-1, 1):
                    if is_root(p, a):
                        yield p, a


def _file_name(text: str) -> str:
    """An argparse type: a path to write, rejected at parse time when empty."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file name")
    return text


_ROOT = ("--root", {"required": True})

# The single declaration of the polynomial commands, in --help order:
# name -> (handler, help, the arguments after --poly, None or the one
# field the command is defined over with the message that refuses the other)
_COMMANDS = {
    "roots": (cmd_roots, "roots with multiplicities", (), None),
    "factor": (cmd_factor, "unique factorization into linear tropical factors", (),
               (TROPICAL, "factor supports --field tropical only; every tropical "
                          "polynomial splits into linear factors (use 'factorizations' "
                          "for the sign field)")),
    "divide": (cmd_divide, "divide by T - a (T + a tropically)", (_ROOT,), None),
    "quotients": (cmd_quotients, "all quotients by a linear term (sign field)", (_ROOT,),
                  (SIGN, "quotients supports --field sign only (tropical quotient "
                         "sets are infinite; use 'divide' for the maximal one)")),
    "check-product": (cmd_check_product, "membership in a left-nested product",
                      (("--factors", {"required": True,
                                      "help": "semicolon-separated factor list"}),), None),
    "irreducible": (cmd_irreducible, "irreducibility test (sign field)", (),
                    (SIGN, "irreducible supports --field sign only (the irreducible "
                           "tropical polynomials are exactly the linear ones)")),
    "factorizations": (cmd_factorizations, "all irreducible factorizations (sign field)", (),
                       (SIGN, "factorizations supports --field sign only; use 'factor' "
                              "for the tropical field")),
    "newton": (cmd_newton, "Newton polygon of a tropical polynomial",
               (("--svg", {"type": _file_name,
                           "help": "also render the polygon to this SVG file"}),),
               (TROPICAL, "newton supports --field tropical only")),
    "multiplicity": (cmd_multiplicity, "multiplicity of a root", (_ROOT,), None),
}


def _nonnegative_int(text: str) -> int:
    """An argparse type: a count or bound, rejected at parse time when negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperpoly",
        description="Exact factorization of polynomials over the tropical and "
                    "sign hyperfields (tropical coefficients are log-coordinate "
                    "rationals; 'zero' is the tropical zero).")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", choices=("tropical", "sign"), default="sign",
                        help="coefficient hyperfield (default: sign)")
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument("--max-degree", type=_nonnegative_int, default=DEFAULT_DEGREE_BOUND,
                        help="bound for exhaustive enumerations "
                             f"(default: {DEFAULT_DEGREE_BOUND})")

    for name, (_, help_text, arguments, _) in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("--poly", required=True)
        for flag, options in arguments:
            sp.add_argument(flag, **options)

    sp = sub.add_parser("selftest", parents=[common],
                        help="run the built-in verification suites")
    sp.add_argument("--trials", type=_nonnegative_int, default=100,
                    help="pushforward trials per morphism (default: 100)")
    sp.add_argument("--seed", type=int, default=0)

    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads an attached "--" (as in --poly=--) as an empty list
    for dest, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    try:
        if args.command == "selftest":
            return cmd_selftest(args, out)
        field = field_by_name(args.field)
        handler, _, _, one_field = _COMMANDS[args.command]
        if one_field is not None and field is not one_field[0]:
            raise _UsageError(one_field[1])
        p = parse_polynomial(args.poly, field)
        data, text = handler(args, field, p)
    except (_UsageError, PolynomialParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HyperfieldError as exc:
        if args.json:
            out.write(_dump({"error": {"code": exc.code, "message": str(exc)}}) + "\n")
        else:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    out.write(_dump(data) + "\n" if args.json or text is None else text)
    return 0


def main() -> None:
    sys.exit(run())
