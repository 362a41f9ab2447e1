"""Command-line front end.

Exit codes: 0 on success, 2 on usage or parse errors (bad syntax never
reaches the library) and on an --svg file that cannot be written, 3 on
domain errors such as NotARoot or DegreeBoundExceeded.  With --json,
domain errors are reported as a machine-readable object
{"error": {"code": ..., "message": ...}} on stdout.  All output is
deterministic: identical command lines produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .axioms import check_axioms
from .errors import HyperfieldError, PolynomialParseError
from .fields import SIGN, TROPICAL, field_by_name
from .morphisms import check_pushforward_lemma, nonuniqueness_witness
from .parsing import format_polynomial, parse_element, parse_polynomial, poly_to_json_dict
from .polynomials import DEFAULT_DEGREE_BOUND, divides_linearly, in_product, is_root
from .signs import (
    all_factorizations_sign,
    all_quotients_sign,
    classify_irreducibles,
    divide_sign,
    is_irreducible_sign,
    multiplicity_sign,
)
from .tropical import divide, newton_polygon, render_newton_svg, roots_with_multiplicities


def _dump(obj) -> str:
    return json.dumps(obj, indent=2)


class _UsageError(Exception):
    pass


def _field(args):
    return field_by_name(args.field)


def _poly(args, field):
    return parse_polynomial(args.poly, field)


def _root(args, field):
    return parse_element(args.root, field)


def cmd_roots(args, out):
    field = _field(args)
    p = _poly(args, field)
    if field is TROPICAL:
        loci = roots_with_multiplicities(p)
        records = [{"root": str(l.root), "multiplicity": l.multiplicity, "start": l.start}
                   for l in loci]
    else:
        records = [{"root": a, "multiplicity": multiplicity_sign(p, a, max_degree=args.max_degree)}
                   for a in (-1, 0, 1) if is_root(p, a)]
    if args.json:
        out.write(_dump({"field": field.name, "poly": poly_to_json_dict(p)["coeffs"],
                         "roots": records}) + "\n")
    else:
        if not records:
            out.write("no roots\n")
        for r in records:
            out.write(f"root {r['root']} multiplicity {r['multiplicity']}\n")
    return 0


def cmd_factor(args, out):
    field = _field(args)
    if field is not TROPICAL:
        raise _UsageError("factor supports --field tropical only; every tropical "
                          "polynomial splits into linear factors (use 'factorizations' "
                          "for the sign field)")
    from .tropical import factor as trop_factor

    p = _poly(args, field)
    unit, factors = trop_factor(p)
    if args.json:
        out.write(_dump({
            "unit": str(unit),
            "factors": [poly_to_json_dict(q)["coeffs"] for q in factors],
        }) + "\n")
    else:
        out.write(f"unit {unit}\n")
        for q in factors:
            out.write(format_polynomial(q) + "\n")
    return 0


def cmd_divide(args, out):
    field = _field(args)
    p = _poly(args, field)
    a = _root(args, field)
    q = divide(p, a) if field is TROPICAL else divide_sign(p, a)
    if args.json:
        out.write(_dump(poly_to_json_dict(q)) + "\n")
    else:
        out.write(format_polynomial(q) + "\n")
    return 0


def cmd_quotients(args, out):
    field = _field(args)
    if field is not SIGN:
        raise _UsageError("quotients supports --field sign only (tropical quotient "
                          "sets are infinite; use 'divide' for the maximal one)")
    p = _poly(args, field)
    a = _root(args, field)
    qs = all_quotients_sign(p, a, max_degree=args.max_degree)
    if args.json:
        out.write(_dump([poly_to_json_dict(q)["coeffs"] for q in qs]) + "\n")
    else:
        for q in qs:
            out.write(format_polynomial(q) + "\n")
    return 0


def cmd_check_product(args, out):
    field = _field(args)
    p = _poly(args, field)
    factors = [parse_polynomial(text, field) for text in args.factors.split(";")]
    member = in_product(p, factors)
    if args.json:
        out.write(_dump({"member": member}) + "\n")
    else:
        out.write(("true" if member else "false") + "\n")
    return 0


def cmd_irreducible(args, out):
    field = _field(args)
    if field is not SIGN:
        raise _UsageError("irreducible supports --field sign only (the irreducible "
                          "tropical polynomials are exactly the linear ones)")
    p = _poly(args, field)
    answer = is_irreducible_sign(p, max_degree=args.max_degree)
    if args.json:
        out.write(_dump({"irreducible": answer}) + "\n")
    else:
        out.write(("true" if answer else "false") + "\n")
    return 0


def cmd_factorizations(args, out):
    field = _field(args)
    if field is not SIGN:
        raise _UsageError("factorizations supports --field sign only; use 'factor' "
                          "for the tropical field")
    p = _poly(args, field)
    records = [f.to_json_dict() for f in all_factorizations_sign(p, max_degree=args.max_degree)]
    if args.json:
        out.write(_dump(records) + "\n")
    else:
        for rec in records:
            factors = ", ".join(rec["factors"])
            out.write(f"unit {rec['unit']}; factors {{{factors}}}; "
                      f"witness {rec['witness_nesting']}\n")
    return 0


def cmd_newton(args, out):
    field = _field(args)
    if field is not TROPICAL:
        raise _UsageError("newton supports --field tropical only")
    p = _poly(args, field)
    polygon = newton_polygon(p)
    # the file comes first, so that a path that cannot be written leaves
    # no partial result on stdout
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_newton_svg(p, polygon))
        except OSError as exc:
            raise _UsageError(f"cannot write {args.svg}: {exc.strerror or exc}") from None
    out.write(_dump(polygon.to_json_dict()) + "\n")
    return 0


def cmd_multiplicity(args, out):
    field = _field(args)
    p = _poly(args, field)
    a = _root(args, field)
    if field is SIGN:
        m = multiplicity_sign(p, a, max_degree=args.max_degree)
    else:
        m = sum(l.multiplicity for l in roots_with_multiplicities(p) if l.root == a)
    if args.json:
        out.write(_dump({"multiplicity": m}) + "\n")
    else:
        out.write(f"{m}\n")
    return 0


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


_COMMANDS = {
    "roots": cmd_roots,
    "factor": cmd_factor,
    "divide": cmd_divide,
    "quotients": cmd_quotients,
    "check-product": cmd_check_product,
    "irreducible": cmd_irreducible,
    "factorizations": cmd_factorizations,
    "newton": cmd_newton,
    "multiplicity": cmd_multiplicity,
    "selftest": cmd_selftest,
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

    sp = sub.add_parser("roots", parents=[common], help="roots with multiplicities")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("factor", parents=[common],
                        help="unique factorization into linear tropical factors")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("divide", parents=[common], help="divide by T - a (T + a tropically)")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--root", required=True)

    sp = sub.add_parser("quotients", parents=[common],
                        help="all quotients by a linear term (sign field)")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--root", required=True)

    sp = sub.add_parser("check-product", parents=[common],
                        help="membership in a left-nested product")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--factors", required=True, help="semicolon-separated factor list")

    sp = sub.add_parser("irreducible", parents=[common], help="irreducibility test (sign field)")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("factorizations", parents=[common],
                        help="all irreducible factorizations (sign field)")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("newton", parents=[common], help="Newton polygon of a tropical polynomial")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--svg", help="also render the polygon to this SVG file")

    sp = sub.add_parser("multiplicity", parents=[common], help="multiplicity of a root")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--root", required=True)

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
    handler = _COMMANDS[args.command]
    try:
        return handler(args, out)
    except (_UsageError, PolynomialParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HyperfieldError as exc:
        if getattr(args, "json", False):
            out.write(_dump({"error": {"code": exc.code, "message": str(exc)}}) + "\n")
        else:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
