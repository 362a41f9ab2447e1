"""One pass of a workload, in a fresh interpreter.

    python -m worker PASS_DIR MODE TRACE

reads ``inputs.txt`` (and ``questions.json`` or ``argv.json``) from
PASS_DIR and writes ``result.json`` there.  MODE is

* ``questions``: import, parse the inputs, then ask every question once,
  each timed on the process CPU clock;
* ``setup``: import and parse only;
* ``cli``: time the in-process ``hyperpoly.cli.run`` on every argv.

Set-up is timed on the wall clock from before ``import hyperpoly`` to
after the last input is parsed.  With TRACE=1 the tracer is installed
right after the import and its totals go into the result.
"""

import sys
import time


def _read_inputs(pass_dir):
    """(kind, field, text) per input: kind ``p`` for a polynomial, ``e`` for an element."""
    with open(f"{pass_dir}/inputs.txt", encoding="utf-8") as fh:
        return [line.split("\t", 2) for line in fh.read().splitlines()]


def main(pass_dir: str, mode: str, trace: bool) -> None:
    lines = _read_inputs(pass_dir)

    start = time.perf_counter()
    import hyperpoly
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    inputs = []
    for kind, field, text in lines:
        inputs.append(hyperpoly.parse_polynomial(text, field) if kind == "p"
                      else hyperpoly.parse_element(text, hyperpoly.field_by_name(field)))
    setup_s = time.perf_counter() - start

    import json
    result = {"setup_s": setup_s}
    if mode == "questions":
        with open(f"{pass_dir}/questions.json", encoding="utf-8") as fh:
            questions = json.load(fh)
        result.update(_ask(questions, inputs))
    elif mode == "cli":
        with open(f"{pass_dir}/argv.json", encoding="utf-8") as fh:
            argvs = json.load(fh)
        import hyperpoly.cli
        result["times_ns"] = _run_cli(hyperpoly.cli, argvs)
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    with open(f"{pass_dir}/result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _run_cli(cli, argvs):
    import io

    times = []
    for argv in argvs:
        start = time.perf_counter_ns()
        code = cli.run(argv, out=io.StringIO())
        times.append(time.perf_counter_ns() - start)
        if code != 0:
            raise SystemExit(f"cli.run exited {code} on {argv}")
    return times


def _prepare(questions, inputs):
    """(callable, args) per question, looked up after any tracing is in place."""
    from fractions import Fraction

    from hyperpoly import polynomials, signs, tropical
    from hyperpoly.fields import TROPICAL, TropValue

    def perturbed(q, op):
        name, k, delta = op
        nonzero = [i for i, c in enumerate(q.coeffs) if not c.is_zero]
        i = nonzero[k % len(nonzero)]
        e = q.coeffs[i].exponent
        new = {"raise": TropValue(e + Fraction(delta)), "lower": TropValue(e - Fraction(delta)),
               "zero": TropValue(None)}[name]
        return polynomials.Polynomial(TROPICAL, q.coeffs[:i] + (new,) + q.coeffs[i + 1:])

    calls = []
    for q in questions:
        kind, args = q["kind"], q["args"]
        if kind == "in_product":
            calls.append((polynomials.in_product,
                          (inputs[args[0]], [inputs[j] for j in args[1]])))
        elif kind in ("divide_sign", "all_quotients_sign", "multiplicity_sign"):
            calls.append((getattr(signs, kind), (inputs[args[0]], args[1])))
        elif kind in ("is_irreducible_sign", "all_factorizations_sign"):
            calls.append((getattr(signs, kind), (inputs[args[0]],)))
        elif kind in ("roots_with_multiplicities", "factor"):
            calls.append((getattr(tropical, kind), (inputs[args[0]],)))
        elif kind in ("divide", "search_quotients"):
            calls.append((getattr(tropical, kind), (inputs[args[0]], inputs[args[1]])))
        elif kind == "is_quotient":
            p, a = inputs[args[0]], inputs[args[1]]
            q = tropical.divide(p, a)
            calls.append((tropical.is_quotient, (p, a, q if args[2] is None
                                                 else perturbed(q, args[2]))))
        else:
            raise SystemExit(f"unknown question kind {kind!r}")
    return calls


def _plain(kind, answer, args):
    """The answer as JSON data, with coefficients as ints or exponent text."""
    def trop(p):
        return [str(c) for c in p.coeffs]

    if kind == "divide_sign":
        return list(answer.coeffs)
    if kind == "all_quotients_sign":
        return [list(q.coeffs) for q in answer]
    if kind == "all_factorizations_sign":
        return [[[list(q.coeffs) for q in f.factors], f.unit, f.witness_nesting] for f in answer]
    if kind == "roots_with_multiplicities":
        return [[str(l.root), l.multiplicity, l.start] for l in answer]
    if kind == "factor":
        return [str(answer[0]), [trop(q) for q in answer[1]]]
    if kind == "divide":
        return trop(answer)
    if kind == "is_quotient":
        return [answer, trop(args[2])]
    if kind == "search_quotients":
        return [trop(q) for q in answer]
    return answer   # bools and ints


def _ask(questions, inputs):
    """Ask every question once.  As ``timeit`` does, the cyclic garbage
    collector is paused while a question runs; it collects the question's
    garbage right after, so no question pays for a collection that
    earlier questions triggered."""
    import gc

    calls = _prepare(questions, inputs)
    clock = time.process_time_ns
    times = [0] * len(calls)
    answers = [None] * len(calls)
    errors = [None] * len(calls)
    gc.collect()
    gc.disable()
    try:
        for k, (fn, args) in enumerate(calls):
            start = clock()
            try:
                answers[k] = fn(*args)
            except Exception as exc:   # a failed question is counted, the pass goes on
                errors[k] = repr(exc)
            times[k] = clock() - start
            gc.collect(0)
    finally:
        gc.enable()
    plain = [None if errors[k] else _plain(q["kind"], answers[k], calls[k][1])
             for k, q in enumerate(questions)]
    return {"times_ns": times, "answers": plain, "errors": errors}


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
