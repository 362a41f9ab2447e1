"""Seeded workloads: the questions each pass asks, and what checks them.

A workload is built in the benchmark's parent process from ``--seed``
alone.  The program sees only ``inputs`` (polynomial and element text,
parsed inside each pass) and the question list, whose arguments refer
to inputs by index.  ``expect`` holds, per question, the data the
independent checkers in ``checks.py`` need; it never leaves the parent.

Every workload has a fixed number of questions of each kind at each
degree, whatever the seed, so that the tail percentile and the share
of each kind stay put and only the coefficients change with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as cartesian

import checks

SIGN_POLYS_PER_DEGREE = {2: 6, 3: 6, 4: 6, 5: 8, 6: 8, 7: 8, 8: 4, 9: 4}
IRREDUCIBLE_MAX_DEGREE = 7
# all_factorizations_sign costs about 150 ms at degree 6, 6x degree 5
FACTORIZATIONS_PER_DEGREE = {2: 6, 3: 6, 4: 6, 5: 8, 6: 1}
SIGN_PRODUCTS = 24          # in_product questions, 2-4 factors
# the roots each generated sign polynomial must have, cycled
SIGN_ROOT_PATTERNS = ((-1, 1), (1,), (-1,), (-1, 0, 1), (0, 1))
SIGN_ZERO_DENSITIES = (0.0, 0.25, 0.5)

TROP_DEGREES = (8, 10, 12, 16, 24, 32, 40, 48)
TROP_POLYS_PER_DEGREE = 3
# (distinct nonzero roots, zero-root multiplicity), cycled
TROP_ROOT_PATTERNS = ((2, 0), (3, 1), (4, 0), (5, 2), (3, 0))
SEARCH_MAX_DEGREE = 12
TROP_TWO_FACTOR = 12        # in_product questions per path, half of them members
TROP_LINEAR = 12
# chain questions per group: members built from an explicit chain and
# non-members above the all-tops bound, both with three factors, and
# valuation images of Laurent products, alternately three factors of
# degree 1-3 and four of degree 1-2
TROP_CHAINS = 120

CLI_ROUNDS = 5              # invocations of each documented form per pass


@dataclass
class Workload:
    name: str
    field: str
    inputs: list = field(default_factory=list)      # (kind, field, text) handed to the program
    questions: list = field(default_factory=list)   # {"kind", "args"} for the worker
    expect: list = field(default_factory=list)      # checker data, parallel to questions

    def add_input(self, text: str, field_name: str | None = None, kind: str = "p") -> int:
        """Index of a new input: a polynomial (kind ``p``) or an element (``e``)."""
        self.inputs.append((kind, field_name or self.field, text))
        return len(self.inputs) - 1

    def ask(self, kind: str, args: list, **expect) -> None:
        self.questions.append({"kind": kind, "args": args})
        self.expect.append(dict(expect, kind=kind))

    def shuffled(self, rng: random.Random) -> "Workload":
        order = list(range(len(self.questions)))
        rng.shuffle(order)
        self.questions = [self.questions[i] for i in order]
        self.expect = [self.expect[i] for i in order]
        return self


def tail_percentile(count: int) -> int:
    """The highest whole percentile that leaves at least ten questions
    above its nearest-rank position."""
    pct = 99
    while count - -(-pct * count // 100) < 10:
        pct -= 1
    return pct


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return {"sign": _sign, "tropical": _tropical, "cli": _cli}[name](rng)


# ---------------------------------------------------------------------------
# text forms


def sign_text(p, rng) -> str:
    """Shorthand like ``T^3-T+1``, or a coefficient array for one in three."""
    if rng.random() < 1 / 3:
        return "[" + ",".join(str(c) for c in p) + "]"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            body = "1" if i == 0 else "T" if i == 1 else f"T^{i}"
            parts.append(("-" if p[i] < 0 else "+" if parts else "") + body)
    return "".join(parts)


def trop_text(p, rng) -> str:
    """Term syntax ``e:T^k+...``, or a coefficient array for one in three."""
    if rng.random() < 1 / 3:
        return "[" + ", ".join("zero" if e is None else str(e) for e in p) + "]"
    terms = []
    for i in range(len(p) - 1, -1, -1):
        if p[i] is not None:
            terms.append(str(p[i]) if i == 0 else f"{p[i]}:T" if i == 1 else f"{p[i]}:T^{i}")
    return "+".join(terms)


# ---------------------------------------------------------------------------
# sign


def _random_sign_poly(rng, degree, zero_density, roots):
    """A random sign polynomial whose roots are exactly ``roots``.  The
    constant term is zero exactly when 0 is a root; a quadratic with the
    root 0 has only one other root, so it gets ``(0, 1)``."""
    if degree == 2 and roots == (-1, 0, 1):
        roots = (0, 1)
    while True:
        c0 = 0 if 0 in roots else rng.choice((-1, 1))
        p = (c0,) + tuple(0 if rng.random() < zero_density else rng.choice((-1, 1))
                          for _ in range(degree - 1)) + (rng.choice((-1, 1)),)
        if tuple(checks.sign_roots(p)) == roots:
            return p


def _real_product(factors):
    prod = list(factors[0])
    for f in factors[1:]:
        nxt = [0] * (len(prod) + len(f) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(f):
                nxt[i + j] += a * b
        prod = nxt
    return prod


def _sign_image(coeffs):
    return tuple((c > 0) - (c < 0) for c in coeffs)


def _sign(rng) -> Workload:
    w = Workload("sign", "sign")
    count = 0
    for degree, n_polys in SIGN_POLYS_PER_DEGREE.items():
        for nth in range(n_polys):
            roots = SIGN_ROOT_PATTERNS[count % len(SIGN_ROOT_PATTERNS)]
            density = SIGN_ZERO_DENSITIES[count % len(SIGN_ZERO_DENSITIES)]
            count += 1
            p = _random_sign_poly(rng, degree, density, roots)
            i = w.add_input(sign_text(p, rng))
            for a in checks.sign_roots(p):
                w.ask("divide_sign", [i, a], p=p, a=a)
                w.ask("all_quotients_sign", [i, a], p=p, a=a)
                w.ask("multiplicity_sign", [i, a], p=p, a=a)
            if degree <= IRREDUCIBLE_MAX_DEGREE:
                w.ask("is_irreducible_sign", [i], p=p)
            if nth < FACTORIZATIONS_PER_DEGREE.get(degree, 0):
                w.ask("all_factorizations_sign", [i], p=p)
    for j in range(SIGN_PRODUCTS):
        # 2, 3 or 4 real factors of degree 1-3 in a fixed cycle, total degree 3-9
        k = 2 + j % 3
        degrees = [1 + (j // 3 + i) % 3 for i in range(k)]
        reals = [[rng.randint(-4, 4) for _ in range(d)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
                 for d in degrees]
        factors = [_sign_image(f) for f in reals]
        chain = [_sign_image(_real_product(reals[:m])) for m in range(2, k)]
        r = _sign_image(_real_product(reals))
        args = [w.add_input(sign_text(r, rng)), [w.add_input(sign_text(f, rng)) for f in factors]]
        w.ask("in_product", args, r=r, factors=factors, chain=chain, member=True)
    return w.shuffled(rng)


# ---------------------------------------------------------------------------
# tropical


def _rational(rng, lo, hi):
    den = rng.randint(1, 4)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _from_roots(rng, degree, n_distinct, zero_roots):
    """A polynomial with a prescribed lower hull: the tropical product of
    its linear factors, with the coefficients off the hull's vertices
    lowered or, for about one in ten, set to zero.  It has ``n_distinct``
    nonzero roots and the zero root ``zero_roots`` times."""
    mults = [1] * n_distinct
    for _ in range(degree - zero_roots - n_distinct):
        mults[rng.randrange(n_distinct)] += 1
    roots = set()
    while len(roots) < n_distinct:
        roots.add(_rational(rng, -6, 6))
    lead = _rational(rng, -6, 6)
    sorted_roots = [r for r, m in zip(sorted(roots), mults) for _ in range(m)]
    # c_i = lead * (product of the n - i largest roots); the hull bends
    # where the root changes
    finite = len(sorted_roots)
    top = [lead + sum(sorted_roots[i:]) for i in range(finite + 1)]
    vertices = {0, finite} | {i for i in range(1, finite) if sorted_roots[i - 1] != sorted_roots[i]}
    coeffs = [None] * zero_roots
    for i, c in enumerate(top):
        if i in vertices:
            coeffs.append(c)
        elif rng.random() < 0.1:
            coeffs.append(None)
        else:
            coeffs.append(c - _rational(rng, 0, 3))
    return tuple(coeffs)


def _pick_member(rng, rows):
    """One member of a product given its rows of terms: the top of every
    singleton, and for an interval its top, a value below it, or zero."""
    out = []
    for terms in rows:
        top = max(terms, key=checks.tkey)
        ties = sum(1 for t in terms if checks.tkey(t) == checks.tkey(top))
        if ties < 2 or top is None:
            out.append(top)
            continue
        roll = rng.random()
        out.append(top if roll < 0.5 else None if roll < 0.6 else top - _rational(rng, 0, 2))
    return tuple(out)


def _random_trop_factor(rng, degree):
    cs = [None if rng.random() < 0.1 else _rational(rng, -8, 8) for _ in range(degree)]
    cs[0] = _rational(rng, -8, 8)  # keep zero roots out of the factors
    return tuple(cs) + (_rational(rng, -8, 8),)


def _laurent_factor(rng, degree):
    """Coefficients as {t-exponent: Fraction}; a zero entry is {}."""
    def coeff(nonzero):
        while True:
            f = {}
            for _ in range(rng.randint(1, 2)):
                e = rng.randint(-3, 3)
                f[e] = f.get(e, 0) + Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                if f[e] == 0:
                    del f[e]
            if f or not nonzero:
                return f
    return [coeff(True)] + [coeff(False) for _ in range(degree - 1)] + [coeff(True)]


def _laurent_mul(f, g):
    out = [{} for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            acc = out[i + j]
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
                    if acc[e1 + e2] == 0:
                        del acc[e1 + e2]
    return out


def _valuation(f):
    """exp(-ord_t) in log coordinates, so lower t-order is larger."""
    return tuple(None if not c else Fraction(-min(c)) for c in f)


def _trop_product_question(w, rng, factors, chain, r, member, path):
    args = [w.add_input(trop_text(r, rng)), [w.add_input(trop_text(f, rng)) for f in factors]]
    w.ask("in_product", args, r=r, factors=factors, chain=chain, member=member, path=path)


def _above_tops(rng, factors):
    """A non-member: the all-tops bound with one middle coefficient raised."""
    tops = checks.trop_tops(factors)
    i = rng.randrange(1, len(tops) - 1)
    raised = Fraction(0) if tops[i] is None else tops[i] + _rational(rng, 1, 3)
    return tops[:i] + (raised,) + tops[i + 1:]


def _built_chain(rng, factors):
    chain = []
    current = factors[0]
    for q in factors[1:]:
        current = _pick_member(rng, checks.trop_terms(current, q))
        chain.append(current)
    return chain[:-1], chain[-1]


def _tropical(rng) -> Workload:
    w = Workload("tropical", "tropical")
    count = 0
    for degree in TROP_DEGREES:
        for _ in range(TROP_POLYS_PER_DEGREE):
            p = _from_roots(rng, degree, *TROP_ROOT_PATTERNS[count % len(TROP_ROOT_PATTERNS)])
            count += 1
            i = w.add_input(trop_text(p, rng))
            roots = checks.hull_roots(p)
            w.ask("roots_with_multiplicities", [i], p=p, roots=roots)
            w.ask("factor", [i], p=p, roots=roots)
            distinct = sorted(set(roots), key=checks.tkey)
            for a in distinct:
                j = w.add_input("zero" if a is None else str(a), kind="e")
                w.ask("divide", [i, j], p=p, a=a)
            a = rng.choice([r for r in distinct if r is not None])
            j = w.add_input(str(a), kind="e")
            # is_quotient on divide's answer, then with its k-th nonzero
            # coefficient raised, lowered or zeroed
            w.ask("is_quotient", [i, j, None], p=p, a=a)
            for op in ("raise", "lower", "zero"):
                w.ask("is_quotient", [i, j, [op, rng.randrange(degree), str(_rational(rng, 1, 2))]],
                      p=p, a=a)
            if degree <= SEARCH_MAX_DEGREE:
                for a in distinct:
                    if a is not None:
                        w.ask("search_quotients", [i, w.add_input(str(a), kind="e")], p=p, a=a)

    # factor counts and degrees cycle through fixed profiles, so every
    # seed asks the same mix of shapes
    for j in range(TROP_TWO_FACTOR // 2):
        factors = [_random_trop_factor(rng, d) for d in (1 + j % 6, 6 - j % 6)]
        _, r = _built_chain(rng, factors)
        _trop_product_question(w, rng, factors, [], r, True, "two_factor")
        _trop_product_question(w, rng, factors, None, _above_tops(rng, factors), False,
                               "two_factor")
    for j in range(TROP_LINEAR // 2):
        factors = [_random_trop_factor(rng, 1) for _ in range(3 + j % 6)]
        chain, r = _built_chain(rng, factors)
        _trop_product_question(w, rng, factors, chain, r, True, "linear")
        _trop_product_question(w, rng, factors, None, _above_tops(rng, factors), False, "linear")
    three = list(cartesian((1, 2, 3), repeat=3))
    four = list(cartesian((1, 2), repeat=4))
    for j in range(TROP_CHAINS):
        factors = [_random_trop_factor(rng, d) for d in three[j % len(three)]]
        chain, r = _built_chain(rng, factors)
        _trop_product_question(w, rng, factors, chain, r, True, "chain")
        _trop_product_question(w, rng, factors, None, _above_tops(rng, factors), False, "chain")
        degrees = three[j // 2 % len(three)] if j % 2 == 0 else four[j // 2 % len(four)]
        laurents = [_laurent_factor(rng, d) for d in degrees]
        partial = [laurents[0]]
        for f in laurents[1:]:
            partial.append(_laurent_mul(partial[-1], f))
        _trop_product_question(w, rng, [_valuation(f) for f in laurents],
                               [_valuation(x) for x in partial[1:-1]],
                               _valuation(partial[-1]), True, "laurent")
    return w.shuffled(rng)


# ---------------------------------------------------------------------------
# cli: the ten documented invocation forms, on small seeded inputs


def _cli(rng) -> Workload:
    w = Workload("cli", "sign")
    for _ in range(CLI_ROUNDS):
        json_flag = ["--json"] if rng.random() < 0.5 else []
        p = _random_sign_poly(rng, rng.randint(3, 5), rng.choice(SIGN_ZERO_DENSITIES),
                              rng.choice(((-1, 1), (1,), (-1,))))
        a = rng.choice(checks.sign_roots(p))
        text = sign_text(p, rng)
        w.add_input(text)
        w.ask("cli", ["divide", "--field", "sign", f"--poly={text}", f"--root={a}"] + json_flag,
              form="divide_sign", p=p, a=a, json=bool(json_flag))
        w.ask("cli", ["quotients", "--field", "sign", f"--poly={text}", f"--root={a}"],
              form="quotients", p=p, a=a)
        w.ask("cli", ["multiplicity", "--field", "sign", f"--poly={text}", f"--root={a}"],
              form="multiplicity", p=p, a=a)
        w.ask("cli", ["irreducible", "--field", "sign", f"--poly={text}"] + json_flag,
              form="irreducible", p=p, json=bool(json_flag))
        q = _random_sign_poly(rng, rng.randint(3, 4), rng.choice(SIGN_ZERO_DENSITIES),
                              rng.choice(((-1, 1), (1,), (-1,), (0, 1))))
        qtext = sign_text(q, rng)
        w.add_input(qtext)
        w.ask("cli", ["factorizations", "--field", "sign", f"--poly={qtext}", "--json"],
              form="factorizations", p=q)

        reals = [[rng.randint(-4, 4)] + [rng.choice((-2, -1, 1, 2))] for _ in range(3)]
        factors = [_sign_image(f) for f in reals]
        chain = [_sign_image(_real_product(reals[:2]))]
        r = _sign_image(_real_product(reals))
        texts = [sign_text(f, rng) for f in factors]
        rtext = sign_text(r, rng)
        for t in texts + [rtext]:
            w.add_input(t)
        w.ask("cli", ["check-product", "--field", "sign", f"--poly={rtext}",
                      f"--factors={';'.join(texts)}"],
              form="check_product", r=r, factors=factors, chain=chain)

        t = _from_roots(rng, rng.randint(5, 8), rng.randint(2, 3), rng.randint(0, 1))
        ttext = trop_text(t, rng)
        w.add_input(ttext, "tropical")
        roots = checks.hull_roots(t)
        a = rng.choice([x for x in roots if x is not None])
        w.ask("cli", ["roots", "--field", "tropical", f"--poly={ttext}", "--json"],
              form="roots", p=t, roots=roots)
        w.ask("cli", ["factor", "--field", "tropical", f"--poly={ttext}"] + json_flag,
              form="factor", p=t, roots=roots, json=bool(json_flag))
        w.ask("cli", ["divide", "--field", "tropical", f"--poly={ttext}", f"--root={a}"],
              form="divide_tropical", p=t, a=a)
        w.ask("cli", ["newton", "--field", "tropical", f"--poly={ttext}", "--svg={svg}"],
              form="newton", p=t, roots=roots)
    return w.shuffled(rng)
