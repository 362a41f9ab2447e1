"""Text and JSON round-trips for polynomials.

Two input syntaxes are accepted:

* term syntax -- ``coeff:T^k`` terms joined by ``+``, e.g.
  ``"0:T^3+1:T^2+0:T+1"`` over the tropical field (coefficients are log
  coordinates, ``zero`` is the zero), with the usual shorthand
  ``"T^2-T+1"`` over the sign field;
* JSON -- either a bare coefficient array ``[c0, ..., cn]`` or an object
  ``{"field": ..., "coeffs": [...]}``.  Tropical coefficients are the
  strings ``"zero"`` or ``"p/q"`` (integers are accepted), sign
  coefficients the integers -1, 0, 1.

Formatting is canonical: ``parse(format(p)) == p`` and
``format(parse(text))`` normalizes ``text``.
"""

from __future__ import annotations

import re

from .errors import PolynomialParseError, _quoted
from .fields import SIGN, TROPICAL, TropValue, field_by_name
from .polynomials import Polynomial

__all__ = [
    "parse_polynomial",
    "format_polynomial",
    "poly_to_json_dict",
    "poly_from_json",
    "parse_element",
]

# the largest k accepted in a monomial T^k; the parser builds a tuple of
# length k + 1, so this bounds the allocation a short text can request
MAX_EXPONENT = 10_000


def parse_element(text: str, field, column=None):
    try:
        return field.parse_element(text)
    except ZeroDivisionError:  # Fraction's own message is its repr, Fraction(1, 0)
        detail = "zero denominator"
    except ValueError as exc:
        # the field's own message may end by quoting the token again, whole
        # or cut to 200 characters: that quote is cut the same way
        token, detail = text.strip(), str(exc)
        echo = detail.find(repr(token)[:21])
        if echo >= 0:
            detail = detail[:echo] + _quoted(token)
    raise PolynomialParseError(f"bad {field.name} value {_quoted(text)}: {detail}", column)


def _monomial_exponent(text: str, column: int) -> int:
    if text == "T":
        return 1
    m = re.fullmatch(r"T\^(\d+)", text)
    if not m:
        raise PolynomialParseError(f"bad monomial {_quoted(text)}", column)
    digits = m.group(1).lstrip("0") or "0"
    # compare lengths first: int() refuses very long digit strings
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise PolynomialParseError(
            f"exponent in {_quoted(text)} exceeds the limit {MAX_EXPONENT}", column)
    return int(digits)


def _build(field, terms):
    coeffs = {}
    for k, c, column in terms:
        if k in coeffs:
            raise PolynomialParseError(f"duplicate exponent T^{k}", column)
        coeffs[k] = c
    n = max(coeffs) if coeffs else -1
    return Polynomial(field, tuple(coeffs.get(i, field.zero) for i in range(n + 1)))


def _parse_sign_text(text: str) -> Polynomial:
    s = text.replace(" ", "")
    if s in ("0", ""):
        return Polynomial(SIGN, ())
    terms = []
    pos = 0
    for m in re.finditer(r"[+-]?[^+-]+", s):
        if m.start() != pos:
            raise PolynomialParseError("empty term", pos)
        pos = m.end()
        tok, column = m.group(0), m.start()
        if ":" in tok:
            ctext, mono = tok.split(":", 1)
            c = parse_element(ctext, SIGN, column)
            k = _monomial_exponent(mono, column)
        else:
            sign = 1
            if tok[0] in "+-":
                sign = -1 if tok[0] == "-" else 1
                tok = tok[1:]
            if tok == "1":
                c, k = sign, 0
            elif tok[0] == "T":
                c, k = sign, _monomial_exponent(tok, column)
            else:
                c = parse_element(tok, SIGN, column) * sign
                k = 0
        terms.append((k, c, column))
    if pos != len(s):
        raise PolynomialParseError("trailing junk", pos)
    return _build(SIGN, terms)


def _parse_trop_text(text: str) -> Polynomial:
    s = text.replace(" ", "")
    if s == "zero" or s == "":
        return Polynomial(TROPICAL, ())
    terms = []
    column = 0
    for tok in s.split("+"):
        if not tok:
            raise PolynomialParseError("empty term", column)
        if ":" in tok:
            ctext, mono = tok.split(":", 1)
            c = parse_element(ctext, TROPICAL, column)
            k = _monomial_exponent(mono, column)
        elif tok[0] == "T":
            c, k = TROPICAL.one, _monomial_exponent(tok, column)
        else:
            c, k = parse_element(tok, TROPICAL, column), 0
        terms.append((k, c, column))
        column += len(tok) + 1
    return _build(TROPICAL, terms)


def _coeff_from_json(entry, field):
    if field is SIGN:
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise PolynomialParseError(f"sign coefficients are integers, got {_quoted(entry)}")
        if entry not in (-1, 0, 1):
            raise PolynomialParseError(f"sign coefficients are -1, 0 or 1, got {_quoted(entry)}")
        return entry
    if isinstance(entry, bool) or isinstance(entry, float):
        raise PolynomialParseError(
            f"tropical coefficients must be exact (int or \"p/q\" string), got {_quoted(entry)}")
    if isinstance(entry, int):
        return TropValue.log(entry)
    if isinstance(entry, str):
        return parse_element(entry, TROPICAL)
    raise PolynomialParseError(f"bad tropical coefficient {_quoted(entry)}")


def poly_from_json(data, field=None) -> Polynomial:
    """Build a polynomial from a parsed JSON value (array or object form)."""
    if isinstance(data, dict):
        try:
            named = field_by_name(data["field"])
        except (KeyError, ValueError) as exc:
            raise PolynomialParseError(f"bad polynomial object: {exc}") from None
        if field is not None and named is not field:
            raise PolynomialParseError(
                f"polynomial is over {named.name!r} but {field.name!r} was requested")
        field = named
        data = data.get("coeffs")
    if field is None:
        raise PolynomialParseError("field must be given for a bare coefficient array")
    if not isinstance(data, list):
        raise PolynomialParseError("coefficients must form a JSON array")
    return Polynomial(field, tuple(_coeff_from_json(e, field) for e in data))


def parse_polynomial(text: str, field) -> Polynomial:
    """Parse term syntax or JSON into a polynomial over ``field``."""
    if isinstance(field, str):
        field = field_by_name(field)
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        import json  # imported here, so that other input does not load it at start-up

        try:
            data = json.loads(stripped)
        except (ValueError, RecursionError) as exc:  # bad JSON, huge integer, deep nesting
            if stripped[0] == "[":
                return _parse_bracket_array(stripped, field)
            raise PolynomialParseError(f"bad JSON polynomial: {exc}") from None
        return poly_from_json(data, field)
    if field is SIGN:
        return _parse_sign_text(stripped)
    return _parse_trop_text(stripped)


def _parse_bracket_array(text: str, field) -> Polynomial:
    """Relaxed array form: [c0, c1, ...] with unquoted element tokens,
    so tropical rationals like 1/2 and the token zero need no quoting.
    A token that is a JSON literal is judged as the JSON form judges it,
    whatever its neighbours."""
    import json

    if not text.endswith("]"):
        raise PolynomialParseError("unterminated coefficient array")
    body = text[1:-1]
    if not body.strip():
        return Polynomial(field, ())
    coeffs = []
    column = 1
    for tok in body.split(","):
        s = tok.strip()
        start = column + len(tok) - len(tok.lstrip())  # the element's offset in text
        column += len(tok) + 1
        # a token other than an integer, p/q, zero, array or object may be a
        # JSON literal: a string, true, false, null or a number with a
        # fraction or exponent
        if (s != "zero" and s[:1] not in ("[", "{")
                and not s.lstrip("+-").replace("/", "", 1).isdigit()):
            try:
                coeffs.append(_coeff_from_json(json.loads(s), field))
                continue
            except json.JSONDecodeError:  # not one either, e.g. 01.5
                pass
        coeffs.append(parse_element(s, field, start))
    return Polynomial(field, tuple(coeffs))


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form; inverse of :func:`parse_polynomial`."""
    if p.is_zero:
        return "0" if p.field is SIGN else "zero"
    parts = []
    if p.field is SIGN:
        for i in range(p.degree, -1, -1):
            c = p.coeffs[i]
            if c == 0:
                continue
            body = "1" if i == 0 else ("T" if i == 1 else f"T^{i}")
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c.is_zero:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}:T")
        else:
            parts.append(f"{c}:T^{i}")
    return "+".join(parts)


def poly_to_json_dict(p: Polynomial) -> dict:
    """Canonical JSON object {"field": ..., "coeffs": [...]}."""
    return {
        "field": p.field.name,
        "coeffs": [p.field.element_to_json(c) for c in p.coeffs],
    }
