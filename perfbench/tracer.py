"""Per-layer counts and self time for the benchmark's traced run.

``Tracer.install`` wraps each function named in ``LAYERS`` wherever the
loaded ``hyperpoly`` modules look it up: module globals, names imported
into other modules, and class attributes for methods.  Every call adds
one to ``<module>.<function>.calls`` and its duration, less the time
spent in wrapped functions it called, to ``<module>.<function>.self_ms``.
Totals stay in memory until ``snapshot``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

LAYERS = {
    "fields": ("sign_hyperadd", "trop_hyperadd", "TropValue.__mul__", "TropValue.__lt__"),
    "polynomials": ("Polynomial.__post_init__", "_product_rows", "in_product",
                    "_linear_tropical_member", "_chain_member", "is_root", "divides_linearly"),
    "signs": ("divide_sign", "all_quotients_sign", "multiplicity_sign",
              "is_irreducible_sign", "all_factorizations_sign"),
    "tropical": ("newton_polygon", "roots_with_multiplicities", "factor", "divide",
                 "is_quotient", "search_quotients"),
    "parsing": ("parse_polynomial", "format_polynomial"),
}
SPANS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

# in_product's two-factor path is the one that calls _product_rows itself
TWO_FACTOR = "polynomials.in_product.two_factor"
_PRODUCT_ROWS = "polynomials._product_rows"
_IN_PRODUCT = "polynomials.in_product"


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPANS + (TWO_FACTOR,), 0)
        self.self_ns = dict.fromkeys(SPANS, 0)
        self._stack = []   # one [span name, time in wrapped callees] per active call

    def _wrap(self, name, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        count_path = name == _PRODUCT_ROWS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if count_path and stack and stack[-1][0] == _IN_PRODUCT:
                calls[TWO_FACTOR] += 1
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                stack.pop()
                self_ns[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took

        return traced

    def install(self) -> "Tracer":
        loaded = [m for key, m in sys.modules.items()
                  if key == "hyperpoly" or key.startswith("hyperpoly.")]
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"hyperpoly.{module_name}")
            for name in names:
                span = f"{module_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self._wrap(span, cls.__dict__[attr]))
                    continue
                fn = getattr(module, name)
                traced = self._wrap(span, fn)
                for other in loaded:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, traced)
        return self

    def snapshot(self) -> dict:
        """Counts and self times so far, keyed by metric name."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"{name}.self_ms": ns / 1e6 for name, ns in self.self_ns.items()})
        return out
