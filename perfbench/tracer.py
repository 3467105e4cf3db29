"""Span tracing of fermatvol's public functions, installed from outside src/.

Each traced function is replaced by a wrapper that records a span
(name, start, end, parent span) per call.  A module that did
``from .specfun import hyp_unit_sum`` holds its own reference to the
function, so the wrapper is bound in every fermatvol namespace that
holds the original object, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (metric prefix, module under fermatvol, attribute path in that module)
TARGETS = (
    ("specfun.hyp_unit_sum", "specfun", "hyp_unit_sum"),
    ("specfun.gamma_quotient", "specfun", "gamma_quotient"),
    ("specfun.ln_gamma", "specfun", "ln_gamma"),
    ("specfun.dixon_family", "specfun", "dixon_family"),
    ("specfun.euler_double_integral", "specfun", "euler_double_integral"),
    ("cyclotomic.CycloElem.mul", "cyclotomic", "CycloElem.__mul__"),
    ("cyclotomic.CycloElem.inverse", "cyclotomic", "CycloElem.inverse"),
    ("cyclotomic.embed", "cyclotomic", "embed"),
    ("cyclotomic.trace_to_rationals", "cyclotomic", "trace_to_rationals"),
    ("fermat.delta_iterated_integral", "fermat", "delta_iterated_integral"),
    ("fermat.harmonic_volume_exact_parts", "fermat", "harmonic_volume_exact_parts"),
    ("fermat.harmonic_volume_sigma", "fermat", "harmonic_volume_sigma"),
    ("fermat.harmonic_volume_trace_exact_defect", "fermat",
     "harmonic_volume_trace_exact_defect"),
    ("ceresa.f_value", "ceresa", "f_value"),
    ("ceresa.table1", "ceresa", "table1"),
    ("ceresa.klein_value", "ceresa", "klein_value"),
    ("ceresa.multiples_scan", "ceresa", "multiples_scan"),
    ("cli.main", "cli", "main"),
)

_MARK = "__perfbench_span__"


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fermatvol" or name.startswith("fermatvol."))]


class Tracer:
    def __init__(self):
        # one tuple per call: (name, start, end, index of the parent span or -1)
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []   # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        for name, module, path in TARGETS:
            mod = importlib.import_module(f"fermatvol.{module}")
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_path) if owner_path else mod
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            # a class aliases methods (__rmul__ = __mul__); modules re-bind imports
            for ns in ([owner] if owner_path else _namespaces()):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Bindings in fermatvol that still hold a tracing wrapper."""
        found = []
        for ns in _namespaces():
            holders = [ns] + [v for v in vars(ns).values() if isinstance(v, type)]
            for holder in holders:
                for key, value in vars(holder).items():
                    if hasattr(value, _MARK):
                        found.append(f"{getattr(holder, '__name__', holder)}.{key}")
        return sorted(set(found))

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time (span minus its child spans) per traced function."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, parent), inner in zip(self.spans, child):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += end - start - inner
        return {name: dict(totals[name]) for name, _, _ in TARGETS}
