"""Spans around the calls one klforge module makes into another.

A span wraps a public function under the name a consuming module imported
it by (for example ``klforge.verify.parabolic_kl_q``), so only calls that
cross a module boundary are timed; a module's calls to its own functions
stay inside the caller's span.  Spans nest through a stack, and a span's
self time is its duration minus the time of the spans it caused.  Only
aggregates are kept in memory: per span name the calls, total and self
seconds, exceptions raised, and any counters its observer adds.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# The consuming module, the names it imported from another module, and the
# span each name is recorded under.  poly gets no spans: its calls are too
# fine-grained and their cost stays in the callers' self time.
_SEGCOMB = ("is_regular", "is_strongly_regular", "multisegment_of", "replicate",
            "sigma0")
PATCHES = [
    ("klforge.verify", {
        "verify_main_theorem": "verify", "verify_prop1": "verify",
        "verify_power_identity": "verify",
        "kl_poly": "kl.kl_poly", "parabolic_kl_q": "kl.parabolic_q",
        "bruhat_leq": "symgroup.bruhat_leq",
        "product_expansion_guarded": "pbw.product",
        "expand_G_in_E": "transition.expand_G_in_E",
        "g_star_power_with_taint": "transition.g_star_power",
        **{name: "segcomb" for name in
           _SEGCOMB + ("construct_strongly_regular", "dominates_sigma0")}}),
    ("klforge.kl", {"bruhat_leq": "symgroup.bruhat_leq"}),
    ("klforge.pbw", {"bruhat_leq": "symgroup.bruhat_leq",
                     "general_position": "segcomb", "precedes": "segcomb",
                     "seg_sort_key": "segcomb"}),
    ("klforge.transition", {
        "kl_poly": "kl.kl_poly", "parabolic_kl_q": "kl.parabolic_q",
        "bruhat_leq": "symgroup.bruhat_leq",
        "product_expansion_guarded": "pbw.product",
        **{name: "segcomb" for name in _SEGCOMB}}),
]


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "errors", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.counters: dict[str, int] = {}

    def to_json(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "errors": self.errors, "counters": self.counters}


def _parabolic_label(args) -> str:
    """kl.parabolic_q split by n = m*k: (table, sigma, omega, m)."""
    return f"kl.parabolic_q.n{len(args[1]) * args[3]}"


def _product_counters(result, counters: dict[str, int]) -> None:
    exact, tainted = result
    counters["terms"] = counters.get("terms", 0) + len(exact)
    counters["tainted"] = counters.get("tainted", 0) + len(tainted)


def _verify_counters(result, counters: dict[str, int]) -> None:
    counters[result.status] = counters.get(result.status, 0) + 1


LABELS = {"kl.parabolic_q": _parabolic_label}
OBSERVERS = {"pbw.product": _product_counters, "verify": _verify_counters}


class Tracer:
    """Installs the spans on enter and restores the modules on exit."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        stats, stack = self.stats, self._stack
        label = LABELS.get(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                key = label(args) if label else name
                st = stats.get(key)
                if st is None:
                    st = stats[key] = Stat()
                st.calls += 1
                st.total_s += took
                st.self_s += took - children[0]
                if failed:
                    st.errors += 1
                elif observe:
                    observe(result, st.counters)
        return span

    def __enter__(self) -> "Tracer":
        for module_name, names in PATCHES:
            module = importlib.import_module(module_name)
            for attr, span_name in names.items():
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, span_name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def to_json(self) -> dict:
        return {name: st.to_json() for name, st in sorted(self.stats.items())}
