"""Per-layer tracing from outside the program.

The tracer replaces public functions of each layer module with wrappers
that count calls and time spans, on every module of the package that
binds the function (``from veerlab.braid import linking_number`` in
``torus``, ``linkinv`` and ``cli`` gives three bindings of one function).
A span's self time is its duration minus the time of the spans it
encloses.  Spans are aggregated in memory per function name.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# Functions timed as spans, per module.
SPANS = {
    "linkinv": ["seifert_signature", "meyer_signature", "maslov_of_word",
                "verify_sign_maslov", "verify_eq_signature", "gg_remark_check"],
    "burau": ["lift", "graph_path_of", "burau_matrix", "symplectic_space"],
    "symplectic": ["frame", "graph_lagrangian", "graph_path", "chart_coordinates",
                   "lagrangian_complement", "signature", "maslov_index",
                   "ternary_index", "ternary_index_kernel", "meyer"],
    "linalg": ["det", "rank", "solve", "inverse", "nullspace", "mat_mul"],
    "poly": ["has_root_in_closed"],
    "torus": ["rot", "phi", "verify_theorem_lk", "right_veering",
              "quasipositive_verdict", "dehn_twist_delta"],
    "farey": ["turn_word", "rademacher_turns", "lk2_nonqp_certificate"],
    "modular": ["project_b3", "classify", "normal_form", "rademacher",
                "rademacher_class", "psl_conjugate"],
    "braid": ["linking_number", "free_reduce", "braid3_equal"],
    "_core": ["word_matrix", "nf_exponents", "turn_letters"],
}
# Functions only counted: they run too often (over 10^5 calls in one B_7
# length-40 report) for a span each, or are cache lookups.
COUNTS = {
    "poly": ["pmul", "padd", "peval"],
    "burau": ["homology_rep"],
}
VERDICT_FUNCS = ("torus.right_veering", "torus.quasipositive_verdict")

SWEEP_SUITES = ["theorem-lk", "rademacher", "quasimorphism", "dehn-deltas",
                "cochain", "gg-remark", "signatures", "sign-maslov",
                "eq-signature", "meyer-cocycle", "ternary-lemma"]
WORD_CLASSES = ["B3L20", "B3L40", "B5L20", "B5L40", "B7L20", "B7L40"]


def metric_name(qualname: str) -> str:
    # Metric names must start with a letter: _core.x is reported as core.x.
    return qualname.lstrip("_")


class Tracer:
    """Install with ``with Tracer() as t:``; read ``calls``, ``self_s``,
    ``unknown`` and the item totals afterwards."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.unknown: Counter = Counter()
        self.item_s = 0.0
        self.item_self_s = 0.0
        self._stack: list[float] = []
        self._restore: list[tuple] = []

    def _span(self, name, fn):
        calls, self_s, unknown, stack = self.calls, self.self_s, self.unknown, self._stack
        verdict = name in VERDICT_FUNCS

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if verdict and result.value == "unknown":
                unknown[name] += 1
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_item(self, name, fn, *args):
        """Run one benchmark item as the root span ``name``."""
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dt = perf_counter() - t0
            child = stack.pop()
            self.calls[name] += 1
            self.self_s[name] += dt - child
            self.item_s += dt
            self.item_self_s += dt - child

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "veerlab" or n.startswith("veerlab."))]
        wrapped = {}
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for mod, funcs in table.items():
                module = sys.modules[f"veerlab.{mod}"]
                for func in funcs:
                    original = getattr(module, func)
                    wrapped[id(original)] = (original, make(f"{mod}.{func}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod, funcs in SPANS.items():
        for func in funcs:
            base = metric_name(f"{mod}.{func}")
            out += [(f"{base}.calls", "count"), (f"{base}.self_ms", "ms")]
        out += [(metric_name(f"{mod}.{f}") + ".calls", "count")
                for f in COUNTS.get(mod, [])]
        if mod == "symplectic":
            out += [("symplectic.bespoke_complements", "count"),
                    ("symplectic.chart_hit_ratio", "ratio")]
        if mod == "torus":
            out += [(f"{v}.unknown_ratio", "ratio") for v in VERDICT_FUNCS]
    out += [(f"sweeps.{s}.ms_per_item", "ms") for s in SWEEP_SUITES]
    out += [(f"cli.invariants.{c}.ms_p50", "ms") for c in WORD_CLASSES]
    out += [("cli.invariants.self_ms", "ms"),
            ("trace.overhead_s", "s"),
            ("trace.span_coverage", "ratio")]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_values(tracer: Tracer, untraced: dict[str, float],
                     overhead_s: float, factor: float) -> dict[str, float]:
    """Values for ``per_layer_names``.  ``untraced`` maps
    ``sweeps.<suite>.ms_per_item`` and ``cli.invariants.<class>.ms_p50`` to
    the untraced pass's figures; span times are multiplied by ``factor``;
    metrics a workload does not exercise read 0."""
    c, s = tracer.calls, tracer.self_s
    values = {}
    for table in (SPANS, COUNTS):
        for mod, funcs in table.items():
            for func in funcs:
                q = f"{mod}.{func}"
                values[metric_name(q) + ".calls"] = c[q]
                if table is SPANS:
                    values[metric_name(q) + ".self_ms"] = 1000 * factor * s[q]
    values["symplectic.bespoke_complements"] = (
        c["symplectic.lagrangian_complement"] - c["symplectic.maslov_index"])
    values["symplectic.chart_hit_ratio"] = _ratio(
        c["symplectic.chart_coordinates"] / 2, c["poly.has_root_in_closed"])
    for v in VERDICT_FUNCS:
        values[f"{v}.unknown_ratio"] = _ratio(tracer.unknown[v], c[v])
    values["cli.invariants.self_ms"] = 1000 * factor * s["cli.invariants"]
    values["trace.overhead_s"] = overhead_s
    values["trace.span_coverage"] = _ratio(tracer.item_s - tracer.item_self_s,
                                           tracer.item_s)
    for name, _ in per_layer_names():
        values.setdefault(name, untraced.get(name, 0.0))
    return values
