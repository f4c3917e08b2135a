"""Traced runs: a span around every call into the library's public functions.

The spans are recorded by the benchmark, not by the library.  While a
``Tracer`` is interposed, each function named in ``TRACED`` is replaced,
in every ``raagcs`` module namespace that binds it, by a wrapper that
records a span; the originals come back when the block exits.  The CLI
and the library keep making their own calls, so the spans follow exactly
the order and nesting in which the CLI makes them.

A span is ``[op, name, parent, start_ns, end_ns]``; spans stay in memory
until the run ends.  A span's self time is its duration minus its
children's, so the self times of an op's spans add up to the op's root
span, which the harness opens around the whole op.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

TRACED = {
    "graphs": (
        "parse_edge_list",
        "parse_graph6",
        "to_graph6",
        "complement",
        "connected_components",
        "induced_subgraph",
        "canonical_form",
        "enumerate_graphs",
    ),
    "euler": ("clique_counts", "euler_characteristic"),
    "artin": (
        "parse_profile_spec",
        "invariant_profile",
        "decompose",
        "classify_component",
        "compare",
        "normal_form",
        "stable_normal_form",
        "algebra_name",
        "is_graph_algebra",
        "semiprojectivity",
        "prim_space",
        "profile_components",
        "component_ktheory",
        "component_name",
    ),
    "kgraph": (
        "parse_dgraph",
        "format_dgraph",
        "smith_normal_form",
        "graph_ktheory",
        "sink_ideal_analysis",
        "condition_k",
        "realize",
        "verify_realization",
    ),
    "cli": ("main", "build_parser"),
}
LAYERS = tuple(TRACED) + ("harness",)
ROOT = "harness.op"

VERDICT = tuple(
    f"artin.{f}"
    for f in (
        "normal_form",
        "stable_normal_form",
        "algebra_name",
        "is_graph_algebra",
        "semiprojectivity",
        "prim_space",
        "profile_components",
        "component_ktheory",
        "component_name",
    )
)

# metric -> (span names, time taken per call).  "total" is the span's
# whole duration, "self" leaves out every child span, and "layer" leaves
# out only the children in other layers.
CALL_METRICS = {
    "graphs.enumerate_ms": (("graphs.enumerate_graphs",), "total"),
    "graphs.canonical_ms": (("graphs.canonical_form",), "total"),
    "graphs.parse_ms": (("graphs.parse_edge_list", "graphs.parse_graph6"), "total"),
    "graphs.complement_ms": (("graphs.complement",), "total"),
    "graphs.components_ms": (("graphs.connected_components",), "total"),
    "graphs.induced_ms": (("graphs.induced_subgraph",), "total"),
    "euler.clique_counts_ms": (("euler.clique_counts",), "total"),
    "artin.profile_ms": (("artin.invariant_profile",), "layer"),
    "artin.verdict_ms": (VERDICT, "self"),
    "artin.compare_ms": (("artin.compare",), "total"),
    "kgraph.parse_ms": (("kgraph.parse_dgraph",), "total"),
    "kgraph.ktheory_ms": (("kgraph.graph_ktheory",), "self"),
    "kgraph.snf_ms": (("kgraph.smith_normal_form",), "total"),
    "kgraph.condition_k_ms": (("kgraph.condition_k",), "total"),
    "kgraph.sink_analysis_ms": (("kgraph.sink_ideal_analysis",), "self"),
    "kgraph.realize_ms": (("kgraph.realize",), "total"),
    "kgraph.verify_ms": (("kgraph.verify_realization",), "total"),
    "cli.main_ms": (("cli.main",), "total"),
    "cli.build_parser_ms": (("cli.build_parser",), "total"),
}
COUNTERS = (
    "graphs.extensions",
    "graphs.dedup_yield",
    "graphs.complement_pairs",
    "euler.cliques",
    "euler.max_component_n",
    "artin.components",
    "kgraph.snf_peak_bits",
    "kgraph.matrix_cells",
    "cli.output_bytes",
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("ops_per_s"):
        return "ops/s"
    if metric in ("graphs.dedup_yield", "trace.overhead_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Span recorder.  ``observing`` also keeps each call's arguments and
    result, for the work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.observing = False
        self.calls: list[tuple[str, tuple, Any]] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        spans, stack = self.spans, self.stack
        span = [self.op, name, stack[-1] if stack else -1, 0, 0]
        stack.append(len(spans))
        spans.append(span)
        span[3] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter_ns()
            stack.pop()
        if self.observing:
            self.calls.append((name, args, result))
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def interposed(self) -> Iterator[None]:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "raagcs"]
        saved = []
        for layer, names in TRACED.items():
            home = sys.modules[f"raagcs.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, attr, original))
                            setattr(m, attr, wrapper)
        try:
            yield
        finally:
            for m, attr, original in saved:
                setattr(m, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_times(spans: list[list]) -> tuple[list[int], list[int], list[int]]:
    """Duration, self time and same-layer time of every span, in ns."""
    dur = [s[4] - s[3] for s in spans]
    self_ns = dur.copy()
    layer_ns = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[2] >= 0:
            self_ns[s[2]] -= dur[i]
    # Children come after their parent, so a reverse sweep sees every child
    # before its parent.
    same = [0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        layer_ns[i] = self_ns[i] + same[i]
        parent = spans[i][2]
        if parent >= 0 and spans[parent][1].split(".")[0] == spans[i][1].split(".")[0]:
            same[parent] += layer_ns[i]
    return dur, self_ns, layer_ns


def spans_consistent(spans: list[list]) -> bool:
    """Every child lies inside its parent, and per op the self times of all
    spans add up to the root span's duration."""
    _, self_ns, _ = span_times(spans)
    root_dur: dict[int, int] = {}
    total_self: dict[int, int] = {}
    for i, s in enumerate(spans):
        parent = s[2]
        if parent < 0:
            if s[1] != ROOT or s[0] in root_dur:
                return False
            root_dur[s[0]] = s[4] - s[3]
        else:
            p = spans[parent]
            if p[0] != s[0] or not p[3] <= s[3] <= s[4] <= p[4]:
                return False
        total_self[s[0]] = total_self.get(s[0], 0) + self_ns[i]
    return root_dur == total_self


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-call times of ``CALL_METRICS`` and per-op self time of each layer, in ms."""
    dur, self_ns, layer_ns = span_times(spans)
    by_kind = {"total": dur, "self": self_ns, "layer": layer_ns}
    out = {}
    for metric, (names, kind) in CALL_METRICS.items():
        times = [by_kind[kind][i] for i, s in enumerate(spans) if s[1] in names]
        out[metric] = sum(times) / len(times) / 1e6 if times else 0.0
    for layer in LAYERS:
        total = sum(t for t, s in zip(self_ns, spans) if s[1].split(".")[0] == layer)
        out[f"{layer}.self_ms"] = total / ops / 1e6
    return out


def work_counters(calls: list[tuple[str, tuple, Any]], output_bytes: int) -> dict[str, float]:
    """Deterministic counts over the observed calls, read from each call's
    arguments and result."""

    def each(name: str) -> list[tuple[tuple, Any]]:
        return [(args, res) for n, args, res in calls if n == name]

    extensions = sum(1 for args, _ in each("graphs.canonical_form") if args[0].n >= 1)
    classes = sum(len(res) for _, res in each("graphs.enumerate_graphs"))
    cliques = each("euler.clique_counts")
    snfs = each("kgraph.smith_normal_form")
    return {
        "graphs.extensions": extensions,
        "graphs.dedup_yield": classes / extensions if extensions else 0.0,
        "graphs.complement_pairs": sum(
            g.n * (g.n - 1) // 2 - len(g.edges) for (g,), _ in each("graphs.complement")
        ),
        "euler.cliques": sum(sum(res.counts) for _, res in cliques),
        "euler.max_component_n": max((args[0].n for args, _ in cliques), default=0),
        "artin.components": sum(
            res.component_count.value for _, res in each("artin.invariant_profile")
        ),
        "kgraph.snf_peak_bits": max(
            (
                abs(x).bit_length()
                for _, res in snfs
                for mat in (res.U, res.D, res.V)
                for row in mat
                for x in row
            ),
            default=0,
        ),
        "kgraph.matrix_cells": sum(
            len(args[0]) * (len(args[0][0]) if args[0] else 0) for args, _ in snfs
        ),
        "cli.output_bytes": output_bytes,
    }
