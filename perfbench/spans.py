"""Timing wrappers installed on greenfan's layer entry points at run time.

The benchmark measures greenfan from outside, so tracing patches public
functions and methods for the duration of one traced pass and restores them
afterwards.  Spans are kept in memory as ``[name, parent_id, start, end]``
records (the id is the index in the list) and summarized into additive raw
totals, so totals from several CLI child processes can be merged before the
per-layer metrics are derived.

Names bound by ``from ... import`` are separate references: ``mutate_seed``
and ``canonical_key`` are patched in both ``greenfan.exchange`` and
``greenfan.scattering``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from greenfan import exchange, liegroup, scattering

ENUMERATE = "exchange.enumerate_graph"
MUTATE = "exchange.mutate_seed"


def _count_graph(tracer, graph, args):
    tracer.count("exchange.vertices", len(graph.vertices))
    tracer.count("exchange.edges", len(graph.edges))
    tracer.count("exchange.new_vertices", len(graph.vertices) - 1)


def _count_terms(tracer, product, args):
    tracer.count("liegroup.terms", len(product.carrier.terms))


def _count_loops(tracer, report, args):
    tracer.count("scattering.loops", len(report.loops))


def _count_crossings(tracer, product, args):
    tracer.count("scattering.crossings", len(args[1].crossings))


def _count_walls(tracer, diagram, args):
    tracer.count("scattering.walls", len(diagram.walls))


# (owner, attribute, span name, result hook)
TARGETS = (
    (exchange, "enumerate_graph", ENUMERATE, _count_graph),
    (exchange, "mutate_seed", MUTATE, None),
    (exchange, "canonical_key", "exchange.canonical_key", None),
    (exchange, "certify_acyclic", "exchange.certify_acyclic", None),
    (exchange, "graph_to_json", "exchange.graph_to_json", None),
    (exchange, "graph_from_json", "exchange.graph_from_json", None),
    (scattering, "mutate_seed", MUTATE, None),
    (scattering, "canonical_key", "exchange.canonical_key", None),
    (scattering, "verify_loop_consistency", "scattering.verify_loop_consistency", _count_loops),
    (scattering, "path_ordered_product", "scattering.path_ordered_product", _count_crossings),
    (scattering, "complete_rank2", "scattering.complete_rank2", _count_walls),
    (scattering, "verify_rank2_consistency", "scattering.verify_rank2_consistency", None),
    (scattering, "diagram_to_json", "scattering.diagram_to_json", None),
    (liegroup.PbwAlgebra, "dilog", "liegroup.dilog", None),
    (liegroup.PbwAlgebra, "exp", "liegroup.exp", None),
    (liegroup.GroupElement, "__mul__", "liegroup.mul", _count_terms),
    (liegroup.GroupElement, "is_identity", "liegroup.is_identity", None),
    (liegroup.GroupElement, "project", "liegroup.project", None),
    (liegroup.GroupElement, "log_terms", "liegroup.log_terms", None),
)

LAYERS = ("exchange", "liegroup", "scattering")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] += k

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result, args)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def raw(self) -> dict:
        """Additive totals: per-name time and calls, per-layer self time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, list] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        in_enumerate = 0
        for i, (name, parent, start, end) in enumerate(spans):
            entry = names.setdefault(name, [0.0, 0])
            entry[0] += end - start
            entry[1] += 1
            self_s[name.split(".", 1)[0]] += end - start - child_time[i]
            if name == MUTATE and parent >= 0 and spans[parent][0] == ENUMERATE:
                in_enumerate += 1
        counters = dict(self.counters)
        counters["exchange.mutate_seed.in_enumerate"] = in_enumerate
        return {"names": names, "self_s": self_s, "counters": counters}


def merge_raw(parts) -> dict:
    out = {"names": {}, "self_s": dict.fromkeys(LAYERS, 0.0), "counters": Counter()}
    for part in parts:
        for name, (seconds, calls) in part["names"].items():
            entry = out["names"].setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
        for layer, seconds in part["self_s"].items():
            out["self_s"][layer] += seconds
        out["counters"].update(part["counters"])
    return out


# per-layer metric name -> (span name, field) for span-derived values
SPAN_METRICS = {
    "exchange.enumerate_graph.s": (ENUMERATE, 0),
    "exchange.mutate_seed.s": (MUTATE, 0),
    "exchange.mutate_seed.calls": (MUTATE, 1),
    "exchange.canonical_key.s": ("exchange.canonical_key", 0),
    "exchange.canonical_key.calls": ("exchange.canonical_key", 1),
    "exchange.certify_acyclic.s": ("exchange.certify_acyclic", 0),
    "exchange.graph_to_json.s": ("exchange.graph_to_json", 0),
    "exchange.graph_from_json.s": ("exchange.graph_from_json", 0),
    "liegroup.dilog.s": ("liegroup.dilog", 0),
    "liegroup.dilog.calls": ("liegroup.dilog", 1),
    "liegroup.mul.s": ("liegroup.mul", 0),
    "liegroup.mul.calls": ("liegroup.mul", 1),
    "liegroup.is_identity.s": ("liegroup.is_identity", 0),
    "liegroup.project.s": ("liegroup.project", 0),
    "liegroup.project.calls": ("liegroup.project", 1),
    "liegroup.exp.s": ("liegroup.exp", 0),
    "liegroup.exp.calls": ("liegroup.exp", 1),
    "liegroup.log_terms.s": ("liegroup.log_terms", 0),
    "liegroup.log_terms.calls": ("liegroup.log_terms", 1),
    "scattering.verify_loop_consistency.s": ("scattering.verify_loop_consistency", 0),
    "scattering.path_ordered_product.s": ("scattering.path_ordered_product", 0),
    "scattering.path_ordered_product.calls": ("scattering.path_ordered_product", 1),
    "scattering.complete_rank2.s": ("scattering.complete_rank2", 0),
    "scattering.verify_rank2_consistency.s": ("scattering.verify_rank2_consistency", 0),
    "scattering.diagram_to_json.s": ("scattering.diagram_to_json", 0),
}

COUNTER_METRICS = (
    "exchange.vertices",
    "exchange.edges",
    "exchange.graph_json.bytes",
    "liegroup.terms",
    "scattering.loops",
    "scattering.crossings",
    "scattering.walls",
    "scattering.diagram_json.bytes",
)


def layer_metrics(raw: dict, scale: float) -> dict:
    """Per-layer metric values of one traced pass from its raw totals.

    Span times are multiplied by ``scale``, which takes them to the
    reference speed of ``calibration.py``; counts are left as they are.
    """
    names, counters = raw["names"], raw["counters"]
    out = {}
    for metric, (name, field) in SPAN_METRICS.items():
        value = names.get(name, (0.0, 0))[field]
        out[metric] = value * scale if field == 0 else value
    for metric in COUNTER_METRICS:
        out[metric] = counters.get(metric, 0)
    for layer in LAYERS:
        out[layer + ".self_s"] = raw["self_s"][layer] * scale
    calls = counters.get("exchange.mutate_seed.in_enumerate", 0)
    out["exchange.new_vertex_ratio"] = (
        counters.get("exchange.new_vertices", 0) / calls if calls else 0.0
    )
    return out
