"""Spans and work counters recorded from outside the program.

``Tracer.install`` replaces every traced function of ``syzstab`` by a wrapper
on each module attribute through which it is called.  Modules bind callees
with ``from ... import``, so a wrapper on the defining module alone would miss
calls such as ``sections.integer_rank`` or ``search.verdict``; the tracer
therefore wraps every binding, in the defining module and in each importer.

Each wrapper records one span (layer, function, start, end, parent span, op
id) and bumps counters taken from the call's arguments and return value.  A
layer's self time is the summed duration of its spans minus the part covered
by their child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from typing import Callable, Sequence

# Module -> layer name used in metric names (a name may not start with "_").
LAYERS = {
    "syzstab.cli": "cli",
    "syzstab.core": "core",
    "syzstab.monomial_stability": "monomial_stability",
    "syzstab.sections": "sections",
    "syzstab._matrix": "matrix",
    "syzstab.generic_line": "generic_line",
    "syzstab.search": "search",
    "syzstab.numeric_bounds": "numeric_bounds",
}

# Private functions traced as well: the meet-closure engine, which the search
# prune calls once per node.  Other private helpers (``_vmeet``, ``_divides``)
# run in inner loops, where a span would cost more than the work it times.
PRIVATE_TRACED = {"_meet_closure"}

ENGINE_FUNCTIONS = {"verdict", "slope_summary", "max_slope", "oracle_verdict"}


def _count(counts: Counter, site: str, name: str, args, result) -> None:
    """Work counters of one call; ``site`` is the module the caller looked in."""
    if name in ENGINE_FUNCTIONS:
        counts["engine_calls"] += 1
        counts["members"] += len(args[0])
        counts["leaf_verdicts"] += site == "syzstab.search"
    elif name == "_meet_closure":
        counts["closure_elements"] += len(result)
    elif name == "evaluation_matrix":
        counts["matrix_entries"] += len(result) * (len(result[0]) if result else 0)
    elif name == "syzygy_section_dim":
        counts["twists_scanned"] += 1
        counts["twists_with_section"] += result > 0
    elif name == "integer_rank":
        rows = args[0]
        counts["rank_calls"] += 1
        counts["rank_input_entries"] += len(rows) * (len(rows[0]) if rows else 0)
        counts["pivots"] += result
        bits = max((max(max(r), -min(r)).bit_length() for r in rows if r), default=0)
        counts["max_entry_bits"] = max(counts["max_entry_bits"], bits)
    elif name == "line_independence_test":
        counts["line_tests"] += 1
        counts["trials"] += result.trials_used
        counts["certified_yes"] += result.status == "CertifiedYes"
    elif name == "find_semistable_family":
        counts["searches"] += 1
        counts["nodes"] += result.nodes
        counts["searches_found"] += result.status == "Found"


class Tracer:
    """In-memory span log plus counters for one traced pass."""

    def __init__(self):
        self.spans: list = []  # (layer, name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def _wrap(self, layer: str, site: str, name: str, fn: Callable) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, start, end, parent, tracer.op)
            _count(counts, site, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, layer: str, name: str, start: float, end: float) -> None:
        """A span timed by the caller, child of the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((layer, name, start, end, parent, self.op))

    def install(self) -> Callable[[], None]:
        """Wrap every traced binding; returns the function that restores them."""
        modules = {name: sys.modules[name] for name in LAYERS}
        saved = []
        for site, module in modules.items():
            for name, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in LAYERS:
                    continue
                if name.startswith("_") and name not in PRIVATE_TRACED:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # a span would close before the generator runs
                saved.append((module, name, obj))
                setattr(module, name, self._wrap(LAYERS[obj.__module__], site, name, obj))

        def restore():
            for module, name, obj in saved:
                setattr(module, name, obj)

        return restore

    def layer_times(self, scales: Sequence[float]) -> dict[str, list]:
        """Per layer: [calls, self seconds], each span scaled by ``scales[op]``."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: [0, 0.0] for layer in LAYERS.values()}
        for (layer, name, start, end, parent, op), covered in zip(self.spans, child):
            out.setdefault(layer, [0, 0.0])
            out[layer][0] += 1
            out[layer][1] += (end - start - covered) * scales[op]
        return out


def per_layer_metrics(
    tracer: Tracer, scales: Sequence[float], rounds: int, ops: int,
    traced_round_s: float, plain_round_s: float, monomial_shares: tuple[float, float],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass, per round of the request list.

    Counts over whole rounds divide exactly by the round count, so they repeat
    exactly for a seed.  ``scales[op]`` normalizes the times of request ``op``.
    ``plain_round_s`` is the untraced time of one round, the base of the
    tracing overhead; ``monomial_shares`` are the shares of requests and of
    untraced request time with monomial input.
    """
    c = tracer.counts

    def per_round(key):
        return c[key] / rounds

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    layers = tracer.layer_times(scales)
    for layer in LAYERS.values():
        calls, self_s = layers[layer]
        metrics[f"{layer}.calls"] = (calls / rounds, "count")
        metrics[f"{layer}.self_s"] = (self_s / rounds, "s")

    metrics.update({
        "monomial_stability.engine_calls_per_op": (c["engine_calls"] / ops, "calls/op"),
        "monomial_stability.members": (per_round("members"), "count"),
        "monomial_stability.closure_elements": (per_round("closure_elements"), "count"),
        "sections.matrix_entries": (per_round("matrix_entries"), "count"),
        "sections.twists_scanned": (per_round("twists_scanned"), "count"),
        "sections.hit_ratio": (ratio("twists_with_section", "twists_scanned"), "fraction"),
        "sections.monomial_request_share": (monomial_shares[0], "fraction"),
        "sections.monomial_time_share": (monomial_shares[1], "fraction"),
        "matrix.rank_calls": (per_round("rank_calls"), "count"),
        "matrix.input_entries": (per_round("rank_input_entries"), "count"),
        "matrix.pivots": (per_round("pivots"), "count"),
        "matrix.max_entry_bits": (float(c["max_entry_bits"]), "bits"),
        "generic_line.trials": (per_round("trials"), "count"),
        "generic_line.certified_ratio": (ratio("certified_yes", "line_tests"), "fraction"),
        "search.nodes": (per_round("nodes"), "count"),
        "search.leaf_verdicts": (per_round("leaf_verdicts"), "count"),
        "search.leaf_accept_ratio": (ratio("searches_found", "leaf_verdicts"), "fraction"),
        "search.self_ms_per_node": (
            1000 * layers["search"][1] / c["nodes"] if c["nodes"] else 0.0, "ms"),
        "trace.overhead_ratio": (plain_round_s / traced_round_s, "fraction"),
    })
    return metrics
