"""Spans and counters recorded around calls into statmanifold, from the
benchmark's own code.

``instrumented(tracer)`` rebinds the public callables of each layer to thin
wrappers for the duration of a ``with`` block and restores them afterwards;
nothing in the program changes.  A span records name, start, end, parent and
operation id.  Spans stay in memory and are written out when the run ends.

Every ``*_s`` layer metric is a self time: the span's duration minus the part
of it that child spans cover, so no part of an operation counts under two
layers.  Layer metrics are summed over the operations of one pass and
reported as the median over passes.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# layer metric -> span name whose summed self time (``_s``) or number (``_calls``) it reports
SPAN_TIMES = {
    "manifold.compile_s": "manifold.compile",
    "expr.eval_jet_s": "expr.eval_jet",
    "expr.fd_jet_s": "expr.fd_jet",
    "jets.jet_einsum_s": "jets.jet_einsum",
    "numpy.einsum3_s": "numpy.einsum3",
    "geometry.frame_s": "geometry.frame",
    "statistical.frame_s": "statistical.frame",
    "statistical.laplacian_cubic_s": "statistical.laplacian_cubic",
    "maps.report_s": "maps.report",
    "pipeline.battery_s": "pipeline.run_diagnostics",
    "pipeline.serialize_s": "pipeline.serialize",
    "pipeline.crosscheck_self_s": "pipeline.crosscheck",
}
SPAN_CALLS = {
    "manifold.compile_calls": "manifold.compile",
    "expr.eval_jet_calls": "expr.eval_jet",
    "jets.jet_einsum_calls": "jets.jet_einsum",
    "numpy.einsum3_calls": "numpy.einsum3",
}
# counters recorded directly (no span: too many calls, or a count not a time)
COUNTERS = ("jets.mul_calls", "jets.product_pairs", "geometry.nabla_calls")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in Tracer.spans, -1 for a root
    op: int  # operation id, -1 outside any operation


class Tracer:
    """In-memory spans and per-operation counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (op id, counter name) -> count
        self.op_pass: list[int] = []  # op id -> index of its pass
        self.pass_index = -1
        self._stack: list[int] = []
        self._op = -1
        self._distinct: dict = {}

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = self.clock()
        self._stack.pop()

    def count(self, name, n=1):
        self.counts[(self._op, name)] += n

    def distinct(self, name, key, keepalive):
        """Count ``key`` once per operation; holds ``keepalive`` until the
        operation ends so that an id-based key cannot be reused meanwhile."""
        self._distinct.setdefault(name, {})[key] = keepalive

    def next_pass(self):
        self.pass_index += 1

    @contextmanager
    def operation(self, kind):
        self._op = len(self.op_pass)
        self.op_pass.append(self.pass_index)
        index = self.open(f"op.{kind}")
        try:
            yield
        finally:
            self.close(index)
            for name, seen in self._distinct.items():
                self.counts[(self._op, name)] = len(seen)
            self._distinct = {}
            self._op = -1

    def write_jsonl(self, path):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps([span.name, span.start, span.end, span.parent, span.op]) + "\n")


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for start, end in sorted(children[index]):
            lo, hi = max(start, cursor), min(end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(tracer):
    """Per-layer metrics: per-pass sums over operations, median over passes."""
    passes = sorted(set(tracer.op_pass))
    per_pass = {p: Counter() for p in passes}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span.op < 0:
            continue
        bucket = per_pass[tracer.op_pass[span.op]]
        bucket[("time", span.name)] += own
        bucket[("calls", span.name)] += 1
    for (op, name), n in tracer.counts.items():
        if op >= 0:
            per_pass[tracer.op_pass[op]][("count", name)] += n

    def median_of(key, low=False):
        values = [per_pass[p][key] for p in passes]
        return statistics.median_low(values) if low else statistics.median(values)

    metrics = {}
    for metric, span in SPAN_TIMES.items():
        metrics[metric] = (median_of(("time", span)), "s")
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = (median_of(("calls", span), low=True), "count")
    for name in COUNTERS:
        metrics[name] = (median_of(("count", name), low=True), "count")
    shares = [
        per_pass[p][("count", "geometry.nabla_unique")] / per_pass[p][("count", "geometry.nabla_calls")]
        for p in passes
        if per_pass[p][("count", "geometry.nabla_calls")]
    ]
    metrics["geometry.nabla_unique_share"] = (statistics.median_low(shares) if shares else 0.0, "share")
    return metrics


# -- instrumentation ---------------------------------------------------------------


def _program_modules():
    return [
        mod
        for name, mod in sys.modules.items()
        if name == "statmanifold" or name.startswith("statmanifold.")
    ]


@contextmanager
def instrumented(tracer):
    """Wrap each layer's public callables with spans and counters; restore on exit."""
    import numpy as np
    from statmanifold import expr, jets, pipeline
    from statmanifold.geometry import GeometryFrame
    from statmanifold.jets import Jet
    from statmanifold.manifold import ManifoldSpec
    from statmanifold.maps import IdentityMapReport
    from statmanifold.pipeline import DiagnosticsReport
    from statmanifold.statistical import StatisticalFrame

    patches = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def spanned(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    def patch_function(fn, name):
        """Rebind ``fn`` in every program module that imported it by name."""
        wrapper = spanned(name, fn)
        for mod in _program_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    patch(mod, attr, wrapper)

    patch_function(expr.eval_jet, "expr.eval_jet")
    patch_function(expr.fd_jet, "expr.fd_jet")
    patch_function(jets.jet_einsum, "jets.jet_einsum")
    patch_function(pipeline.run_diagnostics, "pipeline.run_diagnostics")
    patch_function(pipeline.crosscheck, "pipeline.crosscheck")
    for owner, attr, name in (
        (ManifoldSpec, "compile", "manifold.compile"),
        (GeometryFrame, "__init__", "geometry.frame"),
        (StatisticalFrame, "__init__", "statistical.frame"),
        (StatisticalFrame, "laplacian_cubic_terms", "statistical.laplacian_cubic"),
        (IdentityMapReport, "__init__", "maps.report"),
        (DiagnosticsReport, "to_json", "pipeline.serialize"),
    ):
        patch(owner, attr, spanned(name, vars(owner)[attr]))

    einsum = np.einsum

    @functools.wraps(einsum)
    def einsum3(*operands, **kwargs):
        # only calls made by the program with three or more array operands
        if (
            len(operands) >= 4
            and isinstance(operands[0], str)
            and sys._getframe(1).f_globals.get("__name__", "").startswith("statmanifold")
        ):
            index = tracer.open("numpy.einsum3")
            try:
                return einsum(*operands, **kwargs)
            finally:
                tracer.close(index)
        return einsum(*operands, **kwargs)

    patch(np, "einsum", einsum3)

    table_rows = {}
    mul = vars(Jet)["__mul__"]

    def counted_mul(self, other):
        result = mul(self, other)
        tracer.count("jets.mul_calls")
        if isinstance(other, Jet):
            key = (self.dim, min(self.order, other.order))
            if key not in table_rows:
                table_rows[key] = len(jets.jet_space(*key).product_table()[0])
            batch = math.prod(np.broadcast_shapes(self.coeff.shape[:-1], other.coeff.shape[:-1]))
            tracer.count("jets.product_pairs", batch * table_rows[key])
        return result

    patch(Jet, "__mul__", counted_mul)
    patch(Jet, "__rmul__", counted_mul)

    nabla = vars(GeometryFrame)["nabla"]

    def counted_nabla(self, field, variance):
        tracer.count("geometry.nabla_calls")
        tracer.distinct("geometry.nabla_unique", (id(field), tuple(variance)), field)
        return nabla(self, field, variance)

    patch(GeometryFrame, "nabla", counted_nabla)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
