"""Span arithmetic and instrumentation of the benchmark's traced mode."""

import json
from pathlib import Path

import pytest

import run
import tracing
from tracing import Span, Tracer, instrumented, layer_metrics, self_times


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: [1, 5] is covered once
        Span("c", 6.0, 7.0, 0, 0),
        Span("a.leaf", 1.5, 2.5, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 1.0, 1.0, 3.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_layer_metrics_sum_over_a_pass_and_take_the_median_over_passes():
    clock = FakeClock()
    tracer = Tracer(clock)
    for pass_length in (1.0, 3.0, 2.0):
        tracer.next_pass()
        for _ in range(2):
            with tracer.operation("diagnose"):
                outer = tracer.open("pipeline.run_diagnostics")
                inner = tracer.open("geometry.frame")
                clock.now += pass_length
                tracer.close(inner)
                clock.now += 1.0
                tracer.close(outer)
                tracer.count("geometry.nabla_calls", 4)
                tracer.distinct("geometry.nabla_unique", "T", object())
                tracer.distinct("geometry.nabla_unique", "T", object())
    metrics = layer_metrics(tracer)
    assert metrics["geometry.frame_s"] == (pytest.approx(4.0), "s")  # 2 ops x median length 2
    assert metrics["pipeline.battery_s"] == (pytest.approx(2.0), "s")  # self time only
    assert metrics["geometry.nabla_calls"] == (8, "count")
    assert metrics["geometry.nabla_unique_share"] == (pytest.approx(2 / 8), "share")
    assert metrics["jets.mul_calls"] == (0, "count")


def test_instrumentation_counts_repeat_and_originals_are_restored():
    import numpy as np
    import statmanifold as sm
    from statmanifold.jets import Jet

    originals = (sm.run_diagnostics, np.einsum, Jet.__mul__, sm.GeometryFrame.nabla)
    spec = sm.get_builtin("flat-cubic").spec
    tracer = Tracer()
    with instrumented(tracer):
        for _ in range(2):
            tracer.next_pass()
            with tracer.operation("diagnose"):
                sm.run_diagnostics(spec, count=10, seed=3).to_json()
            with tracer.operation("crosscheck"):
                sm.crosscheck(spec, count=10, seed=3)
    assert (sm.run_diagnostics, np.einsum, Jet.__mul__, sm.GeometryFrame.nabla) == originals

    names = {span.name for span in tracer.spans}
    assert set(tracing.SPAN_TIMES.values()) <= names
    per_op = {}
    for (op, name), n in tracer.counts.items():
        per_op.setdefault(name, []).append(n)
    for name in tracing.COUNTERS:
        first, second = per_op[name][:2], per_op[name][2:]
        assert first == second and sum(first) > 0, name
    assert per_op["geometry.nabla_calls"][0] == 14
    assert per_op["geometry.nabla_unique"][0] == 6
    assert all(span.end >= span.start for span in tracer.spans)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer = Tracer()
    tracer.next_pass()
    with tracer.operation("diagnose"):
        pass
    layer = layer_metrics(tracer)
    reported = {name: unit for name, (_value, unit) in layer.items()}
    reported.update(run.TRACE_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
