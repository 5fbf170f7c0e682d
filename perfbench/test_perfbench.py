"""Tests of the benchmark's own arithmetic: self time, phase medians and spreads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import statistics
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import (  # noqa: E402
    Span,
    Tracer,
    covered_length,
    layer_stats,
    median,
    quartiles,
    round_trip_totals,
    self_times,
    spread,
)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == pytest.approx(4.0)
    assert covered_length(0.0, 10.0, [(1.0, 2.0), (4.0, 6.0)]) == pytest.approx(3.0)
    assert covered_length(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(6.0)
    assert covered_length(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0), (30.0, 40.0)]) == pytest.approx(2.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("phase", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),
        Span("c", 8.0, 12.0, 0),
        Span("grandchild", 2.5, 4.5, 2),
    ]
    selfs = self_times(spans)
    # children cover [1, 5] and [8, 10]; the grandchild lies inside b
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 2.0)
    assert selfs[4] == pytest.approx(2.0)


def test_tracer_records_nesting_and_patches_the_callers_name():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    callee = types.ModuleType("perfbench_fake_callee")

    def leaf(x):
        clock.now += 2.0
        return x + 1

    def outer(x):
        clock.now += 1.0
        y = callee.leaf(x)
        clock.now += 1.0
        return y

    callee.leaf = leaf
    callee.outer = outer
    sys.modules[callee.__name__] = callee
    try:
        tracer.patch(callee.__name__, "leaf", "layer.leaf", lambda args, kwargs, result: {"items": args[0]})
        tracer.patch(callee.__name__, "outer", "layer.outer")
        with tracer.span("solve"):
            assert callee.outer(3) == 4
        tracer.restore()
        assert callee.leaf is leaf and callee.outer is outer
    finally:
        del sys.modules[callee.__name__]
    spans = tracer.finished()
    assert [s.name for s in spans] == ["solve", "layer.outer", "layer.leaf"]
    assert [s.parent for s in spans] == [-1, 0, 1]
    stats = layer_stats(spans, tracer.events)
    assert stats.seconds["layer.outer"] == pytest.approx(4.0)
    assert stats.self_seconds["layer.outer"] == pytest.approx(2.0)
    assert stats.counts["items"] == 3
    assert stats.per_call_ms("layer.leaf") == pytest.approx(2000.0)
    assert stats.per_call_ms("never.called") == 0.0


def test_repeated_phase_contributes_its_median():
    spans = []
    for start, cost in ((0.0, 1.0), (10.0, 5.0), (20.0, 3.0)):
        spans.append(Span("setup", start, start + cost + 1.0, -1))
        spans.append(Span("layer", start, start + cost, len(spans) - 1))
    spans.append(Span("solve", 30.0, 50.0, -1))
    spans.append(Span("layer", 31.0, 41.0, len(spans) - 1))
    totals = round_trip_totals(spans, [(i, s.name, s.duration) for i, s in enumerate(spans)])
    assert totals["layer"] == pytest.approx(3.0 + 10.0)
    assert totals["setup"] == pytest.approx(4.0)
    assert totals["solve"] == pytest.approx(20.0)
    # a repetition without the layer counts as zero in the median
    spans.append(Span("setup", 60.0, 61.0, -1))
    spans.append(Span("setup", 62.0, 63.0, -1))
    totals = round_trip_totals(spans, [(i, s.name, s.duration) for i, s in enumerate(spans)])
    assert totals["layer"] == pytest.approx(1.0 + 10.0)


def test_statistics_match_the_standard_library():
    values = [3.1, 0.4, 2.2, 9.0, 4.4, 1.5, 6.0, 2.9, 5.5, 3.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert median(values) == statistics.median(values)
    assert quartiles(values) == (q1, q3)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartiles([2.0]) == (2.0, 2.0)
    assert spread([2.0, 2.0, 2.0]) == 0.0
