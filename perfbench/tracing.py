"""Spans around pnkr's layer boundaries, and the statistics the benchmark reports.

A :class:`Tracer` replaces a function name in the namespace of the module
that calls it (``pnkr.solver.pnkr_equation_update`` as seen by
``pnkr.solver``, ``pnkr.cli.run`` as seen by ``pnkr.cli``) with a wrapper
that records one span per call: name, start, end and the span that was
open when it started.  Spans stay in memory until the run ends.  The
package itself is never edited; :meth:`Tracer.restore` puts every
original name back.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Phase spans (``setup``, ``solve``, ``maps``) are
the roots; a phase repeated within a run contributes the median of its
repetitions to a per-round-trip total.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass

__all__ = [
    "Span",
    "Tracer",
    "covered_length",
    "self_times",
    "median",
    "quartiles",
    "spread",
    "round_trip_totals",
    "layer_stats",
]


@dataclass(frozen=True)
class Span:
    """One call across a layer boundary; ``parent`` is an index into the span list or -1."""

    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped functions and for explicit phases."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.events: list[tuple[int, str, float]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Records one span around the block; yields its index in :attr:`spans`."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index] = Span(name, start, self.clock(), parent)

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` with a span per call.

        ``on_call(args, kwargs, result)`` may return ``{count name: amount}``;
        the amounts are recorded against the call's span.
        """

        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if on_call is not None:
                self.events.extend((index, key, amount) for key, amount in on_call(args, kwargs, result).items())
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module_name: str, attr: str, name: str, on_call=None) -> None:
        """Replace ``module.attr`` by its traced wrapper until :meth:`restore`."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, on_call))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)


# -- self time ----------------------------------------------------------------


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered_length(span.start, span.end, children.get(i, ()))
        for i, span in enumerate(spans)
    ]


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


# -- per-layer aggregation ----------------------------------------------------


def _roots(spans: list[Span]) -> list[int]:
    """Root index of every span."""
    roots = []
    for i, span in enumerate(spans):
        roots.append(i if span.parent < 0 else roots[span.parent])
    return roots


def round_trip_totals(spans: list[Span], items) -> dict[str, float]:
    """Per-round-trip total of every named value in ``items``.

    ``items`` holds ``(span index, name, value)`` triples.  They are
    grouped by the root phase span of their span.  Per phase name the
    totals of its repetitions are reduced to their median, then the
    phase medians are summed, so a round trip that repeats its set-up
    five times reports one set-up's worth.
    """
    roots = _roots(spans)
    per_root: dict[int, dict[str, float]] = {i: {} for i, s in enumerate(spans) if s.parent < 0}
    for index, name, value in items:
        bucket = per_root[roots[index]]
        bucket[name] = bucket.get(name, 0.0) + value
    by_phase: dict[str, list[dict[str, float]]] = {}
    for root, bucket in per_root.items():
        by_phase.setdefault(spans[root].name, []).append(bucket)
    totals: dict[str, float] = {}
    for buckets in by_phase.values():
        for name in {name for bucket in buckets for name in bucket}:
            totals[name] = totals.get(name, 0.0) + median([b.get(name, 0.0) for b in buckets])
    return totals


@dataclass(frozen=True)
class LayerStats:
    """Per-round-trip seconds, self seconds, calls and counts by name, plus all-call totals."""

    seconds: dict
    self_seconds: dict
    calls: dict
    counts: dict
    all_seconds: dict
    all_calls: dict

    def per_call_ms(self, name: str) -> float:
        """Mean milliseconds per call over every call made; 0 when never called."""
        calls = self.all_calls.get(name, 0)
        return 1e3 * self.all_seconds[name] / calls if calls else 0.0


def layer_stats(spans: list[Span], events=()) -> LayerStats:
    selfs = self_times(spans)
    all_seconds: dict[str, float] = {}
    all_calls: dict[str, int] = {}
    for span in spans:
        all_seconds[span.name] = all_seconds.get(span.name, 0.0) + span.duration
        all_calls[span.name] = all_calls.get(span.name, 0) + 1
    indexed = list(enumerate(spans))
    return LayerStats(
        seconds=round_trip_totals(spans, [(i, s.name, s.duration) for i, s in indexed]),
        self_seconds=round_trip_totals(spans, [(i, s.name, own) for (i, s), own in zip(indexed, selfs)]),
        calls=round_trip_totals(spans, [(i, s.name, 1.0) for i, s in indexed]),
        counts=round_trip_totals(spans, events),
        all_seconds=all_seconds,
        all_calls=all_calls,
    )
