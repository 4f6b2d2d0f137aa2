"""Probes the benchmark wraps around each call into the library.

A query calls every layer through ``probe.call(name, fn, *args)``, where
``name`` is ``<module>.<operation>`` (``graph_io.parse``,
``solver_unit.solve`` ...).  Three probes share that interface:

- ``Direct`` calls straight through; the untraced passes, which give
  the end-to-end metrics, use it.
- ``Tracer`` records one span per call (name, start, end, parent span,
  query id) in memory and attributes every garbage-collector pause to the
  span open when it happens.
- ``MemoryProbe`` takes the ``tracemalloc`` peak of each call, in a pass
  of its own so that its overhead touches no timing.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass

QUERY = "query"


class Direct:
    """Calls through without recording anything."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Span:
    id: int
    name: str
    query: int
    parent: int | None
    start: float
    end: float = 0.0
    gc_pause_s: float = 0.0
    gen2_collections: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; use as a context manager to hook the collector."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query_id = 0
        self._open: list[Span] = []
        self._gc_started: float | None = None

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        if self._gc_started is None or not self._open:
            return
        span = self._open[-1]
        span.gc_pause_s += time.perf_counter() - self._gc_started
        if info.get("generation") == 2:
            span.gen2_collections += 1
        self._gc_started = None

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, self.query_id, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def run_query(self, query_id: int, fn, *args):
        """Run one whole query under a root span named ``query``."""
        self.query_id = query_id
        span = self._begin(QUERY)
        try:
            return fn(self, *args)
        finally:
            self._finish(span)

    def call(self, name, fn, *args, **kwargs):
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish(span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (calls are sequential), so the
    part of a span's interval that its children cover is their summed
    duration.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    gc_pause_s: float = 0.0
    gen2_collections: int = 0


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Self time, GC pause and gen-2 collections summed per span name."""
    own = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    for s in spans:
        t = totals.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.self_s += own[s.id]
        t.gc_pause_s += s.gc_pause_s
        t.gen2_collections += s.gen2_collections
    return totals


class MemoryProbe:
    """Largest ``tracemalloc`` peak above the starting level, per layer.

    The caller starts ``tracemalloc`` around the pass; each call resets
    the peak, so the figure is what that call itself had live at its
    highest point, on top of what was already allocated.
    """

    def __init__(self) -> None:
        self.peak_bytes: dict[str, int] = {}

    def call(self, name, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - before
            if peak > self.peak_bytes.get(name, 0):
                self.peak_bytes[name] = peak
