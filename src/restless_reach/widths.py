"""Interval-membership width parameters.

A node (or underlying arc) is active over every time between the first
appearance and the last arrival of its incident timed arcs; a point
graph's node windows are its ``node_windows``.  The widths are the
maximum number of simultaneously active nodes/arcs; they are computed by
an endpoint-event sweep, so interval inputs never need to be expanded
even when their appearance windows are astronomically long.  Isolated
nodes have no window and are absent from all widths.
"""

from __future__ import annotations

from operator import add

from .model import IntervalTemporalGraph, PointTemporalGraph, _node_windows


def _max_overlap(intervals) -> int:
    """Maximum number of closed integer intervals covering a common point.

    Sweep over +1 events at each start and -1 events at each end + 1, so a
    window opening exactly where another closes counts both at that instant.
    """
    events: dict[int, int] = {}
    for lo, hi in intervals:
        events[lo] = events.get(lo, 0) + 1
        events[hi + 1] = events.get(hi + 1, 0) - 1
    best = 0
    running = 0
    for t in sorted(events):
        running += events[t]
        if running > best:
            best = running
    return best


def _window_overlap(windows) -> int:
    node_min, node_max = windows
    return _max_overlap((lo, hi) for lo, hi in zip(node_min, node_max) if lo is not None)


def vertex_im_width(g: PointTemporalGraph) -> int:
    """Maximum number of simultaneously active nodes; 0 for arc-less
    graphs.  Raises ``NodeRangeError`` for an arc outside ``[0, n)``."""
    return _window_overlap(g.node_windows)


def arc_im_width(g: PointTemporalGraph) -> int:
    """Maximum number of simultaneously active underlying arcs: each
    ``(u, v)`` pair is active from the first departure to the last
    arrival of its parallel timed arcs.  Raises ``NodeRangeError`` for an
    arc outside ``[0, n)``."""
    g.node_windows  # cached once per graph; raises NodeRangeError for a bad arc
    lo: dict[tuple[int, int], int] = {}
    hi: dict[tuple[int, int], int] = {}
    for key, start, arrival in zip(zip(g.u, g.v), g.tau, map(add, g.tau, g.delta)):
        lo[key] = min(lo.get(key, start), start)
        hi[key] = max(hi.get(key, arrival), arrival)
    return _max_overlap(zip(lo.values(), hi.values()))


def interval_vertex_im_width(g: IntervalTemporalGraph) -> int:
    """Maximum number of simultaneously active nodes of an interval graph:
    a node's window runs from its arcs' least window start to their
    greatest window end plus delay."""
    arcs = g.arcs
    return _window_overlap(_node_windows(
        g.n, [a.u for a in arcs], [a.v for a in arcs], [a.tau_start for a in arcs],
        [a.tau_end + a.delta for a in arcs]))
