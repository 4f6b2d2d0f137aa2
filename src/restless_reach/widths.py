"""Activity intervals and interval-membership width parameters.

A node (or underlying arc) is active over every time between the first
appearance and the last arrival of its incident timed arcs.  The widths
are the maximum number of simultaneously active nodes/arcs; they are
computed by an endpoint-event sweep, so interval inputs never need to be
expanded even when their appearance windows are astronomically long.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .model import IntervalTemporalGraph, NodeId, PointTemporalGraph, _node_windows


@dataclass
class ActivityBounds:
    """Per-node and per-underlying-arc activity windows [tau_min, tau_max].

    Isolated nodes have no window and are absent from all widths.
    """

    node_min: dict[NodeId, int] = field(default_factory=dict)
    node_max: dict[NodeId, int] = field(default_factory=dict)
    arc_min: dict[tuple[NodeId, NodeId], int] = field(default_factory=dict)
    arc_max: dict[tuple[NodeId, NodeId], int] = field(default_factory=dict)

    def node_interval(self, u: NodeId) -> tuple[int, int] | None:
        if u not in self.node_min:
            return None
        return self.node_min[u], self.node_max[u]


def _bounds(windows, us, vs, starts, arrivals) -> ActivityBounds:
    """Activity bounds from the ``_node_windows`` of some arc columns plus
    the min start and max arrival per underlying arc."""
    b = ActivityBounds()
    node_min, node_max = windows
    for node, lo in enumerate(node_min):
        if lo is not None:
            b.node_min[node] = lo
            b.node_max[node] = node_max[node]
    arc_min, arc_max = b.arc_min, b.arc_max
    for key, start, arrival in zip(zip(us, vs), starts, arrivals):
        if key not in arc_min:
            arc_min[key] = start
            arc_max[key] = arrival
        else:
            if start < arc_min[key]:
                arc_min[key] = start
            if arrival > arc_max[key]:
                arc_max[key] = arrival
    return b


def _interval_columns(g: IntervalTemporalGraph):
    """``(u, v, start, arrival)`` columns of an interval graph's windows:
    window start and window end plus delay."""
    arcs = g.arcs
    return ([a.u for a in arcs], [a.v for a in arcs], [a.tau_start for a in arcs],
            [a.tau_end + a.delta for a in arcs])


def activity_bounds(g: PointTemporalGraph) -> ActivityBounds:
    """Min appearance and max arrival per node and per underlying arc.
    Raises ``NodeRangeError`` for an arc outside ``[0, n)``."""
    return _bounds(g.node_windows, g.u, g.v, g.tau, map(add, g.tau, g.delta))


def interval_activity_bounds(g: IntervalTemporalGraph) -> ActivityBounds:
    """Activity windows for interval graphs: min window start, max window
    end plus delay, without expanding any interval."""
    columns = _interval_columns(g)
    return _bounds(_node_windows(g.n, *columns), *columns)


def active_nodes_at(bounds: ActivityBounds, tau: int) -> set[NodeId]:
    """Nodes whose activity window contains ``tau`` (closed interval)."""
    return {
        u
        for u, lo in bounds.node_min.items()
        if lo <= tau <= bounds.node_max[u]
    }


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
    """Maximum number of simultaneously active underlying arcs.  Raises
    ``NodeRangeError`` for an arc outside ``[0, n)``."""
    b = activity_bounds(g)
    return _max_overlap(
        (b.arc_min[a], b.arc_max[a]) for a in b.arc_min
    )


def interval_vertex_im_width(g: IntervalTemporalGraph) -> int:
    """Maximum number of simultaneously active nodes of an interval graph."""
    return _window_overlap(_node_windows(g.n, *_interval_columns(g)))
