"""Activity intervals and interval-membership width parameters.

A node (or underlying arc) is active over every time between the first
appearance and the last arrival of its incident timed arcs.  The widths
are the maximum number of simultaneously active nodes/arcs; they are
computed by an endpoint-event sweep, so interval inputs never need to be
expanded even when their appearance windows are astronomically long.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import IntervalTemporalGraph, NodeId, PointTemporalGraph


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


def _bounds(windows) -> ActivityBounds:
    """Min start and max arrival per node (over in- and out-arcs) and per
    underlying arc, from ``(u, v, start, arrival)`` arc windows."""
    b = ActivityBounds()
    node_min, node_max, arc_min, arc_max = b.node_min, b.node_max, b.arc_min, b.arc_max
    for u, v, start, arrival in windows:
        for node in (u, v):
            if node not in node_min:
                node_min[node] = start
                node_max[node] = arrival
            else:
                if start < node_min[node]:
                    node_min[node] = start
                if arrival > node_max[node]:
                    node_max[node] = arrival
        key = (u, v)
        if key not in arc_min:
            arc_min[key] = start
            arc_max[key] = arrival
        else:
            if start < arc_min[key]:
                arc_min[key] = start
            if arrival > arc_max[key]:
                arc_max[key] = arrival
    return b


def activity_bounds(g: PointTemporalGraph) -> ActivityBounds:
    """One pass over the arcs, taking min appearance and max arrival per
    node and per underlying arc."""
    return _bounds((a.u, a.v, a.tau, a.tau + a.delta) for a in g.arcs)


def interval_activity_bounds(g: IntervalTemporalGraph) -> ActivityBounds:
    """Activity windows for interval graphs: min window start, max window
    end plus delay, without expanding any interval."""
    return _bounds((a.u, a.v, a.tau_start, a.tau_end + a.delta) for a in g.arcs)


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


def vertex_im_width(g: PointTemporalGraph) -> int:
    """Maximum number of simultaneously active nodes; 0 for arc-less graphs."""
    b = activity_bounds(g)
    return _max_overlap(
        (b.node_min[u], b.node_max[u]) for u in b.node_min
    )


def arc_im_width(g: PointTemporalGraph) -> int:
    """Maximum number of simultaneously active underlying arcs."""
    b = activity_bounds(g)
    return _max_overlap(
        (b.arc_min[a], b.arc_max[a]) for a in b.arc_min
    )


def interval_vertex_im_width(g: IntervalTemporalGraph) -> int:
    """Maximum number of simultaneously active nodes of an interval graph."""
    b = interval_activity_bounds(g)
    return _max_overlap(
        (b.node_min[u], b.node_max[u]) for u in b.node_min
    )
