"""Restless reachability for point temporal graphs with uniform delay one.

The solver scans timed arcs in order of appearance time, maintaining per
node the traces (active-node projections of the vertex sets) of all
restless paths from the source, each with the latest arrival time among
paths sharing that trace.  A per-time clean-up restricts traces to the
currently active nodes and deduplicates, which bounds the table size by
2^k where k is the vertex interval-membership width.

Entries are ``(trace, arrival, anchor)`` triples.  The trace is a sorted
node-id tuple.  The anchor is the trace the entry carried when it was
first written; clean-ups shrink the live trace but never the anchor, and
path-retrieval records are keyed by anchors so that reconstruction walks
exact-match parent links back to the source.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .model import (
    ModelMismatchError,
    NodeId,
    NodeRangeError,
    PointTemporalGraph,
    TemporalGraphError,
    TemporalPath,
    check_restless_path,
    sorted_insert,
)
from .widths import ActivityBounds, activity_bounds


class UnreachableNodeError(TemporalGraphError):
    """Path retrieval was requested for a node the solve did not reach."""


class PathRecordsError(TemporalGraphError):
    """Path retrieval needs a solve run with ``record_paths=True``."""


@dataclass
class SolveStats:
    peak_entries: int = 0
    extensions: int = 0
    time_inserts: int = 0
    merge_copies: int = 0


@dataclass
class ReachResult:
    """Reachability flags plus optional retrieval records.

    ``arr`` maps a node to the most recently written (arrival, anchor
    trace) pair; ``parent`` maps (node, arrival, anchor) to (predecessor,
    predecessor arrival, predecessor anchor, extending arc).  ``tables``
    optionally holds, per processed appearance time, a snapshot of every
    node's (trace, arrival) list for invariant testing.
    """

    source: NodeId
    reachable: list[bool]
    arr: dict[NodeId, tuple[int, tuple[int, ...]]] | None = None
    parent: dict | None = None
    stats: SolveStats = field(default_factory=SolveStats)
    tables: list[tuple[int, dict[NodeId, list[tuple[tuple[int, ...], int]]]]] | None = None
    parent_lookups: int = 0

    def reachable_set(self) -> set[NodeId]:
        return {v for v, flag in enumerate(self.reachable) if flag}


def _group_by_time(arcs):
    groups = []
    current_tau = None
    for a in arcs:
        if current_tau is None or a.tau != current_tau:
            if current_tau is not None and a.tau < current_tau:
                raise ValueError("arcs not sorted by appearance time")
            current_tau = a.tau
            groups.append((a.tau, []))
        groups[-1][1].append(a)
    return groups


def _node_max_list(g: PointTemporalGraph) -> list[int]:
    """Last activity time per node (-1 for isolated nodes): the maximum
    arrival over all incident arcs, at either endpoint.  Raises
    ``NodeRangeError`` for an arc whose endpoint lies outside ``[0, n)``."""
    n = g.n
    out = [-1] * n
    for a in g.arcs:
        u, v = a.u, a.v
        if not (0 <= u < n and 0 <= v < n):
            raise NodeRangeError(f"arc {a} has a node id out of range for n={n}")
        arrival = a.tau + a.delta
        if arrival > out[u]:
            out[u] = arrival
        if arrival > out[v]:
            out[v] = arrival
    return out


def cleanup(entries, tau, bounds, *, prune: bool = False, delta_max: int = 0):
    """Normalize one node's entry list at time ``tau``.

    Drops inactive nodes from every trace, keeps exactly one entry per
    distinct trace (the one with maximal arrival), and returns the entries
    sorted lexicographically by trace.  With ``prune``, entries whose
    arrival lies more than ``delta_max`` before ``tau`` are discarded
    outright since nothing can extend them anymore.
    """
    if isinstance(bounds, ActivityBounds):
        node_max = bounds.node_max
        lookup = lambda w: node_max.get(w, -1)
    else:
        lookup = bounds.__getitem__
    best: dict[tuple[int, ...], tuple[int, tuple | None]] = {}
    for entry in entries:
        if len(entry) == 2:
            trace, sigma = entry
            anchor = None
        else:
            trace, sigma, anchor = entry
        if prune and tau - sigma > delta_max:
            continue
        shrunk = tuple(w for w in trace if lookup(w) >= tau)
        cur = best.get(shrunk)
        if cur is None or sigma > cur[0]:
            best[shrunk] = (sigma, anchor)
    return [(tr, sig, anch) for tr, (sig, anch) in sorted(best.items())]


def solve_unit(
    g: PointTemporalGraph,
    s: NodeId,
    delta_max: int,
    *,
    record_paths: bool = False,
    prune: bool = False,
    non_strict: bool = False,
    record_tables: bool = False,
    debug: bool = False,
) -> ReachResult:
    """Compute every node reachable from ``s`` by a restless temporal path
    whose intermediate waits are at most ``delta_max``.

    Requires uniform delay one, or all-zero delays with ``non_strict``.
    There arrivals equal departures, so same-instant chains are closed
    by a worklist: after one full scan of the time's arc block, only arcs
    out of nodes whose table gained a trace or a later arrival are
    re-scanned, extending only the gained entries, until no table
    changes.  The re-scan work per instant is O(block arcs + extensions).

    ``record_paths`` keeps arrival/parent records for ``retrieve_path``;
    ``prune`` drops entries too stale to ever extend; ``record_tables``
    snapshots the trace tables after each appearance time; ``debug``
    enables table-size assertions.
    """
    if not (0 <= s < g.n):
        raise ValueError(f"source {s} out of range for n={g.n}")
    if non_strict:
        if any(a.delta != 0 for a in g.arcs):
            raise ModelMismatchError(
                "non_strict mode requires all delays zero; "
                "use solve_general for positive delays"
            )
    elif any(a.delta != 1 for a in g.arcs):
        raise ModelMismatchError(
            "solve_unit requires uniform delay one; use solve_general "
            "for arbitrary positive delays"
        )

    node_max = _node_max_list(g)
    groups = _group_by_time(g.arcs)
    arrive_off = 0 if non_strict else 1

    n = g.n
    reachable = [False] * n
    reachable[s] = True
    L: list[list] = [[] for _ in range(n)]
    arr: dict | None = {} if record_paths else None
    parent: dict | None = {} if record_paths else None
    stats = SolveStats()
    tables = [] if record_tables else None
    seed = (s,)

    if debug:
        bounds = activity_bounds(g)
        mins_sorted = sorted(bounds.node_min.values())
        maxs_sorted = sorted(bounds.node_max.values())

        def active_count(t):
            return bisect.bisect_right(mins_sorted, t) - bisect.bisect_left(maxs_sorted, t)

    sizes = [0] * n
    total = 0

    for tau, group in groups:
        total += 1 - sizes[s]
        sizes[s] = 1
        L[s] = [(seed, tau, seed)]
        heads = sorted({a.v for a in group})
        # Round one scans the whole block; non-strict rounds after it
        # re-scan only arcs out of heads whose table gained entries.
        block, source_tables = group, L
        out_arcs = None
        rescan = False
        while True:
            staged: dict[int, list] = {}
            for a in block:
                entries = source_tables[a.u]
                if not entries:
                    continue
                v = a.v
                for trace, sigma, anchor in entries:
                    if tau - sigma > delta_max or v in trace:
                        continue
                    shrunk = tuple(w for w in trace if node_max[w] >= tau)
                    new_trace = sorted_insert(shrunk, v)
                    arrival = tau + arrive_off
                    stats.extensions += 1
                    if record_paths:
                        staged.setdefault(v, []).append((new_trace, arrival, new_trace))
                        key = (v, arrival, new_trace)
                        if key not in parent:
                            parent[key] = (a.u, sigma, anchor, a)
                        arr[v] = (arrival, new_trace)
                    else:
                        staged.setdefault(v, []).append((new_trace, arrival, None))
                    reachable[v] = True
            gained: dict[int, list] = {}
            for v in staged if rescan else heads:
                merged = L[v]
                new = staged.get(v)
                if new:
                    if non_strict:
                        # Every extension arrives at ``tau``; an entry is
                        # gained unless its trace already held ``tau``.
                        held = {tr for tr, sig, _ in merged if sig == tau}
                    merged = merged + new
                cleaned = cleanup(
                    merged, tau, node_max,
                    prune=prune and v != s, delta_max=delta_max,
                )
                L[v] = cleaned
                total += len(cleaned) - sizes[v]
                sizes[v] = len(cleaned)
                if debug:
                    assert len(cleaned) <= 1 << active_count(tau), (
                        f"table at node {v} has {len(cleaned)} entries, "
                        f"more than 2^|F_{tau}|"
                    )
                if new and non_strict:
                    fresh = [e for e in cleaned if e[1] == tau and e[0] not in held]
                    if fresh:
                        gained[v] = fresh
            if total > stats.peak_entries:
                stats.peak_entries = total
            if not gained:
                break
            if out_arcs is None:
                out_arcs = {}
                for a in group:
                    out_arcs.setdefault(a.u, []).append(a)
            block = [a for u in gained for a in out_arcs.get(u, ())]
            source_tables = gained
            rescan = True
        if record_tables:
            snapshot = {
                u: [(tr, sig) for tr, sig, _ in L[u]]
                for u in range(n)
                if L[u]
            }
            tables.append((tau, snapshot))

    return ReachResult(
        source=s,
        reachable=reachable,
        arr=arr,
        parent=parent,
        stats=stats,
        tables=tables,
    )


def retrieve_path(
    result: ReachResult,
    g: PointTemporalGraph,
    s: NodeId,
    v: NodeId,
    delta_max: int,
) -> TemporalPath:
    """Reconstruct one restless path from ``s`` to ``v`` out of the
    retrieval records, walking parent links back to the source."""
    if result.source != s:
        raise PathRecordsError(
            f"result was solved from source {result.source}, not {s}"
        )
    if not (0 <= v < g.n) or not result.reachable[v]:
        raise UnreachableNodeError(f"node {v} is not reachable from {s}")
    if v == s:
        return TemporalPath()
    if result.arr is None or result.parent is None:
        raise PathRecordsError("solve was run without record_paths=True")
    arrival, anchor = result.arr[v]
    key = (v, arrival, anchor)
    arcs_reversed = []
    while True:
        result.parent_lookups += 1
        record = result.parent.get(key)
        if record is None:
            raise TemporalGraphError(f"broken parent chain at {key}")
        pred, pred_arrival, pred_anchor, arc = record
        arcs_reversed.append(arc)
        if pred == s:
            break
        key = (pred, pred_arrival, pred_anchor)
    path = TemporalPath(arcs=tuple(reversed(arcs_reversed)))
    if not check_restless_path(g, path, s, v, delta_max):
        raise TemporalGraphError(
            f"internal error: reconstructed path to {v} failed validation"
        )
    return path
