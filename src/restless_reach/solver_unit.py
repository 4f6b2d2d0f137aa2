"""Restless reachability for point temporal graphs: one scan engine, two
entry points.  Each solve reads the delay model off the ``delta`` column
once: all-positive delays run the strict scan, all-zero delays the
non-strict same-instant worklist, and a mix raises ``ModelMismatchError``.
``solve_general`` admits every such graph; ``solve_unit`` only uniform
delay one or, with ``non_strict``, all-zero delays.

Arcs are scanned one appearance time at a time.  Each node keeps a list
of ``(trace, TimeSet)`` pairs sorted by trace: a trace is the sorted
tuple of active nodes on restless paths from the source, and its time
set holds their arrival times.  An arc departing at ``tau`` extends the
latest arrival at most ``tau``.  A time's extensions are staged, folded
into its heads' tables, and only those tables are cleaned: traces are
restricted to active nodes (collapsed traces merge their time sets) and
times no later departure can use are dropped, so under uniform delay one
each set keeps a single arrival.  A table holds at most 2^k traces for
vertex interval-membership width k, and is dropped once its node's last
arc has arrived, so only the active nodes' tables stay live.

Retrieval records are keyed by anchors, the trace a time was first
written under; clean-ups shrink traces but never anchors, so
reconstruction walks exact-match parent links back to the source.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

from .model import (
    ModelMismatchError,
    NodeId,
    PointTemporalGraph,
    TemporalGraphError,
    TemporalPath,
    check_node,
    check_wait_bound,
    is_restless,
    sorted_insert,
)


class UnreachableNodeError(TemporalGraphError):
    """Path retrieval was requested for a node the solve did not reach."""


class PathRecordsError(TemporalGraphError):
    """Path retrieval needs a solve run with ``record_paths=True``."""


class InvariantError(TemporalGraphError, AssertionError):
    """A ``debug=True`` table check failed (raised, so ``python -O`` keeps it)."""


@dataclass
class SolveStats:
    peak_entries: int = 0        # most (trace, TimeSet) pairs live at once
    extensions: int = 0
    time_inserts: int = 0
    merge_copies: int = 0


@dataclass
class ReachResult:
    """Reachability flags plus optional retrieval records.

    ``arr`` maps a node to the most recently written (arrival, anchor
    trace) pair; ``parent`` maps (node, arrival, anchor) to (predecessor,
    predecessor arrival, predecessor anchor, index of the extending arc
    in the graph's columns); ``arc_count`` is the solved graph's arc
    count, so retrieval can refuse another graph.  ``tables``
    optionally holds, per processed appearance time, a snapshot of every
    node's (trace, latest arrival) list for invariant testing (a dropped
    table's final list).
    """

    source: NodeId
    reachable: list[bool]
    arr: dict[NodeId, tuple[int, tuple[int, ...]]] | None = None
    parent: dict | None = None
    stats: SolveStats = field(default_factory=SolveStats)
    tables: list[tuple[int, dict[NodeId, list[tuple[tuple[int, ...], int]]]]] | None = None
    parent_lookups: int = 0
    arc_count: int | None = None

    def reachable_set(self) -> set[NodeId]:
        return {v for v, flag in enumerate(self.reachable) if flag}


class TimeSet:
    """Ordered set of arrival times with predecessor query, insert, merge,
    and ordered split.

    Each stored time optionally carries an anchor trace (for path
    retrieval) and, in debug mode, a copy counter with the budget implied
    by the size of the trace it was first inserted under: every copy is
    triggered by that trace losing at least one node, so a time first
    stored under a trace of size b+1 can be copied at most b times.
    A set made with a ``first`` time starts with lists of that one entry.
    """

    __slots__ = ("times", "anchors", "copies", "budgets")

    def __init__(self, first=None, anchor=None, budget: int = 0, *,
                 anchors: bool = False, debug: bool = False):
        empty = first is None
        self.times: list[int] = [] if empty else [first]
        self.anchors: list | None = ([] if empty else [anchor]) if anchors else None
        self.copies: list[int] | None = ([] if empty else [0]) if debug else None
        self.budgets: list[int] | None = ([] if empty else [budget]) if debug else None

    def insert(self, t: int, anchor=None, budget: int = 0) -> bool:
        """Insert ``t`` if absent (a present time keeps its anchor);
        return whether it was inserted."""
        i = bisect_left(self.times, t)
        if i < len(self.times) and self.times[i] == t:
            return False
        self.times.insert(i, t)
        if self.anchors is not None:
            self.anchors.insert(i, anchor)
        if self.copies is not None:
            self.copies.insert(i, 0)
            self.budgets.insert(i, budget)
        return True

    def predecessor(self, tau: int):
        """Largest stored time at most ``tau`` with its anchor, or None."""
        i = bisect_right(self.times, tau)
        if i == 0:
            return None
        anchor = self.anchors[i - 1] if self.anchors is not None else None
        return self.times[i - 1], anchor

    def merge_from(self, other: "TimeSet", stats: SolveStats | None = None) -> None:
        """Copy every time of ``other`` absent here, keeping its anchor.

        In debug mode, raises ``InvariantError`` when a time is copied
        more often than its budget allows.
        """
        for i, t in enumerate(other.times):
            j = bisect_left(self.times, t)
            if j < len(self.times) and self.times[j] == t:
                continue
            self.times.insert(j, t)
            if self.anchors is not None:
                self.anchors.insert(j, other.anchors[i] if other.anchors is not None else None)
            if self.copies is not None:
                count = other.copies[i] + 1
                budget = other.budgets[i]
                if count > budget:
                    raise InvariantError(f"time {t} copied {count} times, budget {budget}")
                self.copies.insert(j, count)
                self.budgets.insert(j, budget)
            if stats is not None:
                stats.merge_copies += 1

    def drop_below(self, cutoff: int) -> None:
        """Ordered split: discard every time below ``cutoff``, copying the
        rest into right-sized lists."""
        i = bisect_left(self.times, cutoff)
        if i:
            self.times = self.times[i:]
            if self.anchors is not None:
                self.anchors = self.anchors[i:]
            if self.copies is not None:
                self.copies = self.copies[i:]
                self.budgets = self.budgets[i:]


def cleanup_delay(entries, tau: int, horizon: int, node_max, *, staged=(),
                  prune: bool = False, delta_max: int = 0,
                  stats: SolveStats | None = None, debug: bool = False):
    """Clean one node's ``(trace, TimeSet)`` pairs at time ``tau``.

    Traces shrink to the nodes active at ``tau`` (``node_max[w] >= tau``)
    and collapsed ones merge into one survivor, an unshrunk trace where
    there is one, so only times whose trace lost a node are copied;
    staged ``(trace, arrival, anchor)`` extensions are inserted.  Each set then keeps its latest
    time at most ``horizon`` and every later one: departures at
    ``horizon`` or later never use the dropped times.  ``prune`` also
    drops times more than ``delta_max`` before ``tau``, and empty sets.
    Returns the pairs sorted by trace.
    """
    table: dict[tuple[int, ...], TimeSet] = {}
    moved = []
    for trace, tset in entries:
        if min(map(node_max.__getitem__, trace)) >= tau:
            table[trace] = tset
        else:
            moved.append((tuple(w for w in trace if node_max[w] >= tau), tset))
    for shrunk, tset in moved:
        survivor = table.get(shrunk)
        if survivor is None:
            table[shrunk] = tset
        else:
            survivor.merge_from(tset, stats)
    for trace, arrival, anchor in staged:
        tset = table.get(trace)
        if tset is None:
            table[trace] = TimeSet(arrival, anchor, len(trace) - 1,
                                   anchors=anchor is not None, debug=debug)
            inserted = True
        else:
            inserted = tset.insert(arrival, anchor, len(trace) - 1)
        if inserted and stats is not None:
            stats.time_inserts += 1
    floor = tau - delta_max
    out = []
    for trace, tset in sorted(table.items()):
        times = tset.times
        cut = times[0]
        if len(times) > 1 and times[1] <= horizon:
            cut = tset.predecessor(horizon)[0]
        if prune and cut < floor:
            cut = floor
        if cut > times[0]:
            tset.drop_below(cut)
            if not tset.times:
                continue
        out.append((trace, tset))
    return out


def solve_unit(g: PointTemporalGraph, s: NodeId, delta_max: int, *,
               record_paths: bool = False, prune: bool = False, non_strict: bool = False,
               record_tables: bool = False, debug: bool = False) -> ReachResult:
    """Compute every node reachable from ``s`` by a restless temporal path
    whose intermediate waits are at most ``delta_max``.

    Requires uniform delay one or, with ``non_strict``, all-zero delays;
    ``non_strict`` names the delay required, and the delays decide the
    scan as in ``solve_general``.  Zero delays make arrivals equal
    departures, so same-instant chains are closed by a worklist: after
    one full scan of the time's arc block, only arcs out of nodes whose
    table gained a trace or a later arrival are re-scanned, extending
    only the gained entries, until no table changes.  The re-scan work
    per instant is O(block arcs + extensions).

    ``record_paths`` keeps arrival/parent records for ``retrieve_path``;
    ``prune`` drops entries too stale to ever extend; ``record_tables``
    snapshots the trace tables after each appearance time; ``debug``
    raises ``InvariantError`` when a table exceeds 2^|F_tau| traces, a
    time set its node's timed in-degree or a time its copy budget, or a
    set keeps a dominated time.  A source outside ``[0, n)`` raises
    ``NodeRangeError`` and a negative ``delta_max`` ``WaitBoundError``.
    """
    check_node(g.n, s, "source")
    check_wait_bound(delta_max)
    if g.delta.count(0 if non_strict else 1) != len(g.delta):
        raise ModelMismatchError(
            "solve_unit requires uniform delay one, or all-zero delays with "
            "non_strict=True; solve_general takes any all-positive or all-zero delays"
        )
    return _scan(g, s, delta_max, record_paths=record_paths, prune=prune,
                 non_strict=non_strict, record_tables=record_tables, debug=debug)


def solve_general(g: PointTemporalGraph, s: NodeId, delta_max: int, *,
                  record_paths: bool = False, prune: bool = False,
                  debug: bool = False) -> ReachResult:
    """Compute every node reachable from ``s`` by a restless temporal path,
    for all-positive delays (the strict scan) or all-zero delays (the
    non-strict worklist of ``solve_unit``).  Options as in ``solve_unit``.

    Raises ``ModelMismatchError`` for a graph that mixes zero and positive
    delays, or has a negative one.
    """
    check_node(g.n, s, "source")
    check_wait_bound(delta_max)
    deltas = g.delta
    # One pass for positive delays; the count runs only when one is zero.
    lowest = min(deltas, default=1)
    non_strict = lowest == 0 and deltas.count(0) == len(deltas)
    if lowest < 1 and not non_strict:
        raise ModelMismatchError(
            "delays must be all positive or all zero; mixed zero and positive "
            "(or negative) delays are not supported"
        )
    return _scan(g, s, delta_max, record_paths=record_paths, prune=prune,
                 non_strict=non_strict, record_tables=False, debug=debug)


def _scan(g, s, delta_max, *, record_paths, prune, non_strict, record_tables, debug):
    """The per-instant scan behind both entry points (see the module notes);
    ``non_strict`` is the delay model the caller read off the delays.

    Reads only the graph's columns: each time group is an index range of
    them, and parent records hold arc indices."""
    node_min, node_max = g.node_windows
    last_active = node_max.__getitem__
    starts = g.group_starts
    us, vs, taus, deltas = g.u, g.v, g.tau, g.delta

    n = g.n
    reachable = [False] * n
    reachable[s] = True
    L: list[list[tuple[tuple[int, ...], TimeSet]]] = [[] for _ in range(n)]
    arr: dict | None = {} if record_paths else None
    parent: dict | None = {} if record_paths else None
    stats = SolveStats()
    tables = [] if record_tables else None
    seed = (s,)
    seed_set = TimeSet(0, seed if record_paths else None, 0, anchors=record_paths, debug=debug)

    if debug:
        active = [u for u in range(n) if node_min[u] is not None]
        mins_sorted = sorted(node_min[u] for u in active)
        maxs_sorted = sorted(node_max[u] for u in active)
        in_degree = Counter(vs)

        def active_count(t):
            return bisect_right(mins_sorted, t) - bisect_left(maxs_sorted, t)

    total = 0
    # Nodes by last activity, latest first: once ``tau`` passes
    # ``node_max[u]`` no arc departs from or arrives at ``u``, so its
    # table is dropped (snapshots keep its final list).
    retire = sorted(range(n), key=node_max.__getitem__, reverse=True)
    final = {}

    for lo, hi in zip(starts, islice(starts, 1, None)):
        tau = taus[lo]
        while retire and node_max[retire[-1]] < tau:
            u = retire.pop()
            if L[u]:
                if record_tables:
                    final[u] = [(tr, ts.times[-1]) for tr, ts in L[u]]
                total -= len(L[u])
                L[u] = []
        # The source restarts at ``tau``; its earlier seed times are
        # dominated, since every later departure is at ``tau`` or after.
        # Nothing else enters its table: ``s`` is in every trace.
        total += 1 - len(L[s])
        seed_set.times[0] = tau
        L[s] = [(seed, seed_set)]
        # The earliest time a later scan may depart: still ``tau`` in
        # non-strict rounds, the next instant otherwise.
        horizon = tau if non_strict else tau + 1
        heads = sorted(set(vs[lo:hi]))
        # Round one scans the whole block; non-strict rounds after it
        # re-scan only arcs out of heads whose table gained entries.
        block, source_tables = range(lo, hi), L
        out_arcs = None
        rescan = False
        while True:
            staged: dict[int, list] = {}
            for j in block:
                u = us[j]
                entries = source_tables[u]
                if not entries:
                    continue
                v = vs[j]
                arrival = tau + deltas[j]
                for trace, tset in entries:
                    # ``tset.predecessor(tau)``, inlined on the hot path.
                    times = tset.times
                    i = len(times) if times[-1] <= tau else bisect_right(times, tau)
                    if not i or tau - times[i - 1] > delta_max or v in trace:
                        continue
                    if min(map(last_active, trace)) < tau:
                        trace = tuple(w for w in trace if node_max[w] >= tau)
                    new_trace = sorted_insert(trace, v)
                    stats.extensions += 1
                    reachable[v] = True
                    staged.setdefault(v, []).append(
                        (new_trace, arrival, new_trace if record_paths else None))
                    if record_paths:
                        parent.setdefault((v, arrival, new_trace),
                                          (u, times[i - 1], tset.anchors[i - 1], j))
                        arr[v] = (arrival, new_trace)
            gained: dict[int, list] = {}
            for v in staged if rescan else heads:
                new = staged.get(v, ())
                if new and non_strict:
                    # Every extension arrives at ``tau``; an entry is
                    # gained unless its trace already held ``tau``.
                    held = {tr for tr, ts in L[v] if ts.times[-1] == tau}
                cleaned = cleanup_delay(L[v], tau, horizon, node_max, staged=new, prune=prune,
                                        delta_max=delta_max, stats=stats, debug=debug)
                total += len(cleaned) - len(L[v])
                L[v] = cleaned
                if debug:
                    _check_table(cleaned, v, tau, horizon,
                                 1 << active_count(tau), in_degree[v] + (v == s))
                if new and non_strict:
                    fresh = [e for e in cleaned if e[1].times[-1] == tau and e[0] not in held]
                    if fresh:
                        gained[v] = fresh
            if total > stats.peak_entries:
                stats.peak_entries = total
            if not gained:
                break
            if out_arcs is None:
                out_arcs = {}
                for j in range(lo, hi):
                    out_arcs.setdefault(us[j], []).append(j)
            block = [j for u in gained for j in out_arcs.get(u, ())]
            source_tables = gained
            rescan = True
        if record_tables:
            live = {u: [(tr, ts.times[-1]) for tr, ts in L[u]] for u in range(n) if L[u]}
            tables.append((tau, {**final, **live}))
    return ReachResult(s, reachable, arr, parent, stats, tables, arc_count=len(g.tau))


def _check_table(cleaned, v, tau, horizon, max_entries, max_times) -> None:
    """Debug checks on a freshly cleaned table (see ``solve_unit``); the
    source may hold one seed time beyond its in-degree."""
    if len(cleaned) > max_entries:
        raise InvariantError(f"table at node {v} has {len(cleaned)} entries, "
                             f"more than 2^|F_{tau}|")
    for trace, tset in cleaned:
        if len(tset.times) > max_times:
            raise InvariantError(f"time set at node {v} has {len(tset.times)} "
                                 f"times, more than its timed in-degree allows")
        if bisect_right(tset.times, horizon) > 1:
            raise InvariantError(f"trace {trace} at node {v} keeps a dominated "
                                 f"time at or before {horizon}")


def retrieve_path(result: ReachResult, g: PointTemporalGraph, s: NodeId, v: NodeId,
                  delta_max: int) -> TemporalPath:
    """Reconstruct one restless path from ``s`` to ``v`` out of the
    retrieval records of either entry point, walking parent links back
    to the source.  A source or target outside ``[0, n)``, or given as a
    ``bool``, raises ``NodeRangeError``, and a negative ``delta_max``
    ``WaitBoundError``."""
    if result.source != s:
        raise PathRecordsError(
            f"result was solved from source {result.source}, not {s}"
        )
    if len(result.reachable) != g.n or result.arc_count != len(g.tau):
        raise PathRecordsError("result was solved on a different graph "
                               f"({len(result.reachable)} nodes, {result.arc_count} arcs)")
    check_node(g.n, s, "source")
    check_node(g.n, v, "target")
    check_wait_bound(delta_max)
    if not result.reachable[v]:
        raise UnreachableNodeError(f"node {v} is not reachable from {s}")
    if v == s:
        return TemporalPath()
    if result.arr is None or result.parent is None:
        raise PathRecordsError("solve was run without record_paths=True")
    arrival, anchor = result.arr[v]
    key = (v, arrival, anchor)
    indices = []
    while True:
        result.parent_lookups += 1
        record = result.parent.get(key)
        if record is None:
            raise TemporalGraphError(f"broken parent chain at {key}")
        pred, pred_arrival, pred_anchor, j = record
        indices.append(j)
        if pred == s:
            break
        key = (pred, pred_arrival, pred_anchor)
    indices.reverse()
    # Every record names an arc of ``g`` by index, so only the path's
    # shape needs checking.
    keys = list(zip(*(map(col.__getitem__, indices) for col in (g.u, g.v, g.tau, g.delta))))
    if not is_restless(keys, s, v, delta_max):
        raise TemporalGraphError(
            f"internal error: reconstructed path to {v} failed validation"
        )
    return TemporalPath(arcs=g.arcs.take(indices))
