"""Temporal graph data model: point and interval graphs, paths, validity checks.

Nodes are dense 0-based integer ids.  Times and delays are non-negative
integers bounded by 64 bits; an arrival time ``tau + delta`` that would
exceed that bound is a validation error, never a silent wraparound.
A point graph stores its arcs as four parallel int columns ``u``, ``v``,
``tau`` and ``delta``, stably sorted by ``tau`` once when it is built;
parsing, expansion, widths, the solvers and path checks read the columns.
``TimedArc`` objects exist only at the API edge: ``g.arcs`` is a
read-only sequence view over the columns that builds one per index or
iteration step, and witness paths hold them.  Interval graphs keep a
tuple of ``IntervalTimedArc``.  Graphs are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import bisect
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from operator import add, eq, le

MAX_TIME = 2**64 - 1

NodeId = int


class TemporalGraphError(Exception):
    """Base class for errors raised by this package."""


class ArcNotInGraphError(TemporalGraphError):
    """A path references a timed arc that is not part of the graph."""


class NodeRangeError(TemporalGraphError):
    """An arc, a source or a target names a node id outside ``[0, n)`` (or
    a ``bool``)."""


class UnsortedArcsError(TemporalGraphError):
    """A point graph built with ``sort=False`` is not sorted by appearance
    time, so it has no time groups to scan."""


class ModelMismatchError(TemporalGraphError):
    """A solver was invoked on a graph outside its delay model."""


class ExpansionSizeError(TemporalGraphError):
    """Interval-to-point expansion would exceed the configured arc cap."""


class TimeOverflowError(TemporalGraphError):
    """A computed time does not fit in the 64-bit time representation."""


class WaitBoundError(TemporalGraphError):
    """A wait bound ``delta_max`` is negative."""


@dataclass(frozen=True, slots=True)
class TimedArc:
    """Directed arc departing from ``u`` at ``tau`` and reaching ``v`` at ``tau + delta``."""

    u: NodeId
    v: NodeId
    tau: int
    delta: int

    @property
    def arrival(self) -> int:
        return self.tau + self.delta


@dataclass(frozen=True, slots=True)
class IntervalTimedArc:
    """Directed arc usable at any departure time in ``[tau_start, tau_end]`` with fixed delay."""

    u: NodeId
    v: NodeId
    tau_start: int
    tau_end: int
    delta: int


_SET_U, _SET_V, _SET_TAU, _SET_DELTA = (
    TimedArc.u.__set__, TimedArc.v.__set__, TimedArc.tau.__set__, TimedArc.delta.__set__)


def _timed_arc(u: NodeId, v: NodeId, tau: int, delta: int) -> TimedArc:
    """``TimedArc(u, v, tau, delta)``, built by filling its slots: the
    frozen ``__init__`` calls ``object.__setattr__`` once per field, which
    makes it about twice as slow, and the views build every witness arc a
    query returns."""
    arc = object.__new__(TimedArc)
    _SET_U(arc, u)
    _SET_V(arc, v)
    _SET_TAU(arc, tau)
    _SET_DELTA(arc, delta)
    return arc


class ArcView(Sequence):
    """Read-only sequence over a point graph's columns.

    ``len`` is O(1) and builds nothing; indexing and iteration build one
    ``TimedArc`` per arc they return.  A view equals another view over the
    same columns and any list or tuple of the same arcs in the same order.
    """

    __slots__ = ("_g",)

    def __init__(self, g: PointTemporalGraph):
        self._g = g

    def __len__(self) -> int:
        return len(self._g.tau)

    def __getitem__(self, i):
        g = self._g
        if isinstance(i, slice):
            return tuple(map(_timed_arc, g.u[i], g.v[i], g.tau[i], g.delta[i]))
        return _timed_arc(g.u[i], g.v[i], g.tau[i], g.delta[i])

    def __iter__(self):
        g = self._g
        return map(_timed_arc, g.u, g.v, g.tau, g.delta)

    def take(self, indices) -> tuple[TimedArc, ...]:
        """The arcs at ``indices``, in that order (a witness's arcs)."""
        g = self._g
        return tuple(map(_timed_arc, map(g.u.__getitem__, indices), map(g.v.__getitem__, indices),
                         map(g.tau.__getitem__, indices), map(g.delta.__getitem__, indices)))

    def __eq__(self, other):
        if isinstance(other, ArcView):
            a, b = self._g, other._g
            return (a.u, a.v, a.tau, a.delta) == (b.u, b.v, b.tau, b.delta)
        if isinstance(other, (tuple, list)):
            return len(other) == len(self) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"ArcView({list(self)!r})"


def check_node(n: int, x, role: str) -> None:
    """Raise ``NodeRangeError`` unless ``x`` is a node id in ``[0, n)``;
    a ``bool`` is refused, though it compares as 0 or 1."""
    if isinstance(x, bool) or not (0 <= x < n):
        raise NodeRangeError(f"{role} {x!r} out of range for n={n}")


def check_wait_bound(delta_max: int) -> None:
    """Raise ``WaitBoundError`` if the wait bound ``delta_max`` is negative."""
    if delta_max < 0:
        raise WaitBoundError(f"wait bound {delta_max!r} is negative")


def nondecreasing(values) -> bool:
    """Whether ``values`` (a list or tuple) never decreases."""
    return all(map(le, values, islice(values, 1, None)))


def _node_windows(n: int, us, vs, starts, arrivals) -> tuple[list, list[int]]:
    """Per node, the earliest start and the latest arrival over the arcs
    at either endpoint: ``(node_min, node_max)``, with ``None`` and -1 for
    isolated nodes.  Raises ``NodeRangeError`` for an endpoint outside
    ``[0, n)``."""
    for ends in (us, vs):
        if ends and (min(ends) < 0 or max(ends) >= n):
            i = next(i for i, x in enumerate(ends) if not 0 <= x < n)
            raise NodeRangeError(f"arc {i} ({us[i]} -> {vs[i]}) has a node id "
                                 f"out of range for n={n}")
    node_min: list = [None] * n
    node_max = [-1] * n
    for ends in (us, vs):
        for x, lo, hi in zip(ends, starts, arrivals):
            cur = node_min[x]
            if cur is None:
                node_min[x] = lo
                node_max[x] = hi
            else:
                if lo < cur:
                    node_min[x] = lo
                if hi > node_max[x]:
                    node_max[x] = hi
    return node_min, node_max


@dataclass(frozen=True)
class PointTemporalGraph:
    """Node count plus a multiset of timed arcs held as four parallel int
    columns in non-decreasing ``tau`` order: arc ``i`` departs ``u[i]``
    at ``tau[i]`` and reaches ``v[i]`` at ``tau[i] + delta[i]``.

    Build one with ``point_graph`` or ``from_columns``.  Only the columns
    are stored; the lifetime, the delay flag, the time groups and the node
    windows are derived from them once, on first use.
    """

    n: int
    u: tuple[int, ...]
    v: tuple[int, ...]
    tau: tuple[int, ...]
    delta: tuple[int, ...]
    non_strict: bool = False

    @classmethod
    def from_columns(cls, n: int, u, v, tau, delta, *, non_strict: bool = False,
                     sort: bool = True) -> PointTemporalGraph:
        """Build a graph from parallel columns, stably sorted by ``tau``
        unless ``sort=False``."""
        if sort and not nondecreasing(tau):
            order = sorted(range(len(tau)), key=tau.__getitem__)
            u, v, tau, delta = ([col[i] for i in order] for col in (u, v, tau, delta))
        return cls(n=n, u=tuple(u), v=tuple(v), tau=tuple(tau), delta=tuple(delta),
                   non_strict=non_strict)

    @property
    def arcs(self) -> ArcView:
        return ArcView(self)

    @cached_property
    def lifetime(self) -> int:
        """The latest arrival time, 0 for an arc-less graph."""
        return max(map(add, self.tau, self.delta), default=0)

    @cached_property
    def uniform_delay_one(self) -> bool:
        """Whether the graph has arcs and every delay is one."""
        delta = self.delta
        return bool(delta) and delta.count(1) == len(delta)

    @cached_property
    def group_starts(self) -> list[int]:
        """Offset of the first arc of each appearance time, then the arc
        count.  Raises ``UnsortedArcsError`` unless ``tau`` is sorted."""
        tau = self.tau
        if not nondecreasing(tau):
            i = next(i for i in range(1, len(tau)) if tau[i] < tau[i - 1])
            raise UnsortedArcsError(f"arcs not sorted by appearance time: arc {i} "
                                    f"at {tau[i]} after {tau[i - 1]}")
        starts = []
        i, m = 0, len(tau)
        while i < m:
            starts.append(i)
            i = bisect.bisect_right(tau, tau[i], i)
        starts.append(m)
        return starts

    @cached_property
    def node_windows(self) -> tuple[list, list[int]]:
        """``(node_min, node_max)``: per node, the first departure and the
        last arrival over its arcs (``None`` and -1 when isolated).  The
        widths, the solvers and the path check share this one pass; it
        raises ``NodeRangeError`` for an arc outside ``[0, n)``."""
        return _node_windows(self.n, self.u, self.v, self.tau,
                             list(map(add, self.tau, self.delta)))


@dataclass(frozen=True)
class IntervalTemporalGraph:
    n: int
    arcs: tuple[IntervalTimedArc, ...]

    @cached_property
    def lifetime(self) -> int:
        """The latest window end plus delay, 0 for an arc-less graph."""
        return max((a.tau_end + a.delta for a in self.arcs), default=0)


@dataclass(frozen=True)
class TemporalPath:
    """Sequence of timed arcs chaining head-to-tail, each node visited at most once.

    For interval-model witnesses, ``departures`` holds the chosen departure
    time of each arc (one per arc); point-model paths leave it ``None``.
    """

    arcs: tuple = ()
    departures: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.arcs)

    def nodes(self) -> list[NodeId]:
        if not self.arcs:
            return []
        out = [self.arcs[0].u]
        out.extend(a.v for a in self.arcs)
        return out


@dataclass(frozen=True)
class Instance:
    """A reachability question: graph, source, optional target, waiting bound."""

    graph: PointTemporalGraph | IntervalTemporalGraph
    s: NodeId
    t: NodeId | None
    delta_max: int | None
    labels: dict[int, str] | None = None


def point_graph(
    n: int,
    arcs,
    *,
    non_strict: bool = False,
    sort: bool = True,
) -> PointTemporalGraph:
    """Build a point temporal graph.

    Arcs may be ``TimedArc`` instances or ``(u, v, tau, delta)`` tuples;
    ``(u, v, tau)`` abbreviates delay one.  Arcs are stably sorted by
    appearance time unless ``sort=False`` (useful to construct
    deliberately invalid graphs for validation tests).
    """
    us, vs, taus, deltas = [], [], [], []
    for a in arcs:
        if isinstance(a, TimedArc):
            u, v, tau, delta = a.u, a.v, a.tau, a.delta
        else:
            u, v, tau = a[0], a[1], a[2]
            delta = 1 if len(a) == 3 else a[3]
        us.append(u)
        vs.append(v)
        taus.append(tau)
        deltas.append(delta)
    return PointTemporalGraph.from_columns(n, us, vs, taus, deltas,
                                           non_strict=non_strict, sort=sort)


def interval_graph(n: int, arcs) -> IntervalTemporalGraph:
    normalized = []
    for a in arcs:
        if isinstance(a, IntervalTimedArc):
            normalized.append(a)
        else:
            normalized.append(IntervalTimedArc(*a))
    return IntervalTemporalGraph(n=n, arcs=tuple(normalized))


def validate_point_graph(g: PointTemporalGraph) -> list[str]:
    """Every violated graph invariant, one message each; an empty list
    means the graph is valid."""
    if not len(g.u) == len(g.v) == len(g.tau) == len(g.delta):
        return [f"column lengths differ: u {len(g.u)}, v {len(g.v)}, "
                f"tau {len(g.tau)}, delta {len(g.delta)}"]
    violations = []
    prev_tau = None
    for i, (u, v, tau, delta) in enumerate(zip(g.u, g.v, g.tau, g.delta)):
        if not (0 <= u < g.n and 0 <= v < g.n):
            violations.append(f"arc {i}: node id out of range for n={g.n}: {g.arcs[i]}")
        if tau < 0 or delta < 0:
            violations.append(f"arc {i}: negative time or delay: {g.arcs[i]}")
        if delta == 0 and not g.non_strict:
            violations.append(f"arc {i}: zero delay without non_strict flag: {g.arcs[i]}")
        if tau > MAX_TIME or tau + delta > MAX_TIME:
            violations.append(f"arc {i}: arrival time overflows 64-bit range: {g.arcs[i]}")
        if prev_tau is not None and tau < prev_tau:
            violations.append(f"arc {i}: not sorted by appearance time ({tau} after {prev_tau})")
        prev_tau = tau
    return violations


def validate_interval_graph(g: IntervalTemporalGraph) -> list[str]:
    """Every violated graph invariant, one message each; an empty list
    means the graph is valid."""
    violations = []
    for i, a in enumerate(g.arcs):
        if not (0 <= a.u < g.n and 0 <= a.v < g.n):
            violations.append(f"arc {i}: node id out of range for n={g.n}: {a}")
        if a.tau_end < a.tau_start:
            violations.append(f"arc {i}: interval end before start: {a}")
        if a.delta < 1:
            violations.append(f"arc {i}: non-positive delay: {a}")
        if a.tau_end + a.delta > MAX_TIME:
            violations.append(f"arc {i}: arrival time overflows 64-bit range: {a}")
    return violations


def check_restless_path(
    g: PointTemporalGraph | IntervalTemporalGraph,
    path: TemporalPath,
    s: NodeId,
    t: NodeId,
    delta_max: int,
) -> bool:
    """Decide whether ``path`` is a valid s-to-t temporal path with all
    intermediate waiting times at most ``delta_max``.

    No waiting constraint applies before the first arc or after the last.
    Raises ``ArcNotInGraphError`` if the path uses an arc absent from the
    graph, and ``NodeRangeError`` if a point graph has an arc outside
    ``[0, n)``; any other defect just yields ``False``.
    """
    if isinstance(g, IntervalTemporalGraph):
        return _check_interval_path(g, path, s, t, delta_max)
    g.node_windows  # cached once per graph; raises NodeRangeError for a bad arc
    keys = [(a.u, a.v, a.tau, a.delta) for a in path.arcs]
    _check_arc_multiplicities(g, keys)
    return is_restless(keys, s, t, delta_max)


def is_restless(keys, s: NodeId, t: NodeId, delta_max: int) -> bool:
    """Whether the ``(u, v, tau, delta)`` rows ``keys``, in order, form a
    simple s-to-t path whose intermediate waits lie in ``[0, delta_max]``
    (the shape half of ``check_restless_path``; graph membership is not
    checked)."""
    if not keys:
        return s == t
    if keys[0][0] != s or keys[-1][1] != t:
        return False
    nodes = [s]
    nodes.extend(key[1] for key in keys)
    if len(set(nodes)) != len(nodes):
        return False
    for (_, head, tau, delta), (tail, _, next_tau, _) in zip(keys, islice(keys, 1, None)):
        if head != tail:
            return False
        wait = next_tau - (tau + delta)
        if wait < 0 or wait > delta_max:
            return False
    return True


def _check_arc_multiplicities(g: PointTemporalGraph, keys) -> None:
    """Raise ``ArcNotInGraphError`` unless every ``(u, v, tau, delta)`` of
    ``keys`` occurs in ``g`` at least as often as in ``keys``.

    Copies are counted in the slice of the columns at each time, found by
    bisecting ``tau``.  A short count is confirmed over all arcs before
    raising, which keeps the verdict exact for unsorted graphs.
    """
    us, vs, taus, deltas = g.u, g.v, g.tau, g.delta
    by_time: dict[int, list] = {}
    for arc, count in Counter(keys).items():
        by_time.setdefault(arc[2], []).append((arc, count))
    short = []
    for tau, group in by_time.items():
        lo = bisect.bisect_left(taus, tau)
        hi = bisect.bisect_right(taus, tau, lo)
        present = Counter(zip(us[lo:hi], vs[lo:hi], taus[lo:hi], deltas[lo:hi]))
        short.extend((arc, count) for arc, count in group if present[arc] < count)
    if short:
        present = Counter(zip(us, vs, taus, deltas))
        for arc, count in short:
            if present[arc] < count:
                raise ArcNotInGraphError(f"arc not in graph: {TimedArc(*arc)}")


def _check_interval_path(g, path, s, t, delta_max):
    """Membership and windows here; the shape check is ``is_restless`` on
    ``(u, v, departure, delta)`` rows."""
    arc_set = set(g.arcs)
    for arc in path.arcs:
        if arc not in arc_set:
            raise ArcNotInGraphError(f"arc not in graph: {arc}")
    deps = path.departures if path.arcs else ()
    if deps is None or len(deps) != len(path.arcs):
        return False
    if not all(a.tau_start <= dep <= a.tau_end for a, dep in zip(path.arcs, deps)):
        return False
    return is_restless([(a.u, a.v, dep, a.delta) for a, dep in zip(path.arcs, deps)],
                       s, t, delta_max)


def expand_interval_to_point(
    g: IntervalTemporalGraph,
    cap: int = 10**7,
) -> PointTemporalGraph:
    """Instantiate one point arc per (interval arc, offset) pair.

    Duplicates arising from overlapping intervals with identical
    ``(u, v, delta)`` collapse to a single timed arc; arcs are ordered by
    ``(tau, u, v, delta)``.  The expansion can blow up the input size, so
    the total instantiated count is capped.
    """
    total = 0
    seen: set[tuple[int, int, int, int]] = set()
    for a in g.arcs:
        count = a.tau_end - a.tau_start + 1
        total += count
        if total > cap:
            raise ExpansionSizeError(
                f"expansion exceeds cap of {cap} arcs at interval arc {a}"
            )
        seen.update(zip(range(a.tau_start, a.tau_end + 1),
                        repeat(a.u), repeat(a.v), repeat(a.delta)))
    taus, us, vs, deltas = zip(*sorted(seen)) if seen else ((), (), (), ())
    return PointTemporalGraph.from_columns(g.n, us, vs, taus, deltas, sort=False)


def lift_path_to_interval(
    g: IntervalTemporalGraph,
    path: TemporalPath,
) -> TemporalPath:
    """Map a witness path on the expansion back to interval arcs plus departures.

    Each point arc's appearance time becomes the departure time of the
    first interval arc, in graph order, with the same ``(u, v, delta)``
    whose appearance window contains it.
    """
    by_key: dict[tuple[int, int, int], list[IntervalTimedArc]] = {}
    for ia in g.arcs:
        by_key.setdefault((ia.u, ia.v, ia.delta), []).append(ia)
    arcs = []
    deps = []
    for a in path.arcs:
        match = next((ia for ia in by_key.get((a.u, a.v, a.delta), ())
                      if ia.tau_start <= a.tau <= ia.tau_end), None)
        if match is None:
            raise ArcNotInGraphError(f"no interval arc covers expanded arc {a}")
        arcs.append(match)
        deps.append(a.tau)
    return TemporalPath(arcs=tuple(arcs), departures=tuple(deps))


def sorted_insert(trace: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Insert ``v`` into a sorted node-id tuple (``v`` must be absent)."""
    i = bisect.bisect_left(trace, v)
    return trace[:i] + (v,) + trace[i:]
