"""Temporal graph data model: point and interval graphs, paths, validity checks.

Nodes are dense 0-based integer ids.  Times and delays are non-negative
integers bounded by 64 bits; an arrival time ``tau + delta`` that would
exceed that bound is a validation error, never a silent wraparound.
Graphs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

MAX_TIME = 2**64 - 1

NodeId = int


class TemporalGraphError(Exception):
    """Base class for errors raised by this package."""


class ArcNotInGraphError(TemporalGraphError):
    """A path references a timed arc that is not part of the graph."""


class NodeRangeError(TemporalGraphError):
    """An arc or a source names a node id outside ``[0, n)`` (or a ``bool``)."""


class ModelMismatchError(TemporalGraphError):
    """A solver was invoked on a graph outside its delay model."""


class ExpansionSizeError(TemporalGraphError):
    """Interval-to-point expansion would exceed the configured arc cap."""


class TimeOverflowError(TemporalGraphError):
    """A computed time does not fit in the 64-bit time representation."""


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


@dataclass(frozen=True)
class PointTemporalGraph:
    """Node count plus a multiset of timed arcs sorted by non-decreasing appearance time."""

    n: int
    arcs: tuple[TimedArc, ...]
    lifetime: int
    uniform_delay_one: bool
    non_strict: bool = False


@dataclass(frozen=True)
class IntervalTemporalGraph:
    n: int
    arcs: tuple[IntervalTimedArc, ...]
    lifetime: int


@dataclass(frozen=True)
class StaticDigraph:
    """Underlying static digraph: deduplicated (u, v) arc pairs."""

    n: int
    arcs: frozenset[tuple[NodeId, NodeId]]


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


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def point_graph(
    n: int,
    arcs,
    *,
    non_strict: bool = False,
    sort: bool = True,
) -> PointTemporalGraph:
    """Build a point temporal graph, computing lifetime and delay flags.

    Arcs may be ``TimedArc`` instances or ``(u, v, tau, delta)`` tuples;
    ``(u, v, tau)`` abbreviates delay one.  Arcs are sorted by appearance
    time unless ``sort=False`` (useful to construct deliberately invalid
    graphs for validation tests).
    """
    normalized = []
    for a in arcs:
        if isinstance(a, TimedArc):
            normalized.append(a)
        elif len(a) == 3:
            normalized.append(TimedArc(a[0], a[1], a[2], 1))
        else:
            normalized.append(TimedArc(a[0], a[1], a[2], a[3]))
    if sort:
        normalized.sort(key=lambda a: a.tau)
    lifetime = max((a.tau + a.delta for a in normalized), default=0)
    uniform = bool(normalized) and all(a.delta == 1 for a in normalized)
    return PointTemporalGraph(
        n=n,
        arcs=tuple(normalized),
        lifetime=lifetime,
        uniform_delay_one=uniform,
        non_strict=non_strict,
    )


def interval_graph(n: int, arcs) -> IntervalTemporalGraph:
    normalized = []
    for a in arcs:
        if isinstance(a, IntervalTimedArc):
            normalized.append(a)
        else:
            normalized.append(IntervalTimedArc(*a))
    lifetime = max((a.tau_end + a.delta for a in normalized), default=0)
    return IntervalTemporalGraph(n=n, arcs=tuple(normalized), lifetime=lifetime)


def validate_point_graph(g: PointTemporalGraph) -> ValidationReport:
    """Report every violated graph invariant; an empty report means valid."""
    report = ValidationReport()
    prev_tau = None
    for i, a in enumerate(g.arcs):
        if not (0 <= a.u < g.n and 0 <= a.v < g.n):
            report.add(f"arc {i}: node id out of range for n={g.n}: {a}")
        if a.tau < 0 or a.delta < 0:
            report.add(f"arc {i}: negative time or delay: {a}")
        if a.delta == 0 and not g.non_strict:
            report.add(f"arc {i}: zero delay without non_strict flag: {a}")
        if a.tau > MAX_TIME or a.tau + a.delta > MAX_TIME:
            report.add(f"arc {i}: arrival time overflows 64-bit range: {a}")
        if prev_tau is not None and a.tau < prev_tau:
            report.add(f"arc {i}: not sorted by appearance time ({a.tau} after {prev_tau})")
        prev_tau = a.tau
    lifetime = max((a.tau + a.delta for a in g.arcs), default=0)
    if g.lifetime != lifetime:
        report.add(f"lifetime field {g.lifetime} inconsistent with arcs (expected {lifetime})")
    uniform = bool(g.arcs) and all(a.delta == 1 for a in g.arcs)
    if g.uniform_delay_one != uniform:
        report.add("uniform_delay_one flag inconsistent with arc delays")
    return report


def validate_interval_graph(g: IntervalTemporalGraph) -> ValidationReport:
    report = ValidationReport()
    for i, a in enumerate(g.arcs):
        if not (0 <= a.u < g.n and 0 <= a.v < g.n):
            report.add(f"arc {i}: node id out of range for n={g.n}: {a}")
        if a.tau_end < a.tau_start:
            report.add(f"arc {i}: interval end before start: {a}")
        if a.delta < 1:
            report.add(f"arc {i}: non-positive delay: {a}")
        if a.tau_end + a.delta > MAX_TIME:
            report.add(f"arc {i}: arrival time overflows 64-bit range: {a}")
    lifetime = max((a.tau_end + a.delta for a in g.arcs), default=0)
    if g.lifetime != lifetime:
        report.add(f"lifetime field {g.lifetime} inconsistent with arcs (expected {lifetime})")
    return report


def underlying_graph(g: PointTemporalGraph | IntervalTemporalGraph) -> StaticDigraph:
    """Deduplicated static arc set {(u, v)} over all timed arcs."""
    return StaticDigraph(n=g.n, arcs=frozenset((a.u, a.v) for a in g.arcs))


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
    graph; any other defect just yields ``False``.
    """
    if isinstance(g, IntervalTemporalGraph):
        return _check_interval_path(g, path, s, t, delta_max)
    _check_arc_multiplicities(g.arcs, path.arcs)
    if not path.arcs:
        return s == t
    if path.arcs[0].u != s or path.arcs[-1].v != t:
        return False
    nodes = path.nodes()
    if len(set(nodes)) != len(nodes):
        return False
    for prev, nxt in zip(path.arcs, path.arcs[1:]):
        if prev.v != nxt.u:
            return False
        wait = nxt.tau - (prev.tau + prev.delta)
        if wait < 0 or wait > delta_max:
            return False
    return True


_TAU = attrgetter("tau")


def _check_arc_multiplicities(arcs, path_arcs) -> None:
    """Raise ``ArcNotInGraphError`` unless every arc of the path occurs in
    ``arcs`` at least as often as in the path.

    A path with few distinct arcs (a bisection costs about as much as
    counting eight arcs) has copies counted only in the slices of ``arcs``
    at its times, found by bisection; a longer one, over all of ``arcs``
    at once.  A short count from a slice is confirmed over all
    of ``arcs`` before raising, which keeps the verdict exact for
    unsorted graphs.
    """
    wanted = Counter(path_arcs)
    if len(wanted) * 8 < len(arcs):
        by_time: dict[int, list] = {}
        for arc, count in wanted.items():
            by_time.setdefault(arc.tau, []).append((arc, count))
        short = []
        for tau, group in by_time.items():
            lo = bisect.bisect_left(arcs, tau, key=_TAU)
            present = Counter(arcs[lo:bisect.bisect_right(arcs, tau, lo=lo, key=_TAU)])
            short.extend((arc, count) for arc, count in group if present[arc] < count)
    else:
        short = wanted.items()
    if short:
        present = Counter(arcs)
        for arc, count in short:
            if present[arc] < count:
                raise ArcNotInGraphError(f"arc not in graph: {arc}")


def _check_interval_path(g, path, s, t, delta_max):
    arc_set = set(g.arcs)
    for arc in path.arcs:
        if arc not in arc_set:
            raise ArcNotInGraphError(f"arc not in graph: {arc}")
    if not path.arcs:
        return s == t
    deps = path.departures
    if deps is None or len(deps) != len(path.arcs):
        return False
    if path.arcs[0].u != s or path.arcs[-1].v != t:
        return False
    nodes = path.nodes()
    if len(set(nodes)) != len(nodes):
        return False
    for arc, dep in zip(path.arcs, deps):
        if not (arc.tau_start <= dep <= arc.tau_end):
            return False
    for i in range(len(path.arcs) - 1):
        if path.arcs[i].v != path.arcs[i + 1].u:
            return False
        wait = deps[i + 1] - (deps[i] + path.arcs[i].delta)
        if wait < 0 or wait > delta_max:
            return False
    return True


def expand_interval_to_point(
    g: IntervalTemporalGraph,
    cap: int = 10**7,
) -> PointTemporalGraph:
    """Instantiate one point arc per (interval arc, offset) pair.

    Duplicates arising from overlapping intervals with identical
    ``(u, v, delta)`` collapse to a single timed arc.  The expansion can
    blow up the input size, so the total instantiated count is capped.
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
        for tau in range(a.tau_start, a.tau_end + 1):
            seen.add((a.u, a.v, tau, a.delta))
    arcs = [TimedArc(u, v, tau, delta) for (u, v, tau, delta) in sorted(
        seen, key=lambda x: (x[2], x[0], x[1], x[3]))]
    return point_graph(g.n, arcs, sort=False)


def lift_path_to_interval(
    g: IntervalTemporalGraph,
    path: TemporalPath,
) -> TemporalPath:
    """Map a witness path on the expansion back to interval arcs plus departures.

    Each point arc's appearance time becomes the departure time of some
    interval arc whose appearance window contains it.
    """
    arcs = []
    deps = []
    for a in path.arcs:
        match = None
        for ia in g.arcs:
            if (ia.u, ia.v, ia.delta) == (a.u, a.v, a.delta) and ia.tau_start <= a.tau <= ia.tau_end:
                match = ia
                break
        if match is None:
            raise ArcNotInGraphError(f"no interval arc covers expanded arc {a}")
        arcs.append(match)
        deps.append(a.tau)
    return TemporalPath(arcs=tuple(arcs), departures=tuple(deps))


def sorted_insert(trace: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Insert ``v`` into a sorted node-id tuple (``v`` must be absent)."""
    i = bisect.bisect_left(trace, v)
    return trace[:i] + (v,) + trace[i:]
