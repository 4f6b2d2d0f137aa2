"""Exponential-time ground truth for testing the solvers and reductions.

Everything here favors transparency over speed: plain depth-first
enumeration with no memoization, guarded by hard size limits so an
oversized call fails loudly instead of silently poisoning a test run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (NodeId, PointTemporalGraph, TemporalGraphError, TemporalPath, check_node,
                    check_wait_bound)


class OracleGuardError(TemporalGraphError):
    """Input exceeds the oracle's configured search-space guard."""


class TimeIndexError(TemporalGraphError):
    """``oracle_traces`` was given a time index outside the graph's
    appearance times."""


@dataclass
class OracleResult:
    reachable: list[bool]
    witness: dict[NodeId, TemporalPath]


def _guard(g: PointTemporalGraph, max_nodes: int, max_arcs: int) -> None:
    if g.n > max_nodes or len(g.arcs) > max_arcs:
        raise OracleGuardError(
            f"oracle guard exceeded: n={g.n} (max {max_nodes}), "
            f"M={len(g.arcs)} (max {max_arcs})"
        )


def _out_arcs(g: PointTemporalGraph):
    out: dict[int, list] = {}
    for a in g.arcs:
        out.setdefault(a.u, []).append(a)
    return out


def iter_restless_paths(g: PointTemporalGraph, s: NodeId, delta_max: int):
    """Yield every restless temporal path from ``s`` (including the empty
    one) as a list of timed arcs, depth first.

    Chaining requires each arc to depart no earlier than the previous
    arrival, with the intermediate wait at most ``delta_max``; nodes are
    never revisited.  Works for any delay regime, including all-zero
    delays, where the same conditions express the non-strict setting.
    """
    out = _out_arcs(g)
    path: list = []

    def walk(node, arrival, visited):
        yield path
        for a in out.get(node, ()):
            if a.v in visited:
                continue
            if arrival is not None:
                wait = a.tau - arrival
                if wait < 0 or wait > delta_max:
                    continue
            visited.add(a.v)
            path.append(a)
            yield from walk(a.v, a.tau + a.delta, visited)
            path.pop()
            visited.remove(a.v)

    yield from walk(s, None, {s})


def oracle_reachable(
    g: PointTemporalGraph,
    s: NodeId,
    delta_max: int,
    *,
    max_nodes: int = 12,
    max_arcs: int = 40,
) -> OracleResult:
    """Exact restless reachability from ``s`` by exhaustive path enumeration.

    The enumeration conditions cover every delay regime, zero-delay graphs
    included.  Raises ``NodeRangeError`` for a source outside ``[0, n)``
    or given as a ``bool``, and ``WaitBoundError`` for a negative
    ``delta_max``.
    """
    _guard(g, max_nodes, max_arcs)
    check_node(g.n, s, "source")
    check_wait_bound(delta_max)
    reachable = [False] * g.n
    witness: dict[NodeId, TemporalPath] = {}
    for path in iter_restless_paths(g, s, delta_max):
        end = path[-1].v if path else s
        if not reachable[end]:
            reachable[end] = True
            witness[end] = TemporalPath(arcs=tuple(path))
    return OracleResult(reachable=reachable, witness=witness)


def oracle_traces(
    g: PointTemporalGraph,
    s: NodeId,
    delta_max: int,
    time_index: int,
    u: NodeId,
    *,
    max_nodes: int = 12,
    max_arcs: int = 40,
) -> dict[tuple[int, ...], int]:
    """Traces of all restless s-to-u paths restricted to the arc prefix.

    ``time_index`` selects the ``time_index``-th smallest appearance time
    ``tau_i`` (0-based); only arcs appearing at or before ``tau_i`` may be
    used.  Each path is projected onto the nodes still active at the last
    time an arc into ``u`` appears within the prefix, and for every
    distinct projection the maximum arrival time is kept.  For ``u == s``
    the answer is the solver's seeding convention ``{(s,): tau_i}``.
    Raises ``NodeRangeError`` for ``s`` or ``u`` outside ``[0, n)``,
    ``WaitBoundError`` for a negative ``delta_max`` and
    ``TimeIndexError`` for a ``time_index`` outside the appearance times.
    """
    _guard(g, max_nodes, max_arcs)
    check_node(g.n, s, "source")
    check_node(g.n, u, "node")
    check_wait_bound(delta_max)
    times = sorted({a.tau for a in g.arcs})
    if not (0 <= time_index < len(times)):
        raise TimeIndexError(f"time index {time_index!r} out of range "
                             f"for {len(times)} appearance times")
    tau_i = times[time_index]
    if u == s:
        return {(s,): tau_i}
    in_times = [a.tau for a in g.arcs if a.v == u and a.tau <= tau_i]
    if not in_times:
        return {}
    tau_u = max(in_times)
    node_min, node_max = g.node_windows
    prefix = point_subgraph_until(g, tau_i)
    result: dict[tuple[int, ...], int] = {}
    for path in iter_restless_paths(prefix, s, delta_max):
        if not path or path[-1].v != u:
            continue
        nodes = {path[0].u}
        nodes.update(a.v for a in path)
        trace = tuple(sorted(
            w for w in nodes
            if node_min[w] <= tau_u <= node_max[w]
        ))
        arrival = path[-1].tau + path[-1].delta
        if result.get(trace, -1) < arrival:
            result[trace] = arrival
    return result


def point_subgraph_until(g: PointTemporalGraph, tau: int) -> PointTemporalGraph:
    """The graph restricted to arcs appearing at or before ``tau``, in
    their order in ``g``."""
    keep = [i for i, t in enumerate(g.tau) if t <= tau]
    return PointTemporalGraph.from_columns(
        g.n, *([col[i] for i in keep] for col in (g.u, g.v, g.tau, g.delta)),
        non_strict=g.non_strict, sort=False,
    )


def subset_sum_bruteforce(xs: list[int], target: int) -> bool:
    """Exact subset-sum decision by include/exclude enumeration."""
    if len(xs) > 24:
        raise OracleGuardError(f"subset-sum guard exceeded: {len(xs)} > 24 items")
    if any(x < 1 for x in xs):
        raise ValueError("subset-sum items must be positive")

    def walk(i, remaining):
        if remaining == 0:
            return True
        if i == len(xs) or remaining < 0:
            return False
        return walk(i + 1, remaining - xs[i]) or walk(i + 1, remaining)

    return walk(0, target)


def sat_bruteforce(clauses, n: int | None = None, *, strict_shape: bool = False) -> bool:
    """Exact CNF satisfiability by assignment enumeration.

    ``clauses`` holds tuples of signed 1-based literals.  With
    ``strict_shape`` the formula must have exactly 3 literals per clause
    and exactly 4 occurrences per variable.
    """
    from .generators import Cnf34Formula, validate_cnf34

    if isinstance(clauses, Cnf34Formula):
        formula = clauses
        clauses = formula.clauses
        n = formula.n
    if n is None:
        n = max((abs(lit) for cl in clauses for lit in cl), default=0)
    if n > 20:
        raise OracleGuardError(f"SAT guard exceeded: {n} > 20 variables")
    if strict_shape:
        validate_cnf34(Cnf34Formula(n=n, clauses=[tuple(c) for c in clauses]))
    for mask in range(1 << n):
        ok = True
        for cl in clauses:
            if not any(
                (mask >> (abs(lit) - 1)) & 1 == (1 if lit > 0 else 0)
                for lit in cl
            ):
                ok = False
                break
        if ok:
            return True
    return False
