"""Instance generators: hardness-construction gadgets and fuzzing inputs.

The SAT gadget turns an exact (3,4)-CNF formula into a unit-delay point
graph where a 1-restless source-to-target path exists iff the formula is
satisfiable.  The subset-sum gadget builds an interval graph with delays
encoding partial sums, where a 0-restless path exists iff some subset
hits the target.  The ladder families give bounded-width graphs whose
underlying structure is cycle-rich.  All generators are pure and
deterministic; random ones take an explicit seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .model import (
    MAX_TIME,
    Instance,
    PointTemporalGraph,
    TemporalGraphError,
    TimeOverflowError,
    interval_graph,
    point_graph,
)


class FormulaShapeError(TemporalGraphError):
    """A CNF formula violates the exact-(3,4) shape."""


@dataclass(frozen=True)
class Cnf34Formula:
    """CNF with variables 1..n; clauses are tuples of signed 1-based literals."""

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, clauses):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in clauses))


@dataclass(frozen=True)
class SubsetSumInstance:
    xs: tuple[int, ...]
    target: int

    def __init__(self, xs, target: int):
        object.__setattr__(self, "xs", tuple(xs))
        object.__setattr__(self, "target", int(target))


def validate_cnf34(f: Cnf34Formula) -> None:
    """Raise FormulaShapeError naming the first offending clause/variable."""
    counts = {v: 0 for v in range(1, f.n + 1)}
    for j, clause in enumerate(f.clauses, start=1):
        if len(clause) != 3:
            raise FormulaShapeError(f"clause {j} has {len(clause)} literals, expected 3")
        seen = set()
        for lit in clause:
            var = abs(lit)
            if lit == 0 or var > f.n:
                raise FormulaShapeError(f"clause {j} has invalid literal {lit}")
            if var in seen:
                raise FormulaShapeError(f"clause {j} repeats variable {var}")
            seen.add(var)
            counts[var] += 1
    for var, c in counts.items():
        if c != 4:
            raise FormulaShapeError(f"variable {var} occurs {c} times, expected 4")


def gen_sat_instance(f: Cnf34Formula) -> Instance:
    """Unit-delay point graph in which a 1-restless path from the source
    to the final clause node exists iff the formula is satisfiable.

    The source-side chains force the path to commit, per variable, to one
    polarity's occurrence nodes; clause sections then detour through an
    occurrence node of a satisfied literal, which must still be unvisited.
    """
    validate_cnf34(f)
    n = f.n
    m = len(f.clauses)

    def s_node(i):
        return i  # 0..n+1

    def c_node(j):
        return n + 2 + (j - 1)  # j in 1..m+1

    pos_base = n + m + 3
    neg_base = pos_base + 4 * n

    def occ_node(var, k, positive):
        base = pos_base if positive else neg_base
        return base + (var - 1) * 4 + (k - 1)

    labels = {}
    for i in range(n + 2):
        labels[s_node(i)] = f"s{i}"
    for j in range(1, m + 2):
        labels[c_node(j)] = f"c{j}"
    for var in range(1, n + 1):
        for k in range(1, 5):
            labels[occ_node(var, k, True)] = f"x{var}.{k}"
            labels[occ_node(var, k, False)] = f"~x{var}.{k}"

    arcs = []
    for i in range(n):
        arcs.append((s_node(i), occ_node(i + 1, 1, True), 10 * i))
        arcs.append((s_node(i), occ_node(i + 1, 1, False), 10 * i))
    for var in range(1, n + 1):
        for k in range(1, 4):
            t = 10 * (var - 1) + 2 * k
            arcs.append((occ_node(var, k, True), occ_node(var, k + 1, True), t))
            arcs.append((occ_node(var, k, False), occ_node(var, k + 1, False), t))
        arcs.append((occ_node(var, 4, True), s_node(var), 10 * var - 2))
        arcs.append((occ_node(var, 4, False), s_node(var), 10 * var - 2))
    arcs.append((s_node(n), s_node(n + 1), 10 * n))
    arcs.append((s_node(n + 1), c_node(1), 10 * n + 2))

    occurrence = {v: 0 for v in range(1, n + 1)}
    for j, clause in enumerate(f.clauses, start=1):
        for lit in clause:
            var = abs(lit)
            occurrence[var] += 1
            node = occ_node(var, occurrence[var], lit > 0)
            arcs.append((c_node(j), node, 10 * n + 4 * j))
            arcs.append((node, c_node(j + 1), 10 * n + 4 * j + 2))

    graph = point_graph(9 * n + m + 3, arcs)
    return Instance(graph=graph, s=s_node(0), t=c_node(m + 1), delta_max=1, labels=labels)


def subset_sum_times(inst: SubsetSumInstance):
    """The delay/window sequences driving the subset-sum gadget.

    delta[i] is one plus the i-th prefix sum; window starts advance by the
    previous delay and window ends by the current one, which makes each
    window start exactly one past the previous window's end.
    """
    xs = inst.xs
    n = len(xs)
    delta = [1] * (n + 1)
    acc = 0
    for i, x in enumerate(xs, start=1):
        acc += x
        delta[i] = 1 + acc
    sigma = [0] * (n + 1)
    tau = [0] * (n + 1)
    for i in range(1, n + 1):
        sigma[i] = sigma[i - 1] + delta[i - 1]
        tau[i] = tau[i - 1] + delta[i]
    if tau[n] + delta[n] > MAX_TIME or sigma[n] + inst.target + 1 > MAX_TIME:
        raise TimeOverflowError("subset-sum gadget times overflow the 64-bit range")
    return delta, sigma, tau


def gen_subset_sum_instance(inst: SubsetSumInstance) -> Instance:
    """Interval graph in which a 0-restless path from node 0 to node n+1
    exists iff some subset of ``xs`` sums to the target."""
    xs = inst.xs
    if not xs:
        raise ValueError("subset-sum instance needs at least one item")
    if any(x < 1 for x in xs):
        raise ValueError("subset-sum items must be positive")
    if inst.target < 1:
        raise ValueError("subset-sum target must be positive")
    n = len(xs)
    delta, sigma, tau = subset_sum_times(inst)
    arcs = []
    for i in range(n):
        arcs.append((i, i + 1, sigma[i], tau[i], delta[i]))
        arcs.append((i, i + 1, sigma[i], tau[i], delta[i + 1]))
    arcs.append((n, n + 1, sigma[n] + inst.target, sigma[n] + inst.target, 1))
    labels = {i: str(i) for i in range(n + 1)}
    labels[0] = "s"
    labels[n + 1] = "t"
    return Instance(
        graph=interval_graph(n + 2, arcs),
        s=0, t=n + 1, delta_max=0, labels=labels,
    )


def gen_ladder(k: int) -> PointTemporalGraph:
    """Symmetric unit-delay ladder: rung arcs between the two rails of
    step i appear at time 2i, rail arcs between steps i and i+1 at time
    2(i+1), both directions everywhere."""
    if k < 2:
        raise ValueError("ladder needs k >= 2")
    arcs = []
    for i in range(k):
        u, v = i, k + i
        arcs.append((u, v, 2 * i))
        arcs.append((v, u, 2 * i))
    for i in range(k - 1):
        t = 2 * (i + 1)
        arcs.append((i, i + 1, t))
        arcs.append((i + 1, i, t))
        arcs.append((k + i, k + i + 1, t))
        arcs.append((k + i + 1, k + i, t))
    return point_graph(2 * k, arcs)


def ladder_labels(k: int) -> dict[int, str]:
    labels = {i: f"u{i}" for i in range(k)}
    labels.update({k + i: f"v{i}" for i in range(k)})
    return labels


def gen_ladder_shortcut(k: int) -> Instance:
    """Ladder plus one long-lived shortcut node ``w`` bridging the first
    and last steps; the waiting bound is left to the caller."""
    base = gen_ladder(k)
    w = 2 * k
    arcs = list(zip(base.u, base.v, base.tau, base.delta))
    arcs += [(0, w, 0), (w, k - 1, 2 * (k - 1))]
    labels = ladder_labels(k)
    labels[w] = "w"
    return Instance(
        graph=point_graph(2 * k + 1, arcs),
        s=0, t=k - 1, delta_max=None, labels=labels,
    )


def gen_random_point(
    n: int,
    m: int,
    max_time: int,
    max_delay: int,
    seed: int,
) -> PointTemporalGraph:
    """Seed-deterministic random point graph with ``m`` arcs on ``n`` nodes.

    Delays are uniform in 1..max_delay; ``max_delay=0`` produces an
    all-zero-delay graph flagged non-strict.  No self-loops.
    """
    if n < 2 and m > 0:
        raise ValueError("need at least two nodes to place arcs")
    rng = random.Random(seed)
    arcs = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        tau = rng.randint(0, max_time)
        delta = 0 if max_delay == 0 else rng.randint(1, max_delay)
        arcs.append((u, v, tau, delta))
    return point_graph(n, arcs, non_strict=(max_delay == 0))


def gen_random_34sat(n: int, seed: int, max_attempts: int = 1000) -> Cnf34Formula:
    """Seed-deterministic random exact (3,4) formula on ``n`` variables.

    Pairs the 4n occurrence slots with the 3m clause slots by a seeded
    shuffle, resampling whenever a clause would repeat a variable.
    """
    if n % 3 != 0 or n < 3:
        raise ValueError("variable count must be a positive multiple of 3")
    m = 4 * n // 3
    rng = random.Random(seed)
    slots = [v for v in range(1, n + 1) for _ in range(4)]
    for _ in range(max_attempts):
        rng.shuffle(slots)
        clauses = [slots[3 * j:3 * j + 3] for j in range(m)]
        if any(len(set(c)) != 3 for c in clauses):
            continue
        signed = tuple(
            tuple(var if rng.random() < 0.5 else -var for var in clause)
            for clause in clauses
        )
        return Cnf34Formula(n=n, clauses=signed)
    raise FormulaShapeError(
        f"could not build a valid (3,4) formula after {max_attempts} attempts; retry with another seed"
    )


def enumerate_point_graphs(
    n: int,
    times,
    delays,
    max_arcs: int,
    *,
    non_strict: bool = False,
):
    """Every point graph on ``n`` nodes whose arcs are drawn (without
    repetition) from the full universe of (u, v, tau, delta) combinations.

    Deterministic order; used for exhaustive solver sweeps.
    """
    universe = [
        (u, v, tau, delta)
        for u in range(n)
        for v in range(n)
        if u != v
        for tau in times
        for delta in delays
    ]
    for size in range(max_arcs + 1):
        for combo in itertools.combinations(universe, size):
            yield point_graph(n, combo, non_strict=non_strict)
