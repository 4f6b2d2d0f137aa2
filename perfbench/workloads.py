"""Workloads: seeded inputs, the query each one times, and its references.

Every query drives the library's public functions in the order the
``solve`` command uses them (parse, width, [expand], solve, retrieve,
[lift]) through a probe (see ``probes``) and returns an ``Outcome``.
Inputs are made in ``setup`` from the seed alone; the library sees only
the generated graphs.  ``references`` runs the correctness cross-checks
that need no timing: the brute-force oracle on a small sibling instance
from the same generator, and ``solve_unit`` against ``solve_general``
where the delays allow both.  Each cross-check is recorded in the run's
``Tally`` like a query.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from restless_reach import (
    SubsetSumInstance,
    expand_interval_to_point,
    gen_ladder,
    gen_subset_sum_instance,
    interval_vertex_im_width,
    lift_path_to_interval,
    oracle_reachable,
    parse_graph_ex,
    point_graph,
    retrieve_path,
    serialize_graph,
    solve_general,
    solve_unit,
    vertex_im_width,
)
from restless_reach.model import IntervalTemporalGraph, PointTemporalGraph, TemporalPath
from restless_reach.solver_unit import ReachResult

from checks import Tally


@dataclass
class Witness:
    """A path some query returned, with what it claims to connect."""

    graph: PointTemporalGraph | IntervalTemporalGraph
    path: TemporalPath
    s: int
    t: int
    delta_max: int


@dataclass
class Outcome:
    solver: str            # "solver_unit" or "solver_general"
    arcs: int              # timed arcs solved, counted after expansion
    result: ReachResult
    witnesses: list[Witness]
    width: int | None = None


@dataclass
class Expect:
    """What a correct answer looks like; ``None`` fields are not checked."""

    reachable: range | frozenset | None = None
    answers: dict[int, bool] = field(default_factory=dict)


@dataclass
class Item:
    """One query: ``query(probe, *args)`` plus the answer it must give."""

    label: str
    query: Callable[..., Outcome]
    args: tuple
    expect: Expect


@dataclass
class State:
    items: list[Item]
    width: int | None = None     # width measured during set-up, if any


# --- ladder-oneshot ------------------------------------------------------

LADDER_DELTA = 1
# k_ladder per size class: 6k-4 arcs, so about 3.8*10^3 to 3.8*10^4 arcs.
LADDER_SIZES = (630, 2000, 6300)
LADDER_JITTER = 0.01


def ladder_query(probe, text: str, target: int) -> Outcome:
    g = probe.call("graph_io.parse", parse_graph_ex, text).graph
    k = probe.call("widths.width", vertex_im_width, g)
    result = probe.call(
        "solver_unit.solve", solve_unit, g, 0, LADDER_DELTA, record_paths=True,
    )
    path = probe.call(
        "solver_unit.retrieve", retrieve_path, result, g, 0, target, LADDER_DELTA,
    )
    return Outcome("solver_unit", len(g.arcs), result,
                   [Witness(g, path, 0, target, LADDER_DELTA)], width=k)


def ladder_setup(seed: int) -> State:
    rng = random.Random(seed)
    items = []
    for base in LADDER_SIZES:
        k = round(base * (1 + rng.uniform(-LADDER_JITTER, LADDER_JITTER)))
        text = serialize_graph(gen_ladder(k))
        # From node 0 with unit waits the scan sweeps both rails; node k-1,
        # the end of the first rail, is the latest to be reached.
        items.append(Item(f"ladder k={k}", ladder_query, (text, k - 1),
                          Expect(reachable=range(2 * k))))
    rng.shuffle(items)
    return State(items)


def ladder_references(state: State, seed: int, tally: Tally) -> None:
    _oracle_agrees(gen_ladder(3), [0, 4], LADDER_DELTA, tally)
    smallest = min(state.items, key=lambda item: len(item.args[0]))
    _solvers_agree(parse_graph_ex(smallest.args[0]).graph, 0, LADDER_DELTA, tally)


# --- band-queries --------------------------------------------------------

BAND = dict(blocks=40, w=6, stride=3, arcs_per_block=72, max_delay=2, span=6)
BAND_DELTA = 2
BAND_QUERIES = 3       # distinct sources per round
BAND_TARGETS = 4       # witnesses retrieved per query, one per quarter


def gen_band(blocks: int, w: int, stride: int, arcs_per_block: int,
             max_delay: int, span: int, seed: int) -> PointTemporalGraph:
    """Random point graph of bounded vertex width, built as a band.

    Block ``b`` owns nodes ``[b*stride, b*stride + w)`` and the times
    ``[b*span, (b+1)*span)``; each of its arcs joins two of its nodes at a
    uniform time of that range, with a delay uniform in ``1..max_delay``.
    Consecutive blocks share ``w - stride`` nodes, so paths run the whole
    band, while only the nodes of about ``w/stride + 1`` consecutive
    blocks are active at once.  The width this gives is measured, never
    assumed: ``w=6, stride=3`` yields 9.
    """
    rng = random.Random(seed)
    n = (blocks - 1) * stride + w
    arcs = []
    for b in range(blocks):
        lo = b * stride
        t0 = b * span
        for _ in range(arcs_per_block):
            u = lo + rng.randrange(w)
            v = lo + rng.randrange(w - 1)
            if v >= u:
                v += 1
            arcs.append((u, v, t0 + rng.randrange(span), rng.randint(1, max_delay)))
    return point_graph(n, arcs)


def band_query(probe, g: PointTemporalGraph, source: int, targets: tuple) -> Outcome:
    result = probe.call(
        "solver_general.solve", solve_general, g, source, BAND_DELTA, record_paths=True,
    )
    witnesses = []
    for t in targets:
        if result.reachable[t]:
            path = probe.call(
                "solver_unit.retrieve", retrieve_path, result, g, source, t, BAND_DELTA,
            )
            witnesses.append(Witness(g, path, source, t, BAND_DELTA))
    return Outcome("solver_general", len(g.arcs), result, witnesses)


def band_setup(seed: int) -> State:
    rng = random.Random(seed)
    text = serialize_graph(gen_band(seed=seed, **BAND))
    g = parse_graph_ex(text).graph
    # Sources sit in the first block so that reach spans the band; each
    # query draws one target per quarter of the band.
    sources = rng.sample(range(BAND["w"]), BAND_QUERIES)
    quarter = g.n // 4
    items = []
    for s in sources:
        targets = tuple(rng.randrange(q * quarter, (q + 1) * quarter)
                        for q in range(BAND_TARGETS))
        items.append(Item(f"band s={s}", band_query, (g, s, targets), Expect()))
    return State(items, width=vertex_im_width(g))


def band_references(state: State, seed: int, tally: Tally) -> None:
    small = gen_band(seed=seed, **dict(BAND, blocks=2, arcs_per_block=18))
    _oracle_agrees(small, [0, 1, 2], BAND_DELTA, tally)
    unit = gen_band(seed=seed, **dict(BAND, blocks=20, max_delay=1))
    for s in range(3):
        _solvers_agree(unit, s, BAND_DELTA, tally)


# --- subsetsum-interval --------------------------------------------------

SUBSET_ITEMS = 30
SUBSET_RANGE = (20, 140)
SUBSET_ARCS = 10000       # expanded arc count every instance is scaled to
SUBSET_QUERIES = 4        # half with a reachable target, half without


def expanded_arcs(xs) -> int:
    """Arcs of the gadget's point expansion, computed without building it.

    Item ``i`` contributes two interval arcs whose windows span the sum of
    the items before it plus one instant; the target arc adds one more.
    """
    return 2 * len(xs) + 1 + 2 * sum(itertools.accumulate(xs[:-1], initial=0))


def subset_sums(xs) -> int:
    """Bit ``v`` set iff some subset of ``xs`` sums to ``v`` (exact)."""
    bits = 1
    for x in xs:
        bits |= bits << x
    return bits


def subsetsum_query(probe, text: str, n_items: int) -> Outcome:
    ig = probe.call("graph_io.parse", parse_graph_ex, text).graph
    k = probe.call("widths.width", interval_vertex_im_width, ig)
    g = probe.call("model.expand", expand_interval_to_point, ig)
    result = probe.call("solver_general.solve", solve_general, g, 0, 0, record_paths=True)
    t = n_items + 1 if result.reachable[n_items + 1] else n_items
    path = probe.call("solver_unit.retrieve", retrieve_path, result, g, 0, t, 0)
    lifted = probe.call("model.lift", lift_path_to_interval, ig, path)
    return Outcome("solver_general", len(g.arcs), result,
                   [Witness(g, path, 0, t, 0), Witness(ig, lifted, 0, t, 0)], width=k)


def subset_instance(rng: random.Random, want: bool) -> tuple[list[int], int]:
    """Seeded items whose expansion has about ``SUBSET_ARCS`` arcs, and a
    target that some subset hits iff ``want``.

    The arc count beyond its constant part is linear in the items, so the
    drawn items are scaled to it; rounding leaves it within half a percent.
    """
    raw = [rng.randint(*SUBSET_RANGE) for _ in range(SUBSET_ITEMS)]
    fixed = expanded_arcs([0] * SUBSET_ITEMS)
    scale = (SUBSET_ARCS - fixed) / (expanded_arcs(raw) - fixed)
    xs = [max(1, round(x * scale)) for x in raw]
    sums = subset_sums(xs)
    candidates = [v for v in range(1, sum(xs) + 1) if bool(sums >> v & 1) == want]
    return xs, rng.choice(candidates)


def subsetsum_setup(seed: int) -> State:
    rng = random.Random(seed)
    items = []
    for q in range(SUBSET_QUERIES):
        want = q % 2 == 0
        xs, target = subset_instance(rng, want)
        text = serialize_graph(gen_subset_sum_instance(SubsetSumInstance(xs, target)).graph)
        items.append(Item(f"subset-sum {'yes' if want else 'no'}", subsetsum_query,
                          (text, len(xs)), Expect(answers={len(xs) + 1: want})))
    rng.shuffle(items)
    return State(items)


def subsetsum_references(state: State, seed: int, tally: Tally) -> None:
    rng = random.Random(seed)
    for want in (True, False):
        xs = [rng.randint(1, 2) for _ in range(3)]
        sums = subset_sums(xs)
        target = next(v for v in range(1, sum(xs) + 2) if bool(sums >> v & 1) == want)
        inst = gen_subset_sum_instance(SubsetSumInstance(xs, target))
        g = expand_interval_to_point(inst.graph)
        _oracle_agrees(g, [0], 0, tally)
        got = solve_general(g, 0, 0).reachable[inst.t]
        tally.record(f"subset-sum gadget {xs} -> {target}",
                     [] if got == want else [f"answered {got}, exact reference says {want}"])


# --- nonstrict-instant ---------------------------------------------------

CHAIN_SIZES = (80, 120, 170)
CHAIN_JITTER = 1          # nodes; cost is cubic in the length


def chain_graph(n: int, rng: random.Random) -> tuple[PointTemporalGraph, int, int]:
    """Zero-delay chain through a seeded relabelling of ``0..n-1``, every
    arc at time 0, arcs listed in seeded order; returns (graph, s, t)."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = [(order[i], order[i + 1], 0, 0) for i in range(n - 1)]
    rng.shuffle(arcs)
    return point_graph(n, arcs, non_strict=True), order[0], order[-1]


def chain_query(probe, g: PointTemporalGraph, s: int, t: int) -> Outcome:
    result = probe.call(
        "solver_unit.solve", solve_unit, g, s, 0, record_paths=True, non_strict=True,
    )
    path = probe.call("solver_unit.retrieve", retrieve_path, result, g, s, t, 0)
    return Outcome("solver_unit", len(g.arcs), result, [Witness(g, path, s, t, 0)])


def chain_setup(seed: int) -> State:
    rng = random.Random(seed)
    items = []
    for base in CHAIN_SIZES:
        n = base + rng.randint(-CHAIN_JITTER, CHAIN_JITTER)
        generated, s, t = chain_graph(n, rng)
        g = parse_graph_ex(serialize_graph(generated)).graph
        items.append(Item(f"chain n={n}", chain_query, (g, s, t), Expect(reachable=range(n))))
    rng.shuffle(items)
    return State(items)


def chain_references(state: State, seed: int, tally: Tally) -> None:
    g, s, _ = chain_graph(10, random.Random(seed))
    _oracle_agrees(g, [s], 0, tally, non_strict=True)


# --- shared cross-checks -------------------------------------------------

def _oracle_agrees(g, sources, delta_max, tally: Tally, *, non_strict=False) -> None:
    for s in sources:
        expected = oracle_reachable(g, s, delta_max).reachable
        if non_strict:
            got = solve_unit(g, s, delta_max, non_strict=True).reachable
        elif g.uniform_delay_one:
            got = solve_unit(g, s, delta_max).reachable
        else:
            got = solve_general(g, s, delta_max).reachable
        tally.record(f"oracle, n={g.n} M={len(g.arcs)} s={s}",
                     [] if got == expected else ["reachable set differs from the oracle"])


def _solvers_agree(g, s, delta_max, tally: Tally) -> None:
    unit = solve_unit(g, s, delta_max).reachable
    general = solve_general(g, s, delta_max).reachable
    tally.record(f"solve_unit vs solve_general, n={g.n} s={s}",
                 [] if unit == general else ["reachable sets differ"])


@dataclass
class Workload:
    name: str
    setup: Callable[[int], State]
    references: Callable[[State, int, Tally], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder-oneshot", ladder_setup, ladder_references),
        Workload("band-queries", band_setup, band_references),
        Workload("subsetsum-interval", subsetsum_setup, subsetsum_references),
        Workload("nonstrict-instant", chain_setup, chain_references),
    )
}
