"""Tests of the benchmark itself: generator, correctness gate, traced run.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import gc

import pytest

from restless_reach import (
    SubsetSumInstance,
    TemporalPath,
    TimedArc,
    expand_interval_to_point,
    gen_ladder,
    gen_subset_sum_instance,
    serialize_graph,
    solve_general,
    vertex_im_width,
)

from checks import Tally, check_outcome
from probes import QUERY, Direct, Span, Tracer, layer_totals, self_times
from workloads import (
    BAND,
    BAND_DELTA,
    Expect,
    band_setup,
    expanded_arcs,
    gen_band,
    ladder_query,
    subset_sums,
    subsetsum_query,
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_band_has_stated_width_and_wide_reach(seed):
    g = gen_band(seed=seed, **BAND)
    assert vertex_im_width(g) == 9
    for s in (0, BAND["w"] - 1):
        reached = sum(solve_general(g, s, BAND_DELTA).reachable)
        assert reached >= 0.9 * g.n


def test_band_setup_records_measured_width():
    assert band_setup(1).width == 9


@pytest.mark.parametrize("xs", [[1], [3, 5, 7], [20, 140, 33, 60]])
def test_expanded_arc_count_matches_expansion(xs):
    ig = gen_subset_sum_instance(SubsetSumInstance(xs, 2)).graph
    assert expanded_arcs(xs) == len(expand_interval_to_point(ig).arcs)


def _ladder_outcome(k=6):
    text = serialize_graph(gen_ladder(k))
    return ladder_query(Direct(), text, k - 1), Expect(reachable=range(2 * k))


def test_correct_outcome_passes():
    outcome, expect = _ladder_outcome()
    assert check_outcome(outcome, expect) == []


def test_corrupted_witness_is_counted():
    outcome, expect = _ladder_outcome()
    w = outcome.witnesses[0]
    arcs = list(w.path.arcs)
    a = arcs[-1]
    arcs[-1] = TimedArc(a.u, a.v, a.tau + 2, a.delta)    # an arc the graph lacks
    w.path = TemporalPath(arcs=tuple(arcs))
    tally = Tally()
    tally.record("ladder", check_outcome(outcome, expect))
    assert (tally.attempted, tally.failed) == (1, 1)

    outcome, expect = _ladder_outcome()
    w = outcome.witnesses[0]
    w.path = TemporalPath(arcs=w.path.arcs[:-1])         # stops short of the target
    tally.record("ladder", check_outcome(outcome, expect))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_flipped_answer_is_counted():
    xs, target = [3, 5, 7], 12
    assert subset_sums(xs) >> target & 1
    text = serialize_graph(gen_subset_sum_instance(SubsetSumInstance(xs, target)).graph)
    t = len(xs) + 1
    expect = Expect(answers={t: True})
    outcome = subsetsum_query(Direct(), text, len(xs))
    tally = Tally()
    tally.record("subset-sum", check_outcome(outcome, expect))
    assert tally.failed == 0
    lifted = outcome.witnesses[1]
    assert lifted.graph is not outcome.witnesses[0].graph and lifted.path.departures

    outcome.result.reachable[t] = False
    tally.record("subset-sum", check_outcome(outcome, expect))
    assert (tally.attempted, tally.failed) == (2, 1)

    outcome, expect = _ladder_outcome()
    outcome.result.reachable[3] = False                  # drops a reachable node
    outcome.witnesses = []
    tally.record("ladder", check_outcome(outcome, expect))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_self_time_arithmetic_on_hand_built_tree():
    spans = [
        Span(0, QUERY, 0, None, 0.0, 10.0),
        Span(1, "graph_io.parse", 0, 0, 1.0, 4.0),
        Span(2, "solver_unit.solve", 0, 0, 4.0, 9.0),
        Span(3, "solver_unit.retrieve", 0, 2, 5.0, 7.0),   # nested under solve
        Span(4, QUERY, 1, None, 20.0, 21.5),
        Span(5, "graph_io.parse", 1, 4, 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 3.0, 3: 2.0, 4: 0.5, 5: 1.0}
    assert sum(own.values()) == sum(s.duration for s in spans if s.parent is None)
    totals = layer_totals(spans)
    assert totals["graph_io.parse"].calls == 2
    assert totals["graph_io.parse"].self_s == 4.0
    assert totals[QUERY].self_s == 2.5


def test_tracer_records_tree_and_attributes_gc_to_open_span():
    def query(probe):
        probe.call("graph_io.parse", lambda: sum(range(1000)))
        return probe.call("solver_unit.solve", gc.collect)

    with Tracer() as tracer:
        tracer.run_query(7, query)
    root, parse, solve = tracer.spans
    assert (root.name, root.parent, root.query) == (QUERY, None, 7)
    assert parse.parent == solve.parent == root.id
    assert root.start <= parse.start <= parse.end <= solve.start <= solve.end <= root.end
    assert solve.gen2_collections == 1 and solve.gc_pause_s > 0
    assert parse.gen2_collections == 0
    assert gc.callbacks.count(tracer._on_gc) == 0
