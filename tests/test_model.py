import pytest
from hypothesis import given, strategies as st

from restless_reach import (
    ArcNotInGraphError,
    ExpansionSizeError,
    IntervalTimedArc,
    PointTemporalGraph,
    SubsetSumInstance,
    TemporalPath,
    TimedArc,
    check_restless_path,
    expand_interval_to_point,
    gen_subset_sum_instance,
    interval_graph,
    lift_path_to_interval,
    point_graph,
    retrieve_path,
    solve_general,
    underlying_graph,
    validate_interval_graph,
    validate_point_graph,
)
from restless_reach.model import MAX_TIME

from conftest import S, T, U, V, point_graph_strategy


def path_of(*arcs):
    return TemporalPath(arcs=tuple(TimedArc(*a) for a in arcs))


class TestValidation:
    def test_unsorted_arcs_reported(self):
        g = PointTemporalGraph(
            n=2, u=(0, 0), v=(1, 1), tau=(3, 1), delta=(1, 1),
            lifetime=4,
            uniform_delay_one=True,
        )
        report = validate_point_graph(g)
        assert any("not sorted" in v for v in report.violations)

    def test_four_node_graph_valid(self, four_node_graph):
        assert validate_point_graph(four_node_graph).ok

    def test_empty_graph_valid_with_zero_lifetime(self):
        g = point_graph(1, [])
        assert validate_point_graph(g).ok
        assert g.lifetime == 0

    def test_zero_delay_needs_non_strict_flag(self):
        g = point_graph(2, [(0, 1, 2, 0)])
        assert any("zero delay" in v for v in validate_point_graph(g).violations)
        ok = point_graph(2, [(0, 1, 2, 0)], non_strict=True)
        assert validate_point_graph(ok).ok

    def test_out_of_range_node_reported(self):
        g = point_graph(2, [(0, 5, 1, 1)])
        assert any("out of range" in v for v in validate_point_graph(g).violations)

    def test_overflowing_arrival_reported(self):
        g = PointTemporalGraph(
            n=2, u=(0,), v=(1,), tau=(MAX_TIME,), delta=(1,),
            lifetime=MAX_TIME + 1,
            uniform_delay_one=True,
        )
        assert any("overflow" in v for v in validate_point_graph(g).violations)

    def test_inconsistent_flags_reported(self):
        g = PointTemporalGraph(
            n=2, u=(0,), v=(1,), tau=(1,), delta=(2,), lifetime=3, uniform_delay_one=True,
        )
        assert any("uniform_delay_one" in v for v in validate_point_graph(g).violations)

    def test_interval_validation(self):
        g = interval_graph(2, [(0, 1, 4, 2, 1)])
        assert any("end before start" in v for v in validate_interval_graph(g).violations)
        assert validate_interval_graph(interval_graph(2, [(0, 1, 2, 4, 1)])).ok


class TestRestlessPathCheck:
    def test_witness_accepted(self, four_node_graph):
        p = path_of((S, U, 1, 1), (U, V, 4, 2), (V, T, 6, 1))
        assert check_restless_path(four_node_graph, p, S, T, 2)

    def test_tighter_wait_bound_rejects(self, four_node_graph):
        p = path_of((S, U, 1, 1), (U, V, 4, 2), (V, T, 6, 1))
        assert not check_restless_path(four_node_graph, p, S, T, 1)

    def test_empty_path_only_for_equal_endpoints(self, four_node_graph):
        assert check_restless_path(four_node_graph, TemporalPath(), S, S, 0)
        assert not check_restless_path(four_node_graph, TemporalPath(), S, T, 0)

    def test_arc_not_in_graph_is_distinct_error(self, four_node_graph):
        p = path_of((S, U, 2, 1))
        with pytest.raises(ArcNotInGraphError):
            check_restless_path(four_node_graph, p, S, U, 2)

    def test_arc_multiplicity_checked_at_its_time(self):
        arcs = [(0, 1, 3, 1), (0, 1, 3, 1), (1, 2, 3, 2), (2, 3, 5, 1)]
        # Padding at other times puts arcs outside the bisected slices.
        padded = arcs + [(3, 4, t, 1) for t in range(10, 50)]
        repeated = path_of((0, 1, 3, 1), (0, 1, 3, 1))
        tripled = path_of((0, 1, 3, 1), (0, 1, 3, 1), (0, 1, 3, 1))
        absent = path_of((1, 2, 3, 1))
        long_absent = path_of(*arcs[2:], (3, 4, 6, 1))
        for chosen in (arcs, padded):
            for g in (point_graph(5, chosen), point_graph(5, chosen[::-1], sort=False)):
                assert not check_restless_path(g, repeated, 0, 1, 0)  # revisits 1
                for bad in (tripled, absent, long_absent):
                    with pytest.raises(ArcNotInGraphError):
                        check_restless_path(g, bad, 0, 4, 9)
                assert check_restless_path(g, path_of((1, 2, 3, 2), (2, 3, 5, 1)), 1, 3, 0)

    def test_wrong_endpoints_rejected(self, four_node_graph):
        p = path_of((S, U, 1, 1))
        assert check_restless_path(four_node_graph, p, S, U, 0)
        assert not check_restless_path(four_node_graph, p, S, T, 0)
        assert not check_restless_path(four_node_graph, p, U, U, 0)

    def test_swapped_arcs_rejected(self, four_node_graph):
        p = path_of((U, V, 4, 2), (S, U, 1, 1))
        assert not check_restless_path(four_node_graph, p, S, V, 5)

    def test_node_revisit_rejected(self):
        g = point_graph(4, [(0, 1, 0, 1), (1, 2, 1, 1), (2, 0, 2, 1), (0, 3, 3, 1)])
        loop = path_of((0, 1, 0, 1), (1, 2, 1, 1), (2, 0, 2, 1), (0, 3, 3, 1))
        assert not check_restless_path(g, loop, 0, 3, 0)
        prefix = path_of((0, 1, 0, 1), (1, 2, 1, 1))
        assert check_restless_path(g, prefix, 0, 2, 0)

    def test_departure_before_arrival_rejected(self):
        g = point_graph(3, [(0, 1, 5, 1), (1, 2, 3, 1)])
        p = path_of((0, 1, 5, 1), (1, 2, 3, 1))
        assert not check_restless_path(g, p, 0, 2, 99)

    def test_interval_path_departures(self):
        g = interval_graph(3, [(0, 1, 0, 4, 2), (1, 2, 3, 8, 1)])
        arcs = (IntervalTimedArc(0, 1, 0, 4, 2), IntervalTimedArc(1, 2, 3, 8, 1))
        good = TemporalPath(arcs=arcs, departures=(1, 3))
        assert check_restless_path(g, good, 0, 2, 0)
        late = TemporalPath(arcs=arcs, departures=(1, 5))
        assert not check_restless_path(g, late, 0, 2, 0)
        assert check_restless_path(g, late, 0, 2, 2)
        outside = TemporalPath(arcs=arcs, departures=(5, 7))
        assert not check_restless_path(g, outside, 0, 2, 9)

    @pytest.mark.parametrize("names, departures, s, t, delta_max, expected", [
        ("AB", (1, 3), 0, 2, 0, True),
        ("", None, 1, 1, 0, True),
        ("", None, 0, 1, 0, False),
        ("AB", None, 0, 2, 9, False),        # no departures
        ("AB", (1,), 0, 2, 9, False),        # too few departures
        ("AB", (1, 3), 1, 2, 9, False),      # wrong start
        ("AB", (1, 3), 0, 3, 9, False),      # wrong end
        ("ABC", (1, 3, 5), 0, 0, 9, False),  # revisits the source
        ("AD", (1, 5), 0, 3, 9, False),      # 0->1 then 2->3: broken chain
        ("AB", (1, 2), 0, 2, 9, False),      # departs before arriving
    ])
    def test_interval_path_shape(self, names, departures, s, t, delta_max, expected):
        arcs = {"A": (0, 1, 0, 4, 2), "B": (1, 2, 3, 8, 1),
                "C": (2, 0, 5, 9, 1), "D": (2, 3, 5, 9, 1)}
        g = interval_graph(4, arcs.values())
        path = TemporalPath(arcs=tuple(IntervalTimedArc(*arcs[x]) for x in names),
                            departures=departures)
        assert check_restless_path(g, path, s, t, delta_max) is expected

    def test_interval_path_absent_arc_raises(self):
        g = interval_graph(3, [(0, 1, 0, 4, 2), (1, 2, 3, 8, 1)])
        path = TemporalPath(arcs=(IntervalTimedArc(0, 1, 0, 4, 1),), departures=(1,))
        with pytest.raises(ArcNotInGraphError):
            check_restless_path(g, path, 0, 1, 0)


class TestUnderlyingGraph:
    def test_four_node_graph(self, four_node_graph):
        assert underlying_graph(four_node_graph).arcs == {(S, U), (U, V), (U, T), (V, T)}

    def test_empty(self):
        assert underlying_graph(point_graph(3, [])).arcs == frozenset()

    def test_parallel_timed_arcs_collapse(self):
        g = point_graph(2, [(0, 1, 4, 2), (0, 1, 7, 5)])
        assert underlying_graph(g).arcs == {(0, 1)}


class TestExpansion:
    def test_window_instantiates_every_offset(self):
        g = interval_graph(2, [(0, 1, 2, 4, 1)])
        expanded = expand_interval_to_point(g)
        assert [(a.u, a.v, a.tau, a.delta) for a in expanded.arcs] == [
            (0, 1, 2, 1), (0, 1, 3, 1), (0, 1, 4, 1),
        ]

    def test_degenerate_window_single_arc(self):
        g = interval_graph(2, [(0, 1, 5, 5, 1)])
        expanded = expand_interval_to_point(g)
        assert [(a.u, a.v, a.tau, a.delta) for a in expanded.arcs] == [(0, 1, 5, 1)]

    def test_overlapping_windows_deduplicate(self):
        g = interval_graph(2, [(0, 1, 2, 5, 1), (0, 1, 4, 7, 1)])
        expanded = expand_interval_to_point(g)
        assert [a.tau for a in expanded.arcs] == [2, 3, 4, 5, 6, 7]

    def test_cap_error_names_offending_arc(self):
        g = interval_graph(2, [(0, 1, 0, 10**6, 1)])
        with pytest.raises(ExpansionSizeError, match="tau_end=1000000"):
            expand_interval_to_point(g, cap=100)

    def test_underlying_commutes_with_expansion(self):
        g = interval_graph(4, [(0, 1, 0, 3, 2), (1, 2, 5, 9, 1), (0, 1, 2, 6, 2)])
        assert underlying_graph(expand_interval_to_point(g)) == underlying_graph(g)

    def test_lift_path_back_to_interval(self):
        g = interval_graph(3, [(0, 1, 0, 4, 2), (1, 2, 3, 8, 1)])
        expanded = expand_interval_to_point(g)
        p = path_of((0, 1, 1, 2), (1, 2, 3, 1))
        lifted = lift_path_to_interval(g, p)
        assert lifted.departures == (1, 3)
        assert check_restless_path(g, lifted, 0, 2, 0)

    def test_lift_matches_first_covering_arc(self):
        def brute_force_lift(g, path):
            arcs = []
            for a in path.arcs:
                match = None
                for ia in g.arcs:
                    if (ia.u, ia.v, ia.delta) == (a.u, a.v, a.delta) and ia.tau_start <= a.tau <= ia.tau_end:
                        match = ia
                        break
                arcs.append(match)
            return TemporalPath(arcs=tuple(arcs), departures=tuple(a.tau for a in path.arcs))

        inst = gen_subset_sum_instance(SubsetSumInstance((2, 3, 2, 5), 7))
        # Overlapping copies of the first item's windows make the choice
        # of the first covering arc matter.
        g = interval_graph(inst.graph.n, list(inst.graph.arcs) + [
            (0, 1, 0, 0, 1), (0, 1, 0, 9, 3), (0, 1, 0, 9, 1)])
        expanded = expand_interval_to_point(g)
        lifted = 0
        for s in range(g.n):
            result = solve_general(expanded, s, 0, record_paths=True)
            for v in sorted(result.reachable_set() - {s}):
                path = retrieve_path(result, expanded, s, v, 0)
                assert lift_path_to_interval(g, path) == brute_force_lift(g, path)
                lifted += 1
        assert lifted > 10

    def test_lift_rejects_uncovered_arc(self):
        g = interval_graph(3, [(0, 1, 0, 4, 2), (1, 2, 3, 8, 1)])
        for uncovered in ((0, 1, 5, 2), (0, 1, 1, 1), (1, 0, 1, 2)):
            with pytest.raises(ArcNotInGraphError):
                lift_path_to_interval(g, path_of(uncovered))


@given(point_graph_strategy())
def test_accepted_witness_flips_on_weaker_delta(g):
    from restless_reach import oracle_reachable

    res = oracle_reachable(g, 0, 3)
    for v, witness in res.witness.items():
        if len(witness.arcs) < 2:
            continue
        assert check_restless_path(g, witness, 0, v, 3)
        waits = [
            witness.arcs[i + 1].tau - witness.arcs[i].arrival
            for i in range(len(witness.arcs) - 1)
        ]
        worst = max(waits)
        if worst > 0:
            assert not check_restless_path(g, witness, 0, v, worst - 1)
