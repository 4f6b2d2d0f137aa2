import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import restless_reach

from restless_reach import (
    InvariantError,
    ModelMismatchError,
    NodeRangeError,
    SolveStats,
    TemporalGraphError,
    TemporalPath,
    TimeSet,
    check_restless_path,
    cleanup_delay,
    gen_random_point,
    oracle_reachable,
    point_graph,
    retrieve_path,
    solve_general,
    solve_unit,
)

from conftest import S, T, U, V, point_graph_strategy


def tset(*times, debug=False, budget=3):
    out = TimeSet(debug=debug)
    for t in times:
        out.insert(t, budget=budget)
    return out


def clean(table, tau, node_max, horizon=None, **options):
    """Clean at ``tau`` with the horizon (default ``tau``) of a non-strict round."""
    horizon = tau if horizon is None else horizon
    out = cleanup_delay(list(table.items()), tau, horizon, node_max, **options)
    return {trace: list(ts.times) for trace, ts in out}


class TestTimeSet:
    def test_insert_keeps_sorted_without_duplicates(self):
        ts = tset(5, 2, 9, 5, 2)
        assert ts.times == [2, 5, 9]

    def test_predecessor_query(self):
        ts = tset(2, 5, 9)
        assert ts.predecessor(1) is None
        assert ts.predecessor(2)[0] == 2
        assert ts.predecessor(7)[0] == 5
        assert ts.predecessor(100)[0] == 9

    def test_drop_below_is_ordered_split(self):
        ts = tset(2, 5, 9)
        ts.drop_below(5)
        assert ts.times == [5, 9]
        ts.drop_below(99)
        assert ts.times == []

    def test_merge_skips_present_times(self):
        a, b = tset(2, 5), tset(5, 9)
        a.merge_from(b)
        assert a.times == [2, 5, 9]

    def test_debug_copy_budget_enforced(self):
        # A time first stored under a singleton trace must never be copied.
        a = TimeSet(debug=True)
        a.insert(4, budget=0)
        b = TimeSet(debug=True)
        with pytest.raises(AssertionError):
            b.merge_from(a)

    def test_debug_checks_survive_optimize_flag(self):
        src = str(Path(restless_reach.__file__).resolve().parents[1])
        code = (
            "from restless_reach import InvariantError, TimeSet\n"
            "try:\n"
            "    TimeSet(debug=True).merge_from(TimeSet(4, debug=True))\n"
            "except InvariantError:\n"
            "    print(__debug__, 'raised')\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False", "raised"]
        assert issubclass(InvariantError, TemporalGraphError)

    def test_anchor_kept_on_duplicate_insert(self):
        ts = TimeSet(anchors=True)
        assert ts.insert(4, anchor=(1, 2)) is True
        assert ts.insert(4, anchor=(9,)) is False
        assert ts.anchors == [(1, 2)]


class TestCleanupDelay:
    def test_merge_into_existing_survivor(self):
        # 5 merges in from (0, 1), then the later 6 dominates it.
        table = {(0, 1): tset(5, 9), (0,): tset(6)}
        assert clean(table, 6, [10, 3]) == {(0,): [6, 9]}

    def test_fixpoint_when_all_traces_active(self):
        table = {(0, 1): tset(5), (0,): tset(6)}
        assert clean(table, 6, [10, 10]) == {(0, 1): [5], (0,): [6]}

    def test_two_way_collapse_without_duplicates(self):
        table = {(0, 1): tset(5), (0, 2): tset(7, 5)}
        assert clean(table, 6, [10, 3, 3]) == {(0,): [5, 7]}

    def test_prune_splits_and_removes_empty(self):
        table = {(0,): tset(1, 2, 9), (1,): tset(2)}
        assert clean(table, 9, [10, 10], prune=True, delta_max=3) == {(0,): [9]}

    def test_dominated_times_dropped(self):
        # Departures at 4 or later take the latest time at most 4.
        assert clean({(0,): tset(1, 3, 4, 8)}, 4, [10]) == {(0,): [4, 8]}
        assert clean({(0,): tset(1, 3, 8)}, 4, [10], horizon=5) == {(0,): [3, 8]}
        assert clean({(0,): tset(5, 8)}, 4, [10]) == {(0,): [5, 8]}

    def test_staged_extensions_inserted(self):
        stats = SolveStats()
        out = cleanup_delay([((0,), tset(2))], 4, 4, [10, 10],
                            staged=[((0,), 6, None), ((0,), 6, None), ((0, 1), 5, None)],
                            stats=stats)
        assert {trace: ts.times for trace, ts in out} == {(0,): [2, 6], (0, 1): [5]}
        assert stats.time_inserts == 2


class TestSolveGeneral:
    def test_four_node_graph_bounds(self, four_node_graph):
        assert sorted(solve_general(four_node_graph, S, 2, debug=True).reachable_set()) == [0, 1, 2, 3]
        assert sorted(solve_general(four_node_graph, S, 1, debug=True).reachable_set()) == [0, 1]

    def test_four_node_graph_wait_three_opens_shortcut(self, four_node_graph):
        res = solve_general(four_node_graph, S, 3, debug=True)
        assert res.reachable[T]
        assert res.reachable == oracle_reachable(four_node_graph, S, 3).reachable

    def test_rejects_bad_source(self, four_node_graph):
        with pytest.raises(NodeRangeError):
            solve_general(four_node_graph, 4, 2)
        with pytest.raises(NodeRangeError):
            solve_general(four_node_graph, False, 2)

    def test_rejects_zero_delays(self):
        g = point_graph(2, [(0, 1, 2, 0)], non_strict=True)
        with pytest.raises(ModelMismatchError, match="non_strict"):
            solve_general(g, 0, 1)

    @pytest.mark.parametrize("arc", [(0, 5, 1, 2), (5, 0, 1, 2), (0, -1, 1, 2), (-1, 0, 1, 2)])
    def test_rejects_out_of_range_node_ids(self, arc):
        with pytest.raises(NodeRangeError):
            solve_general(point_graph(3, [arc]), 0, 1)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(150):
            g = gen_random_point(2 + seed % 7, seed % 21, max_time=10, max_delay=3, seed=seed)
            delta = seed % 4
            got = solve_general(g, 0, delta, debug=True).reachable
            assert got == oracle_reachable(g, 0, delta).reachable

    def test_prune_never_changes_reachability(self):
        for seed in range(100):
            g = gen_random_point(2 + seed % 7, seed % 21, max_time=10, max_delay=3, seed=seed)
            delta = seed % 4
            assert (
                solve_general(g, 0, delta).reachable
                == solve_general(g, 0, delta, prune=True, debug=True).reachable
            )

    @given(point_graph_strategy(delays=(1,)), st.integers(0, 3))
    def test_agrees_with_unit_solver_on_unit_delays(self, g, delta):
        assert solve_general(g, 0, delta).reachable == solve_unit(g, 0, delta).reachable

    @given(point_graph_strategy(max_n=5, max_m=8), st.integers(0, 3))
    def test_monotone_in_wait_bound(self, g, delta):
        smaller = solve_general(g, 0, delta).reachable
        larger = solve_general(g, 0, delta + 1).reachable
        assert all(not a or b for a, b in zip(smaller, larger))

    def test_predecessor_query_skips_future_arrivals(self):
        # Node 1 accumulates arrivals {5, 9}; departing at 7 must use 5,
        # since 9 has not happened yet.
        g = point_graph(3, [(0, 1, 2, 3), (0, 1, 3, 6), (1, 2, 7, 1)])
        assert solve_general(g, 0, 2, debug=True).reachable[2]
        assert not solve_general(g, 0, 1, debug=True).reachable[2]
        assert solve_general(g, 0, 2).reachable == oracle_reachable(g, 0, 2).reachable


class TestRetrievalGeneral:
    def test_four_node_witness_is_the_unique_path(self, four_node_graph):
        res = solve_general(four_node_graph, S, 2, record_paths=True)
        path = retrieve_path(res, four_node_graph, S, T, 2)
        assert [(a.u, a.v, a.tau, a.delta) for a in path.arcs] == [
            (S, U, 1, 1), (U, V, 4, 2), (V, T, 6, 1),
        ]

    def test_source_is_empty_path(self, four_node_graph):
        res = solve_general(four_node_graph, S, 2, record_paths=True)
        assert retrieve_path(res, four_node_graph, S, S, 2) == TemporalPath()

    def test_random_witnesses_validate(self):
        for seed in range(120):
            g = gen_random_point(2 + seed % 7, seed % 16, max_time=9, max_delay=3, seed=seed)
            delta = seed % 3
            res = solve_general(g, 0, delta, record_paths=True, prune=(seed % 2 == 0), debug=True)
            before = res.parent_lookups
            for v in sorted(res.reachable_set()):
                path = retrieve_path(res, g, 0, v, delta)
                assert check_restless_path(g, path, 0, v, delta)
                assert res.parent_lookups - before == len(path.arcs)
                before = res.parent_lookups

    def test_retrieval_survives_trace_merges(self):
        # Two trace entries at the midpoint collapse once their side nodes
        # expire; retrieval must still chain through the original records.
        g = point_graph(5, [(0, 1, 0, 1), (0, 2, 0, 1), (1, 3, 1, 1), (2, 3, 2, 1),
                            (4, 3, 9, 1), (3, 4, 20, 1)])
        res = solve_general(g, 0, 25, record_paths=True, debug=True)
        assert res.reachable[4]
        path = retrieve_path(res, g, 0, 4, 25)
        assert check_restless_path(g, path, 0, 4, 25)


class TestStats:
    def test_time_set_sizes_bounded_by_in_degree(self):
        for seed in range(60):
            g = gen_random_point(2 + seed % 6, seed % 18, max_time=8, max_delay=3, seed=seed)
            solve_general(g, 0, 2, debug=True)  # debug mode asserts the bound

    def test_copy_budget_holds_over_repeated_collapses(self):
        # Arrival 101 sits under (0, 4) with budget 1 while (0, 1, 4) and
        # (0, 2, 4) collapse onto it in turn; neither collapse copies it.
        g = point_graph(5, [(0, 4, 1, 100), (0, 1, 2, 1), (1, 4, 3, 1),
                            (0, 2, 4, 1), (2, 4, 5, 1), (3, 4, 7, 1)])
        res = solve_general(g, 0, 0, debug=True)
        assert res.reachable == oracle_reachable(g, 0, 0).reachable

    def test_debug_table_checks_raise(self):
        from restless_reach.solver_unit import _check_table

        dominated = [((0,), tset(2, 3))]
        with pytest.raises(InvariantError, match="dominated"):
            _check_table(dominated, 0, 3, 3, max_entries=2, max_times=5)
        with pytest.raises(InvariantError, match="in-degree"):
            _check_table(dominated, 0, 3, 2, max_entries=2, max_times=1)
        with pytest.raises(InvariantError, match="entries"):
            _check_table(dominated * 3, 0, 3, 2, max_entries=2, max_times=5)

    def test_peak_entries_tracked(self, four_node_graph):
        res = solve_general(four_node_graph, S, 2)
        assert res.stats.peak_entries >= 1
        assert res.stats.extensions >= 3
