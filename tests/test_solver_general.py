import pytest
from hypothesis import given, strategies as st

from restless_reach import (
    ModelMismatchError,
    NodeRangeError,
    TemporalPath,
    TimeSet,
    check_restless_path,
    cleanup_delay,
    gen_random_point,
    oracle_reachable,
    point_graph,
    retrieve_path_general,
    solve_general,
    solve_unit,
)

from conftest import S, T, U, V, point_graph_strategy


def tset(*times, debug=False, budget=3):
    out = TimeSet(debug=debug)
    for t in times:
        out.insert(t, budget=budget)
    return out


def as_plain(table):
    return {trace: list(ts.times) for trace, ts in table.items()}


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

    def test_anchor_kept_on_duplicate_insert(self):
        ts = TimeSet(anchors=True)
        assert ts.insert(4, anchor=(1, 2)) == ((1, 2), True)
        assert ts.insert(4, anchor=(9,)) == ((1, 2), False)


class TestCleanupDelay:
    def test_merge_into_existing_survivor(self):
        table = {(0, 1): tset(5, 9), (0,): tset(6)}
        cleanup_delay(table, tau=6, bounds=[10, 3])
        assert as_plain(table) == {(0,): [5, 6, 9]}

    def test_fixpoint_when_all_traces_active(self):
        table = {(0, 1): tset(5), (0,): tset(6)}
        cleanup_delay(table, tau=6, bounds=[10, 10])
        assert as_plain(table) == {(0, 1): [5], (0,): [6]}

    def test_two_way_collapse_without_duplicates(self):
        table = {(0, 1): tset(5), (0, 2): tset(7, 5)}
        cleanup_delay(table, tau=6, bounds=[10, 3, 3])
        assert as_plain(table) == {(0,): [5, 7]}

    def test_prune_splits_and_removes_empty(self):
        table = {(0,): tset(1, 2, 9), (1,): tset(2)}
        cleanup_delay(table, tau=9, bounds=[10, 10], prune=True, delta_max=3)
        assert as_plain(table) == {(0,): [9]}


class TestSolveGeneral:
    def test_four_node_graph_bounds(self, four_node_graph):
        assert sorted(solve_general(four_node_graph, S, 2, debug=True).reachable_set()) == [0, 1, 2, 3]
        assert sorted(solve_general(four_node_graph, S, 1, debug=True).reachable_set()) == [0, 1]

    def test_four_node_graph_wait_three_opens_shortcut(self, four_node_graph):
        res = solve_general(four_node_graph, S, 3, debug=True)
        assert res.reachable[T]
        assert res.reachable == oracle_reachable(four_node_graph, S, 3).reachable

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
        path = retrieve_path_general(res, four_node_graph, S, T, 2)
        assert [(a.u, a.v, a.tau, a.delta) for a in path.arcs] == [
            (S, U, 1, 1), (U, V, 4, 2), (V, T, 6, 1),
        ]

    def test_source_is_empty_path(self, four_node_graph):
        res = solve_general(four_node_graph, S, 2, record_paths=True)
        assert retrieve_path_general(res, four_node_graph, S, S, 2) == TemporalPath()

    def test_random_witnesses_validate(self):
        for seed in range(120):
            g = gen_random_point(2 + seed % 7, seed % 16, max_time=9, max_delay=3, seed=seed)
            delta = seed % 3
            res = solve_general(g, 0, delta, record_paths=True, prune=(seed % 2 == 0), debug=True)
            before = res.parent_lookups
            for v in sorted(res.reachable_set()):
                path = retrieve_path_general(res, g, 0, v, delta)
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
        path = retrieve_path_general(res, g, 0, 4, 25)
        assert check_restless_path(g, path, 0, 4, 25)


class TestStats:
    def test_time_set_sizes_bounded_by_in_degree(self):
        for seed in range(60):
            g = gen_random_point(2 + seed % 6, seed % 18, max_time=8, max_delay=3, seed=seed)
            solve_general(g, 0, 2, debug=True)  # debug mode asserts the bound

    def test_peak_entries_tracked(self, four_node_graph):
        res = solve_general(four_node_graph, S, 2)
        assert res.stats.peak_entries >= 1
        assert res.stats.extensions >= 3
