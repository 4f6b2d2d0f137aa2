import random

import pytest
from hypothesis import given, strategies as st

import restless_reach.solver_unit as solver_unit
from restless_reach import (
    ModelMismatchError,
    NodeRangeError,
    PathRecordsError,
    TemporalGraphError,
    TemporalPath,
    TimeSet,
    UnreachableNodeError,
    check_restless_path,
    cleanup_delay,
    gen_ladder,
    gen_random_point,
    oracle_reachable,
    oracle_traces,
    point_graph,
    retrieve_path,
    solve_unit,
)

from conftest import point_graph_strategy


def table(*pairs):
    """A node table of (trace, TimeSet) pairs, one time per trace."""
    return [(trace, TimeSet(sigma)) for trace, sigma in pairs]


def as_lists(cleaned):
    return [(trace, tset.times) for trace, tset in cleaned]


class TestCleanup:
    """The one clean-up under uniform delay one: horizon ``tau + 1``, at
    which every time set keeps a single, latest arrival."""

    def test_dedup_keeps_max_arrival(self):
        out = cleanup_delay(table(((0, 1), 5)), 6, 7, [10, 10], staged=[((0, 1), 7, None)])
        assert as_lists(out) == [((0, 1), [7])]

    def test_inactive_nodes_dropped(self):
        out = cleanup_delay(table(((0, 1), 5)), 6, 7, [10, 3])
        assert as_lists(out) == [((0,), [5])]

    def test_drop_then_dedup_keeps_max(self):
        out = cleanup_delay(table(((0, 1), 5), ((0,), 6)), 6, 7, [10, 3])
        assert as_lists(out) == [((0,), [6])]

    def test_output_sorted_lexicographically(self):
        out = cleanup_delay(
            table(((2,), 1), ((0, 1), 2), ((0,), 3), ((1, 2), 4)), 0, 1, [9, 9, 9],
        )
        assert as_lists(out) == [((0,), [3]), ((0, 1), [2]), ((1, 2), [4]), ((2,), [1])]

    def test_prune_discards_stale_entries(self):
        out = cleanup_delay(
            table(((0,), 2), ((1,), 6)), 9, 10, [10, 10], prune=True, delta_max=3,
        )
        assert as_lists(out) == [((1,), [6])]


class TestSolveUnit:
    def test_small_example_both_bounds(self):
        g = point_graph(4, [(0, 1, 1), (1, 2, 4), (1, 3, 5), (2, 3, 6)])
        assert sorted(solve_unit(g, 0, 2, debug=True).reachable_set()) == [0, 1, 2, 3]
        assert sorted(solve_unit(g, 0, 1, debug=True).reachable_set()) == [0, 1]
        assert solve_unit(g, 0, 2).reachable == oracle_reachable(g, 0, 2).reachable
        assert solve_unit(g, 0, 1).reachable == oracle_reachable(g, 0, 1).reachable

    def test_no_outgoing_arcs_only_source(self):
        g = point_graph(3, [(1, 2, 4)])
        assert solve_unit(g, 0, 5).reachable_set() == {0}

    def test_ladder_reachability(self):
        g = gen_ladder(4)
        res = solve_unit(g, 0, 1, debug=True)
        assert res.reachable_set() == set(range(8))
        assert res.reachable == oracle_reachable(g, 0, 1).reachable
        res0 = solve_unit(g, 0, 0, debug=True)
        assert res0.reachable == oracle_reachable(g, 0, 0).reachable
        assert res0.reachable_set() == {0, 1, 4}

    def test_rejects_non_unit_delays(self, four_node_graph):
        with pytest.raises(ModelMismatchError, match="solve_general"):
            solve_unit(four_node_graph, 0, 2)

    def test_rejects_bad_source(self):
        with pytest.raises(NodeRangeError):
            solve_unit(point_graph(2, [(0, 1, 0)]), 5, 0)
        # ``True == 1`` would otherwise solve from node 1.
        with pytest.raises(NodeRangeError):
            solve_unit(point_graph(2, [(0, 1, 1)]), True, 1)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(150):
            g = gen_random_point(2 + seed % 7, seed % 21, max_time=10, max_delay=1, seed=seed)
            delta = seed % 4
            got = solve_unit(g, 0, delta, debug=True).reachable
            assert got == oracle_reachable(g, 0, delta).reachable

    def test_prune_never_changes_reachability(self):
        for seed in range(100):
            g = gen_random_point(2 + seed % 7, seed % 21, max_time=10, max_delay=1, seed=seed)
            delta = seed % 4
            plain = solve_unit(g, 0, delta)
            pruned = solve_unit(g, 0, delta, prune=True, debug=True)
            assert plain.reachable == pruned.reachable

    def test_tables_dropped_after_last_activity(self):
        # A ladder keeps a few nodes active at a time, so its live peak
        # does not grow with its length once finished tables are dropped.
        peaks = [solve_unit(gen_ladder(k), 0, 1).stats.peak_entries for k in (50, 200)]
        assert peaks[0] == peaks[1] < 10

    @given(point_graph_strategy(delays=(1,)), st.integers(0, 4))
    def test_monotone_in_wait_bound(self, g, delta):
        smaller = solve_unit(g, 0, delta).reachable
        larger = solve_unit(g, 0, delta + 1).reachable
        assert all(not a or b for a, b in zip(smaller, larger))


class TestTraceTables:
    def test_tables_match_enumeration(self):
        for seed in range(40):
            g = gen_random_point(2 + seed % 5, 1 + seed % 12, max_time=8, max_delay=1, seed=seed)
            delta = seed % 4
            res = solve_unit(g, 0, delta, record_tables=True)
            for idx, (tau, snapshot) in enumerate(res.tables):
                for u in range(g.n):
                    want = oracle_traces(g, 0, delta, idx, u)
                    assert dict(snapshot.get(u, [])) == want, (seed, tau, u)

    def test_source_reseeded_each_time(self):
        g = point_graph(3, [(0, 1, 2), (1, 2, 7)])
        res = solve_unit(g, 0, 9, record_tables=True)
        assert res.tables[0][1][0] == [((0,), 2)]
        assert res.tables[1][1][0] == [((0,), 7)]


class TestRetrieval:
    def test_witness_validates(self):
        g = point_graph(4, [(0, 1, 1), (1, 2, 4), (1, 3, 5), (2, 3, 6)])
        res = solve_unit(g, 0, 2, record_paths=True)
        path = retrieve_path(res, g, 0, 3, 2)
        assert len(path.arcs) == 3
        assert check_restless_path(g, path, 0, 3, 2)

    def test_source_retrieves_empty_path(self):
        g = point_graph(2, [(0, 1, 0)])
        res = solve_unit(g, 0, 0, record_paths=True)
        assert retrieve_path(res, g, 0, 0, 0) == TemporalPath()

    def test_unreachable_node_raises(self):
        g = point_graph(3, [(0, 1, 0)])
        res = solve_unit(g, 0, 0, record_paths=True)
        with pytest.raises(UnreachableNodeError):
            retrieve_path(res, g, 0, 2, 0)

    def test_missing_records_raise(self):
        g = point_graph(2, [(0, 1, 0)])
        res = solve_unit(g, 0, 0)
        with pytest.raises(PathRecordsError):
            retrieve_path(res, g, 0, 1, 0)

    def test_lookups_linear_in_path_length(self):
        g = point_graph(4, [(0, 1, 1), (1, 2, 4), (1, 3, 5), (2, 3, 6)])
        res = solve_unit(g, 0, 2, record_paths=True)
        before = res.parent_lookups
        path = retrieve_path(res, g, 0, 3, 2)
        assert res.parent_lookups - before == len(path.arcs)

    def test_every_reachable_node_has_valid_witness(self):
        for seed in range(120):
            g = gen_random_point(2 + seed % 7, seed % 16, max_time=9, max_delay=1, seed=seed)
            delta = seed % 3
            res = solve_unit(g, 0, delta, record_paths=True, prune=(seed % 2 == 0))
            for v in sorted(res.reachable_set()):
                path = retrieve_path(res, g, 0, v, delta)
                assert check_restless_path(g, path, 0, v, delta)

    def test_retrieval_survives_trace_shrinking(self):
        # A later arc into the midpoint shrinks its stored trace before the
        # final extension; reconstruction must still find the parent chain.
        g = point_graph(4, [(0, 1, 1), (3, 1, 5), (1, 2, 7)])
        res = solve_unit(g, 0, 9, record_paths=True)
        assert res.reachable[2]
        path = retrieve_path(res, g, 0, 2, 9)
        assert check_restless_path(g, path, 0, 2, 9)


class TestNonStrict:
    def test_same_instant_chain_found(self):
        g = point_graph(4, [(0, 1, 5, 0), (1, 2, 5, 0), (2, 3, 5, 0)], non_strict=True)
        res = solve_unit(g, 0, 0, non_strict=True, debug=True)
        assert res.reachable_set() == {0, 1, 2, 3}

    def test_arrivals_equal_departures(self):
        g = point_graph(2, [(0, 1, 5, 0)], non_strict=True)
        res = solve_unit(g, 0, 0, non_strict=True, record_paths=True)
        assert res.arr[1][0] == 5

    def test_rejects_positive_delays(self):
        g = point_graph(2, [(0, 1, 5)])
        with pytest.raises(ModelMismatchError):
            solve_unit(g, 0, 0, non_strict=True)

    def test_matches_oracle_on_zero_delay_instances(self):
        for seed in range(120):
            g = gen_random_point(2 + seed % 5, seed % 13, max_time=6, max_delay=0, seed=seed)
            delta = seed % 3
            res = solve_unit(g, 0, delta, non_strict=True, debug=True, prune=(seed % 2 == 0))
            assert res.reachable == oracle_reachable(g, 0, delta).reachable

    def test_witnesses_validate(self):
        for seed in range(40):
            g = gen_random_point(2 + seed % 5, seed % 13, max_time=6, max_delay=0, seed=seed)
            res = solve_unit(g, 0, 1, non_strict=True, record_paths=True)
            for v in sorted(res.reachable_set()):
                path = retrieve_path(res, g, 0, v, 1)
                assert check_restless_path(g, path, 0, v, 1)

    def test_worklist_extends_each_chain_arc_once(self):
        # A same-instant chain listed in shuffled order needs one extension
        # per arc; re-scanning the whole block per round would need O(n^2).
        rng = random.Random(7)
        for n in (50, 120, 300):
            order = list(range(n))
            rng.shuffle(order)
            arcs = [(order[i], order[i + 1], 0, 0) for i in range(n - 1)]
            rng.shuffle(arcs)
            g = point_graph(n, arcs, non_strict=True)
            res = solve_unit(g, order[0], 0, non_strict=True)
            assert res.stats.extensions == n - 1
            assert all(res.reachable)

    def test_matches_oracle_on_dense_same_instant_graphs(self):
        for seed in range(200):
            n = 4 + seed % 9
            g = gen_random_point(n, min(40, 3 * n), max_time=seed % 2, max_delay=0, seed=seed)
            delta = seed % 2
            want = oracle_reachable(g, 0, delta).reachable
            for prune in (False, True):
                res = solve_unit(g, 0, delta, non_strict=True, prune=prune,
                                 record_paths=True, debug=True)
                assert res.reachable == want
                for v in sorted(res.reachable_set()):
                    path = retrieve_path(res, g, 0, v, delta)
                    assert check_restless_path(g, path, 0, v, delta)


class TestInputChecks:
    @pytest.mark.parametrize("arc", [(0, 5, 1, 1), (5, 0, 1, 1), (0, -1, 1, 1), (-1, 0, 1, 1)])
    def test_rejects_out_of_range_node_ids(self, arc):
        with pytest.raises(NodeRangeError):
            solve_unit(point_graph(3, [arc]), 0, 1)

    def test_retrieve_path_raises_when_witness_fails_check(self, monkeypatch):
        g = point_graph(3, [(0, 1, 1), (1, 2, 2)])
        res = solve_unit(g, 0, 1, record_paths=True)
        monkeypatch.setattr(solver_unit, "is_restless", lambda *args: False)
        with pytest.raises(TemporalGraphError, match="failed validation"):
            retrieve_path(res, g, 0, 2, 1)
