import itertools

import pytest
from hypothesis import given, strategies as st

from restless_reach import (
    Cnf34Formula,
    NodeRangeError,
    OracleGuardError,
    TimeIndexError,
    check_restless_path,
    gen_random_34sat,
    gen_random_point,
    oracle_reachable,
    oracle_traces,
    point_graph,
    sat_bruteforce,
    subset_sum_bruteforce,
)

from conftest import S, point_graph_strategy


def plain_temporal_reachability(g, s):
    """Independent reference: temporal-path reachability with no waiting
    bound, by breadth-first expansion over (node, arrival) states."""
    best: dict[int, set[int]] = {s: {0}}
    reached = {s}
    frontier = [(s, None)]
    while frontier:
        node, arrival = frontier.pop()
        for a in g.arcs:
            if a.u != node or (arrival is not None and a.tau < arrival):
                continue
            state = (a.v, a.tau + a.delta)
            if state[1] not in best.setdefault(a.v, set()):
                best[a.v].add(state[1])
                reached.add(a.v)
                frontier.append(state)
    return reached


class TestOracleReachable:
    def test_four_node_graph(self, four_node_graph):
        res = oracle_reachable(four_node_graph, S, 2)
        assert res.reachable == [True, True, True, True]
        res1 = oracle_reachable(four_node_graph, S, 1)
        assert res1.reachable == [True, True, False, False]

    def test_no_arcs_only_source(self):
        res = oracle_reachable(point_graph(3, []), 1, 0)
        assert res.reachable == [False, True, False]
        assert res.witness[1].arcs == ()

    def test_vacuous_wait_bound_equals_plain_reachability(self):
        for seed in range(30):
            g = gen_random_point(5, 10, max_time=8, max_delay=3, seed=seed)
            res = oracle_reachable(g, 0, g.lifetime)
            assert {v for v, f in enumerate(res.reachable) if f} == plain_temporal_reachability(g, 0)

    def test_witnesses_validate(self, four_node_graph):
        res = oracle_reachable(four_node_graph, S, 2)
        for v, w in res.witness.items():
            assert check_restless_path(four_node_graph, w, S, v, 2)

    def test_guard_rejects_oversized(self):
        g = gen_random_point(20, 10, max_time=5, max_delay=1, seed=0)
        with pytest.raises(OracleGuardError):
            oracle_reachable(g, 0, 1)
        g = gen_random_point(4, 50, max_time=5, max_delay=1, seed=0)
        with pytest.raises(OracleGuardError):
            oracle_reachable(g, 0, 1)

    @pytest.mark.parametrize("source", [3, -1, True])
    def test_rejects_bad_source(self, source):
        g = point_graph(3, [(0, 1, 2, 1), (1, 2, 5, 1)])
        with pytest.raises(NodeRangeError):
            oracle_reachable(g, source, 1)

    def test_has_no_non_strict_keyword(self):
        g = point_graph(2, [(0, 1, 2, 0)], non_strict=True)
        with pytest.raises(TypeError):
            oracle_reachable(g, 0, 1, non_strict=True)

    @given(point_graph_strategy(max_n=5, max_m=8))
    def test_invariant_under_equal_time_reorder(self, g):
        arcs = sorted(g.arcs, key=lambda a: (a.tau, a.v, a.u, -a.delta))
        reordered = point_graph(g.n, arcs, sort=False)
        assert oracle_reachable(g, 0, 2).reachable == oracle_reachable(reordered, 0, 2).reachable

    @given(point_graph_strategy(max_n=5, max_m=7, max_tau=5))
    def test_monotone_under_arc_addition_with_vacuous_bound(self, g):
        big_delta = 10**6
        before = oracle_reachable(g, 0, big_delta).reachable
        grown = point_graph(g.n, list(g.arcs) + [(0, g.n - 1, 3, 1)])
        after = oracle_reachable(grown, 0, big_delta).reachable
        assert all(not b or a for b, a in zip(before, after))


class TestOracleTraces:
    def test_first_time_single_arc(self):
        g = point_graph(3, [(0, 1, 2, 1), (1, 2, 5, 1)])
        assert oracle_traces(g, 0, 3, 0, 1) == {(0, 1): 3}

    def test_source_uses_seeding_convention(self):
        g = point_graph(3, [(0, 1, 2, 1), (1, 2, 5, 1)])
        assert oracle_traces(g, 0, 3, 0, 0) == {(0,): 2}
        assert oracle_traces(g, 0, 3, 1, 0) == {(0,): 5}

    def test_node_without_incoming_arcs_is_empty(self):
        g = point_graph(3, [(0, 1, 2, 1)])
        assert oracle_traces(g, 0, 3, 0, 2) == {}

    @pytest.mark.parametrize("time_index", [2, -1])
    def test_rejects_bad_time_index(self, time_index):
        g = point_graph(3, [(0, 1, 2, 1), (1, 2, 5, 1)])
        with pytest.raises(TimeIndexError):
            oracle_traces(g, 0, 3, time_index, 1)

    @pytest.mark.parametrize("u", [3, -1, True])
    def test_rejects_node_out_of_range(self, u):
        g = point_graph(3, [(0, 1, 2, 1), (1, 2, 5, 1)])
        with pytest.raises(NodeRangeError):
            oracle_traces(g, 0, 3, 0, u)

    def test_projection_drops_expired_nodes(self):
        # After node 0 goes inactive the trace of the path 0->1 shrinks.
        g = point_graph(3, [(0, 1, 0, 1), (2, 1, 9, 1)])
        assert oracle_traces(g, 0, 5, 0, 1) == {(0, 1): 1}
        assert oracle_traces(g, 0, 5, 1, 1) == {(1,): 1}


class TestSubsetSumBruteforce:
    def test_examples(self):
        assert subset_sum_bruteforce([1, 2], 3)
        assert not subset_sum_bruteforce([2, 4], 5)
        assert subset_sum_bruteforce([3, 5, 7], 12)

    def test_guard(self):
        with pytest.raises(OracleGuardError):
            subset_sum_bruteforce([1] * 25, 4)

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8), st.integers(1, 40))
    def test_matches_itertools_enumeration(self, xs, target):
        expected = any(
            sum(combo) == target
            for r in range(len(xs) + 1)
            for combo in itertools.combinations(xs, r)
        )
        assert subset_sum_bruteforce(xs, target) == expected


class TestSatBruteforce:
    def test_trivially_satisfiable(self):
        assert sat_bruteforce([(1, 2, 3)], 3)

    def test_contradiction(self):
        assert not sat_bruteforce([(1,), (-1,)], 1)

    def test_guard(self):
        with pytest.raises(OracleGuardError):
            sat_bruteforce([(1, 2, 21)], 21)

    def test_strict_shape_validation(self):
        from restless_reach import FormulaShapeError

        with pytest.raises(FormulaShapeError):
            sat_bruteforce(Cnf34Formula(1, [(1,)]), strict_shape=True)

    def test_random_34_formulas_match_truth_table(self):
        for seed in range(10):
            f = gen_random_34sat(3, seed=seed)
            expected = any(
                all(
                    any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
                    for clause in f.clauses
                )
                for assignment in itertools.product([False, True], repeat=f.n)
            )
            assert sat_bruteforce(f) == expected
