"""The columnar point graph: its arc view, time groups, node-range gate,
and the guarantee that queries build ``TimedArc`` objects only for the
witnesses they return."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

import restless_reach.model as model
from restless_reach import (
    NodeRangeError,
    PathRecordsError,
    PointTemporalGraph,
    SubsetSumInstance,
    TemporalGraphError,
    TemporalPath,
    TimedArc,
    UnsortedArcsError,
    arc_im_width,
    check_restless_path,
    expand_interval_to_point,
    gen_ladder,
    gen_random_point,
    gen_subset_sum_instance,
    interval_vertex_im_width,
    lift_path_to_interval,
    parse_graph_ex,
    point_graph,
    retrieve_path,
    serialize_graph,
    solve_general,
    solve_unit,
    vertex_im_width,
)

arc_lists = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.integers(0, 6), st.integers(0, 3)), max_size=15),
))


class TestArcView:
    @given(arc_lists)
    def test_view_equals_stable_sorted_arcs(self, drawn):
        n, arcs = drawn
        expected = tuple(sorted((TimedArc(*a) for a in arcs), key=lambda a: a.tau))
        g = point_graph(n, arcs)
        assert tuple(g.arcs) == expected
        assert len(g.arcs) == len(expected)
        assert [g.arcs[i] for i in range(len(expected))] == list(expected)

    def test_sequence_access(self):
        g = point_graph(3, [(1, 2, 4, 2), (0, 1, 1), (0, 2, 1, 3)])
        arcs = g.arcs
        assert arcs[0] == TimedArc(0, 1, 1, 1)
        assert arcs[-1] == TimedArc(1, 2, 4, 2)
        assert arcs[1:] == (TimedArc(0, 2, 1, 3), TimedArc(1, 2, 4, 2))
        assert list(reversed(arcs))[0] == TimedArc(1, 2, 4, 2)
        assert TimedArc(0, 2, 1, 3) in arcs
        assert arcs.take([2, 0]) == (TimedArc(1, 2, 4, 2), TimedArc(0, 1, 1, 1))
        assert type(arcs[0]) is TimedArc and hash(arcs[0]) == hash(TimedArc(0, 1, 1, 1))
        with pytest.raises(FrozenInstanceError):
            arcs[0].u = 2
        assert (g.u, g.v, g.tau, g.delta) == ((0, 0, 1), (1, 2, 2), (1, 1, 4), (1, 3, 2))
        with pytest.raises(IndexError):
            arcs[3]

    def test_from_columns_matches_point_graph(self):
        arcs = [(1, 2, 4, 2), (0, 1, 1, 1), (2, 0, 1, 1)]
        cols = [list(c) for c in zip(*arcs)]
        assert PointTemporalGraph.from_columns(3, *cols) == point_graph(3, arcs)
        unsorted = PointTemporalGraph.from_columns(3, *cols, sort=False)
        assert unsorted.tau == (4, 1, 1)
        assert unsorted.lifetime == 6 and not unsorted.uniform_delay_one

    def test_views_compare_by_arcs(self):
        arcs = [(1, 2, 4, 2), (0, 1, 1, 1)]
        g = point_graph(3, arcs)
        assert g.arcs == point_graph(3, arcs).arcs
        assert g.arcs == (TimedArc(0, 1, 1, 1), TimedArc(1, 2, 4, 2)) == g.arcs
        assert g.arcs == list(g.arcs)
        assert g.arcs != point_graph(3, arcs[:1]).arcs
        assert g.arcs != (TimedArc(1, 2, 4, 2), TimedArc(0, 1, 1, 1))
        assert g.arcs != (TimedArc(0, 1, 1, 1),)
        assert point_graph(2, []).arcs == ()

    def test_time_groups(self):
        g = point_graph(3, [(0, 1, 5), (1, 2, 3), (0, 2, 3), (2, 0, 9)])
        assert g.group_starts == [0, 2, 3, 4]
        assert point_graph(1, []).group_starts == [0]


class TestUnsortedGraph:
    def graph(self):
        return point_graph(2, [(0, 1, 5), (0, 1, 3)], sort=False)

    def test_solve_unit_rejects(self):
        with pytest.raises(UnsortedArcsError) as info:
            solve_unit(self.graph(), 0, 1)
        assert isinstance(info.value, TemporalGraphError)

    def test_solve_general_rejects(self):
        with pytest.raises(UnsortedArcsError) as info:
            solve_general(self.graph(), 0, 1)
        assert isinstance(info.value, TemporalGraphError)


def test_retrieval_refuses_another_graph():
    g = point_graph(3, [(0, 1, 1), (1, 2, 2)])
    result = solve_unit(g, 0, 1, record_paths=True)
    assert retrieve_path(result, g, 0, 2, 1).arcs == tuple(g.arcs)
    for other in (point_graph(3, [(1, 2, 2)]), point_graph(4, [(0, 1, 1), (1, 2, 2)])):
        with pytest.raises(PathRecordsError):
            retrieve_path(result, other, 0, 2, 1)


class TestNodeRangeGate:
    @pytest.mark.parametrize("arc", [(0, 5, 1, 1), (-1, 1, 1, 1), (0, -2, 1, 1)])
    @pytest.mark.parametrize("entry", [
        vertex_im_width,
        arc_im_width,
        lambda g: g.node_windows,
        lambda g: check_restless_path(g, TemporalPath(), 0, 0, 1),
    ], ids=["vertex_im_width", "arc_im_width", "node_windows", "check_restless_path"])
    def test_rejects_out_of_range_node_ids(self, entry, arc):
        with pytest.raises(NodeRangeError):
            entry(point_graph(2, [arc]))

    def test_isolated_nodes_have_no_window(self):
        node_min, node_max = point_graph(4, [(0, 2, 3, 2)]).node_windows
        assert node_min == [3, None, 3, None]
        assert node_max == [5, -1, 5, -1]


def ladder_query():
    k = 40
    g = parse_graph_ex(serialize_graph(gen_ladder(k))).graph
    vertex_im_width(g)
    result = solve_unit(g, 0, 1, record_paths=True)
    return g, [retrieve_path(result, g, 0, k - 1, 1)]


def general_query():
    g = gen_random_point(30, 400, max_time=40, max_delay=3, seed=3)
    vertex_im_width(g)
    result = solve_general(g, 0, 3, record_paths=True)
    targets = sorted(result.reachable_set())[-4:]
    return g, [retrieve_path(result, g, 0, t, 3) for t in targets]


def subset_sum_query():
    text = serialize_graph(gen_subset_sum_instance(SubsetSumInstance((3, 5, 7, 4), 12)).graph)
    ig = parse_graph_ex(text).graph
    interval_vertex_im_width(ig)
    g = expand_interval_to_point(ig)
    result = solve_general(g, 0, 0, record_paths=True)
    path = retrieve_path(result, g, 0, 5, 0)
    lift_path_to_interval(ig, path)
    return g, [path]


def chain_query():
    n = 60
    arcs = [((7 * i) % n, (7 * (i + 1)) % n, 0, 0) for i in range(n - 1)]
    g = parse_graph_ex(serialize_graph(point_graph(n, arcs[::-1], non_strict=True))).graph
    result = solve_unit(g, 0, 0, record_paths=True, non_strict=True)
    return g, [retrieve_path(result, g, 0, (7 * (n // 2)) % n, 0)]


@pytest.mark.parametrize("query", [ladder_query, general_query, subset_sum_query, chain_query])
def test_queries_build_arcs_only_for_witnesses(monkeypatch, query):
    """Parse, width, expansion, solve, retrieval, lifting and ``len(g.arcs)``
    together build no more ``TimedArc``s than the witnesses hold."""
    built = []
    build_for_view = model._timed_arc

    class CountedArc(TimedArc):
        def __init__(self, *args):
            built.append(args)
            TimedArc.__init__(self, *args)

    def counted_view_arc(*args):
        built.append(args)
        return build_for_view(*args)

    monkeypatch.setattr(model, "TimedArc", CountedArc)
    monkeypatch.setattr(model, "_timed_arc", counted_view_arc)
    g, paths = query()
    assert len(g.arcs) > 0
    witness_arcs = sum(len(p.arcs) for p in paths)
    assert 0 < witness_arcs < len(g.arcs)
    assert len(built) <= witness_arcs
