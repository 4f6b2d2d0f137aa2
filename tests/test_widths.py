from hypothesis import given, strategies as st

from restless_reach import (
    SubsetSumInstance,
    arc_im_width,
    expand_interval_to_point,
    gen_ladder,
    gen_ladder_shortcut,
    gen_random_34sat,
    gen_sat_instance,
    gen_subset_sum_instance,
    interval_graph,
    interval_vertex_im_width,
    point_graph,
    vertex_im_width,
)

from conftest import (
    S, T, U, V,
    brute_force_arc_width,
    brute_force_vertex_width,
    point_graph_strategy,
)


def window(g, x):
    """Node ``x``'s activity window as ``(first departure, last arrival)``."""
    node_min, node_max = g.node_windows
    return None if node_min[x] is None else (node_min[x], node_max[x])


def active_at(g, t):
    """Nodes whose activity window contains ``t`` (closed interval)."""
    node_min, node_max = g.node_windows
    return {x for x, (lo, hi) in enumerate(zip(node_min, node_max))
            if lo is not None and lo <= t <= hi}


class TestActivityBounds:
    def test_four_node_graph_bounds(self, four_node_graph):
        g = four_node_graph
        assert window(g, S) == (1, 2)
        assert window(g, U) == (1, 12)
        assert window(g, V) == (4, 12)
        assert window(g, T) == (5, 7)

    def test_single_arc_bounds(self):
        g = point_graph(2, [(0, 1, 3, 2)])
        assert window(g, 0) == (3, 5)
        assert window(g, 1) == (3, 5)

    def test_isolated_node_has_no_interval(self):
        assert window(point_graph(3, [(0, 1, 3, 2)]), 2) is None

    def test_arc_bounds_accumulate_over_parallel_arcs(self):
        # (0, 1) is active over [1, 10] only once its two timed arcs'
        # windows [1, 2] and [9, 10] merge; then it overlaps (2, 3).
        g = point_graph(4, [(0, 1, 1, 1), (0, 1, 9, 1), (2, 3, 5, 1)])
        assert arc_im_width(g) == 2
        assert arc_im_width(point_graph(4, [(0, 1, 1, 1), (2, 3, 5, 1)])) == 1


class TestActiveNodes:
    def test_four_node_graph_midlife(self, four_node_graph):
        assert active_at(four_node_graph, 5) == {U, V, T}

    def test_before_first_appearance_empty(self, four_node_graph):
        assert active_at(four_node_graph, 0) == set()

    def test_ladder_last_step(self):
        # At time 2(k-1)+1 the last rail arcs are still in flight, so both
        # the final layer and the one before it are active.
        k = 5
        assert active_at(gen_ladder(k), 2 * (k - 1) + 1) == {k - 2, k - 1, 2 * k - 2, 2 * k - 1}


class TestVertexWidth:
    def test_four_node_graph(self, four_node_graph):
        assert vertex_im_width(four_node_graph) == 3
        assert vertex_im_width(four_node_graph) == brute_force_vertex_width(four_node_graph)

    def test_single_arc_is_two(self):
        assert vertex_im_width(point_graph(2, [(0, 1, 3, 1)])) == 2

    def test_empty_graph_is_zero(self):
        assert vertex_im_width(point_graph(3, [])) == 0

    def test_ladder_width_constant_in_k(self):
        # Rail arcs make two adjacent layers co-active at each step boundary.
        for k in (2, 3, 7, 40):
            g = gen_ladder(k)
            w = vertex_im_width(g)
            assert w == brute_force_vertex_width(g)
            assert w == 4

    def test_ladder_shortcut_adds_one_long_lived_node(self):
        for k in (2, 3, 7, 40):
            g = gen_ladder_shortcut(k).graph
            w = vertex_im_width(g)
            assert w == brute_force_vertex_width(g)
            assert w == 5


class TestArcWidth:
    def test_sat_gadget_is_three(self):
        for seed in range(5):
            inst = gen_sat_instance(gen_random_34sat(3, seed=seed))
            assert arc_im_width(inst.graph) == 3

    def test_single_arc(self):
        assert arc_im_width(point_graph(2, [(0, 1, 3, 1)])) == 1

    def test_four_node_graph(self, four_node_graph):
        assert arc_im_width(four_node_graph) == brute_force_arc_width(four_node_graph)
        assert arc_im_width(four_node_graph) == 3


class TestIntervalWidth:
    def test_subset_sum_gadget_is_three(self):
        for xs, target in [((1, 2, 3), 4), ((5, 5, 5, 5), 11), ((2, 3, 4, 1, 2), 6)]:
            inst = gen_subset_sum_instance(SubsetSumInstance(xs, target))
            assert interval_vertex_im_width(inst.graph) == 3

    def test_single_interval_arc_is_two(self):
        assert interval_vertex_im_width(interval_graph(2, [(0, 1, 2, 9, 1)])) == 2

    def test_small_gadget_matches_expansion(self):
        inst = gen_subset_sum_instance(SubsetSumInstance((1, 2), 3))
        w = interval_vertex_im_width(inst.graph)
        assert w == 3
        assert w == vertex_im_width(expand_interval_to_point(inst.graph))

    def test_huge_windows_without_expansion(self):
        g = interval_graph(3, [(0, 1, 0, 10**15, 1), (1, 2, 10**15 + 1, 10**16, 1)])
        assert interval_vertex_im_width(g) == 3

    def test_interval_bounds(self):
        # Nodes 0 and 1 are active over [2, 12]: from the window start to
        # the window end plus delay.  A second pair of nodes overlaps them
        # exactly when its own window reaches into that range.
        arc = (0, 1, 2, 9, 3)
        for other, width in [((2, 3, 12, 12, 1), 4), ((2, 3, 13, 13, 1), 2),
                             ((2, 3, 0, 0, 2), 4), ((2, 3, 0, 0, 1), 2)]:
            assert interval_vertex_im_width(interval_graph(4, [arc, other])) == width


@given(point_graph_strategy(max_tau=300))
def test_sweep_equals_bruteforce(g):
    assert vertex_im_width(g) == brute_force_vertex_width(g)
    assert arc_im_width(g) == brute_force_arc_width(g)


@given(point_graph_strategy())
def test_width_invariant_under_duplication_and_reorder(g):
    doubled = point_graph(g.n, list(g.arcs) + list(reversed(g.arcs)))
    assert vertex_im_width(doubled) == vertex_im_width(g)
    assert arc_im_width(doubled) == arc_im_width(g)


@given(point_graph_strategy())
def test_nonempty_graph_width_floors(g):
    if g.arcs:
        assert vertex_im_width(g) >= 2
        assert arc_im_width(g) >= 1


@given(st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 3),
        st.integers(0, 30), st.integers(0, 20), st.integers(1, 4),
    ).map(lambda t: (t[0], (t[0] + 1 + t[1]) % 4 if (t[0] + 1 + t[1]) % 4 != t[0] else (t[0] + 1) % 4,
                     t[2], t[2] + t[3], t[4])),
    max_size=6,
))
def test_interval_width_equals_expanded_width(arcs):
    g = interval_graph(4, arcs)
    assert interval_vertex_im_width(g) == vertex_im_width(expand_interval_to_point(g))
