import pytest

from restless_reach import (
    Cnf34Formula,
    FormulaShapeError,
    SubsetSumInstance,
    TimeOverflowError,
    expand_interval_to_point,
    gen_ladder,
    gen_ladder_shortcut,
    gen_random_34sat,
    gen_random_point,
    gen_sat_instance,
    gen_subset_sum_instance,
    oracle_reachable,
    sat_bruteforce,
    solve_general,
    solve_unit,
    subset_sum_bruteforce,
    validate_cnf34,
    validate_interval_graph,
    validate_point_graph,
    vertex_im_width,
)
from restless_reach.generators import subset_sum_times
from restless_reach.oracle import iter_restless_paths


class TestFormulaShape:
    def test_valid_formula_passes(self):
        validate_cnf34(gen_random_34sat(3, seed=0))

    def test_wrong_clause_size_named(self):
        with pytest.raises(FormulaShapeError, match="clause 1"):
            validate_cnf34(Cnf34Formula(3, [(1, 2)]))

    def test_repeated_variable_named(self):
        f = Cnf34Formula(3, [(1, -1, 2)] + [(1, 2, 3)] * 3)
        with pytest.raises(FormulaShapeError, match="repeats variable 1"):
            validate_cnf34(f)

    def test_wrong_occurrence_count_named(self):
        f = Cnf34Formula(3, [(1, 2, 3)] * 4 + [(1, 2, 3)])
        with pytest.raises(FormulaShapeError, match="occurs 5 times"):
            validate_cnf34(f)


class TestSatGadget:
    def test_counts_match_closed_forms(self):
        f = gen_random_34sat(3, seed=2)
        inst = gen_sat_instance(f)
        n, m = f.n, len(f.clauses)
        assert inst.graph.n == 9 * n + m + 3
        assert len(inst.graph.arcs) == 10 * n + 2 + 6 * m
        assert inst.delta_max == 1
        assert inst.graph.uniform_delay_one
        assert validate_point_graph(inst.graph) == []

    def test_all_appearance_times_even_and_unique_per_arc(self):
        inst = gen_sat_instance(gen_random_34sat(3, seed=5))
        assert all(a.tau % 2 == 0 for a in inst.graph.arcs)
        seen = {}
        for a in inst.graph.arcs:
            assert seen.setdefault((a.u, a.v), a.tau) == a.tau
        assert len(seen) == len(set(zip(inst.graph.u, inst.graph.v)))

    def test_reachability_tracks_satisfiability(self):
        for seed in range(40):
            f = gen_random_34sat(3, seed=seed)
            inst = gen_sat_instance(f)
            reached = solve_unit(inst.graph, inst.s, inst.delta_max).reachable[inst.t]
            assert reached == sat_bruteforce(f), f

    def test_rejects_malformed_formula(self):
        with pytest.raises(FormulaShapeError):
            gen_sat_instance(Cnf34Formula(2, [(1, 2)]))

    def test_zero_wait_bound_blocks_the_gadget(self):
        # The variable chains need waits of exactly one, so tightening the
        # bound to zero must cut off the target entirely.
        inst = gen_sat_instance(gen_random_34sat(3, seed=0))
        assert not solve_unit(inst.graph, inst.s, 0).reachable[inst.t]

    def test_witness_decodes_to_satisfying_assignment(self):
        # A source-to-target path commits, per variable, to one polarity
        # chain; traversing the negated chain leaves the positive
        # occurrence nodes free, i.e. assigns the variable true.  The
        # decoded assignment must satisfy the formula.
        from restless_reach import retrieve_path

        for seed in range(25):
            f = gen_random_34sat(3, seed=seed)
            inst = gen_sat_instance(f)
            res = solve_unit(inst.graph, inst.s, inst.delta_max, record_paths=True)
            if not res.reachable[inst.t]:
                continue
            path = retrieve_path(res, inst.graph, inst.s, inst.t, inst.delta_max)
            pos_base = f.n + len(f.clauses) + 3
            neg_base = pos_base + 4 * f.n
            assignment = {}
            for a in path.arcs:
                if a.u < f.n and a.v >= pos_base:
                    var = (a.v - (pos_base if a.v < neg_base else neg_base)) // 4 + 1
                    assignment[var] = a.v >= neg_base
            assert len(assignment) == f.n
            assert all(
                any((lit > 0) == assignment[abs(lit)] for lit in clause)
                for clause in f.clauses
            )


class TestSubsetSumGadget:
    def test_window_start_follows_previous_end(self):
        for xs in [(1,), (1, 2), (3, 1, 4, 1, 5), (5, 5, 5)]:
            _, sigma, tau = subset_sum_times(SubsetSumInstance(xs, 1))
            for i in range(1, len(xs) + 1):
                assert sigma[i] == tau[i - 1] + 1

    def test_small_instance_arcs_frozen(self):
        inst = gen_subset_sum_instance(SubsetSumInstance((1, 2), 3))
        assert [(a.u, a.v, a.tau_start, a.tau_end, a.delta) for a in inst.graph.arcs] == [
            (0, 1, 0, 0, 1), (0, 1, 0, 0, 2),
            (1, 2, 1, 2, 2), (1, 2, 1, 2, 4),
            (2, 3, 6, 6, 1),
        ]
        assert (inst.s, inst.t, inst.delta_max) == (0, 3, 0)
        assert validate_interval_graph(inst.graph) == []

    def test_extreme_arrivals_match_window_bounds(self):
        # The earliest/latest zero-wait arrival at each chain node equals
        # its window start/end.
        inst = gen_subset_sum_instance(SubsetSumInstance((2, 3), 4))
        _, sigma, tau = subset_sum_times(SubsetSumInstance((2, 3), 4))
        expanded = expand_interval_to_point(inst.graph)
        arrivals = {v: [] for v in range(inst.graph.n)}
        for path in iter_restless_paths(expanded, 0, 0):
            if path:
                arrivals[path[-1].v].append(path[-1].tau + path[-1].delta)
        for i in (1, 2):
            assert min(arrivals[i]) == sigma[i]
            assert max(arrivals[i]) == tau[i]

    def test_reachability_tracks_subset_sum(self):
        for xs, target in [((1,), 1), ((1,), 2), ((2, 4), 5), ((2, 4), 6), ((1, 2, 3), 5)]:
            inst = gen_subset_sum_instance(SubsetSumInstance(xs, target))
            expanded = expand_interval_to_point(inst.graph)
            reached = solve_general(expanded, inst.s, 0).reachable[inst.t]
            assert reached == subset_sum_bruteforce(list(xs), target)

    def test_overflow_guard(self):
        with pytest.raises(TimeOverflowError):
            gen_subset_sum_instance(SubsetSumInstance((2**63, 2**63), 2**63))

    def test_rejects_bad_instances(self):
        with pytest.raises(ValueError):
            gen_subset_sum_instance(SubsetSumInstance((), 1))
        with pytest.raises(ValueError):
            gen_subset_sum_instance(SubsetSumInstance((0, 2), 1))
        with pytest.raises(ValueError):
            gen_subset_sum_instance(SubsetSumInstance((1, 2), 0))


class TestLadder:
    def test_counts(self):
        for k in (2, 3, 10):
            g = gen_ladder(k)
            assert g.n == 2 * k
            assert len(g.arcs) == 2 * k + 4 * (k - 1)
            assert g.uniform_delay_one
            assert validate_point_graph(g) == []

    def test_symmetric(self):
        g = gen_ladder(4)
        arcs = {(a.u, a.v, a.tau) for a in g.arcs}
        assert all((v, u, t) in arcs for (u, v, t) in arcs)

    def test_underlying_four_cycles(self):
        k = 5
        g = gen_ladder(k)
        und = set(zip(g.u, g.v))
        cycles = 0
        for i in range(k - 1):
            u0, u1, v0, v1 = i, i + 1, k + i, k + i + 1
            if {(u0, u1), (u1, v1), (v1, v0), (v0, u0)} <= und:
                cycles += 1
        assert cycles == k - 1

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            gen_ladder(1)

    def test_shortcut_adds_long_lived_node(self):
        inst = gen_ladder_shortcut(6)
        g = inst.graph
        assert g.n == 13
        assert len(g.arcs) == len(gen_ladder(6).arcs) + 2
        w = 12
        taus = sorted((a.tau, a.u, a.v) for a in g.arcs if w in (a.u, a.v))
        assert taus == [(0, 0, w), (10, w, 5)]

    def test_shortcut_reaches_target_via_two_hops(self):
        inst = gen_ladder_shortcut(4)
        res = oracle_reachable(inst.graph, inst.s, inst.graph.lifetime)
        assert res.reachable[inst.t]
        shortest = min(
            len(p) for p in iter_restless_paths(inst.graph, inst.s, inst.graph.lifetime)
            if p and p[-1].v == inst.t
        )
        assert shortest == 2


class TestRandomGenerators:
    def test_point_graph_deterministic(self):
        a = gen_random_point(5, 12, max_time=9, max_delay=3, seed=42)
        b = gen_random_point(5, 12, max_time=9, max_delay=3, seed=42)
        assert a == b
        assert a != gen_random_point(5, 12, max_time=9, max_delay=3, seed=43)

    def test_unit_delay_output_accepted_by_unit_solver(self):
        g = gen_random_point(5, 12, max_time=9, max_delay=1, seed=1)
        assert g.uniform_delay_one
        solve_unit(g, 0, 1)

    def test_zero_delay_output_flagged_non_strict(self):
        g = gen_random_point(5, 12, max_time=9, max_delay=0, seed=1)
        assert g.non_strict
        assert all(a.delta == 0 for a in g.arcs)
        assert validate_point_graph(g) == []

    def test_34_formula_deterministic_and_shaped(self):
        for n in (3, 6):
            f = gen_random_34sat(n, seed=9)
            assert f == gen_random_34sat(n, seed=9)
            assert len(f.clauses) == 4 * n // 3
            validate_cnf34(f)

    def test_34_formula_requires_multiple_of_three(self):
        with pytest.raises(ValueError):
            gen_random_34sat(4, seed=0)


def test_gadget_widths_summary():
    # Structural width facts used throughout: computed, then frozen.
    assert vertex_im_width(gen_ladder(12)) == 4
    assert vertex_im_width(gen_ladder_shortcut(12).graph) == 5
    f = gen_random_34sat(6, seed=3)
    inst = gen_sat_instance(f)
    assert vertex_im_width(inst.graph) >= 4 * f.n
