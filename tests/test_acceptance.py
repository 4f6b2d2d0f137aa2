"""Acceptance suite: every release criterion as an executable check.

Each test prints one ``[acceptance] ... PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -v -s``).  The sweeps here are heavier
than the unit tests; the whole module runs in a couple of minutes.

Criterion 4a (ladder-family widths) is marked strict-xfail: the ladder's
rung and rail arcs at time 2(i+1) make both adjacent layers active at
that instant, so the construction's vertex width is provably 4 (5 with
the shortcut node), not the required 2 (3).  The assertions are kept as
required and fail honestly.
"""

import itertools
import time

import pytest

from restless_reach import (
    SubsetSumInstance,
    check_restless_path,
    expand_interval_to_point,
    gen_ladder,
    gen_ladder_shortcut,
    gen_random_34sat,
    gen_random_point,
    gen_sat_instance,
    gen_subset_sum_instance,
    interval_vertex_im_width,
    arc_im_width,
    oracle_reachable,
    oracle_traces,
    point_graph,
    retrieve_path,
    sat_bruteforce,
    solve_general,
    solve_unit,
    subset_sum_bruteforce,
    vertex_im_width,
)
from restless_reach.generators import enumerate_point_graphs

FOUR_NODE = point_graph(4, [(0, 1, 1, 1), (1, 2, 4, 2), (1, 3, 5, 2), (2, 3, 6, 1), (1, 2, 7, 5)])
S, T = 0, 3


def report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


class _Criterion:
    """Prints the criterion verdict even when an assertion aborts the test."""

    def __init__(self, name):
        self.name = name
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        report(self.name, exc_type is None, self.detail)
        return False


def test_c1_four_node_golden():
    with _Criterion("C1 four-node golden instance") as c:
        best = float("inf")
        for _ in range(7):
            start = time.perf_counter()
            yes = solve_general(FOUR_NODE, S, 2, record_paths=True)
            path = retrieve_path(yes, FOUR_NODE, S, T, 2)
            no = solve_general(FOUR_NODE, S, 1)
            best = min(best, time.perf_counter() - start)
        assert yes.reachable[T]
        assert check_restless_path(FOUR_NODE, path, S, T, 2)
        assert [(a.u, a.v, a.tau, a.delta) for a in path.arcs] == [
            (0, 1, 1, 1), (1, 2, 4, 2), (2, 3, 6, 1),
        ]
        assert not no.reachable[T]
        assert best < 1e-3, f"solve took {best * 1e3:.3f} ms"
        c.detail = f"{best * 1e6:.0f} us"


def _exhaustive_families():
    # Full enumerations of small universes: every arc subset, every source
    # wait bound in {0, 1, 2}.  Unit-delay families exercise both solvers;
    # the mixed-delay family exercises the general solver.
    yield "unit n=3", enumerate_point_graphs(3, range(4), (1,), 5), True
    yield "unit n=4", enumerate_point_graphs(4, range(3), (1,), 4), True
    yield "delays n=3", enumerate_point_graphs(3, range(3), (1, 2), 4), False


def test_c2_oracle_equivalence():
    with _Criterion("C2 oracle equivalence (exhaustive + random)") as c:
        start = time.perf_counter()
        checked = 0
        for _name, family, unit in _exhaustive_families():
            for g in family:
                for delta in (0, 1, 2):
                    truth = oracle_reachable(g, 0, delta).reachable
                    assert solve_general(g, 0, delta).reachable == truth
                    if unit:
                        assert solve_unit(g, 0, delta).reachable == truth
                    checked += 1
        randoms = 0
        for seed in range(1000):
            for max_delay in (1, 3):
                g = gen_random_point(2 + seed % 7, seed % 21, max_time=12,
                                     max_delay=max_delay, seed=seed * 2 + max_delay)
                delta = seed % 4
                truth = oracle_reachable(g, 0, delta).reachable
                assert solve_general(g, 0, delta).reachable == truth
                if max_delay == 1:
                    assert solve_unit(g, 0, delta).reachable == truth
                randoms += 1
        elapsed = time.perf_counter() - start
        assert randoms >= 1000
        assert elapsed < 300, f"took {elapsed:.0f}s"
        c.detail = f"{checked} exhaustive + {randoms} random instances, {elapsed:.0f}s"


def test_c3_trace_table_invariant():
    with _Criterion("C3 per-time trace tables match enumeration") as c:
        instances = 0
        for seed in range(200):
            g = gen_random_point(2 + seed % 5, 1 + seed % 12, max_time=8,
                                 max_delay=1, seed=seed * 31 + 7)
            delta = seed % 4
            result = solve_unit(g, 0, delta, record_tables=True)
            for idx, (_tau, snapshot) in enumerate(result.tables):
                for u in range(g.n):
                    expected = oracle_traces(g, 0, delta, idx, u)
                    assert dict(snapshot.get(u, [])) == expected
            instances += 1
        c.detail = f"{instances} instances, all appearance times"


@pytest.mark.xfail(
    strict=True,
    reason="ladder rung+rail arcs at time 2(i+1) keep four nodes co-active, "
    "so the construction's vertex width is 4 (5 with the shortcut node); "
    "the required constants 2 (3) are unattainable for this family",
)
def test_c4a_ladder_widths_as_required():
    failed_at = None
    for k in range(2, 101):
        if vertex_im_width(gen_ladder(k)) != 2:
            failed_at = (k, vertex_im_width(gen_ladder(k)))
            break
    report(
        "C4a ladder widths equal 2 (shortcut 3)", failed_at is None,
        f"computed width {failed_at[1]} at k={failed_at[0]}" if failed_at else "",
    )
    for k in range(2, 101):
        assert vertex_im_width(gen_ladder(k)) == 2
        assert vertex_im_width(gen_ladder_shortcut(k).graph) == 3


def test_c4b_sat_gadget_widths():
    with _Criterion("C4b SAT gadget widths (arc 3, vertex >= 4n)") as c:
        count = 0
        for n in (3, 6, 9):
            for seed in range(17):
                f = gen_random_34sat(n, seed=seed)
                graph = gen_sat_instance(f).graph
                assert arc_im_width(graph) == 3
                assert vertex_im_width(graph) >= 4 * n
                count += 1
        assert count >= 50
        c.detail = f"{count} formulas"


def test_c4c_subset_sum_gadget_widths():
    with _Criterion("C4c subset-sum gadget width equals 3") as c:
        count = 0
        for n in (3, 4, 5):
            for xs in itertools.product(range(1, 6), repeat=n):
                for target in range(1, sum(xs) + 1):
                    inst = gen_subset_sum_instance(SubsetSumInstance(xs, target))
                    assert interval_vertex_im_width(inst.graph) == 3
                    count += 1
        c.detail = f"{count} instances"


def test_c5_sat_reduction_equivalence():
    with _Criterion("C5 SAT reduction tracks satisfiability") as c:
        start = time.perf_counter()
        count = 0
        for n in (3, 6, 9):
            for seed in range(34):
                f = gen_random_34sat(n, seed=seed)
                inst = gen_sat_instance(f)
                reached = solve_unit(inst.graph, inst.s, inst.delta_max).reachable[inst.t]
                assert reached == sat_bruteforce(f)
                count += 1
        elapsed = time.perf_counter() - start
        assert count >= 100
        assert elapsed < 120, f"took {elapsed:.0f}s"
        c.detail = f"{count} formulas, {elapsed:.0f}s"


def _subset_sum_universe():
    for n in range(1, 6):
        for xs in itertools.product(range(1, 6), repeat=n):
            for target in range(1, sum(xs) + 1):
                yield xs, target


def test_c6_subset_sum_reduction_equivalence():
    with _Criterion("C6 subset-sum reduction tracks subset sums") as c:
        start = time.perf_counter()
        count = 0
        for xs, target in _subset_sum_universe():
            inst = gen_subset_sum_instance(SubsetSumInstance(xs, target))
            expanded = expand_interval_to_point(inst.graph)
            reached = solve_general(expanded, inst.s, 0).reachable[inst.t]
            assert reached == subset_sum_bruteforce(list(xs), target)
            count += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"took {elapsed:.0f}s"
        c.detail = f"{count} instances, {elapsed:.0f}s"


def test_c7_near_linear_scaling_on_bounded_width():
    with _Criterion("C7 near-linear scaling on the ladder family") as c:
        timings = []
        wall = []
        for m_target in (10**3, 10**4, 10**5):
            k = max(2, (m_target + 4) // 6)
            g = gen_ladder(k)
            runs = [_timed_solve(g) for _ in range(5)]
            timings.append(min(t for t, _ in runs))
            wall.append(min(t for _, t in runs))
        assert timings[1] / timings[0] <= 15, f"decade 1 factor {timings[1] / timings[0]:.1f}"
        assert timings[2] / timings[1] <= 15, f"decade 2 factor {timings[2] / timings[1]:.1f}"
        assert wall[2] < 5.0, f"largest solve took {wall[2]:.2f}s"
        c.detail = (
            f"times {timings[0] * 1e3:.1f}/{timings[1] * 1e3:.1f}/{timings[2] * 1e3:.1f} ms, "
            f"factors {timings[1] / timings[0]:.1f}x {timings[2] / timings[1]:.1f}x"
        )


def _timed_solve(g):
    """One timed solve: (collector-paused time, plain wall time), the
    former measured the way ``timeit`` does to keep ratios stable."""
    import gc

    start = time.perf_counter()
    solve_unit(g, 0, 1)
    wall = time.perf_counter() - start
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        solve_unit(g, 0, 1)
        quiet = time.perf_counter() - start
    finally:
        gc.enable()
    return quiet, wall


def test_c8_path_retrieval_valid_and_linear():
    with _Criterion("C8 retrieved paths validate, lookups linear") as c:
        paths = 0
        for seed in range(200):
            for max_delay, solver in ((1, solve_unit), (3, solve_general)):
                g = gen_random_point(2 + seed % 7, seed % 18, max_time=10,
                                     max_delay=max_delay, seed=seed * 13 + max_delay)
                delta = seed % 4
                result = solver(g, 0, delta, record_paths=True)
                for v in sorted(result.reachable_set()):
                    before = result.parent_lookups
                    path = retrieve_path(result, g, 0, v, delta)
                    assert check_restless_path(g, path, 0, v, delta)
                    assert result.parent_lookups - before == len(path.arcs)
                    paths += 1
        for seed in range(10):
            inst = gen_sat_instance(gen_random_34sat(3, seed=seed))
            result = solve_unit(inst.graph, inst.s, inst.delta_max, record_paths=True)
            if result.reachable[inst.t]:
                before = result.parent_lookups
                path = retrieve_path(result, inst.graph, inst.s, inst.t, inst.delta_max)
                assert check_restless_path(inst.graph, path, inst.s, inst.t, inst.delta_max)
                assert result.parent_lookups - before == len(path.arcs)
                paths += 1
        for idx, (xs, target) in enumerate(_subset_sum_universe()):
            if idx % 40:
                continue
            inst = gen_subset_sum_instance(SubsetSumInstance(xs, target))
            expanded = expand_interval_to_point(inst.graph)
            result = solve_general(expanded, inst.s, 0, record_paths=True)
            if result.reachable[inst.t]:
                path = retrieve_path(result, expanded, inst.s, inst.t, 0)
                assert check_restless_path(expanded, path, inst.s, inst.t, 0)
                paths += 1
        c.detail = f"{paths} witness paths"


def test_c9_options_never_change_reachability():
    with _Criterion("C9 prune/record_paths leave reachability unchanged") as c:
        compared = 0
        option_grid = [
            dict(prune=False, record_paths=True),
            dict(prune=True, record_paths=False),
            dict(prune=True, record_paths=True),
        ]
        for seed in range(600):
            for max_delay in (1, 3):
                g = gen_random_point(2 + seed % 7, seed % 21, max_time=12,
                                     max_delay=max_delay, seed=seed * 2 + max_delay)
                delta = seed % 4
                base = solve_general(g, 0, delta).reachable
                for opts in option_grid:
                    assert solve_general(g, 0, delta, **opts).reachable == base
                if max_delay == 1:
                    base_u = solve_unit(g, 0, delta).reachable
                    assert base_u == base
                    for opts in option_grid:
                        assert solve_unit(g, 0, delta, **opts).reachable == base_u
                compared += 1
        for n in (3, 6, 9):
            for seed in range(34):
                inst = gen_sat_instance(gen_random_34sat(n, seed=seed))
                base = solve_unit(inst.graph, inst.s, inst.delta_max).reachable
                for opts in option_grid:
                    assert solve_unit(inst.graph, inst.s, inst.delta_max, **opts).reachable == base
                compared += 1
        for idx, (xs, target) in enumerate(_subset_sum_universe()):
            if idx % 5:
                continue
            inst = gen_subset_sum_instance(SubsetSumInstance(xs, target))
            expanded = expand_interval_to_point(inst.graph)
            base = solve_general(expanded, inst.s, 0).reachable
            for opts in option_grid:
                assert solve_general(expanded, inst.s, 0, **opts).reachable == base
            compared += 1
        c.detail = f"{compared} instances x 3 option combinations"
