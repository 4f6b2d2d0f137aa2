import pytest
from hypothesis import HealthCheck, settings, strategies as st

from restless_reach import point_graph

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# Four nodes s,u,v,t (ids 0..3), five timed arcs; a waiting bound of 2
# separates t-reachability from unreachability.
S, U, V, T = 0, 1, 2, 3


@pytest.fixture
def four_node_graph():
    return point_graph(4, [(S, U, 1, 1), (U, V, 4, 2), (U, T, 5, 2), (V, T, 6, 1), (U, V, 7, 5)])


def brute_windows(g):
    """Activity windows ``(first departure, last arrival)`` per node and
    per underlying arc, read straight from ``g.arcs``."""
    nodes, arcs = {}, {}
    for a in g.arcs:
        lo, hi = a.tau, a.tau + a.delta
        for table, key in ((nodes, a.u), (nodes, a.v), (arcs, (a.u, a.v))):
            old_lo, old_hi = table.get(key, (lo, hi))
            table[key] = (min(old_lo, lo), max(old_hi, hi))
    return nodes, arcs


def brute_force_max_active(windows):
    """Evaluate the number of active windows at every single time."""
    last = max((hi for _, hi in windows), default=-1)
    return max((sum(lo <= t <= hi for lo, hi in windows) for t in range(last + 1)), default=0)


def brute_force_vertex_width(g):
    """Reference width: evaluate the active-node set at every single time."""
    return brute_force_max_active(list(brute_windows(g)[0].values()))


def brute_force_arc_width(g):
    return brute_force_max_active(list(brute_windows(g)[1].values()))


@st.composite
def point_graph_strategy(draw, max_n=6, max_m=10, max_tau=8, delays=(1, 2, 3)):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    arcs = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = (u + draw(st.integers(1, n - 1))) % n
        tau = draw(st.integers(0, max_tau))
        delta = draw(st.sampled_from(delays))
        arcs.append((u, v, tau, delta))
    return point_graph(n, arcs, non_strict=(delays == (0,)))
