"""Restless temporal path reachability in point and interval temporal graphs.

Library surface: a temporal-graph data model with path validity checks
and interval-to-point expansion; interval-membership width computations;
one reachability engine parameterized by the vertex width, which reads
the delay model (all positive or all zero) off the graph, with entry
points for uniform delay one and for any admitted graph, and
witness-path retrieval; brute-force oracles for testing; and generators
for gadget and random instances.
"""

from .model import (
    ArcNotInGraphError,
    ArcView,
    ExpansionSizeError,
    Instance,
    IntervalTemporalGraph,
    IntervalTimedArc,
    ModelMismatchError,
    NodeRangeError,
    PointTemporalGraph,
    StaticDigraph,
    TemporalGraphError,
    TemporalPath,
    TimedArc,
    TimeOverflowError,
    UnsortedArcsError,
    ValidationReport,
    check_restless_path,
    expand_interval_to_point,
    interval_graph,
    lift_path_to_interval,
    point_graph,
    underlying_graph,
    validate_interval_graph,
    validate_point_graph,
)
from .widths import (
    ActivityBounds,
    active_nodes_at,
    activity_bounds,
    arc_im_width,
    interval_activity_bounds,
    interval_vertex_im_width,
    vertex_im_width,
)
from .solver_unit import (
    InvariantError,
    PathRecordsError,
    ReachResult,
    SolveStats,
    TimeSet,
    UnreachableNodeError,
    cleanup_delay,
    retrieve_path,
    solve_general,
    solve_unit,
)
from .oracle import (
    OracleGuardError,
    OracleResult,
    TimeIndexError,
    oracle_reachable,
    oracle_traces,
    sat_bruteforce,
    subset_sum_bruteforce,
)
from .generators import (
    Cnf34Formula,
    FormulaShapeError,
    SubsetSumInstance,
    enumerate_point_graphs,
    gen_ladder,
    gen_ladder_shortcut,
    gen_random_34sat,
    gen_random_point,
    gen_sat_instance,
    gen_subset_sum_instance,
    ladder_labels,
    validate_cnf34,
)
from .graph_io import (
    ParseError,
    ParseResult,
    parse_dimacs_cnf,
    parse_graph,
    parse_graph_ex,
    serialize_dimacs_cnf,
    serialize_graph,
)

__version__ = "0.1.0"
