"""Command-line front end.

Subcommands: ``solve`` (reachability and witness paths), ``width``
(interval-membership widths), ``generate`` (gadget and random instances),
``check`` (solver-versus-oracle cross validation), ``bench`` (timing
harness).  Each query is one ``solve_general`` call, which reads the
delay model off the graph.  Exit codes: 0 success/reachable, 1 not
reachable or mismatch, 2 usage, parse or delay-model error, 3 resource
guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .generators import (
    FormulaShapeError,
    SubsetSumInstance,
    gen_ladder,
    gen_ladder_shortcut,
    gen_random_point,
    gen_sat_instance,
    gen_subset_sum_instance,
    ladder_labels,
)
from .graph_io import ParseError, parse_dimacs_cnf, parse_graph_ex, serialize_graph
from .model import (
    ExpansionSizeError,
    IntervalTemporalGraph,
    TemporalGraphError,
    expand_interval_to_point,
    lift_path_to_interval,
)
from .oracle import OracleGuardError, oracle_reachable
from .solver_unit import retrieve_path, solve_general
from .widths import arc_im_width, interval_vertex_im_width, vertex_im_width

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _resolve_node(token: str, n: int, labels: dict[int, str]) -> int:
    try:
        node = int(token)
    except ValueError:
        inverse = {name: node for node, name in labels.items()}
        if token in inverse:
            return inverse[token]
        raise ValueError(f"unknown node {token!r}")
    if not (0 <= node < n):
        raise ValueError(f"node id {node} out of range for n={n}")
    return node


def cmd_solve(args) -> int:
    try:
        parsed = parse_graph_ex(_read_file(args.input))
    except ParseError as e:
        return _fail(str(e), EXIT_USAGE)
    except OSError as e:
        return _fail(str(e), EXIT_USAGE)
    source_graph = parsed.graph
    interval_input = isinstance(source_graph, IntervalTemporalGraph)
    if interval_input:
        try:
            graph = expand_interval_to_point(source_graph, cap=args.expansion_cap)
        except ExpansionSizeError as e:
            return _fail(str(e), EXIT_GUARD)
        width = interval_vertex_im_width(source_graph)
    else:
        graph = source_graph
        width = vertex_im_width(graph)

    try:
        s = _resolve_node(args.source, graph.n, parsed.labels)
        t = _resolve_node(args.target, graph.n, parsed.labels) if args.target is not None else None
    except ValueError as e:
        return _fail(str(e), EXIT_USAGE)
    if args.path and t is None:
        return _fail("--path needs --target", EXIT_USAGE)

    result = solve_general(graph, s, args.delta, record_paths=args.path, prune=args.prune)

    path = lifted = None
    if args.path and t is not None and result.reachable[t]:
        path = retrieve_path(result, graph, s, t, args.delta)
        if interval_input:
            lifted = lift_path_to_interval(source_graph, path)

    reachable_ids = sorted(result.reachable_set())
    if args.json:
        if lifted is not None:
            arcs = [[a.u, a.v, dep, a.delta, a.tau_start, a.tau_end]
                    for a, dep in zip(lifted.arcs, lifted.departures)]
        elif path is not None:
            arcs = [[a.u, a.v, a.tau, a.delta] for a in path.arcs]
        else:
            arcs = None
        print(json.dumps({"reachable": reachable_ids, "path": arcs, "width": width}))
    else:
        if t is not None:
            print("YES" if result.reachable[t] else "NO")
        else:
            print("reachable:", " ".join(str(v) for v in reachable_ids))
        if lifted is not None:
            for arc, dep in zip(lifted.arcs, lifted.departures):
                print(f"{arc.u} {arc.v} dep={dep} delta={arc.delta} "
                      f"window=[{arc.tau_start},{arc.tau_end}]")
        elif path is not None:
            for a in path.arcs:
                print(f"{a.u} {a.v} {a.tau} {a.delta}")
    if t is not None and not result.reachable[t]:
        return EXIT_NO
    return EXIT_OK


def cmd_width(args) -> int:
    try:
        parsed = parse_graph_ex(_read_file(args.input))
    except (ParseError, OSError) as e:
        return _fail(str(e), EXIT_USAGE)
    g = parsed.graph
    if isinstance(g, IntervalTemporalGraph):
        if args.arc:
            return _fail("arc width is not defined for interval inputs", EXIT_USAGE)
        print(interval_vertex_im_width(g))
        return EXIT_OK
    print(arc_im_width(g) if args.arc else vertex_im_width(g))
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        if args.family == "sat":
            formula = parse_dimacs_cnf(_read_file(args.cnf))
            inst = gen_sat_instance(formula)
            comments = [f"source {inst.s}", f"target {inst.t}", f"delta {inst.delta_max}"]
            sys.stdout.write(serialize_graph(inst.graph, inst.labels, comments))
        elif args.family == "subsetsum":
            xs = [int(tok) for tok in args.xs.split(",") if tok.strip()]
            inst = gen_subset_sum_instance(SubsetSumInstance(xs, args.target))
            comments = [f"source {inst.s}", f"target {inst.t}", f"delta {inst.delta_max}"]
            sys.stdout.write(serialize_graph(inst.graph, inst.labels, comments))
        elif args.family == "ladder":
            if args.shortcut:
                inst = gen_ladder_shortcut(args.k)
                comments = [f"source {inst.s}", f"target {inst.t}"]
                sys.stdout.write(serialize_graph(inst.graph, inst.labels, comments))
            else:
                sys.stdout.write(serialize_graph(gen_ladder(args.k), ladder_labels(args.k)))
        else:
            g = gen_random_point(args.nodes, args.arcs, args.max_time, args.max_delay, args.seed)
            sys.stdout.write(serialize_graph(g))
    except (ParseError, FormulaShapeError, ValueError, OSError) as e:
        return _fail(str(e), EXIT_USAGE)
    except TemporalGraphError as e:
        return _fail(str(e), EXIT_GUARD)
    return EXIT_OK


def _check_one(graph, s, delta, descriptor) -> bool:
    got = solve_general(graph, s, delta).reachable
    truth = oracle_reachable(graph, s, delta).reachable
    if got == truth:
        print(f"MATCH {descriptor}")
        return True
    print(f"MISMATCH {descriptor}")
    print("# reproducing instance:")
    sys.stdout.write(serialize_graph(graph))
    print(f"# source={s} delta={delta} oracle={truth}")
    print(f"# solver={got}")
    return False


def cmd_check(args) -> int:
    try:
        if args.trials > 0:
            import random as _random

            rng = _random.Random(args.seed)
            all_ok = True
            for trial in range(args.trials):
                n = rng.randint(2, 8)
                m = rng.randint(0, 20)
                max_delay = rng.choice([0, 1, 1, 3])
                g = gen_random_point(n, m, max_time=12, max_delay=max_delay,
                                     seed=rng.randrange(2**32))
                delta = rng.randint(0, 3)
                s = rng.randrange(n)
                all_ok &= _check_one(g, s, delta, f"trial={trial} n={n} m={m} delta={delta}")
            print("all match" if all_ok else "mismatches found")
            return EXIT_OK if all_ok else EXIT_NO
        if args.input is None:
            return _fail("need an input file or --trials", EXIT_USAGE)
        parsed = parse_graph_ex(_read_file(args.input))
        graph = parsed.graph
        if isinstance(graph, IntervalTemporalGraph):
            graph = expand_interval_to_point(graph, cap=args.expansion_cap)
        s = _resolve_node(args.source, graph.n, parsed.labels)
        ok = _check_one(graph, s, args.delta, f"file={args.input}")
        return EXIT_OK if ok else EXIT_NO
    except (ParseError, ValueError, OSError) as e:
        return _fail(str(e), EXIT_USAGE)
    except (OracleGuardError, ExpansionSizeError) as e:
        return _fail(str(e), EXIT_GUARD)


def _bench_instance(args, size: int, repeat: int):
    if args.family == "ladder":
        k = max(2, (size + 4) // 6)
        graph = gen_ladder(k)
        descriptor = f"ladder k={k}"
        s = 0
    elif args.family == "random":
        n = max(2, size // 4)
        graph = gen_random_point(n, size, max_time=size, max_delay=args.max_delay,
                                 seed=args.seed + repeat)
        descriptor = f"random n={n} m={size} seed={args.seed + repeat}"
        s = 0
    else:
        parsed = parse_graph_ex(_read_file(args.input))
        graph = parsed.graph
        if isinstance(graph, IntervalTemporalGraph):
            graph = expand_interval_to_point(graph)
        descriptor = f"file {args.input}"
        s = _resolve_node(args.source, graph.n, parsed.labels)
    return graph, s, descriptor


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        return _fail(f"malformed --sizes {args.sizes!r}", EXIT_USAGE)
    if args.family == "file" and args.input is None:
        return _fail("bench family 'file' needs --input", EXIT_USAGE)
    records = []
    try:
        for size in sizes:
            for repeat in range(args.repeats):
                graph, s, descriptor = _bench_instance(args, size, repeat)
                width = vertex_im_width(graph)
                start = time.perf_counter()
                result = solve_general(graph, s, args.delta, prune=args.prune)
                elapsed = time.perf_counter() - start
                record = {
                    "instance": descriptor,
                    "n": graph.n,
                    "m": len(graph.arcs),
                    "k": width,
                    "delta": args.delta,
                    "wall_s": round(elapsed, 6),
                    "peak_entries": result.stats.peak_entries,
                    "reachable": sum(result.reachable),
                    "repeat": repeat,
                }
                records.append(record)
                if args.json:
                    print(json.dumps(record))
                else:
                    print(
                        f"{descriptor:<28} n={record['n']:<8} M={record['m']:<8} "
                        f"k={width:<3} delta={args.delta:<3} "
                        f"time={elapsed:.4f}s peak={record['peak_entries']} "
                        f"reach={record['reachable']} rep={repeat}"
                    )
    except (ParseError, ValueError, OSError) as e:
        return _fail(str(e), EXIT_USAGE)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restless-reach",
        description="Restless temporal path reachability, widths, and gadget generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a reachability instance")
    p_solve.add_argument("input")
    p_solve.add_argument("--source", required=True)
    p_solve.add_argument("--target")
    p_solve.add_argument("--delta", type=int, required=True)
    p_solve.add_argument("--path", action="store_true")
    p_solve.add_argument("--prune", action="store_true")
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument("--expansion-cap", type=int, default=10**7)
    p_solve.set_defaults(handler=cmd_solve)

    p_width = sub.add_parser("width", help="compute an interval-membership width")
    p_width.add_argument("input")
    which = p_width.add_mutually_exclusive_group()
    which.add_argument("--vertex", action="store_true")
    which.add_argument("--arc", action="store_true")
    p_width.set_defaults(handler=cmd_width)

    p_gen = sub.add_parser("generate", help="emit a generated graph file on stdout")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_sat = gen_sub.add_parser("sat")
    g_sat.add_argument("cnf", help="DIMACS CNF file with the exact (3,4) shape")
    g_ss = gen_sub.add_parser("subsetsum")
    g_ss.add_argument("xs", help="comma-separated positive integers")
    g_ss.add_argument("target", type=int)
    g_ladder = gen_sub.add_parser("ladder")
    g_ladder.add_argument("k", type=int)
    g_ladder.add_argument("--shortcut", action="store_true")
    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("--nodes", type=int, required=True)
    g_rand.add_argument("--arcs", type=int, required=True)
    g_rand.add_argument("--max-time", type=int, default=20)
    g_rand.add_argument("--max-delay", type=int, default=1)
    g_rand.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(handler=cmd_generate)

    p_check = sub.add_parser("check", help="cross-validate solvers against the oracle")
    p_check.add_argument("input", nargs="?")
    p_check.add_argument("--source", default="0")
    p_check.add_argument("--delta", type=int, default=1)
    p_check.add_argument("--trials", type=int, default=0)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--expansion-cap", type=int, default=10**7)
    p_check.set_defaults(handler=cmd_check)

    p_bench = sub.add_parser("bench", help="timing harness")
    p_bench.add_argument("family", choices=["ladder", "random", "file"])
    p_bench.add_argument("--sizes", default="1000")
    p_bench.add_argument("--delta", type=int, default=1)
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--max-delay", type=int, default=1)
    p_bench.add_argument("--prune", action="store_true")
    p_bench.add_argument("--input")
    p_bench.add_argument("--source", default="0")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.handler(args)
    except TemporalGraphError as e:
        return _fail(str(e), EXIT_USAGE)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
