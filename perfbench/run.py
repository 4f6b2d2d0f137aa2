#!/usr/bin/env python3
"""restless-reach benchmark: from a generated graph to a checked answer
plus witness, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs one untimed warm-up round of the workload's queries,
then repeats rounds, untraced, until ``--seconds`` have passed, with a
fresh set-up before each round, and prints the end-to-end metrics.  Each
set-up and query is timed right after a pass of the host gauge, a fixed
piece of library-free work, and its time is scaled to the gauge's speed
on a calm host (see ``end_to_end``).  ``query_s.p50`` and ``setup_s``
are medians over every sample of the run; ``arcs_per_s`` divides the
summed arcs by the summed latencies.  The lines before the result give
the sample count, the gauge's median time and the unscaled figures.
``--trace 1`` runs one round untraced, the same round traced (spans and
GC pauses) and the same round under ``tracemalloc``, prints the per-layer
metrics, and writes the spans to ``.bench_out/``.  Metric names and units
come from ``BENCHMARK.json``.  Every answer and witness is checked outside
the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
when every query checked out, 1 when any failed, 2 when the library
sources or ``BENCHMARK.json`` are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# The host gauge: fixed work shaped like the library's, timed before each
# set-up and query.  GAUGE_REF_S is its median time on a calm host (2.1 GHz
# Xeon vCPU, CPython 3.11); times are reported at that host speed.
GAUGE_LINES = 8000
GAUGE_TEXT = "\n".join(f"{i} {i * 7 % GAUGE_LINES} {i % 97} {1 + i % 2}"
                       for i in range(GAUGE_LINES))
GAUGE_REF_S = 0.010

LAYER_OPS = {
    "graph_io": ("parse",),
    "widths": ("width",),
    "model": ("expand", "lift"),
    "solver_unit": ("solve", "retrieve"),
    "solver_general": ("solve",),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def host_gauge_s():
    """Time one pass of fixed pure-Python work that calls no library code
    but does what it does most: split and convert lines of text, index
    tuples in a dict of lists, sort them.  Load from outside the VM slows
    it the way it slows the queries around it."""
    start = time.perf_counter()
    arcs = []
    for line in GAUGE_TEXT.splitlines():
        u, v, t, d = line.split()
        arcs.append((int(u), int(v), int(t), int(d)))
    out = {}
    for arc in arcs:
        out.setdefault(arc[0], []).append(arc)
    arcs.sort(key=lambda arc: (arc[2], arc[1]))
    return time.perf_counter() - start


def timed_setup(workload, seed):
    """Set the workload up once; returns ``(seconds, state)``."""
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    return time.perf_counter() - start, state


def run_query(item, call, tally, counts=None):
    """Time one query, check it outside the timing, and count it.

    Returns ``(arcs solved, seconds)``, or ``None`` when the query raised.
    The outcome is dropped before returning, so that no query's memory
    overlaps the next one's.
    """
    from checks import check_outcome

    gc.collect()
    start = time.perf_counter()
    try:
        outcome = call()
    except Exception:  # a query that raises is counted as failed, not fatal
        tally.record(item.label, [traceback.format_exc(limit=3).strip()])
        return None
    elapsed = time.perf_counter() - start
    tally.record(item.label, check_outcome(outcome, item.expect))
    if counts is not None:
        counts.add(outcome)
    return outcome.arcs, elapsed


def end_to_end(workload, seed, seconds, tally):
    """Untraced rounds of the workload's queries until ``seconds`` have
    passed, each round after a set-up of its own, after one untimed
    warm-up round.

    Every set-up and query follows a pass of the host gauge, and its wall
    time is scaled by ``GAUGE_REF_S`` over that pass's time: on a shared
    machine the same call runs up to 1.5x slower for minutes at a stretch,
    and the gauge slows with it.  Returns the end-to-end metrics, medians
    and sums over every sample of the run, and the number of samples.
    ``peak_rss_mb`` is read after the warm-up round, which holds as much
    as any later round: read at the end, it grew with the number of
    rounds by up to 4 %, as freed memory fragments.
    """
    from probes import Direct

    probe = Direct()
    _, state = timed_setup(workload, seed)
    workload.references(state, seed, tally)
    for item in state.items:
        run_query(item, lambda: item.query(probe, *item.args), tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups, latencies, raw, gauges = [], [], [], []
    arcs = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        state = None
        gauge_s = host_gauge_s()
        setup_s, state = timed_setup(workload, seed)
        setups.append(setup_s * GAUGE_REF_S / gauge_s)
        for item in state.items:
            gauge_s = host_gauge_s()
            answered = run_query(item, lambda: item.query(probe, *item.args), tally)
            if answered is not None:
                arcs += answered[0]
                latencies.append(answered[1] * GAUGE_REF_S / gauge_s)
                raw.append(answered[1])
                gauges.append(gauge_s)
    if not latencies:
        return {}, 0
    print(f"# host gauge: median {statistics.median(gauges) * 1e3:.2f} ms against "
          f"{GAUGE_REF_S * 1e3:.2f} ms; unscaled query p50 {statistics.median(raw):.4f} s, "
          f"{arcs / sum(raw):.0f} arcs/s; scaled query p90 "
          f"{sorted(latencies)[len(latencies) * 9 // 10]:.4f} s")
    return {
        "arcs_per_s": arcs / sum(latencies),
        "query_s.p50": statistics.median(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }, len(latencies)


class Counts:
    """Solver counters summed over one traced round (peaks: maximum)."""

    def __init__(self):
        self.values = {
            f"{solver}.{name}": 0
            for solver in ("solver_unit", "solver_general")
            for name in ("extensions", "peak_entries", "arcs")
        }
        self.values.update({
            "solver_general.time_inserts": 0,
            "solver_general.merge_copies": 0,
            "solver_unit.parent_lookups": 0,
            "widths.k": 0,
        })

    def add(self, outcome):
        v = self.values
        stats = outcome.result.stats
        v[f"{outcome.solver}.extensions"] += stats.extensions
        v[f"{outcome.solver}.arcs"] += outcome.arcs
        key = f"{outcome.solver}.peak_entries"
        v[key] = max(v[key], stats.peak_entries)
        if outcome.solver == "solver_general":
            v["solver_general.time_inserts"] += stats.time_inserts
            v["solver_general.merge_copies"] += stats.merge_copies
        v["solver_unit.parent_lookups"] += outcome.result.parent_lookups
        if outcome.width is not None:
            v["widths.k"] = max(v["widths.k"], outcome.width)


def per_layer(state, seed, workload_name, tally):
    """One untraced, one traced and one ``tracemalloc`` round; returns the
    per-layer metrics and writes the spans out."""
    from probes import (
        QUERY, Direct, LayerTotals, MemoryProbe, Tracer, layer_totals, self_times,
    )

    direct = Direct()
    untraced_s = 0.0
    for item in state.items:
        answered = run_query(item, lambda: item.query(direct, *item.args), tally)
        untraced_s += answered[1] if answered else 0.0

    counts = Counts()
    labels = [item.label for item in state.items]
    with Tracer() as tracer:
        for qid, item in enumerate(state.items):
            run_query(item, lambda: tracer.run_query(qid, item.query, *item.args),
                      tally, counts)

    memory = MemoryProbe()
    tracemalloc.start()
    try:
        for item in state.items:
            run_query(item, lambda: item.query(memory, *item.args), tally)
    finally:
        tracemalloc.stop()

    spans = tracer.spans
    totals = layer_totals(spans)
    queries = [s for s in spans if s.name == QUERY]
    traced_s = sum(s.duration for s in queries)
    layer_self = sum(t.self_s for name, t in totals.items() if name != QUERY)
    c = counts.values
    m = {}
    for module, ops in LAYER_OPS.items():
        for op in ops:
            m[f"{module}.{op}_s"] = totals.get(f"{module}.{op}", LayerTotals()).self_s
        names = [f"{module}.{op}" for op in ops]
        m[f"{module}.gc_pause_s"] = sum(
            totals.get(n, LayerTotals()).gc_pause_s for n in names)
        m[f"{module}.peak_mb"] = max(memory.peak_bytes.get(n, 0) for n in names) / 2**20
    for solver in ("solver_unit", "solver_general"):
        arcs = c[f"{solver}.arcs"]
        m[f"{solver}.us_per_arc"] = m[f"{solver}.solve_s"] / arcs * 1e6 if arcs else 0.0
        m[f"{solver}.extensions"] = c[f"{solver}.extensions"]
        m[f"{solver}.peak_entries"] = c[f"{solver}.peak_entries"]
    m["solver_general.time_inserts"] = c["solver_general.time_inserts"]
    m["solver_general.merge_copies"] = c["solver_general.merge_copies"]
    ext = c["solver_general.extensions"]
    m["solver_general.insert_ratio"] = c["solver_general.time_inserts"] / ext if ext else 0.0
    m["solver_unit.parent_lookups"] = c["solver_unit.parent_lookups"]
    m["widths.k"] = max(c["widths.k"], state.width or 0)
    m["gc.pause_s"] = sum(t.gc_pause_s for t in totals.values())
    m["gc.gen2_collections"] = sum(t.gen2_collections for t in totals.values())
    m["trace.query_s"] = traced_s
    m["trace.self_share"] = layer_self / traced_s if traced_s else 0.0
    m["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0

    write_spans(workload_name, seed, spans, labels, self_times(spans))
    return m


def write_spans(workload_name, seed, spans, labels, own):
    """Spans plus a per-query breakdown (self time and GC pause per layer)."""
    breakdown = {}
    for s in spans:
        q = breakdown.setdefault(s.query, {"label": labels[s.query], "layers": {}})
        layer = q["layers"].setdefault(s.name, {"self_s": 0.0, "gc_pause_s": 0.0, "gen2": 0})
        layer["self_s"] += own[s.id]
        layer["gc_pause_s"] += s.gc_pause_s
        layer["gen2"] += s.gen2_collections
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload_name}-seed{seed}-spans.json"
    path.write_text(json.dumps({
        "workload": workload_name,
        "seed": seed,
        "queries": [breakdown[q] for q in sorted(breakdown)],
        "spans": [vars(s) for s in spans],
    }, indent=1))
    print(f"# spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "restless_reach" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from checks import Tally
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tally = Tally()
    if args.trace:
        state = workload.setup(args.seed)
        workload.references(state, args.seed, tally)
        values = per_layer(state, args.seed, args.workload, tally)
        samples = len(state.items)
    else:
        values, samples = end_to_end(workload, args.seed, args.seconds, tally)

    for reason in tally.reasons:
        print(f"# FAILED {reason}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not tally.failed:
        print(f"perfbench: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{samples} timed queries, "
          f"{tally.failed} of {tally.attempted} queries and reference checks failed "
          f"(failed_share {tally.failed_share:.4f})")
    if not args.trace:
        print(f"# query_s.p50 is the median of {samples} samples")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
