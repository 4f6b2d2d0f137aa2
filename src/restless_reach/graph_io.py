"""Text formats: graph files and DIMACS-style CNF.

Graph files: a header line ``point <n> [nonstrict]`` or ``interval <n>``,
then one whitespace-separated arc per line (``u v tau delta`` for point,
``u v tau_start tau_end delta`` for interval).  ``#`` starts a comment;
the convention ``# label <id> <name>`` attaches node names.  Point arcs
need not arrive pre-sorted; the parser writes them into the graph's
int columns, stably sorts those by time, and records whether the input
already was sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .generators import Cnf34Formula
from .model import (
    MAX_TIME,
    IntervalTemporalGraph,
    PointTemporalGraph,
    TemporalGraphError,
    interval_graph,
    nondecreasing,
)


class ParseError(TemporalGraphError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class ParseResult:
    graph: PointTemporalGraph | IntervalTemporalGraph
    labels: dict[int, str]
    input_was_sorted: bool


def _plain_int_text(text: str) -> bool:
    """Whether every integer ``int`` reads from ``text`` is ASCII
    ``[+-]?[0-9]+``: on ASCII text without ``_``, ``int`` accepts nothing
    else, while it also reads digit-group underscores and non-ASCII
    digits such as ``١٢``."""
    return text.isascii() and "_" not in text


def parse_graph_ex(text: str) -> ParseResult:
    labels: dict[int, str] = {}
    kind = None
    point = False
    n = 0
    non_strict = False
    us: list[int] = []
    vs: list[int] = []
    taus: list[int] = []
    deltas: list[int] = []
    interval_arcs: list[tuple[int, int, int, int, int]] = []
    # Text that is plain as a whole is plain line by line.
    plain = _plain_int_text(text)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            tokens = stripped[1:].split()
            if tokens[:1] == ["label"]:
                if len(tokens) != 3:
                    raise ParseError(lineno, f"malformed label comment: {stripped!r}")
                try:
                    if not _plain_int_text(tokens[1]):
                        raise ValueError
                    labels[int(tokens[1])] = tokens[2]
                except ValueError:
                    raise ParseError(lineno, f"label id is not an integer: {tokens[1]!r}")
            continue
        content = stripped.split("#", 1)[0].strip() if "#" in stripped else stripped
        if not content:
            continue
        tokens = content.split()
        if kind is None:
            if tokens[0] not in ("point", "interval"):
                raise ParseError(lineno, f"expected 'point <n>' or 'interval <n>' header, got {content!r}")
            kind = tokens[0]
            point = kind == "point"
            rest = tokens[1:]
            if point and rest[-1:] == ["nonstrict"]:
                non_strict = True
                rest = rest[:-1]
            if len(rest) != 1:
                raise ParseError(lineno, f"malformed header: {content!r}")
            try:
                if not _plain_int_text(rest[0]):
                    raise ValueError
                n = int(rest[0])
            except ValueError:
                raise ParseError(lineno, f"node count is not an integer: {rest[0]!r}")
            if n < 0:
                raise ParseError(lineno, "node count must be non-negative")
            continue
        try:
            if not (plain or _plain_int_text(content)):
                raise ValueError
            values = list(map(int, tokens))
        except ValueError:
            raise ParseError(lineno, f"malformed arc line: {content!r}")
        expected = 4 if point else 5
        if len(values) != expected:
            raise ParseError(lineno, f"expected {expected} integers, got {len(values)}")
        if point:
            u, v, tau, delta = values
        else:
            u, v, tau, tau_end, delta = values
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"node id out of range for n={n}")
        if tau < 0 or delta < 0:
            raise ParseError(lineno, "negative time or delay")
        if point:
            if delta == 0 and not non_strict:
                raise ParseError(lineno, "zero delay requires the 'nonstrict' header token")
            if tau + delta > MAX_TIME:
                raise ParseError(lineno, "arrival time overflows the 64-bit range")
            us.append(u)
            vs.append(v)
            taus.append(tau)
            deltas.append(delta)
        else:
            if delta == 0:
                raise ParseError(lineno, "interval arcs need a positive delay")
            if tau_end < tau:
                raise ParseError(lineno, "interval end before start")
            if tau_end + delta > MAX_TIME:
                raise ParseError(lineno, "arrival time overflows the 64-bit range")
            interval_arcs.append((u, v, tau, tau_end, delta))

    if kind is None:
        raise ParseError(1, "empty input: missing header line")
    for node in labels:
        if not (0 <= node < n):
            raise ParseError(1, f"label for node {node} out of range for n={n}")
    if point:
        was_sorted = nondecreasing(taus)
        return ParseResult(
            graph=PointTemporalGraph.from_columns(n, us, vs, taus, deltas, non_strict=non_strict,
                                                  sort=not was_sorted),
            labels=labels,
            input_was_sorted=was_sorted,
        )
    return ParseResult(
        graph=interval_graph(n, interval_arcs),
        labels=labels,
        input_was_sorted=True,
    )


def parse_graph(text: str) -> PointTemporalGraph | IntervalTemporalGraph:
    return parse_graph_ex(text).graph


def serialize_graph(
    g: PointTemporalGraph | IntervalTemporalGraph,
    labels: dict[int, str] | None = None,
    comments: list[str] | None = None,
) -> str:
    lines = []
    if isinstance(g, IntervalTemporalGraph):
        lines.append(f"interval {g.n}")
    else:
        header = f"point {g.n}"
        if g.non_strict:
            header += " nonstrict"
        lines.append(header)
    for comment in comments or ():
        lines.append(f"# {comment}")
    for node in sorted(labels or ()):
        lines.append(f"# label {node} {labels[node]}")
    if isinstance(g, IntervalTemporalGraph):
        for a in g.arcs:
            lines.append(f"{a.u} {a.v} {a.tau_start} {a.tau_end} {a.delta}")
    else:
        lines.extend(map("{} {} {} {}".format, g.u, g.v, g.tau, g.delta))
    return "\n".join(lines) + "\n"


def parse_dimacs_cnf(text: str) -> Cnf34Formula:
    """Parse a DIMACS CNF document into a formula (shape not yet validated)."""
    n = None
    m = None
    literals: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            tokens = stripped.split()
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError(lineno, f"malformed problem line: {stripped!r}")
            try:
                if not _plain_int_text(stripped):
                    raise ValueError
                n, m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(lineno, f"malformed problem line: {stripped!r}")
            continue
        if n is None:
            raise ParseError(lineno, "clause before 'p cnf' problem line")
        try:
            if not _plain_int_text(stripped):
                raise ValueError
            values = [int(t) for t in stripped.split()]
        except ValueError:
            raise ParseError(lineno, f"malformed clause line: {stripped!r}")
        for value in values:
            if value == 0:
                clauses.append(tuple(literals))
                literals = []
            else:
                literals.append(value)
    if literals:
        clauses.append(tuple(literals))
    if n is None:
        raise ParseError(1, "missing 'p cnf' problem line")
    if m is not None and len(clauses) != m:
        raise ParseError(1, f"problem line declares {m} clauses, found {len(clauses)}")
    return Cnf34Formula(n=n, clauses=clauses)


def serialize_dimacs_cnf(f: Cnf34Formula) -> str:
    lines = [f"p cnf {f.n} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
