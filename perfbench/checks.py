"""Correctness gate, run outside every timed region.

A query fails if it raises, gives a wrong answer, or returns a witness
that is not a valid restless path in the graph it was asked about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from restless_reach import TemporalGraphError, check_restless_path

if TYPE_CHECKING:
    from workloads import Expect, Outcome


def check_outcome(outcome: Outcome, expect: Expect) -> list[str]:
    """Every way ``outcome`` departs from ``expect``; empty when correct."""
    problems = []
    reachable = outcome.result.reachable
    if expect.reachable is not None and outcome.result.reachable_set() != set(expect.reachable):
        problems.append("reachable set differs from the reference")
    for t, want in expect.answers.items():
        if reachable[t] != want:
            problems.append(f"node {t}: answered {reachable[t]}, reference says {want}")
    for w in outcome.witnesses:
        if not reachable[w.t]:
            problems.append(f"witness to node {w.t}, which the answer calls unreachable")
        try:
            valid = check_restless_path(w.graph, w.path, w.s, w.t, w.delta_max)
        except TemporalGraphError as e:
            problems.append(f"witness {w.s}->{w.t}: {e}")
            continue
        if not valid:
            problems.append(f"witness {w.s}->{w.t} is not a restless path")
    return problems


@dataclass
class Tally:
    """Queries attempted and failed, with the first few reasons kept.

    Reference checks on sibling instances count as queries too.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
