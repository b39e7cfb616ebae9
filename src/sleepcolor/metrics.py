"""Complexity accounting, validity verdicts, aggregation and CSV output."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InternalError, UsageError
from .graph import (
    UNCOLORED,
    Coloring,
    ColoringInstance,
    NodeView,
    format_decimal,
    position,
)

PROPER_TOTAL = "proper_total"
PROPER_PARTIAL = "proper_partial"
INVALID = "invalid"

DECAY_COLUMNS = 12      # at least x1..x12; more when phase 1 ran more iterations

_RUN_FIELDS = ["seed", "family", "n", "param", "K", "threshold", "worst_awake",
               "avg_awake", "total_rounds", "valid", "phase2_incomplete"]


def _csv_fields(decay_columns: int) -> list[str]:
    return _RUN_FIELDS + [f"x{i}" for i in range(1, decay_columns + 1)]


CSV_FIELDS = _csv_fields(DECAY_COLUMNS)


def validity_verdict(instance: ColoringInstance, coloring: Coloring) -> str:
    """Exhaustive scan over node positions: list membership per node,
    conflict per edge, totality.  A coloring over other nodes than the
    instance's is invalid."""
    g = instance.graph
    if coloring.nodes != g.nodes:
        return INVALID
    colors = coloring.color
    for c, lst in zip(colors, instance.list_at):
        if c != UNCOLORED and c not in lst:
            return INVALID
    off, flat = g.offsets, g.flat
    for i, c in enumerate(colors):
        if c != UNCOLORED:
            for j in flat[off[i]:off[i + 1]]:
                if colors[j] == c:
                    return INVALID
    return PROPER_PARTIAL if UNCOLORED in colors else PROPER_TOTAL


class PerNode(NodeView):
    """node id -> (awake rounds, termination round, phase terminated in), read
    from a run's position lists: the sorted `nodes`, and `awake`, `term` and
    `phase` by position.  Nothing is copied; a lookup finds the id's position
    with `graph.position`."""

    __slots__ = ("nodes", "awake", "term", "phase")

    def __init__(self, nodes, awake, term, phase):
        self.nodes, self.awake, self.term, self.phase = nodes, awake, term, phase

    def __getitem__(self, v):
        i = position(self.nodes, v)
        return self.awake[i], self.term[i], self.phase[i]


@dataclass(frozen=True)
class RunMetrics:
    """Per-run complexity measurements and verdicts; the run figures below
    derive from `per_node` and `phase_rounds[1]`, each on first read."""

    per_node: PerNode
    validity: str
    phase2_incomplete: bool
    phase_awake: dict[int, int]
    phase_rounds: dict[int, int]
    phase3_classes: int = 0

    @cached_property
    def worst_case_awake(self) -> int:
        return max(self.per_node.awake)

    @cached_property
    def average_awake(self) -> Fraction:
        return Fraction(sum(self.per_node.awake), len(self.per_node))

    @cached_property
    def total_rounds(self) -> int:
        return max(self.per_node.term)

    @cached_property
    def decay_histogram(self) -> dict[int, int]:
        """Iteration -> number of nodes that adopted in it, for every phase-1
        iteration that ran (phase 1 stops once every node has adopted)."""
        hist = dict.fromkeys(range(1, self.phase_rounds[1] // 2 + 1), 0)
        for t, phase in zip(self.per_node.term, self.per_node.phase):
            if phase == 1:
                hist[(t + 1) // 2] += 1
        return hist

    def csv_row(self, seed: int, family: str, n: int, param, k: int,
                threshold: int) -> list[str]:
        xs = [self.decay_histogram.get(i, 0)
              for i in range(1, max(DECAY_COLUMNS, len(self.decay_histogram)) + 1)]
        avg = self.average_awake
        return (
            [format_decimal(seed), family, format_decimal(n), _fmt_param(param),
             format_decimal(k), format_decimal(threshold),
             format_decimal(self.worst_case_awake),
             f"{avg.numerator / avg.denominator:.6f}",
             format_decimal(self.total_rounds),
             "1" if self.validity == PROPER_TOTAL else "0",
             "1" if self.phase2_incomplete else "0"]
            + [format_decimal(x) for x in xs]
        )


def _fmt_param(param) -> str:
    if param is None:
        return "0"
    if isinstance(param, float):
        return repr(param)
    return str(param)


def collect(trace, coloring: Coloring, instance: ColoringInstance, config) -> RunMetrics:
    """Rebuild run metrics from a trace alone (plus the final coloring).

    An independent accounting path: node lines give awake counts and
    termination rounds, the configured phase boundaries attribute rounds to
    phases, and validity comes from re-scanning the coloring against the
    instance.  Raises InternalError when the coloring is over other nodes
    than the instance, or a node never terminated or terminated without a
    color: a run that returned is always complete.
    """
    s2, s3 = config.phase_boundaries(instance.graph.node_count)

    awake = {v: 0 for v in instance.graph.nodes}
    term: dict[int, int | None] = {v: None for v in instance.graph.nodes}
    per_round: dict[int, int] = {}
    for rnd, v, act in trace.node_events:
        if v not in awake:
            raise InternalError(f"trace mentions unknown node {format_decimal(v)}")
        awake[v] += 1
        per_round[rnd] = per_round.get(rnd, 0) + 1
        if act == "term":
            if term[v] is not None:
                raise InternalError(f"node {format_decimal(v)} terminated twice in trace")
            term[v] = rnd

    if coloring.nodes != instance.graph.nodes:
        raise InternalError("the coloring is over other nodes than the instance")
    for (v, r), c in zip(term.items(), coloring.color):
        if r is None:
            raise InternalError(f"node {format_decimal(v)} never terminated in trace")
        if not c:
            raise InternalError(f"node {format_decimal(v)} terminated in trace "
                                f"but has no color")

    def phase_for(rnd: int) -> int:
        if rnd <= s2:
            return 1
        if rnd <= s3:
            return 2
        return 3

    phase_awake = {1: 0, 2: 0, 3: 0}
    phase_rounds = {1: 0, 2: 0, 3: 0}
    for rnd, events in per_round.items():
        p = phase_for(rnd)
        phase_awake[p] += events
        base = 0 if p == 1 else (s2 if p == 2 else s3)
        phase_rounds[p] = max(phase_rounds[p], rnd - base)

    return RunMetrics(
        # both dicts were filled in node order, so their values are by position
        per_node=PerNode(instance.graph.nodes, list(awake.values()), list(term.values()),
                         bytes(map(phase_for, term.values()))),
        validity=validity_verdict(instance, coloring),
        phase2_incomplete=False,   # not derivable from the trace; caller's concern
        phase_awake=phase_awake,
        phase_rounds=phase_rounds,
    )


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

_AGG_FIELDS = ("worst_case_awake", "average_awake", "total_rounds")


def nearest_rank(sorted_values: Sequence, q: float):
    """Nearest-rank quantile: the ceil(q*N)-th smallest value."""
    if not sorted_values:
        raise UsageError("quantile of empty data")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def aggregate(runs: Iterable[RunMetrics]) -> dict:
    """Deterministic summary (mean/max/min/p50/p95) of each run figure."""
    runs = list(runs)
    if not runs:
        raise UsageError("aggregate needs at least one run")
    out: dict = {"runs": len(runs)}
    for name in _AGG_FIELDS:
        values = sorted(float(getattr(m, name)) for m in runs)
        out[name] = {
            "mean": sum(values) / len(values),
            "min": values[0],
            "max": values[-1],
            "p50": nearest_rank(values, 0.50),
            "p95": nearest_rank(values, 0.95),
        }
    out["all_valid"] = all(m.validity == PROPER_TOTAL for m in runs)
    return out


def write_csv(fh, rows: Iterable[Sequence[str]], header_comments: Iterable[str] = ()) -> None:
    """Write the run CSV: comment block, mandatory header row, data rows.

    The header names as many decay columns as the widest row carries, and
    narrower rows (fewer phase-1 iterations run) are padded with zero decay.
    """
    rows = list(rows)
    width = max([len(CSV_FIELDS)] + [len(row) for row in rows])
    for line in header_comments:
        fh.write(f"# {line}\n")
    fh.write(",".join(_csv_fields(width - len(_RUN_FIELDS))) + "\n")
    for row in rows:
        fh.write(",".join(row) + ",0" * (width - len(row)) + "\n")
