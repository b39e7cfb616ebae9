"""The three-phase list-coloring pipeline and its configuration.

Phase boundaries are globally scheduled from (n, config) alone, which is
what lets every node compute them locally:

  phase 1   rounds 1 .. 2*k1
  phase 2   rounds 2*k1+1 .. 2*k1 + 2*40, scheduled only when the degree
            threshold is reachable at all (threshold <= n-1); the window
            passes silently when no node is above the threshold
  phase 3   starts right after the phase-2 window (or after phase 1 when
            no window is scheduled) and runs at most its own schedule,
            interim rounds + 2C - 1 (C = phase-3 interim classes)

These schedules are the only round bound.  The output is Las Vegas: every
run that returns has a proper coloring in which every node's color comes
from its original list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import UsageError
from ..graph import Coloring, ColoringInstance, format_decimal
from ..metrics import PerNode, RunMetrics, validity_verdict
from ..rng import derive_seed
from ..simcore import Trace
from .phase1 import run_phase1
from .phase2 import run_phase2
from .phase3 import run_phase3

_PHASE1_SALT = 0x70310001
_PHASE2_SALT = 0x70320002

K1_COEFFICIENT = 3.0           # phase 1 runs ~K1_COEFFICIENT * log2 log2 n iterations
PHASE2_ITERATION_CAP = 40      # length of the phase-2 window, in iterations


def default_k1(n: int) -> int:
    """Iteration budget for phase 1: ~K1_COEFFICIENT * log2 log2 n, at least 1."""
    return max(1, math.ceil(K1_COEFFICIENT * math.log2(math.log2(max(2, n)))))


def default_phase2_threshold(n: int) -> int:
    """Degree cutoff for the reduction phase, clamped to at least 8.

    The polylog cutoff exceeds n at desk scale, making phase 2 a scheduled
    no-op unless the caller forces a small threshold explicitly.
    """
    return max(8, math.ceil(math.log2(n) ** 7))


@dataclass(frozen=True)
class PipelineConfig:
    k1: int | None = None
    phase2_degree_threshold: int | None = None
    seed: int = 0

    def resolve(self, n: int) -> "PipelineConfig":
        """Fill the size-dependent defaults for an n-node instance.

        Raises UsageError for a phase-1 budget that cannot run (k1 < 1).
        """
        if self.k1 is not None and self.k1 < 1:
            raise UsageError(f"k1 must be >= 1, got {format_decimal(self.k1)}")
        return replace(
            self,
            k1=self.k1 if self.k1 is not None else default_k1(n),
            phase2_degree_threshold=(
                self.phase2_degree_threshold
                if self.phase2_degree_threshold is not None
                else default_phase2_threshold(n)
            ),
        )

    def phase_boundaries(self, n: int) -> tuple[int, int]:
        """(end of phase-1 window, end of phase-2 window) in global rounds.

        The two are equal when no phase-2 window is scheduled: no node of an
        n-node graph can exceed the degree threshold.
        """
        cfg = self.resolve(n)
        s2 = 2 * cfg.k1
        s3 = s2 + (2 * PHASE2_ITERATION_CAP if cfg.phase2_degree_threshold <= n - 1 else 0)
        return s2, s3

    def kv_block(self) -> list[str]:
        """Flat key=value lines (embedded in CSV output for reproducibility)."""
        auto = lambda x: "auto" if x is None else format_decimal(x)
        return [
            f"k1={auto(self.k1)}",
            f"k1_coefficient={K1_COEFFICIENT}",
            f"phase2_degree_threshold={auto(self.phase2_degree_threshold)}",
            f"phase2_iteration_cap={PHASE2_ITERATION_CAP}",
            f"seed={format_decimal(self.seed)}",
        ]


def run_pipeline(
    instance: ColoringInstance,
    config: PipelineConfig,
    trace: Trace | None = None,
) -> tuple[Coloring, RunMetrics]:
    """Run all phases on an admissible instance.

    Raises RunIncomplete if phase 3 overruns its own schedule, which an
    admissible instance never causes.
    """
    nodes = instance.graph.nodes
    n = len(nodes)
    cfg = config.resolve(n)
    s2, s3 = config.phase_boundaries(n)

    if trace is not None:
        trace.round_offset = 0
    p1 = run_phase1(instance, cfg.k1, derive_seed(cfg.seed, _PHASE1_SALT), trace=trace)
    # the run's awake and termination lists (phase 1's own), its colors and
    # the phase each node terminated in start from phase 1's results, and the
    # later phases write into them in place; phase 1's color list stays as
    # phase 1 left it, so that `p1.colors` keeps naming phase 1's nodes
    awake, term = p1.awake, p1.term
    coloring = Coloring(nodes, list(p1.color))
    color = coloring.color
    phase_of = bytearray(b"\x01") * n          # run position -> phase terminated in
    phase_awake = {1: sum(awake), 2: 0, 3: 0}
    phase_rounds = {1: p1.rounds_executed, 2: 0, 3: 0}
    where = [i for i, c in enumerate(p1.color) if not c]   # run position of each residual node

    def fold(outcome, phase: int, offset: int) -> list[int]:
        """Fold a phase run on the residual at run positions `where` into the
        run; returns the run positions of its own residual."""
        for i, c, a, t in zip(where, outcome.color, outcome.awake, outcome.term):
            awake[i] += a
            if c:
                term[i] = offset + t
                color[i] = c
                phase_of[i] = phase
        phase_awake[phase] = sum(outcome.awake)
        phase_rounds[phase] = outcome.rounds_executed
        return [i for i, c in zip(where, outcome.color) if not c]

    residual = p1.residual
    phase2_incomplete = False
    if residual is not None and s3 > s2:
        if trace is not None:
            trace.round_offset = s2
        p2 = run_phase2(
            residual,
            cfg.phase2_degree_threshold,
            PHASE2_ITERATION_CAP,
            derive_seed(cfg.seed, _PHASE2_SALT),
            trace=trace,
        )
        where = fold(p2, 2, s2)
        residual = p2.residual
        phase2_incomplete = p2.extra["incomplete"]

    phase3_classes = 0
    if residual is not None:
        if trace is not None:
            trace.round_offset = s3
        p3 = run_phase3(residual, trace=trace)
        fold(p3, 3, s3)
        phase3_classes = p3.extra["classes"]

    # every node is colored now: phase 3 colors its whole residual or raises
    metrics = RunMetrics(
        per_node=PerNode(nodes, awake, term, phase_of),
        validity=validity_verdict(instance, coloring),
        phase2_incomplete=phase2_incomplete,
        phase_awake=phase_awake,
        phase_rounds=phase_rounds,
        phase3_classes=phase3_classes,
    )
    return coloring, metrics
