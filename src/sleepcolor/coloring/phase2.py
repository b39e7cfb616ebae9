"""Phase 2: reduce the residual maximum degree below a threshold.

Continued propose/resolve iterations, but confined to the region around
the high-degree nodes:

  core    uncolored nodes whose residual degree is >= threshold; they
          propose while they stay at or above the threshold;
  ring1   uncolored neighbors of the core; they propose (and may adopt)
          unconditionally, which is what drains the core's degrees;
  ring2   uncolored neighbors of core/ring1 outside both; they never
          propose but stay awake to hear adoption announcements, which
          keeps their lists pruned.

Everyone still uncolored drops out of the phase, by sleeping until the
window ends, after a propose round in which it heard no proposal at all:
proposers send every iteration (even a 0 draw), so silence proves no
neighbor can adopt anymore.  Phase 3 wakes it again.  The region and the
empty-core shortcut are computed centrally from the residual instance;
this stands in for a two-round announcement cascade that a strict
message-passing deployment would run.

`run_phase2` runs this on node positions through `_kernels.run_iterations`,
the same loop that runs phase 1 (phase 1 is the region in which every node
is in ring 1).  `simulate_phase2` runs phase 1's node program,
`Phase1Program` with the region's roles, through the round engine; it is
the reference the kernel must match bit for bit, trace included.  Both
take the region and build the residual in `_degree_reduction`.
"""

from __future__ import annotations

from .._kernels import CORE, RING1, RING2
from ..graph import ColoringInstance
from ..simcore import Trace, run_simulation
from .phase1 import Phase1Program, PhaseOutcome, _engine_run, _kernel_run


def run_phase2(
    residual: ColoringInstance,
    threshold: int,
    iteration_cap: int,
    seed: int,
    trace: Trace | None = None,
) -> PhaseOutcome:
    """Run the degree-reduction phase on a residual instance.

    Returns immediately (zero rounds, zero awake) when no node reaches the
    threshold.  Otherwise the region runs for at most `iteration_cap`
    iterations (two rounds each) through `_kernels.run_iterations`, which
    gives the same outcome and trace as `simulate_phase2`, the round
    engine's run.
    """
    return _degree_reduction(
        residual, threshold, iteration_cap,
        lambda roles: _kernel_run(residual, roles, threshold, iteration_cap, seed,
                                  trace=trace),
    )


def simulate_phase2(
    residual: ColoringInstance,
    threshold: int,
    iteration_cap: int,
    seed: int,
    trace: Trace | None = None,
) -> PhaseOutcome:
    """Phase 2 driven by the round engine: the reference `run_phase2` matches.

    `Phase1Program` runs with the region's roles on its induced graph, so a
    node's starting degree is its region degree; survivors' buffered
    adoption messages are folded into their lists.
    """
    graph = residual.graph

    def engine(roles):
        keep = [i for i, r in enumerate(roles) if r]
        region = graph.induced(keep)
        result = run_simulation(
            region,
            Phase1Program(iteration_cap, threshold,
                          dict(zip(region.nodes, [roles[i] for i in keep]))),
            inputs=dict(zip(region.nodes, [residual.list_at[i] for i in keep])),
            seed=seed,
            round_cap=2 * iteration_cap,
            trace=trace,
            on_incomplete="return",
        )
        return _engine_run(residual, result)

    return _degree_reduction(residual, threshold, iteration_cap, engine)


def _degree_reduction(residual: ColoringInstance, threshold: int, iteration_cap: int,
                      run) -> PhaseOutcome:
    """Mark the region on node positions, `run` it, and build the residual.

    `run(roles)` gets each position's role (None outside the region) and
    returns the run's `PhaseOutcome` over the residual's node positions.
    """
    g = residual.graph
    off, flat = g.offsets, g.flat
    roles = [CORE if d >= threshold else None for d in g.degrees()]
    core = [i for i, r in enumerate(roles) if r]
    if not core or iteration_cap < 1:
        n = len(roles)
        return PhaseOutcome(g.nodes, [0] * n, [0] * n, [0] * n, residual, 0,
                            {"iterations": 0, "incomplete": bool(core)})
    ring1 = []
    for i in core:
        for j in flat[off[i]:off[i + 1]]:
            if roles[j] is None:
                roles[j] = RING1
                ring1.append(j)
    for i in ring1:       # a core node's neighbors are core or ring1
        for j in flat[off[i]:off[i + 1]]:
            if roles[j] is None:
                roles[j] = RING2
    outcome = run(roles)
    left = outcome.residual
    outcome.extra = {"iterations": (outcome.rounds_executed + 1) // 2,
                     "incomplete": left is not None and left.graph.max_degree >= threshold}
    return outcome
