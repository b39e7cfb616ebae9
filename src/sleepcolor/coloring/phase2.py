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
is in ring 1).  `simulate_phase2` runs `Phase2Program` through the round
engine; it is the reference the kernel must match bit for bit, trace
included.  Both take the region and build the residual in
`_degree_reduction`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import _kernels
from .._kernels import CORE, RING1, RING2
from ..graph import ColoringInstance
from ..simcore import Action, Trace, run_simulation
from .phase1 import ADOPT, PROPOSE, PhaseOutcome, _engine_run, _kernel_run


@dataclass
class Phase2State:
    remaining: list[int]
    role: str
    degree: int                 # current uncolored degree (tracked from adopts)
    proposal: int = 0
    proposed: bool = False
    proposing_round: bool = True


class Phase2Program:
    def __init__(self, threshold: int, iteration_cap: int):
        self.threshold = threshold
        self.iteration_cap = iteration_cap

    def initial_state(self, ctx) -> Phase2State:
        colors, role, degree = ctx.input
        return Phase2State(remaining=list(colors), role=role, degree=degree)

    def on_round(self, ctx, inbox) -> Action:
        st: Phase2State = ctx.state
        if st.proposing_round:
            if inbox:
                taken = {color for kind, color in inbox if kind == ADOPT}
                if taken:
                    st.remaining = [c for c in st.remaining if c not in taken]
                    st.degree -= sum(1 for kind, _ in inbox if kind == ADOPT)
            st.proposed = (
                st.role == RING1 or (st.role == CORE and st.degree >= self.threshold)
            )
            st.proposing_round = False
            if st.proposed:
                if not st.remaining:
                    raise _kernels.out_of_colors(ctx.node_id, "in degree reduction")
                zero = ctx.rng.coin()
                idx = ctx.rng.randrange(len(st.remaining))
                st.proposal = 0 if zero else st.remaining[idx]
                msg = (PROPOSE, st.proposal)
                return Action(sends={u: msg for u in ctx.neighbors})
            return Action()
        heard = [color for kind, color in inbox if kind == PROPOSE]
        if st.proposed and st.proposal != 0 and st.proposal not in set(heard):
            msg = (ADOPT, st.proposal)
            return Action(
                sends={u: msg for u in ctx.neighbors},
                terminate=True,
                output=st.proposal,
            )
        if not heard and not st.proposed:
            # no active proposer around: sleep out the rest of the window
            return Action(sleep_rounds=2 * self.iteration_cap - ctx.round)
        st.proposing_round = True
        return Action()


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
                                  trace=trace, where="in degree reduction"),
    )


def simulate_phase2(
    residual: ColoringInstance,
    threshold: int,
    iteration_cap: int,
    seed: int,
    trace: Trace | None = None,
) -> PhaseOutcome:
    """Phase 2 driven by the round engine: the reference `run_phase2` matches.

    `Phase2Program` runs on the region's induced graph; survivors' buffered
    adoption messages are folded into their lists.
    """
    graph = residual.graph

    def engine(roles):
        keep = [i for i, r in enumerate(roles) if r]
        region = graph.induced(keep)
        result = run_simulation(
            region,
            Phase2Program(threshold, iteration_cap),
            inputs={v: (residual.lists[v], roles[i], len(ns))
                    for v, i, ns in zip(region.nodes, keep, region.neighbors)},
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
    nbrs = residual.graph.neighbors
    roles = [CORE if len(ns) >= threshold else None for ns in nbrs]
    core = [i for i, r in enumerate(roles) if r]
    if not core or iteration_cap < 1:
        n = len(nbrs)
        return PhaseOutcome(residual.graph.nodes, [0] * n, [0] * n, [0] * n, residual, 0,
                            {"iterations": 0, "incomplete": bool(core)})
    ring1 = []
    for i in core:
        for j in nbrs[i]:
            if roles[j] is None:
                roles[j] = RING1
                ring1.append(j)
    for i in ring1:       # a core node's neighbors are core or ring1
        for j in nbrs[i]:
            if roles[j] is None:
                roles[j] = RING2
    outcome = run(roles)
    left = outcome.residual
    outcome.extra = {"iterations": (outcome.rounds_executed + 1) // 2,
                     "incomplete": left is not None and left.graph.max_degree >= threshold}
    return outcome
