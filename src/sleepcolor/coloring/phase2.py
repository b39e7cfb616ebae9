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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AlgorithmInvariantViolation
from ..graph import ColoringInstance, make_instance
from ..simcore import Action, Trace, run_simulation
from .phase1 import ADOPT, PROPOSE, PhaseOutcome, survivor_lists

CORE = "core"
RING1 = "ring1"
RING2 = "ring2"


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
                    raise AlgorithmInvariantViolation(
                        f"node {ctx.node_id} ran out of colors in degree reduction"
                    )
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
    threshold.  Otherwise the region simulation runs for at most
    `iteration_cap` iterations (two rounds each).
    """
    graph = residual.graph
    core = {v for v in graph.nodes if graph.degree(v) >= threshold}
    if not core or iteration_cap < 1:
        return PhaseOutcome(
            colors={},
            residual=residual,
            awake_rounds={},
            termination_round={},
            rounds_executed=0,
            extra={"iterations": 0, "incomplete": bool(core)},
        )
    ring1 = {u for v in core for u in graph.adjacency[v]} - core
    ring2 = {u for v in core | ring1 for u in graph.adjacency[v]} - core - ring1
    region = core | ring1 | ring2
    region_graph = graph.induced(region)

    def role_of(v: int) -> str:
        if v in core:
            return CORE
        return RING1 if v in ring1 else RING2

    inputs = {
        v: (residual.lists[v], role_of(v), region_graph.degree(v)) for v in region
    }
    result = run_simulation(
        region_graph,
        Phase2Program(threshold, iteration_cap),
        inputs=inputs,
        seed=seed,
        round_cap=2 * iteration_cap,
        trace=trace,
        on_incomplete="return",
    )

    colors = dict(result.outputs)
    new_lists = survivor_lists(result)    # dropped or cut off by the cap
    uncolored = [v for v in graph.nodes if v not in colors]
    residual_out = None
    if uncolored:
        lists = {v: new_lists.get(v, residual.lists[v]) for v in uncolored}
        residual_out = make_instance(graph.induced(uncolored), lists)
    incomplete = residual_out is not None and residual_out.graph.max_degree >= threshold
    return PhaseOutcome(
        colors=colors,
        residual=residual_out,
        awake_rounds=result.awake_rounds,
        termination_round={v: r for v, r in result.termination_round.items()
                           if r is not None},
        rounds_executed=result.rounds_executed,
        extra={
            "iterations": (result.rounds_executed + 1) // 2,
            "incomplete": incomplete,
        },
    )
