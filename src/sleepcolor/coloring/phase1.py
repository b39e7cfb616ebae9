"""Phase 1: the randomized propose/resolve list-coloring procedure.

Each iteration spans two simulator rounds.  In the propose round a node
draws 0 with probability 1/2, otherwise a uniformly random color from its
current (pruned) list, each specific color with probability 1/(2|L|), and
sends the draw to all neighbors.  In the resolve round it collects the
neighbors' draws; a node whose nonzero draw clashes with no neighbor draw
adopts it, announces the adoption, and terminates in the same round.
Adoption announcements land in the neighbors' buffers and are pruned from
their lists at the start of the next propose round, so probabilities are
always computed over the current list.

`run_phase1` runs this on node positions through `_kernels.run_iterations`,
the one loop for phases 1 and 2: phase 1 is phase 2's region with every
node in ring 1, where a node proposes in every iteration until it adopts.
`Phase1Program` is the round engine's one node program for both phases, so
given phase 2's roles it runs phase 2.  `simulate_phase1` runs it through
the round engine; it is the reference the kernel must match bit for bit,
trace included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import _kernels
from .._kernels import CORE, RING1
from ..graph import ColorView, ColoringInstance
from ..simcore import Action, Trace, run_simulation

PROPOSE = "propose"
ADOPT = "adopt"


@dataclass
class Phase1State:
    remaining: list[int]
    degree: int                 # uncolored neighbors, tracked from adoptions
    role: str
    proposal: int = 0
    proposed: bool = False
    proposing_round: bool = True


class Phase1Program:
    """Node program running at most `iterations` propose/resolve iterations.

    `roles` maps id -> CORE, RING1 or RING2, phase 2's region (see
    `coloring.phase2`); with no roles every node is in ring 1, which is
    phase 1.
    """

    def __init__(self, iterations: int, threshold: int = 0, roles=None):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.threshold = threshold
        self.roles = roles
        self.reducing = roles is not None and CORE in roles.values()

    def initial_state(self, ctx) -> Phase1State:
        role = RING1 if self.roles is None else self.roles[ctx.node_id]
        return Phase1State(list(ctx.input), len(ctx.neighbors), role)

    def on_round(self, ctx, inbox) -> Action:
        st: Phase1State = ctx.state
        if st.proposing_round:
            if inbox:
                taken = [color for kind, color in inbox if kind == ADOPT]
                if taken:
                    st.remaining = [c for c in st.remaining if c not in taken]
                    st.degree -= len(taken)
            st.proposed = st.role == RING1 or (
                st.role == CORE and st.degree >= self.threshold)
            st.proposing_round = False
            if not st.proposed:
                return Action()
            if not st.remaining:
                raise _kernels.out_of_colors(ctx.node_id, self.reducing)
            zero = ctx.rng.coin()
            idx = ctx.rng.randrange(len(st.remaining))
            st.proposal = 0 if zero else st.remaining[idx]
            msg = (PROPOSE, st.proposal)
            return Action(sends={u: msg for u in ctx.neighbors})
        heard = {color for kind, color in inbox if kind == PROPOSE}
        if st.proposed and st.proposal != 0 and st.proposal not in heard:
            msg = (ADOPT, st.proposal)
            return Action(
                sends={u: msg for u in ctx.neighbors},
                terminate=True,
                output=st.proposal,
            )
        if not heard and not st.proposed:
            # no active proposer around: sleep out the rest of the window
            return Action(sleep_rounds=2 * self.iterations - ctx.round)
        st.proposing_round = True
        return Action()


def survivor_lists(result) -> dict[int, tuple[int, ...]]:
    """Survivors' lists, minus the adoptions still waiting in their buffers."""
    lists = {}
    for v, st in result.final_states.items():
        taken = {color for kind, color in result.pending_inbox[v] if kind == ADOPT}
        lists[v] = tuple(c for c in st.remaining if c not in taken)
    return lists


@dataclass
class PhaseOutcome:
    """What one pipeline phase produced, in phase-local round numbering.

    The figures are lists over the node positions of the instance the phase
    ran on: position i is node nodes[i].  `colors` is the read-only id-keyed
    view of `color`; the benchmark's layer counter reads it.
    """

    nodes: tuple[int, ...]                     # the instance's ids, sorted
    color: list[int]                           # adopted color, 0 for none
    awake: list[int]                           # awake rounds
    term: list[int]                            # termination round, 0 for none
    residual: ColoringInstance | None          # uncolored nodes, pruned lists
    rounds_executed: int
    extra: dict = field(default_factory=dict)

    @property
    def colors(self) -> ColorView:
        """id -> color, for the nodes colored in this phase."""
        return ColorView(self.nodes, self.color)


def run_phase1(
    instance: ColoringInstance,
    iterations: int,
    seed: int,
    trace: Trace | None = None,
) -> PhaseOutcome:
    """Run phase 1 for at most 2*iterations rounds and extract the residual.

    The run goes through `_kernels.run_iterations` with every node in ring
    1, which gives the same outcome and trace as `simulate_phase1`, the
    round engine's run.
    """
    return _kernel_run(instance, [RING1] * instance.graph.node_count, 0,
                       iterations, seed, trace=trace)


def simulate_phase1(
    instance: ColoringInstance,
    iterations: int,
    seed: int,
    trace: Trace | None = None,
) -> PhaseOutcome:
    """Phase 1 driven by the round engine: the reference `run_phase1` matches.

    Survivors' buffered adoption messages from the final resolve round are
    folded into their lists here; in a longer run they would consume them
    at their next awake round.
    """
    result = run_simulation(
        instance.graph,
        Phase1Program(iterations),
        inputs=instance.lists,
        seed=seed,
        round_cap=2 * iterations,
        trace=trace,
        on_incomplete="return",
    )
    return _engine_run(instance, result)


def _kernel_run(instance: ColoringInstance, *args, **kwargs) -> PhaseOutcome:
    """`_kernels.run_iterations` on the instance, as its outcome: a node is
    awake from round 1 to the round it stops in, and an adopter stops in
    the round it terminates."""
    color, stop, rounds, lists = _kernels.run_iterations(instance, *args, **kwargs)
    return PhaseOutcome(instance.graph.nodes, color, stop,
                        [s if c else 0 for c, s in zip(color, stop)],
                        _residual(instance, color, lists), rounds)


def _engine_run(instance: ColoringInstance, result) -> PhaseOutcome:
    """An engine run on the instance, or on a subgraph of it, as its outcome:
    a node the engine did not run reads 0 and keeps its list."""
    out, awake, term = result.outputs, result.awake_rounds, result.termination_round
    survivors = survivor_lists(result)
    nodes = instance.graph.nodes
    color = [out.get(v, 0) for v in nodes]
    lists = [survivors.get(v, lst) for v, lst in zip(nodes, instance.list_at)]
    return PhaseOutcome(nodes, color, [awake.get(v, 0) for v in nodes],
                        [term.get(v) or 0 for v in nodes],
                        _residual(instance, color, lists), result.rounds_executed)


def _residual(instance: ColoringInstance, color, lists) -> ColoringInstance | None:
    """The uncolored nodes' instance, node position i with list lists[i], or
    None if every node is colored.

    Built without validation: each pruned list is a subsequence of the
    node's valid list, and loses at most one color per adopted neighbor,
    which leaves the residual graph with it, so deg+1 still holds.
    """
    keep = [i for i, c in enumerate(color) if not c]
    if not keep:
        return None
    return ColoringInstance(instance.graph.induced(keep), [tuple(lists[i]) for i in keep])
