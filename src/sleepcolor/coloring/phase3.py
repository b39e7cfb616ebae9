"""Phase 3: deterministic list coloring of the small-degree residual graph.

Two stages, both deterministic:

1. Interim coloring.  Starting from the (distinct) node identifiers, a
   sequence of polynomial color-reduction steps shrinks the palette to
   O(max residual degree squared).  Every step takes one simulator round
   with all residual nodes awake: exchange current colors, then each node
   encodes its color as a polynomial of degree d over GF(q) and picks an
   evaluation point where it differs from every neighbor, which is
   possible whenever q > d * (max degree).  The (q, d) schedule is fixed
   up front from the identifier bit size and the max residual degree, so
   all nodes stay in lockstep.  The number of steps is log*-ish in the
   identifier size (a handful in practice).

2. Tournament reduction.  The interim classes 0..C-1 are the leaves of a
   complete binary tree processed left to right: one preliminary round
   exchanges final interim colors, each class has a designated leaf round
   where its nodes adopt the smallest list color not heard from any
   neighbor, and after a subtree completes its nodes re-announce their
   adopted colors in one announce round while the sibling subtree listens.
   Nodes sleep between their scheduled rounds, announce only when a
   neighbor sits in the listening range, and skip listening when no
   neighbor can announce, so a node is awake for at most
   2*ceil(log2 C) + 2 rounds in this stage.  Total rounds are at most 2C
   plus the interim rounds.

The max residual degree is computed centrally and handed to all nodes,
matching the standard assumption that the degree bound is a known
parameter of the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AlgorithmInvariantViolation
from ..graph import ColoringInstance
from ..simcore import Action, Trace, run_simulation
from .phase1 import PhaseOutcome

COLOR_XCHG = "col"
FINAL_INTERIM = "fin"
ADOPTED = "adopted"

LEAF = "leaf"
ANNOUNCE = "announce"
LISTEN = "listen"


# ---------------------------------------------------------------------------
# palette descent
# ---------------------------------------------------------------------------


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    p = 2
    while p * p <= x:
        if x % p == 0:
            return False
        p += 1
    return True


def _next_prime(x: int) -> int:
    # primes only: linial_step computes mod q, and Z/qZ is a field only for
    # prime q; for q = 4, 9, ... two distinct degree-d polynomials can agree
    # on more than d points, leaving no distinguishing evaluation point
    q = max(2, x)
    while not _is_prime(q):
        q += 1
    return q


def _iroot_ceil(m: int, k: int) -> int:
    """Smallest r with r**k >= m (integer arithmetic only)."""
    if m <= 1:
        return 1
    r = max(1, int(round(m ** (1.0 / k))))
    while r ** k >= m:
        r -= 1
    while (r + 1) ** k < m:
        r += 1
    return r + 1


def palette_schedule(id_bit_size: int, max_degree: int) -> tuple[list[tuple[int, int]], int]:
    """Reduction steps ((q, d) per round) from palette 2**id_bit_size down.

    Greedy descent: each step picks the (q, d) minimizing the next palette
    q*q subject to q being a prime, q > d*max_degree, and
    q**(d+1) >= current palette.  Stops when no step shrinks the palette.
    The reachable floor is (smallest prime > 2*max_degree)**2, i.e.
    O(max_degree**2) with a small constant.
    """
    delta = max(1, max_degree)
    m = 1 << id_bit_size
    steps: list[tuple[int, int]] = []
    while True:
        best: tuple[int, int, int] | None = None   # (q*q, d, q)
        # d = 1 never wins: q >= ceil(sqrt(m)) there, so q*q < m fails
        for d in range(2, 65):
            if d * delta + 1 > m:
                break
            q = _next_prime(max(d * delta + 1, _iroot_ceil(m, d + 1)))
            cand = q * q
            if cand < m and (best is None or cand < best[0]):
                best = (cand, d, q)
        if best is None:
            return steps, m
        steps.append((best[2], best[1]))
        m = best[0]


def _poly_digits(value: int, q: int, d: int) -> list[int]:
    digits = []
    for _ in range(d + 1):
        digits.append(value % q)
        value //= q
    return digits


def linial_step(color: int, neighbor_colors, q: int, d: int, node_id: int) -> int:
    """One polynomial reduction step: old palette q**(d+1), new palette q*q."""
    mine = _poly_digits(color, q, d)
    others = [_poly_digits(c, q, d) for c in set(neighbor_colors)]
    for a in range(q):
        mine_eval = sum(coef * pow(a, i, q) for i, coef in enumerate(mine)) % q
        ok = True
        for digs in others:
            if sum(coef * pow(a, i, q) for i, coef in enumerate(digs)) % q == mine_eval:
                ok = False
                break
        if ok:
            return a * q + mine_eval
    raise AlgorithmInvariantViolation(
        f"node {node_id}: no distinguishing evaluation point (q={q}, d={d})"
    )


# ---------------------------------------------------------------------------
# tournament schedule
# ---------------------------------------------------------------------------


def _left_size(size: int) -> int:
    # left child is the largest full power of two below `size`
    p = 1
    while p * 2 < size:
        p *= 2
    return p


def tournament_slot_count(classes: int) -> int:
    return 2 * classes - 1


def class_duties(classes: int, cls: int) -> list[tuple[int, str, int, int, int]]:
    """Schedule for one interim class: (slot, kind, lo, mid, hi) entries.

    Listens (at announce slots of left siblings of ancestors) come first,
    then the leaf slot, then announces (at announce slots of ancestors
    whose left part contains the class), in slot order.
    """
    duties = []
    lo, hi, base = 0, classes, 0
    trailing: list[tuple[int, str, int, int, int]] = []
    while hi - lo > 1:
        left = _left_size(hi - lo)
        mid = lo + left
        ann_slot = base + 2 * left - 1
        if cls < mid:
            trailing.append((ann_slot, ANNOUNCE, lo, mid, hi))
            hi = mid
        else:
            duties.append((ann_slot, LISTEN, lo, mid, hi))
            lo, base = mid, ann_slot + 1
    duties.append((base, LEAF, lo, lo, hi))
    duties.extend(reversed(trailing))
    return duties


# ---------------------------------------------------------------------------
# node programs
# ---------------------------------------------------------------------------


@dataclass
class Phase3State:
    remaining: tuple[int, ...]
    interim: int
    step_index: int = 0
    duties: list | None = None
    duty_index: int = 0
    refined: bool = False
    neighbor_interim: set[int] = field(default_factory=set)
    heard: set[int] = field(default_factory=set)
    adopted: int | None = None


class Phase3Program:
    """Identifiers -> interim coloring -> tournament, in one run."""

    def __init__(self, steps, classes: int):
        self.steps = list(steps)
        self.classes = classes
        # round after which the tournament slots start
        self.prelim_round = len(self.steps) + 1

    def initial_state(self, ctx) -> Phase3State:
        # single-class palette only happens on edgeless graphs
        start = ctx.node_id if self.classes > 1 else 0
        return Phase3State(remaining=tuple(ctx.input), interim=start)

    # -- helpers ------------------------------------------------------------

    def _fold_inbox(self, st: Phase3State, inbox) -> None:
        for kind, value in inbox:
            if kind == ADOPTED:
                st.heard.add(value)
            elif kind == FINAL_INTERIM:
                st.neighbor_interim.add(value)

    def _plan(self, ctx, st: Phase3State) -> None:
        if ctx.neighbors:
            st.duties = class_duties(self.classes, st.interim)
        else:
            st.duties = [d for d in class_duties(self.classes, st.interim)
                         if d[1] == LEAF]

    def _refine(self, st: Phase3State) -> None:
        """Drop upcoming duties no neighbor takes part in.

        Runs once, at the node's first duty round, after the preliminary
        exchange told it every neighbor's interim class.  Only duties after
        the current one are filtered; the current round is already paid.
        """
        st.refined = True
        keep = []
        for slot, kind, lo, mid, hi in st.duties[st.duty_index:]:
            if kind == LEAF:
                keep.append((slot, kind, lo, mid, hi))
            elif kind == ANNOUNCE:
                if any(mid <= c < hi for c in st.neighbor_interim):
                    keep.append((slot, kind, lo, mid, hi))
            else:
                if any(lo <= c < mid for c in st.neighbor_interim):
                    keep.append((slot, kind, lo, mid, hi))
        st.duties = st.duties[: st.duty_index] + keep

    def _gap_action(self, ctx, st: Phase3State, sends=None) -> Action:
        """Continue or sleep until the node's next duty round."""
        nxt = self.prelim_round + 1 + st.duties[st.duty_index][0]
        gap = nxt - ctx.round - 1
        if gap <= 0:
            return Action(sends=sends)
        return Action(sends=sends, sleep_rounds=gap)

    # -- round handler -------------------------------------------------------

    def on_round(self, ctx, inbox) -> Action:
        st: Phase3State = ctx.state
        rnd = ctx.round

        if rnd <= self.prelim_round:
            # interim rounds: everyone awake; every round after the first
            # applies one reduction step to the colors heard last round
            if rnd > 1:
                q, d = self.steps[st.step_index]
                st.step_index += 1
                st.interim = linial_step(
                    st.interim,
                    (value for kind, value in inbox if kind == COLOR_XCHG),
                    q, d, ctx.node_id,
                )
            if rnd < self.prelim_round:
                msg = (COLOR_XCHG, st.interim)
                return Action(sends={u: msg for u in ctx.neighbors})
            # the last interim round is the preliminary exchange
            self._plan(ctx, st)
            msg = (FINAL_INTERIM, st.interim)
            return self._gap_action(
                ctx, st, sends={u: msg for u in ctx.neighbors} if ctx.neighbors else None
            )

        # tournament duty rounds
        self._fold_inbox(st, inbox)
        slot, kind, lo, mid, hi = st.duties[st.duty_index]
        assert rnd == self.prelim_round + 1 + slot, "duty schedule out of sync"
        st.duty_index += 1
        if not st.refined:
            self._refine(st)
        last = st.duty_index >= len(st.duties)

        if kind == LEAF:
            if st.interim in st.neighbor_interim:
                raise AlgorithmInvariantViolation(
                    f"node {ctx.node_id}: interim coloring not proper"
                )
            free = [c for c in st.remaining if c not in st.heard]
            if not free:
                raise AlgorithmInvariantViolation(
                    f"node {ctx.node_id}: no free list color at its leaf round"
                )
            st.adopted = free[0]
            if last:
                return Action(terminate=True, output=st.adopted)
            return self._gap_action(ctx, st)

        if kind == ANNOUNCE:
            msg = (ADOPTED, st.adopted)
            sends = {u: msg for u in ctx.neighbors}
            if last:
                return Action(sends=sends, terminate=True, output=st.adopted)
            return self._gap_action(ctx, st, sends=sends)

        # LISTEN: stay for this round; messages land in the buffer
        return self._gap_action(ctx, st)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def interim_palette(residual: ColoringInstance) -> tuple[list[tuple[int, int]], int]:
    """(steps, palette size) for a residual instance; trivial when edgeless."""
    if residual.graph.max_degree == 0:
        return [], 1
    return palette_schedule(residual.graph.id_bit_size, residual.graph.max_degree)


def run_phase3(
    residual: ColoringInstance,
    trace: Trace | None = None,
) -> PhaseOutcome:
    """Run phase 3 on a residual instance, capped at its own schedule.

    Every node terminates by the last tournament slot, round interim
    rounds + 2C - 1; a node still running then raises RunIncomplete from
    run_simulation.
    """
    steps, classes = interim_palette(residual)
    program = Phase3Program(steps, classes)
    result = run_simulation(
        residual.graph,
        program,
        inputs=residual.lists,
        seed=0,                      # fully deterministic; streams unused
        round_cap=program.prelim_round + tournament_slot_count(classes),
        trace=trace,
    )
    return PhaseOutcome(
        colors=dict(result.outputs),
        residual=None,
        awake_rounds=result.awake_rounds,
        termination_round={v: r for v, r in result.termination_round.items()
                           if r is not None},
        rounds_executed=result.rounds_executed,
        extra={
            "classes": classes,
            "reduction_steps": len(steps),
            "interim_rounds": program.prelim_round,
        },
    )
