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

`run_phase3` runs both stages directly on the residual's node positions,
with no round engine, as phases 1 and 2 do; `_kernels.record_round`
records its tournament slots.  `simulate_phase3` runs `Phase3Program`
through the round engine; it is the reference the kernel must match bit
for bit, trace included.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from ..errors import AlgorithmInvariantViolation, RunIncomplete
from ..graph import ColoringInstance, format_decimal
from .._kernels import record_round
from ..simcore import Action, Trace, run_simulation, sleep_act
from .phase1 import PhaseOutcome, _engine_run

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
    """Smallest r with r**k >= m (integer arithmetic only, any size of m)."""
    if m <= 1:
        return 1
    # Newton's method for the floor root, from 2**ceil(bits/k) > m**(1/k)
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r ** k >= m else r + 1


def palette_schedule(id_bit_size: int, max_degree: int) -> tuple[list[tuple[int, int]], int]:
    """Reduction steps ((q, d) per round) from palette 2**id_bit_size down.

    Greedy descent: each step picks the (q, d) minimizing the next palette
    q*q, the smaller d on a tie, subject to q being a prime, q > d*max_degree,
    and q**(d+1) >= current palette.  Stops when no step shrinks the palette.
    The reachable floor is (smallest prime > 2*max_degree)**2, i.e.
    O(max_degree**2) with a small constant.
    """
    delta = max(1, max_degree)
    m = 1 << id_bit_size
    steps: list[tuple[int, int]] = []
    while True:
        # q >= lower(d) = max(d*delta + 1, ceil((d+1)-th root of m)).  Once
        # d*delta + 1 reaches the root, lower(d) only grows with d, so no
        # larger d gives a smaller q.  (d = 1 never wins: q >= ceil(sqrt(m))
        # there, so q*q < m fails.)
        bounds = []
        d = 2
        while True:
            root = _iroot_ceil(m, d + 1)
            bounds.append((max(d * delta + 1, root), d))
            if d * delta + 1 >= root:
                break
            d += 1
        # smallest bounds first; a prime is looked for only while lower**2
        # can still beat (or tie with a smaller d) the best palette so far
        best = (m, 0, 0)                        # (q*q, d, q) to beat
        for lower, d in sorted(bounds):
            if lower * lower > best[0]:
                break
            q = _next_prime(lower)
            if (q * q, d) < best[:2]:
                best = (q * q, d, q)
        if not best[1]:
            return steps, m
        steps.append((best[2], best[1]))
        m = best[0]


def _poly_digits(value: int, q: int, d: int) -> list[int]:
    digits = []
    for _ in range(d + 1):
        digits.append(value % q)
        value //= q
    return digits


def _evaluate(color: int, a: int, q: int, d: int) -> int:
    """color's polynomial (its d + 1 base-q digits as coefficients) at a, over GF(q)."""
    v = 0
    for coef in reversed(_poly_digits(color, q, d)):      # Horner
        v = (v * a + coef) % q
    return v


def _reduce_color(color: int, others, q: int, d: int, values: dict, node_id: int) -> int:
    """The first point a where color's polynomial differs from every other
    color's gives the new color a*q + its value there.

    `values` caches (color, a) -> value for one step, so that each color's
    polynomial is evaluated once per point, and only at the points asked for.
    """
    for a in range(q):
        mine = values.get((color, a))
        if mine is None:
            mine = values[color, a] = _evaluate(color, a, q, d)
        for c in others:
            theirs = values.get((c, a))
            if theirs is None:
                theirs = values[c, a] = _evaluate(c, a, q, d)
            if theirs == mine:
                break
        else:
            return a * q + mine
    raise AlgorithmInvariantViolation(
        f"node {format_decimal(node_id)}: no distinguishing evaluation point (q={q}, d={d})"
    )


def linial_step(color: int, neighbor_colors, q: int, d: int, node_id: int) -> int:
    """One polynomial reduction step: old palette q**(d+1), new palette q*q."""
    return _reduce_color(color, set(neighbor_colors), q, d, {}, node_id)


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
                    f"node {format_decimal(ctx.node_id)}: interim coloring not proper"
                )
            free = [c for c in st.remaining if c not in st.heard]
            if not free:
                raise AlgorithmInvariantViolation(
                    f"node {format_decimal(ctx.node_id)}: no free list color at its leaf round"
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
    g = residual.graph
    if g.max_degree == 0:
        return [], 1
    return palette_schedule(g.nodes[-1].bit_length(), g.max_degree)


def run_phase3(
    residual: ColoringInstance,
    trace: Trace | None = None,
) -> PhaseOutcome:
    """Run phase 3 on the residual's node positions, capped at its own schedule.

    Gives the outcome and the trace events of `simulate_phase3`, the round
    engine's run of `Phase3Program`.  With P interim rounds and C classes,
    every node terminates by the last tournament slot, round P + 2C - 1; a
    node still running then raises RunIncomplete once every event up to
    that round is traced.
    """
    steps, classes = interim_palette(residual)
    prelim = len(steps) + 1
    cap = prelim + tournament_slot_count(classes)
    g = residual.graph
    ids, off, flat = g.nodes, g.offsets, g.flat
    n = len(ids)
    nbrs = [g.row(i) for i in range(n)]
    if trace is not None:
        # rounds 1..P have every node awake and send the same messages, all delivered
        sends = ["send" if ns else "cont" for ns in nbrs]
        fanout = list(map(len, nbrs))
        receivers = list(map(ids.__getitem__, flat))
        delivered = b"\1" * len(flat)

    # interim rounds 1..P: in round r < P each node sends its color, and in
    # round r + 1 it applies reduction step r to the colors it heard
    cls = list(ids) if classes > 1 else [0] * n
    for rnd, (q, d) in enumerate(steps, start=1):
        if trace is not None:
            trace.nodes(rnd, ids, sends)
            trace.messages(rnd, ids, fanout, receivers, delivered)
        values: dict[tuple[int, int], int] = {}
        cls = [_reduce_color(c, [cls[j] for j in ns], q, d, values, v)
               for v, c, ns in zip(ids, cls, nbrs)]

    # round P sends the final class and sleeps until the first duty
    kept = _kept_duties(classes, cls, nbrs)
    if trace is not None:
        trace.nodes(prelim, ids, [sleep_act(ds[0][0]) if ds[0][0] else act
                                  for ds, act in zip(kept, sends)])
        trace.messages(prelim, ids, fanout, receivers, delivered)

    # slot s is round P + 1 + s; the nodes awake in it are those with a duty there
    at_slot: dict[int, list[int]] = {}
    for i, ds in enumerate(kept):
        for duty in ds:
            at_slot.setdefault(duty[0], []).append(i)
    lists = residual.list_at
    awake_rounds = [prelim] * n
    term = [0] * n
    nxt = [0] * n                  # index of each node's next duty
    color = [0] * n                # adopted at the leaf
    heard: dict[int, set[int]] = {}
    rounds = prelim
    for s in sorted(at_slot):
        rnd = prelim + 1 + s
        if rnd > cap:
            break
        # a slot is one class's leaf, or one subtree's announce with its
        # listeners, so no announce reaches a leaf of the same slot
        present = at_slot[s]
        awake = bytearray(n)
        for i in present:
            awake[i] = 1
        acts, announcers = [], []
        for i in present:
            ds, k = kept[i], nxt[i]
            nxt[i] = k + 1
            awake_rounds[i] += 1
            kind = ds[k][1]
            if kind == LEAF:       # a failing leaf raises before the round is recorded
                if any(cls[j] == cls[i] for j in nbrs[i]):
                    raise AlgorithmInvariantViolation(
                        f"node {format_decimal(ids[i])}: interim coloring not proper")
                taken = heard.get(i, ())
                free = next((x for x in lists[i] if x not in taken), None)
                if free is None:
                    raise AlgorithmInvariantViolation(
                        f"node {format_decimal(ids[i])}: no free list color at its leaf round")
                color[i] = free
            elif kind == ANNOUNCE:
                announcers.append(i)
                c = color[i]
                for j in nbrs[i]:
                    if awake[j]:
                        heard.setdefault(j, set()).add(c)
            if k + 1 == len(ds):
                term[i] = rnd
                acts.append("term")
            else:
                gap = ds[k + 1][0] - s - 1
                acts.append(sleep_act(gap) if gap
                            else "send" if kind == ANNOUNCE and nbrs[i] else "cont")
        if trace is not None:
            record_round(trace, rnd, ids, present, acts, announcers, off, flat, awake)
        rounds = rnd

    outcome = PhaseOutcome(
        ids, color, awake_rounds, term, None, rounds,
        {"classes": classes, "reduction_steps": len(steps), "interim_rounds": prelim},
    )
    left = term.count(0)
    if left:
        # a node cut off before its last duty adopted a color but output none
        outcome.color = [c if t else 0 for c, t in zip(color, term)]
        raise RunIncomplete(
            f"round cap {cap} reached with {left} non-terminated nodes",
            partial=outcome,
        )
    return outcome


def _kept_duties(classes: int, cls: list[int], nbrs) -> list[list]:
    """Each node's duties once round P has told it its neighbors' classes.

    The first duty is kept (the engine pays it before it refines); after
    that a leaf stays, an announce needs a neighbor class in [mid, hi) and a
    listen one in [lo, mid).  An isolated node has only its leaf.
    `class_duties` runs once per class.
    """
    plans: dict[int, list] = {}
    kept = []
    for c, ns in zip(cls, nbrs):
        duties = plans.get(c)
        if duties is None:
            duties = plans[c] = class_duties(classes, c)
        if not ns:
            kept.append([duty for duty in duties if duty[1] == LEAF])
            continue
        near = sorted({cls[j] for j in ns})
        keep = [duties[0]]
        for duty in duties[1:]:
            _, kind, lo, mid, hi = duty
            if kind != LEAF:
                a, b = (mid, hi) if kind == ANNOUNCE else (lo, mid)
                k = bisect_left(near, a)
                if k == len(near) or near[k] >= b:
                    continue
            keep.append(duty)
        kept.append(keep)
    return kept


def simulate_phase3(
    residual: ColoringInstance,
    trace: Trace | None = None,
) -> PhaseOutcome:
    """Phase 3 driven by the round engine: the reference `run_phase3` matches.

    `Phase3Program` runs through `run_simulation`, capped at the last
    tournament slot, round interim rounds + 2C - 1; a node still running
    then raises RunIncomplete from the engine.
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
    outcome = _engine_run(residual, result)
    outcome.extra = {"classes": classes, "reduction_steps": len(steps),
                     "interim_rounds": program.prelim_round}
    return outcome
