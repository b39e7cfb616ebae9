"""Deterministic synchronous round engine with sleeping semantics.

Round structure (round t, starting at t=1):

  1. nodes whose scheduled wake round is t become awake;
  2. every awake node's program runs once, seeing the messages that were
     *sent to it in round t-1 while it was awake*; the returned action
     bundles the messages to transmit in round t with an optional status
     change (sleep / terminate);
  3. all round-t messages are routed: a message reaches its receiver's
     buffer iff the receiver is awake in round t (the sender is awake by
     construction, since only awake nodes run);
  4. status changes take effect for round t+1 onward.

A message received in round t is consumed by the receiver's next program
call, i.e. in round t+1 if it stays awake.  Messages sent to sleeping or
terminated nodes are dropped without trace to the algorithm.  Programs can
only read their own state, their own random stream, and their inbox, so
the iteration order within a round cannot influence results.

Each awake, not-yet-terminated node pays exactly one awake round per round
it is awake, including its terminating round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush, merge
from itertools import chain, islice, repeat
from operator import eq, sub
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ProgramError, RunIncomplete
from .graph import Graph, format_decimal
from .rng import NodeRng


@dataclass(frozen=True)
class Action:
    """What a node does with its current round.

    `sends` maps neighbor id -> payload and is transmitted this round.
    Exactly one of the control outcomes applies: terminate (with output),
    sleep for `sleep_rounds` >= 1, or continue awake.
    """

    sends: Mapping[int, Any] | None = None
    sleep_rounds: int = 0
    terminate: bool = False
    output: Any = None

    def __post_init__(self):
        if self.terminate and self.sleep_rounds:
            raise ProgramError("an action cannot both sleep and terminate")
        if self.sleep_rounds < 0:
            raise ProgramError("sleep_rounds must be >= 1 when sleeping")


@dataclass
class NodeContext:
    """Per-node view handed to programs: identity, topology, stream, state."""

    node_id: int
    neighbors: tuple[int, ...]
    rng: NodeRng
    input: Any
    state: Any = None
    round: int = 0


@cache
def sleep_act(rounds: int) -> str:
    """The trace act of a node that sleeps `rounds` rounds, one per length."""
    return f"sleep:{rounds}"


class Trace:
    """Structured event log with the line-oriented text rendering.

    Node lines:    t=<round> v=<id> status=A act=<send|sleep:r|term|cont>
    Message lines: msg t=<round> <u>-><v> delivered=<0|1>

    Events are held as columns, and what repeats is held once per run.
    Node events: `node_id` and `node_act` per event, and their rounds as
    runs, `node_rounds[k]` the round of events node_ends[k-1]..node_ends[k]-1.
    Message events: `msg_receiver` and `msg_delivered` (a bytearray of 0/1
    flags) per event, their rounds as runs in `msg_rounds`/`msg_ends`, and
    their senders as runs, `msg_sender[k]` sending the next `msg_fanout[k]`
    messages.  An event costs about 10 bytes, against 22-24 with a round
    and a sender per event: a traced default run on gnp at 2^16 peaks at
    68 MB RSS instead of 96 MB.  `node_events` and `msg_events` read them
    back as `(round, id, act)` and `(round, u, v, delivered)` tuples, the
    flag as the stored 0 or 1.

    Each kind is recorded round by round, never going back: `nodes` and
    `messages` refuse a round below the last one of their kind, and extend
    its last run when given that round again.  In the package the engine,
    `_kernels.record_round` and phase 3's all-awake rounds record them, and
    every sleep act is `sleep_act`'s one string per length.  The text
    lists the rounds in ascending order; within a round, its node lines
    come first, then its message lines, each kind in recording order.
    `chunks()` yields that text piece by piece, at most `_PIECE` lines of
    one round and kind per piece, so a caller can write it out without
    holding it whole; `render()` joins the pieces.
    """

    def __init__(self, round_offset: int = 0):
        self.round_offset = round_offset
        self.node_rounds: list[int] = []
        self.node_ends: list[int] = []
        self.node_id: list[int] = []
        self.node_act: list[str] = []
        self.msg_rounds: list[int] = []
        self.msg_ends: list[int] = []
        self.msg_sender: list[int] = []
        self.msg_fanout: list[int] = []
        self.msg_receiver: list[int] = []
        self.msg_delivered = bytearray()

    def nodes(self, rnd: int, ids: Sequence[int], acts: Sequence[str]) -> None:
        """One round's node events: ids[k] did acts[k]."""
        _add_run(self.node_rounds, self.node_ends, rnd + self.round_offset,
                 len(self.node_id) + len(ids), "node")
        self.node_id.extend(ids)
        self.node_act.extend(acts)

    def messages(self, rnd: int, senders: Sequence[int], fanout: Sequence[int],
                 receivers: Sequence[int], delivered: Iterable[int]) -> None:
        """One round's message events: senders[k] sent the next fanout[k] of
        them, to receivers in order, and a message arrived iff its
        delivered flag is set (bools, or a bytes-like of 0/1)."""
        if sum(fanout) != len(receivers):
            raise ValueError(f"{len(receivers)} receivers for {sum(fanout)} messages")
        _add_run(self.msg_rounds, self.msg_ends, rnd + self.round_offset,
                 len(self.msg_receiver) + len(receivers), "message")
        self.msg_sender.extend(senders)
        self.msg_fanout.extend(fanout)
        self.msg_receiver.extend(receivers)
        self.msg_delivered.extend(delivered)

    @property
    def node_events(self) -> EventView:
        return EventView(self.node_id, lambda: zip(
            _runs(self.node_rounds, self.node_ends), self.node_id, self.node_act))

    @property
    def msg_events(self) -> EventView:
        return EventView(self.msg_receiver, lambda: zip(
            _runs(self.msg_rounds, self.msg_ends), self._senders(), self.msg_receiver,
            self.msg_delivered))

    def _senders(self) -> Iterator[int]:
        return chain.from_iterable(map(repeat, self.msg_sender, self.msg_fanout))

    def chunks(self) -> Iterator[str]:
        """The text of `render()`: each round's node lines, then its message
        lines, one `%` format per piece of at most `_PIECE` events, with the
        piece's round written into its template."""
        ids, acts = self.node_id, self.node_act
        receivers, delivered = self.msg_receiver, self.msg_delivered
        senders = self._senders()
        runs = merge(zip(self.node_rounds, repeat(0), [0, *self.node_ends], self.node_ends),
                     zip(self.msg_rounds, repeat(1), [0, *self.msg_ends], self.msg_ends))
        for rnd, kind, start, end in runs:     # in a round, its node run first
            line = (_MSG_LINE if kind else _NODE_LINE) % rnd
            for lo in range(start, end, _PIECE):
                hi = min(lo + _PIECE, end)
                if kind:
                    yield _lines(line, list(islice(senders, hi - lo)), receivers[lo:hi],
                                 delivered[lo:hi])
                else:
                    yield _lines(line, ids[lo:hi], acts[lo:hi])

    def render(self) -> str:
        return "".join(self.chunks())


class EventView:
    """A trace's events of one kind as tuples, read lazily from its columns.

    Read-only: `len` is the event count, iteration yields one tuple per
    event in recording order, and `in` and `==` (against another view, a
    list or a tuple of event tuples) compare those tuples.  A message's
    delivered flag is the stored 0 or 1, equal to False or True."""

    __slots__ = ("_column", "_events")

    def __init__(self, column: Sequence, events: Callable[[], Iterator[tuple]]):
        self._column = column          # one entry per event
        self._events = events

    def __len__(self) -> int:
        return len(self._column)

    def __iter__(self) -> Iterator[tuple]:
        return self._events()

    def __eq__(self, other):
        if isinstance(other, (EventView, list, tuple)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


_PIECE = 4096          # events per `chunks()` piece: bounds the text in flight
_NODE_LINE = "t=%d v=%%d status=A act=%%s\n"
_MSG_LINE = "msg t=%d %%d->%%d delivered=%%d\n"        # a flag prints as 1 or 0


def _add_run(rounds: list[int], ends: list[int], rnd: int, end: int, kind: str) -> None:
    """Let events of `kind` up to index `end` (exclusive) be of round `rnd`:
    extend the last run if it has that round, else start a run, unless no
    event is added.  Refuse a round below the last run's, changing nothing."""
    if rounds and rnd <= rounds[-1]:
        if rnd < rounds[-1]:
            raise ValueError(f"{kind} events of round {format_decimal(rnd)} recorded "
                             f"after round {format_decimal(rounds[-1])}")
        ends[-1] = end
    elif end > (ends[-1] if ends else 0):
        rounds.append(rnd)
        ends.append(end)


def _runs(rounds: list[int], ends: list[int]) -> Iterator[int]:
    """Each run's round once per event of the run."""
    return chain.from_iterable(map(repeat, rounds, map(sub, ends, [0, *ends])))


def _lines(line: str, *columns) -> str:
    """`line` filled in once per event of the equally long `columns`, in one
    `%` format."""
    count, width = len(columns[0]), len(columns)
    fields = [None] * (width * count)
    for k, col in enumerate(columns):
        fields[k::width] = col
    try:
        return line * count % tuple(fields)
    except ValueError:        # an id past the interpreter's int-to-str digit limit
        return line.replace("%d", "%s") * count % tuple(
            [f if f.__class__ is str else format_decimal(f) for f in fields])


@dataclass
class SimulationResult:
    """Everything observable after a run (complete or capped).

    A run is complete iff no `termination_round` entry is None.
    """

    outputs: dict[int, Any]                  # terminated node -> output
    awake_rounds: dict[int, int]
    termination_round: dict[int, int | None]
    final_states: dict[int, Any]             # survivors' algorithm state
    pending_inbox: dict[int, list[Any]]      # survivors' unconsumed buffers
    rounds_executed: int                     # last round any node ran


def run_simulation(
    graph: Graph,
    program,
    inputs: Mapping[int, Any] | None,
    seed: int,
    round_cap: int,
    trace: Trace | None = None,
    call_order: Callable[[int, list[int]], list[int]] | None = None,
    on_incomplete: str = "raise",
) -> SimulationResult:
    """Run `program` on every node of `graph` until all terminate or the cap.

    All nodes start awake at round 1.  Identical (graph, program, inputs,
    seed) produce identical results and traces.  `call_order` is a test
    hook permuting the within-round iteration order; it must not change
    any output.  With on_incomplete="raise" a capped run raises
    RunIncomplete carrying the partial SimulationResult.
    """
    if round_cap < 1:
        raise ProgramError("round_cap must be >= 1")

    nodes = graph.nodes
    adjacency = graph.adjacency
    nbr_sets = {v: frozenset(adjacency[v]) for v in nodes}
    ctxs: dict[int, NodeContext] = {}
    for v in nodes:
        ctx = NodeContext(
            node_id=v,
            neighbors=adjacency[v],
            rng=NodeRng(seed, v),
            input=None if inputs is None else inputs.get(v),
        )
        ctx.state = program.initial_state(ctx)
        ctxs[v] = ctx

    awake: set[int] = set(nodes)
    wake_heap: list[tuple[int, int]] = []
    buffers: dict[int, list[Any]] = {v: [] for v in nodes}
    awake_rounds = {v: 0 for v in nodes}
    termination_round: dict[int, int | None] = {v: None for v in nodes}
    outputs: dict[int, Any] = {}
    alive = graph.node_count

    rnd = 0
    while alive > 0:
        if awake:
            nxt = rnd + 1
        elif wake_heap:
            nxt = wake_heap[0][0]        # fast-forward over silent rounds
        else:
            break                        # quiescent: survivors sleep forever
        if nxt > round_cap:
            break
        rnd = nxt

        while wake_heap and wake_heap[0][0] == rnd:
            _, v = heappop(wake_heap)
            awake.add(v)

        active = sorted(awake)
        if call_order is not None:
            active = list(call_order(rnd, active))

        actions: dict[int, Action] = {}
        for v in active:
            awake_rounds[v] += 1
            ctx = ctxs[v]
            ctx.round = rnd
            inbox = buffers[v]
            buffers[v] = []
            actions[v] = program.on_round(ctx, inbox)

        # route round-t messages against the round-t awake set
        order = sorted(actions)
        senders, fanout, receivers, delivered = [], [], [], []
        for v in order:
            act = actions[v]
            if not act.sends:
                continue
            nbrs = nbr_sets[v]
            for u in sorted(act.sends):
                if u not in nbrs:
                    raise ProgramError(
                        f"node {format_decimal(v)} sent to non-neighbor {format_decimal(u)}")
                ok = u in awake
                if ok:
                    buffers[u].append(act.sends[u])
                receivers.append(u)
                delivered.append(ok)
            senders.append(v)
            fanout.append(len(act.sends))

        acts = []
        for v in order:
            act = actions[v]
            if act.terminate:
                awake.discard(v)
                termination_round[v] = rnd
                outputs[v] = act.output
                alive -= 1
                tok = "term"
            elif act.sleep_rounds:
                awake.discard(v)
                heappush(wake_heap, (rnd + act.sleep_rounds + 1, v))
                tok = sleep_act(act.sleep_rounds)
            else:
                tok = "send" if act.sends else "cont"
            acts.append(tok)
        if trace is not None:
            trace.messages(rnd, senders, fanout, receivers, delivered)
            trace.nodes(rnd, order, acts)

    result = SimulationResult(
        outputs=outputs,
        awake_rounds=awake_rounds,
        termination_round=termination_round,
        final_states={v: ctxs[v].state for v in nodes if termination_round[v] is None},
        pending_inbox={v: buffers[v] for v in nodes if termination_round[v] is None},
        rounds_executed=rnd,
    )
    if alive and on_incomplete == "raise":
        raise RunIncomplete(
            f"round cap {round_cap} reached with {alive} non-terminated nodes",
            partial=result,
        )
    return result
