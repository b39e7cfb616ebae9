"""Phase 1 on node positions: the pipeline's run and the Monte Carlo trials.

Phase 1 is most of every pipeline run, and the Monte Carlo checks run
hundreds of thousands of first phase-1 iterations.  Going through the
round engine costs an `Action`, a sends dict and a routed message per
node-round, so this module runs the propose/resolve iteration directly on
node positions, bit for bit: the same SplitMix64 streams (see `rng`), the
same draw order and the same adoption rule as `Phase1Program`.  One
function, `propose_resolve`, is that iteration for both callers.  The
engine stays the reference; the tests compare the two.
"""

from __future__ import annotations

from .errors import AlgorithmInvariantViolation
from .graph import ColoringInstance
from .rng import _GOLDEN, _ID_SALT, MASK64, mix64


def instance_arrays(instance: ColoringInstance):
    """Lay an instance out over node positions (the index in sorted ids).

    Returns (ids, neighbors, lists): node position i has id ids[i],
    neighbor positions neighbors[i] (the graph's own layout) and color
    list lists[i], the instance's own tuple.
    """
    g = instance.graph
    return list(g.nodes), g.neighbors, [instance.lists[v] for v in g.nodes]


def out_of_colors(v: int) -> AlgorithmInvariantViolation:
    """The error every phase-1 path raises once node v's list is empty."""
    return AlgorithmInvariantViolation(f"node {v} ran out of colors (inadmissible instance?)")


def _streams(seed: int, salted: list[int]) -> list[int]:
    """`rng.stream_state(seed, v)` for every node, given its salted id."""
    s0 = mix64((seed & MASK64) ^ _GOLDEN)
    return [mix64(s0 ^ x) for x in salted]


def propose_resolve(live, state, lists, neighbors, proposal) -> list[int]:
    """One phase-1 iteration over the live node positions, in `live` order.

    Every live node i takes two words from its stream (`state[i]`, advanced
    in place): the coin, then the index draw, which is taken even when the
    coin says 0, as in `Phase1Program`.  It proposes 0 on a set top bit,
    else lists[i][w % len(lists[i])].  Returns the positions whose proposal
    is nonzero and equals no neighbor's; `proposal[j]` must be 0 for every
    neighbor j that is not live, so only live neighbors can clash.
    """
    for i in live:
        s = (state[i] + _GOLDEN) & MASK64
        w = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & MASK64
        zero = (w ^ (w >> 31)) >> 63
        s = (s + _GOLDEN) & MASK64
        state[i] = s
        if zero:
            proposal[i] = 0
        else:
            w = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & MASK64
            rem = lists[i]
            proposal[i] = rem[(w ^ (w >> 31)) % len(rem)]
    adopters = []
    for i in live:
        p = proposal[i]
        if p != 0:
            for j in neighbors[i]:
                if proposal[j] == p:
                    break
            else:
                adopters.append(i)
    return adopters


def phase1_run(instance: ColoringInstance, iterations: int, seed: int, trace=None):
    """Phase 1 for at most `iterations` iterations, as the engine runs it.

    Returns (colors, awake_rounds, termination_round, rounds_executed,
    lists), all keyed by node id and ordered as the engine orders them:
    colors by termination round, then id; the rest by id.  `lists` holds
    every survivor's list minus its adopted neighbors' colors.  The run
    stops early once every node has adopted.  With a `Trace`, it records
    the engine's events: node events in id order per round, and message
    events in (sender, receiver) order, delivered iff the receiver was
    live in that round.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    ids, neighbors, lists = instance_arrays(instance)
    n = len(ids)
    state = _streams(seed, [(v * _ID_SALT) & MASK64 for v in ids])
    proposal = [0] * n
    alive = [True] * n
    live = list(range(n))
    term = [0] * n
    colors: dict[int, int] = {}
    emptied = [i for i in live if not lists[i]]
    rnd = 0
    for _ in range(iterations):
        if not live:
            break
        if emptied:
            raise out_of_colors(ids[min(emptied)])
        adopters = propose_resolve(live, state, lists, neighbors, proposal)
        rnd += 2
        if trace is not None:
            _trace_iteration(trace, rnd, ids, live, adopters, neighbors, alive)
        for a in adopters:
            alive[a] = False
            term[a] = rnd
            colors[ids[a]] = proposal[a]
        for a in adopters:
            c = proposal[a]
            proposal[a] = 0
            for j in neighbors[a]:
                if alive[j]:
                    rem = lists[j]
                    if c in rem:
                        rem = lists[j] = list(filter(c.__ne__, rem))
                        if not rem:
                            emptied.append(j)
        if adopters:
            live = [i for i in live if alive[i]]
    awake_rounds = {v: term[i] or rnd for i, v in enumerate(ids)}
    termination = {v: term[i] for i, v in enumerate(ids) if term[i]}
    survivors = {ids[i]: tuple(lists[i]) for i in live}
    return colors, awake_rounds, termination, rnd, survivors


def _trace_iteration(trace, resolve, ids, live, adopters, neighbors, alive) -> None:
    """Record one iteration's propose round and resolve round."""
    node = trace.node_events
    msg = trace.msg_events
    t = resolve - 1 + trace.round_offset
    for i in live:
        v = ids[i]
        node.append((t, v, "send" if neighbors[i] else "cont"))
        msg.extend([(t, v, ids[j], alive[j]) for j in neighbors[i]])
    t += 1
    for a in adopters:
        v = ids[a]
        msg.extend([(t, v, ids[j], alive[j]) for j in neighbors[a]])
    adopted = set(adopters)
    node.extend([(t, ids[i], "term" if i in adopted else "cont") for i in live])


def phase1_trial_counts(
    instance: ColoringInstance, seed_base: int, trials: int
) -> dict[int, int]:
    """Adoption counts per node over `trials` single-iteration runs.

    Trial t is bit-identical to running the first phase-1 iteration through
    the round engine with run seed (seed_base + t): every node proposes 0
    with probability 1/2, otherwise a uniform color from its list, and
    adopts iff its proposal is nonzero and no neighbor proposed the same
    color.
    """
    ids, neighbors, lists = instance_arrays(instance)
    for v, lst in zip(ids, lists):
        if not lst:
            raise out_of_colors(v)
    n = len(ids)
    salted = [(v * _ID_SALT) & MASK64 for v in ids]
    live = range(n)
    proposal = [0] * n
    counts = [0] * n
    for t in range(trials):
        state = _streams(seed_base + t, salted)
        for i in propose_resolve(live, state, lists, neighbors, proposal):
            counts[i] += 1
    return {v: counts[i] for i, v in enumerate(ids)}
