"""Phase 1 on node positions: the pipeline's run and the Monte Carlo trials.

Phase 1 is most of every pipeline run, and the Monte Carlo checks run
hundreds of thousands of first phase-1 iterations.  Going through the
round engine costs an `Action`, a sends dict and a routed message per
node-round, so this module runs the propose/resolve iteration directly on
node positions, bit for bit: the same SplitMix64 streams, the same draw
order and the same adoption rule as `Phase1Program`.  The words come from
`rng`'s lane layer, many streams per big-int operation: every live node
takes words rnd + 1 (the coin) and rnd + 2 (the index) of its stream in the
iteration that starts at round rnd.  One function, `propose_resolve`, is the
iteration for both callers.  The engine stays the reference; the tests
compare the two.
"""

from __future__ import annotations

from array import array

from .errors import AlgorithmInvariantViolation
from .graph import ColoringInstance
from .rng import Lanes, pack

# Lanes per packed int (about 32 KB): large enough that the per-operation
# overhead vanishes, small enough that the ints stay in cache.
_CHUNK = 2048


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


def _draws(lanes: Lanes, states: int, counter: int) -> tuple[bytes, array]:
    """Every lane's coin (the top bit of its stream's word `counter`) and index
    word (word `counter + 1`)."""
    z = lanes.advance(states, counter)
    coins = lanes.coins(lanes.mix(z))
    return coins, lanes.words(lanes.mix(lanes.advance(z, 1)))


def propose_resolve(live, coins, words, lists, neighbors, proposal) -> list[int]:
    """One phase-1 iteration over the live node positions, in `live` order.

    The k-th live node i has drawn the coin coins[k] (the top bit of its
    first word) and the index word words[k], which is taken even when the
    coin says 0, as in `Phase1Program`.  It proposes 0 on a set coin, else
    lists[i][words[k] % len(lists[i])].  Returns the positions whose proposal
    is nonzero and equals no neighbor's; `proposal[j]` must be 0 for every
    neighbor j that is not live, so only live neighbors can clash.
    """
    for i, zero, w in zip(live, coins, words):
        if zero:
            proposal[i] = 0
        else:
            rem = lists[i]
            proposal[i] = rem[w % len(rem)]
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
    state = array("Q")
    for lo in range(0, n, _CHUNK):
        part = ids[lo:lo + _CHUNK]
        lanes = Lanes(len(part))
        state += lanes.words(lanes.stream_states((seed,), part))
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
        coins, words = bytearray(), array("Q")
        for lo in range(0, len(live), _CHUNK):
            part = [state[i] for i in live[lo:lo + _CHUNK]]
            lanes = Lanes(len(part))
            c, w = _draws(lanes, pack(part), rnd + 1)
            coins += c
            words += w
        adopters = propose_resolve(live, coins, words, lists, neighbors, proposal)
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
                        if rem.__class__ is tuple:   # still the instance's own
                            rem = lists[j] = list(rem)
                        while c in rem:      # every occurrence, as the engine prunes
                            rem.remove(c)
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
    live = range(n)
    proposal = [0] * n
    counts = [0] * n
    per = max(1, _CHUNK // n)            # whole trials per chunk of lanes
    lanes = Lanes(per * n)
    for t0 in range(0, trials, per):
        seeds = range(seed_base + t0, seed_base + min(t0 + per, trials))
        if len(seeds) < per:
            lanes = Lanes(len(seeds) * n)
        coins, words = _draws(lanes, lanes.stream_states(seeds, ids), 1)
        for lo in range(0, lanes.k, n):
            hi = lo + n
            for i in propose_resolve(live, coins[lo:hi], words[lo:hi], lists, neighbors,
                                     proposal):
                counts[i] += 1
    return {v: counts[i] for i, v in enumerate(ids)}
