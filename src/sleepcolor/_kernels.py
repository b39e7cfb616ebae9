"""Phases 1 and 2 on node positions: the pipeline's runs and the Monte Carlo trials.

Going through the round engine costs an `Action`, a sends dict and a routed
message per node-round, so this module runs the propose/resolve iteration
directly on node positions, bit for bit: the same SplitMix64 streams, draw
order and adoption rule as `Phase1Program`, the engine's one node program
for both phases.  Every proposing node takes words rnd + 1 (the coin) and
rnd + 2 (the index) of its stream in the iteration that starts at round
rnd, drawn on `rng`'s lanes, many streams per big-int operation; as
SplitMix64 is counter-based, each iteration starts its live nodes' streams
afresh.  `propose_resolve` is the iteration, and `run_iterations` the one loop
around it for both phases: phase 2 runs it on the region around the
high-degree nodes, and phase 1 is the region in which every node is in ring
1.  The Monte Carlo trials draw the same words on lanes, one seed per
trial, but resolve a batch of trials at once by columns: each node's coins
over the batch become one int with a byte per trial, and each edge compares
its two ends' color columns trial by trial (`_resolve_columns`).
`record_round` records a kernel round's events, phase 3's slots too.  The
engine stays the reference; the tests compare the two.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from operator import eq, mod

from .errors import AlgorithmInvariantViolation
from .graph import ColoringInstance, format_decimal
from .rng import Lanes, salted_ids
from .simcore import sleep_act

# Lanes per packed int (about 32 KB): large enough that the per-operation
# overhead vanishes, small enough that the ints stay in cache.
_CHUNK = 2048
# Lanes of Monte Carlo trials resolved at once: enough trials per batch that
# the per-node and per-edge overhead vanishes even when a chunk holds few.
_BATCH = 16 * _CHUNK
# A coin byte (1 iff the node proposes 0) -> 1 iff it proposes a color.
_FREE = bytes.maketrans(b"\0\1", b"\1\0")

# Region roles (see `coloring.phase2`); phase 1 puts every node in ring 1.
CORE = "core"
RING1 = "ring1"
RING2 = "ring2"


def instance_arrays(instance: ColoringInstance):
    """Lay an instance out over node positions (the index in sorted ids).

    Returns (ids, offsets, flat, lists): node position i has id ids[i],
    neighbor positions flat[offsets[i]:offsets[i+1]] (ids, offsets and flat
    are the graph's own) and color list lists[i], the instance's own tuple.
    """
    g = instance.graph
    return g.nodes, g.offsets, g.flat, list(instance.list_at)


def out_of_colors(v: int, reducing: bool = False) -> AlgorithmInvariantViolation:
    """The error a proposer with an empty list raises, worded for phase 2's
    degree reduction iff `reducing`: iff its region has a core node."""
    where = "in degree reduction" if reducing else "(inadmissible instance?)"
    return AlgorithmInvariantViolation(f"node {format_decimal(v)} ran out of colors {where}")


def _draws(lanes: Lanes, states: int, counter: int) -> tuple[bytes, array]:
    """Every lane's coin (the top bit of its stream's word `counter`) and index
    word (word `counter + 1`)."""
    z = lanes.advance(states, counter)
    coins = lanes.coins(lanes.mix(z))
    return coins, lanes.words(lanes.mix(lanes.advance(z, 1)))


def _live_draws(seed: int, ids, live, counter: int) -> tuple[bytearray, array]:
    """`_draws` for the live positions, whose streams are (seed, ids[i]):
    SplitMix64 is counter-based, so each chunk starts its streams afresh."""
    coins, words = bytearray(), array("Q")
    for lo in range(0, len(live), _CHUNK):
        part = [ids[i] for i in live[lo:lo + _CHUNK]]
        lanes = Lanes(len(part))
        c, w = _draws(lanes, lanes.stream_states((seed,), part), counter)
        coins += c
        words += w
    return coins, words


def propose_resolve(live, coins, words, lists, offsets, flat, proposal) -> list[int]:
    """One phase-1 iteration over the live node positions, in `live` order.

    The k-th live node i has drawn the coin coins[k] (the top bit of its
    first word) and the index word words[k], which is taken even when the
    coin says 0, as in `Phase1Program`.  It proposes 0 on a set coin, else
    lists[i][words[k] % len(lists[i])].  Returns the positions whose proposal
    is nonzero and equals no neighbor's, the neighbors of i being
    flat[offsets[i]:offsets[i+1]]; `proposal[j]` must be 0 for every
    neighbor j that is not live, so only live neighbors can clash.  This is
    the iteration of the pipeline's phases 1 and 2; the Monte Carlo trials
    apply the same rule to many trials at once in `_resolve_columns`.
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
            for j in flat[offsets[i]:offsets[i + 1]]:
                if proposal[j] == p:
                    break
            else:
                adopters.append(i)
    return adopters


def run_iterations(instance: ColoringInstance, roles, threshold: int, iterations: int,
                   seed: int, trace=None):
    """The engine's `Phase1Program` run on the region that `roles` marks, for
    at most `iterations` iterations: phase 2, or phase 1 if all are ring 1.

    roles[i] is CORE, RING1 or RING2 for the region's positions and None
    elsewhere; every neighbor of a core or ring1 node is in the region.
    Returns (color, stop, rounds_executed, lists) over node positions:
    color[i] is the color node i adopted (0 for none), stop[i] the last
    round it was awake in (the round it terminated or fell asleep, else the
    last round run; 0 outside the region), which is also its number of
    awake rounds, and lists[i] its list minus its adopted neighbors' colors
    (the instance's own tuple if nothing was pruned).  An adoption prunes
    the lists of the neighbors awake in its resolve round; an awake node
    that neither proposed nor heard a proposal sleeps out the window
    (2*iterations rounds); a proposer with an empty list raises
    `out_of_colors`, worded for degree reduction iff there is a core node.
    A `Trace` gets the engine's events, two rounds per iteration through
    `record_round`.

    Ring1 nodes always propose, ring2 nodes never, and a core node while its
    degree (its neighbors minus the adoptions it heard) is at least
    `threshold`.  While it proposes, that degree is its number of awake
    neighbors: they are core or ring1, a ring1 node never sleeps, and a core
    node sleeps only after an iteration in which no neighbor proposed.
    Degrees only fall, and only on adoptions, so the proposers are recounted
    only then; every proposer proposed in every earlier iteration.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    ids, off, flat, lists = instance_arrays(instance)
    n = len(ids)
    last = 2 * iterations
    region = list(compress(range(n), roles))
    core = [i for i in region if roles[i] is CORE]
    listening = region                                 # awake, in id order
    live = [i for i in region if roles[i] is not RING2]   # proposers, in id order
    awake = [r is not None for r in roles]
    heard = None             # last resolve round a node proposed or heard a proposal
    stop = [0] * n           # the round it terminated or fell asleep
    proposal = [0] * n
    color = [0] * n
    emptied = not all(lists)
    rnd = 0
    while listening and rnd < last:
        if emptied:
            for i in live:
                if not lists[i]:
                    raise out_of_colors(ids[i], bool(core))
            emptied = False  # the emptied lists belong to nodes that never propose again
        coins, words = _live_draws(seed, ids, live, rnd + 1)
        adopters = propose_resolve(live, coins, words, lists, off, flat, proposal)
        rnd += 2
        dropped = []
        if len(live) < len(listening):   # only a listener that did not propose can drop
            if heard is None:
                heard = [0] * n
            for i in live:
                heard[i] = rnd
                for j in flat[off[i]:off[i + 1]]:
                    heard[j] = rnd
            dropped = [i for i in listening if heard[i] != rnd]
        if trace is not None:
            acts = {i: "send" for i in live if off[i] < off[i + 1]}
            record_round(trace, rnd - 1, ids, listening, [acts.get(i, "cont") for i in listening],
                         live, off, flat, awake)
            acts = dict.fromkeys(dropped, sleep_act(last - rnd) if rnd < last else "cont")
            acts.update(dict.fromkeys(adopters, "term"))
            record_round(trace, rnd, ids, listening, [acts.get(i, "cont") for i in listening],
                         adopters, off, flat, awake)
        for a in adopters:
            awake[a] = False
            stop[a] = rnd
            color[a] = proposal[a]
        for a in adopters:
            c = proposal[a]
            proposal[a] = 0
            for j in flat[off[a]:off[a + 1]]:
                if awake[j]:
                    rem = lists[j]
                    if c in rem:     # remove every occurrence, as the node programs do
                        if rem.__class__ is tuple:   # the instance's own: copy on first prune
                            rem = lists[j] = list(rem)
                        rem.remove(c)
                        while c in rem:
                            rem.remove(c)
                        if not rem:
                            emptied = True
        for i in dropped:
            awake[i] = False
            stop[i] = rnd
        if adopters:
            live = [i for i in live if awake[i] and (
                roles[i] is RING1
                or sum([awake[j] for j in flat[off[i]:off[i + 1]]]) >= threshold)]
            for i in core:
                proposal[i] = 0  # so that only next iteration's proposers can clash
        if adopters or dropped:   # the listeners are the proposers if as many
            kept = len(listening) - len(adopters) - len(dropped)
            listening = live if len(live) == kept else [i for i in listening if awake[i]]
    for i in listening:      # awake to the end
        stop[i] = rnd
    return color, stop, rnd, lists


def record_round(trace, rnd, ids, present, acts, senders, off, flat, awake) -> None:
    """Record one round of a position kernel: the k-th of the positions
    `present`, in id order, did acts[k], and each of `senders` sent to its
    neighbors flat[off[i]:off[i+1]] in row order, a message delivered iff
    awake[j] for its receiver j (the sleeping model's one message rule)."""
    trace.nodes(rnd, [ids[i] for i in present], acts)
    receivers = array("i")
    for i in senders:
        receivers += flat[off[i]:off[i + 1]]
    trace.messages(rnd, [ids[i] for i in senders], [off[i + 1] - off[i] for i in senders],
                   [ids[j] for j in receivers], [awake[j] for j in receivers])


def phase1_trial_counts(
    instance: ColoringInstance, seed_base: int, trials: int
) -> dict[int, int]:
    """Adoption counts per node over `trials` single-iteration runs.

    Trial t is bit-identical to running the first phase-1 iteration through
    the round engine with run seed (seed_base + t): every node proposes 0
    with probability 1/2, otherwise a uniform color from its list, and
    adopts iff its proposal is nonzero and no neighbor proposed the same
    color (colors are positive, as `make_instance` checks).  The words are
    drawn in chunks of whole trials, `_CHUNK` lanes or one trial, on which
    lane t * n + i holds (seed t, node i) as `Lanes.stream_states` lays them
    out; the salted ids are packed once.  The chunks' draws are appended to
    a batch, and each batch of at least `_BATCH` lanes (and the rest at the
    end) is resolved at once by `_resolve_columns`, per node and per edge
    over the batch's trials.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    ids, off, flat, lists = instance_arrays(instance)
    for v, lst in zip(ids, lists):
        if not lst:
            raise out_of_colors(v)
    n = len(ids)
    per = max(1, _CHUNK // n)            # whole trials per chunk of lanes
    salted = salted_ids(ids, per)
    counts = [0] * n
    coins, words = bytearray(), array("Q")
    lanes = Lanes(per * n)
    for t0 in range(0, trials, per):
        seeds = range(seed_base + t0, seed_base + min(t0 + per, trials))
        if len(seeds) < per:
            lanes = Lanes(len(seeds) * n)
        c, w = _draws(lanes, lanes.stream_states(seeds, ids, salted), 1)
        coins += c
        words += w
        if len(coins) >= _BATCH or t0 + per >= trials:
            _resolve_columns(coins, words, lists, off, flat, counts)
            coins, words = bytearray(), array("Q")
    return dict(zip(ids, counts))


def _resolve_columns(coins, words, lists, offsets, flat, counts) -> None:
    """Add each node's adoptions over a batch of T = len(coins) / n trials.

    Lane t * n + i of `coins` and `words` holds node i's coin and index word
    in the batch's trial t.  Bit t of a node's `free` int is set iff it
    proposes a color in trial t (its coin is 0), and its column holds the
    color its index word picks, drawn on every lane as `Phase1Program` draws
    it.  Each edge i < j compares the two columns trial by trial; a trial in
    which they are equal blocks each end in which the other end proposes.
    """
    n = len(lists)
    free, cols = [], []
    for i, lst in enumerate(lists):
        free.append(int.from_bytes(coins[i::n].translate(_FREE), "little"))
        cols.append(list(map(lst.__getitem__, map(mod, words[i::n], repeat(len(lst))))))
    blocked = [0] * n
    for i, col in enumerate(cols):
        for j in flat[offsets[i]:offsets[i + 1]]:
            if j > i:
                same = int.from_bytes(bytes(map(eq, col, cols[j])), "little")
                blocked[i] |= same & free[j]
                blocked[j] |= same & free[i]
    for i in range(n):
        counts[i] += (free[i] & ~blocked[i]).bit_count()
