"""The Monte Carlo kernel: batched single-iteration phase-1 trials.

The Monte Carlo checks run hundreds of thousands of first phase-1
iterations.  Going through the round engine for each would cost a full
simulation per trial, so this module replays the iteration directly, bit
for bit: the same SplitMix64 streams (see `rng`), the same draw order and
the same adoption rule as `Phase1Program`.  The engine stays the
reference; the tests compare the two.
"""

from __future__ import annotations

from .graph import ColoringInstance
from .rng import _GOLDEN, _ID_SALT, MASK64, mix64


def instance_arrays(instance: ColoringInstance):
    """Flatten an instance into CSR-style lists over node positions.

    Returns (ids, indptr, indices, list_indptr, list_values): the neighbors
    of node position i are indices[indptr[i]:indptr[i+1]] and its color
    list is list_values[list_indptr[i]:list_indptr[i+1]].
    """
    g = instance.graph
    nodes = g.nodes
    index = {v: i for i, v in enumerate(nodes)}
    ids = list(nodes)
    indptr = [0]
    indices = []
    list_indptr = [0]
    list_values = []
    for v in nodes:
        indices.extend(index[u] for u in g.adjacency[v])
        indptr.append(len(indices))
        list_values.extend(instance.lists[v])
        list_indptr.append(len(list_values))
    return ids, indptr, indices, list_indptr, list_values


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
    ids, indptr, indices, list_indptr, list_values = instance_arrays(instance)
    n = len(ids)
    salted = [(v * _ID_SALT) & MASK64 for v in ids]
    counts = [0] * n
    proposals = [0] * n
    for t in range(trials):
        s0 = mix64(((seed_base + t) & MASK64) ^ _GOLDEN)
        for i in range(n):
            z = s0 ^ salted[i]
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            state = z ^ (z >> 31)
            # coin draw
            state = (state + _GOLDEN) & MASK64
            w = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & MASK64
            w ^= w >> 31
            zero = w >> 63
            # index draw (always taken, mirroring the program's draw order)
            state = (state + _GOLDEN) & MASK64
            w = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & MASK64
            w ^= w >> 31
            if zero:
                proposals[i] = 0
            else:
                lo = list_indptr[i]
                size = list_indptr[i + 1] - lo
                proposals[i] = list_values[lo + (w % size)]
        for i in range(n):
            p = proposals[i]
            if p == 0:
                continue
            ok = True
            for j in range(indptr[i], indptr[i + 1]):
                if proposals[indices[j]] == p:
                    ok = False
                    break
            if ok:
                counts[i] += 1
    return {v: counts[i] for i, v in enumerate(ids)}
