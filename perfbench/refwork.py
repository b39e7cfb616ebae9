"""A fixed reference load that measures how fast the host runs right now.

On a shared host the speed of one core drifts by a fifth or more over
minutes, and a rerun of the same seed drifts with it.  The benchmark runs
this load every couple of seconds between operations and reports the gated
timings in units of its CPU time, so a drift that slows both cancels.  The
load is the benchmark's own code and never imports the package: a change to
the package moves the operations, not the unit.

Its shape follows the round engine's hot loop on a pure-Python build:
SplitMix64 draws, dict and set lookups, tuple messages and list filtering
on a random graph with expected degree 8.
"""

from __future__ import annotations

from time import perf_counter, process_time

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
NODES = 3000
DEGREE = 8
ROUNDS = 40


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def reference_load(seed: int = 1) -> int:
    """Propose/resolve list coloring on a fixed random graph; nodes colored."""
    state = _mix(seed)
    adj: dict[int, list[int]] = {v: [] for v in range(NODES)}
    for _ in range(NODES * DEGREE // 2):
        state = (state + _GOLDEN) & _MASK
        r = _mix(state)
        u, v = r % NODES, (r >> 32) % NODES
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    lists = {v: list(range(1, len(adj[v]) + 2)) for v in range(NODES)}
    streams = {v: _mix(seed ^ (v * 0xD1342543DE82EF95)) for v in range(NODES)}
    colored: dict[int, int] = {}
    live = set(range(NODES))
    for _ in range(ROUNDS):
        if not live:
            break
        proposals = {}
        for v in sorted(live):
            streams[v] = (streams[v] + _GOLDEN) & _MASK
            w = _mix(streams[v])
            if w >> 63:
                proposals[v] = lists[v][w % len(lists[v])]
        inbox: dict[int, list[tuple[str, int]]] = {v: [] for v in live}
        for v, c in proposals.items():
            for u in adj[v]:
                if u in inbox:
                    inbox[u].append(("propose", c))
        for v, c in proposals.items():
            if all(c != x for _kind, x in inbox[v]):
                colored[v] = c
                live.discard(v)
                for u in adj[v]:
                    if u in live and len(lists[u]) > 1:
                        lists[u] = [x for x in lists[u] if x != c]
    return len(colored)


class HostSpeed:
    """CPU seconds of the reference load, sampled at most once a second."""

    EVERY_S = 1.0

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        if perf_counter() - self._last < self.EVERY_S:
            return
        c0 = process_time()
        reference_load()
        self.samples.append(process_time() - c0)
        self._last = perf_counter()

    def unit(self) -> float:
        """Mean CPU seconds of one reference load over the run."""
        return sum(self.samples) / len(self.samples)
