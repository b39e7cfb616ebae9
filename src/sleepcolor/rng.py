"""Deterministic per-node random streams.

Every node in a simulation draws from its own SplitMix64 stream seeded by
(global seed, node id) only, so results never depend on scheduling order
and any single node's draws can be reproduced in isolation.  The same
integer-only recurrence is inlined by the phase-1 kernel (`_kernels`), which
runs phase 1 for the pipeline and the Monte Carlo check; that lets the
kernel and the engine be compared bit for bit.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ID_SALT = 0xD1342543DE82EF95


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche on 64-bit integers."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_state(seed: int, node_id: int) -> int:
    """Initial stream state for a (seed, node id) pair."""
    s = mix64((seed & MASK64) ^ _GOLDEN)
    return mix64(s ^ ((node_id * _ID_SALT) & MASK64))


class NodeRng:
    """A SplitMix64 stream supporting the two draws the algorithms need."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, node_id: int):
        self._state = stream_state(seed, node_id)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return mix64(self._state)

    def coin(self) -> bool:
        """Fair coin: True with probability 1/2 (top bit of the next word)."""
        return self.next_u64() >> 63 == 1

    def randrange(self, k: int) -> int:
        """Uniform integer in [0, k).

        Plain modulo reduction; the bias is k / 2**64 which is far below
        anything observable, and the Monte Carlo kernel reduces identically.
        """
        if k <= 0:
            raise ValueError("randrange needs k >= 1")
        return self.next_u64() % k

    def uniform01(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)


def derive_seed(seed: int, salt: int) -> int:
    """Derive an independent 64-bit seed for a sub-simulation."""
    return mix64((seed & MASK64) ^ mix64(salt))
