"""Deterministic per-node random streams.

Every node in a simulation draws from its own SplitMix64 stream seeded by
(global seed, node id) only, so results never depend on scheduling order
and any single node's draws can be reproduced in isolation.  `NodeRng` and
`mix64` draw one word at a time; the round engine and the node programs use
them, and they are the reference.

SplitMix64 is counter-based: word c of the stream with state s is
`mix64(s + c * G)`.  So the bulk draws (the phase-1 kernel and the Monte
Carlo trials in `_kernels`, the gnp generator in `graph`) compute many words
at once on lanes: k 64-bit words sit in one Python int, word L in bits
128L..128L+63, and each `mix64` step is one big-int operation over all lanes.
The upper half of a lane leaves room for the 64x64-bit product; masking
before each multiply keeps bits of the next lane out of it.
`Lanes.stream_states` starts many (seed, node) streams at once: it mixes
each seed once, on one lane per seed, spreads that word over the seed's
node lanes and mixes in the salted ids.  The words are bit-identical to
`NodeRng`'s, which the tests check.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Sequence

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ID_SALT = 0xD1342543DE82EF95

_LANE_BYTES = 16                        # 128-bit lanes, little-endian in the int
_ONE_LANE = (1).to_bytes(_LANE_BYTES, "little")
_BIG_ENDIAN = sys.byteorder == "big"    # array("Q") items are in host order


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


def pack(words: Iterable[int], stride: int = 1) -> int:
    """Lane-pack 64-bit words: the i-th word goes to lane i * stride.

    The other lanes are 0.  Words must already be in [0, 2**64), as
    `array("Q")` requires; callers mask seeds and ids first.
    """
    w = array("Q", words)
    a = array("Q", bytes(_LANE_BYTES * stride * len(w)))
    a[::2 * stride] = w
    if _BIG_ENDIAN:
        a.byteswap()
    return int.from_bytes(a, "little")


class Lanes:
    """The layout of k lanes: each `mix64` step is one op on the packed int."""

    __slots__ = ("k", "ones", "mask", "golden")

    def __init__(self, k: int):
        self.k = k
        self.ones = int.from_bytes(_ONE_LANE * k, "little")   # 1 in every lane
        self.mask = (self.ones << 64) - self.ones               # the low half of every lane
        self.golden = self.ones * _GOLDEN                       # G in every lane

    def mix(self, z: int) -> int:
        """`mix64` of every lane; each lane of z must be below 2**64."""
        mask = self.mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        return (z ^ (z >> 31)) & mask

    def advance(self, states: int, words: int) -> int:
        """Every lane's stream state after `words` more words: state + words * G."""
        return (states + self.golden * words) & self.mask

    def consecutive(self, state: int) -> int:
        """One stream's states after 1, 2, ..., k words, lane by lane."""
        return (self.ones * state + pack(range(1, self.k + 1)) * _GOLDEN) & self.mask

    def coins(self, z: int) -> bytes:
        """Bit 63 of every lane, one byte (0 or 1) per lane."""
        return (z >> 63).to_bytes(_LANE_BYTES * self.k, "little")[::_LANE_BYTES]

    def words(self, z: int) -> array:
        """The low 64 bits of every lane, as array("Q")."""
        a = array("Q", z.to_bytes(_LANE_BYTES * self.k, "little"))
        if _BIG_ENDIAN:
            a.byteswap()
        return a[::2]

    def stream_states(self, seeds: Sequence[int], node_ids: Sequence[int],
                      salted: int | None = None) -> int:
        """`stream_state(seed, v)` for every seed, then every node id.

        Lane t * len(node_ids) + i holds the state of (seeds[t], node_ids[i]);
        k must be len(seeds) * len(node_ids).  Seeds and ids are masked to 64
        bits, as `stream_state` masks them.  Each seed is mixed once, on a
        len(seeds)-lane int, and its word is then copied over the seed's n
        lanes.  `salted`, if given, is `salted_ids(node_ids, copies)` for any
        copies >= len(seeds), so a caller that reuses one id list packs its
        salted ids once; the mix drops the lanes past k.
        """
        n = len(node_ids)
        seeded = Lanes(len(seeds))
        z = seeded.mix(pack(map(_GOLDEN.__xor__, map(MASK64.__and__, seeds))))
        z = pack(seeded.words(z), stride=n)
        # Copy each seed's word (lane t * n) into its next n - 1 lanes by
        # doubling; the last shift overlaps lanes that already hold that word.
        w = 1
        while 2 * w <= n:
            z |= z << (128 * w)
            w *= 2
        if w < n:
            z |= z << (128 * (n - w))
        if salted is None:
            salted = salted_ids(node_ids, len(seeds))
        return self.mix(z ^ salted)


def salted_ids(node_ids: Sequence[int], copies: int) -> int:
    """The salted ids that `Lanes.stream_states` xors into the seed words,
    packed `copies` times over: lane t * len(node_ids) + i holds
    node_ids[i] * salt, masked to 64 bits."""
    salted = array("Q", [(v * _ID_SALT) & MASK64 for v in node_ids])
    return pack(salted * copies)
