import pytest

from sleepcolor.rng import (MASK64, Lanes, NodeRng, derive_seed, mix64, pack, salted_ids,
                            stream_state)


def test_same_seed_and_id_repeat_identically():
    a = NodeRng(12345, 7)
    b = NodeRng(12345, 7)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_distinct_ids_decorrelate():
    a = NodeRng(999, 1)
    b = NodeRng(999, 2)
    draws_a = [a.next_u64() for _ in range(64)]
    draws_b = [b.next_u64() for _ in range(64)]
    assert draws_a != draws_b
    # statistical smoke test: streams should not share any early value
    assert len(set(draws_a) & set(draws_b)) == 0


def test_bernoulli_mean_within_chernoff_band():
    rng = NodeRng(2024, 0)
    heads = sum(rng.coin() for _ in range(1_000_000))
    assert 0.497 <= heads / 1_000_000 <= 0.503


def test_randrange_bounds_and_determinism():
    rng = NodeRng(5, 5)
    draws = [rng.randrange(7) for _ in range(1000)]
    assert all(0 <= d < 7 for d in draws)
    assert set(draws) == set(range(7))


def test_uniform01_range():
    rng = NodeRng(11, 3)
    xs = [rng.uniform01() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)


def test_mix64_is_deterministic_and_masked():
    assert mix64(0) == mix64(0)
    assert 0 <= mix64((1 << 64) + 5) <= MASK64


def test_derive_seed_changes_with_salt():
    assert derive_seed(42, 1) != derive_seed(42, 2)
    assert derive_seed(42, 1) == derive_seed(42, 1)


def test_stream_is_splitmix_of_state():
    # the same state sequence must be reproducible from the class internals
    r1 = NodeRng(1, 1)
    r2 = NodeRng(1, 1)
    for _ in range(10):
        assert r1.coin() == r2.coin()
        assert r1.randrange(13) == r2.randrange(13)


def _lane_words(k):
    """k words: the edge cases 0, 1, 2**63 and MASK64 first, then random ones."""
    rng = NodeRng(k, 99)
    return ([0, 1, 2**63, MASK64] + [rng.next_u64() for _ in range(k)])[:k]


@pytest.mark.parametrize("k", [1, 2, 3, 2049])
def test_lane_mix_equals_mix64_lane_by_lane(k):
    words = _lane_words(k)
    lanes = Lanes(k)
    mixed = lanes.mix(pack(words))
    assert list(lanes.words(mixed)) == [mix64(w) for w in words]
    assert list(lanes.coins(mixed)) == [mix64(w) >> 63 for w in words]


@pytest.mark.parametrize("k", [1, 2, 3, 2049])
def test_pack_round_trips(k):
    words = _lane_words(k)
    assert list(Lanes(k).words(pack(words))) == words
    # a stride leaves the lanes in between 0
    strided = Lanes(3 * k).words(pack(words, stride=3))
    assert list(strided[::3]) == words
    assert not any(strided[1::3]) and not any(strided[2::3])


def test_lane_streams_equal_node_rng_draws():
    seeds = [-1, 0, 7, 2**64 - 1, 2**64 + 7]              # masked as stream_state masks
    ids = [0, 5, 2**63, 2**64 + 5, 2**70 - 1]             # so are ids >= 2**64
    lanes = Lanes(len(seeds) * len(ids))
    states = lanes.stream_states(seeds, ids)
    assert list(lanes.words(states)) == [stream_state(s, v) for s in seeds for v in ids]
    rngs = [NodeRng(s, v) for s in seeds for v in ids]
    for c in range(1, 4):
        assert list(lanes.words(lanes.mix(lanes.advance(states, c)))) == \
            [r.next_u64() for r in rngs]
    # one stream's consecutive words, one per lane
    rng = NodeRng(-3, 2**64 + 1)
    lanes = Lanes(5)
    assert list(lanes.words(lanes.mix(lanes.consecutive(stream_state(-3, 2**64 + 1))))) == \
        [rng.next_u64() for _ in range(5)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_stream_states_copy_every_seed_over_all_nodes(n):
    seeds = range(-2, 9)
    ids = [3 * i + 1 for i in range(n)]
    lanes = Lanes(len(seeds) * n)
    expected = [stream_state(s, v) for s in seeds for v in ids]
    assert list(lanes.words(lanes.stream_states(seeds, ids))) == expected
    # the salted ids packed once, for as many copies as seeds or more
    for copies in (len(seeds), len(seeds) + 1, 3 * len(seeds)):
        salted = salted_ids(ids, copies)
        assert list(lanes.words(lanes.stream_states(seeds, ids, salted))) == expected
    # a partial chunk: fewer seeds than the salted ids have copies
    few = Lanes(2 * n)
    salted = salted_ids(ids, len(seeds))
    assert list(few.words(few.stream_states(seeds[:2], ids, salted))) == expected[:2 * n]
