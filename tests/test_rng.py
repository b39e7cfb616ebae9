from sleepcolor.rng import MASK64, NodeRng, derive_seed, mix64


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
