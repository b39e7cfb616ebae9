import pytest
from helpers import reference_trial_counts

from sleepcolor import _kernels
from sleepcolor.coloring import Phase1Program
from sleepcolor.graph import (ColoringInstance, build_graph, generate,
                              make_default_instance, make_instance)
from sleepcolor.simcore import run_simulation


def engine_counts(instance, seed_base, trials):
    counts = {v: 0 for v in instance.graph.nodes}
    for t in range(trials):
        res = run_simulation(
            instance.graph,
            Phase1Program(1),
            inputs=instance.lists,
            seed=seed_base + t,
            round_cap=2,
            on_incomplete="return",
        )
        for v in res.outputs:
            counts[v] += 1
    return counts


def test_pure_kernel_matches_engine_bit_for_bit():
    g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)], [0, 1, 2, 3])
    inst = make_default_instance(g)
    trials = 250
    assert _kernels.phase1_trial_counts(inst, 4242, trials) == \
        engine_counts(inst, 4242, trials)


def test_kernel_matches_engine_with_arbitrary_ids_and_lists():
    g = build_graph([(10, 70), (70, 300)], [10, 70, 300])
    inst = make_instance(g, {10: (5, 9), 70: (5, 9, 17), 300: (9, 17)})
    assert _kernels.phase1_trial_counts(inst, 31337, 1000) == \
        engine_counts(inst, 31337, 1000)
    # ids at and past 2**63 do not fit a signed 64-bit word
    big = [2**63, 2**64 + 5, 2**70 - 1]
    g = build_graph([(big[0], big[1]), (big[1], big[2]), (big[2], 3)], big + [3])
    inst = make_instance(g, {big[0]: (2, 4), big[1]: (1, 2, 4),
                             big[2]: (4, 7, 8), 3: (7, 8)})
    assert _kernels.phase1_trial_counts(inst, 77, 1000) == \
        engine_counts(inst, 77, 1000)


def test_trial_chunks_match_engine_at_their_edges():
    # a trial count that is not a multiple of the trials per chunk of lanes
    inst = make_default_instance(generate("gnp", 5, seed=3, param=0.6))
    per = _kernels._CHUNK // 5
    assert 1000 % per != 0
    assert _kernels.phase1_trial_counts(inst, 9, 1000) == engine_counts(inst, 9, 1000)
    # more nodes than a chunk has lanes: one trial per chunk
    wide = make_default_instance(build_graph([], list(range(0, 4200, 2))))
    assert len(wide.graph.nodes) > _kernels._CHUNK
    assert _kernels.phase1_trial_counts(wide, 5, 3) == engine_counts(wide, 5, 3)
    # negative seeds, and seeds that wrap past 2**64 inside one chunk
    for seed_base in (-40, 2**64 - 3):
        assert _kernels.phase1_trial_counts(inst, seed_base, 50) == \
            engine_counts(inst, seed_base, 50)
    assert _kernels.phase1_trial_counts(inst, 9, 0) == {v: 0 for v in inst.graph.nodes}
    with pytest.raises(ValueError, match="trials must be >= 0"):
        _kernels.phase1_trial_counts(inst, 1, -5)


def test_trial_batches_match_engine():
    # one node: 2048 trials per chunk, none with neighbors
    single = make_instance(build_graph([], [7]), {7: (1, 2, 3)})
    assert _kernels._CHUNK == 2048
    assert _kernels.phase1_trial_counts(single, 3, 2050) == engine_counts(single, 3, 2050)
    # four nodes divide the chunk: 512 trials per chunk, and the chunk edges
    # around them
    inst = make_default_instance(build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], range(4)))
    assert _kernels._CHUNK % 4 == 0
    for trials in (512, 513, 1024):
        assert _kernels.phase1_trial_counts(inst, 21, trials) == \
            engine_counts(inst, 21, trials)
    # fewer trials than a chunk holds: one partial chunk
    assert _kernels.phase1_trial_counts(inst, 8, 100) == engine_counts(inst, 8, 100)
    # isolated and connected nodes with far-apart ids: lanes and edges are
    # laid out by positions, not ids
    g = build_graph([(10, 70), (70, 300)], [10, 70, 300, 2**63])
    mixed = make_instance(g, {10: (5, 9), 70: (5, 9, 17), 300: (9, 17), 2**63: (9,)})
    assert _kernels.phase1_trial_counts(mixed, 404, 700) == engine_counts(mixed, 404, 700)


def test_trial_batches_match_at_their_edges(monkeypatch):
    inst = make_default_instance(build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
                                             range(4)))
    assert reference_trial_counts(inst, 6, 300) == engine_counts(inst, 6, 300)
    # the lanes exactly fill one batch, or spill one trial past it
    full = _kernels._BATCH // 4
    assert full * 4 == _kernels._BATCH
    for trials in (full, full + 1):
        assert _kernels.phase1_trial_counts(inst, 6, trials) == \
            reference_trial_counts(inst, 6, trials)
    # the same at a small batch, against the engine
    monkeypatch.setattr(_kernels, "_BATCH", 2 * _kernels._CHUNK)
    for trials in (1024, 1025, 2049):
        assert _kernels.phase1_trial_counts(inst, 13, trials) == \
            engine_counts(inst, 13, trials)


def test_trial_columns_match_engine_on_any_colors():
    # colors of 2**64 and above do not fit a 64-bit word
    g = build_graph([(0, 1), (1, 2), (2, 0)], [0, 1, 2])
    huge = make_instance(g, {0: (2**64, 2**64 + 1, 2**70), 1: (2**64, 2**70, 5),
                             2: (5, 2**64 + 1, 2**70)})
    assert _kernels.phase1_trial_counts(huge, 50, 800) == engine_counts(huge, 50, 800)
    # ColoringInstance(...) skips make_instance's duplicate-color check: a
    # repeated color is drawn twice as often
    repeated = ColoringInstance(build_graph([(0, 1), (1, 2)], [0, 1, 2]),
                                [(1,), (1, 1, 2), (2, 2, 3)])
    assert _kernels.phase1_trial_counts(repeated, 60, 800) == \
        engine_counts(repeated, 60, 800)
    # a list of more than 256 colors, beside short ones that share its colors
    g = build_graph([(0, 1), (0, 2), (0, 3)], [0, 1, 2, 3])
    wide = make_instance(g, {0: tuple(range(1, 301)), 1: (1, 300), 2: (7, 255, 256),
                             3: tuple(range(250, 262))})
    assert _kernels.phase1_trial_counts(wide, 70, 1500) == engine_counts(wide, 70, 1500)
    # nodes with no edges, alone and beside an edge
    g = build_graph([(1, 2)], [0, 1, 2, 3])
    lonely = make_instance(g, {0: (4,), 1: (1, 2), 2: (2, 3), 3: (1, 2, 3)})
    assert _kernels.phase1_trial_counts(lonely, 80, 900) == engine_counts(lonely, 80, 900)


def test_instance_arrays_layout():
    g = build_graph([(0, 2)], [0, 1, 2])
    inst = make_instance(g, {0: (1, 3), 1: (2,), 2: (4, 8)})
    ids, offsets, flat, lists = _kernels.instance_arrays(inst)
    assert ids is g.nodes and list(ids) == [0, 1, 2]
    assert list(offsets) == [0, 1, 1, 2] and list(flat) == [2, 0]
    assert lists == [(1, 3), (2,), (4, 8)]
    # ids other than 0..n-1 become their positions in sorted order
    g = build_graph([(40, 5), (9, 40)], [40, 9, 5])
    inst = make_instance(g, {5: (1, 2), 9: (3, 4), 40: (1, 3, 6)})
    ids, offsets, flat, lists = _kernels.instance_arrays(inst)
    assert list(ids) == [5, 9, 40]
    assert list(offsets) == [0, 1, 2, 4] and list(flat) == [2, 2, 0, 1]
    assert lists == [(1, 2), (3, 4), (1, 3, 6)]
