import statistics

import pytest

from helpers import assert_same_phase2, random_residual_instance
from sleepcolor.coloring import run_phase1, run_phase2
from sleepcolor.errors import AlgorithmInvariantViolation
from sleepcolor.graph import (
    ColoringInstance,
    build_graph,
    generate,
    make_default_instance,
    make_instance,
)
from sleepcolor.metrics import validity_verdict


def _star_instance(leaves=64):
    g = generate("star", leaves + 1, seed=0)
    return make_default_instance(g)


def test_empty_core_costs_nothing():
    inst = _star_instance(64)
    out = run_phase2(inst, threshold=100, iteration_cap=40, seed=1)
    assert out.rounds_executed == 0
    assert not any(out.awake)
    assert out.colors == {}
    assert out.residual is inst
    assert out.extra["iterations"] == 0 and not out.extra["incomplete"]


def test_star_degree_drains_within_expected_iterations():
    # center degree 64 >= threshold 8; its neighbors adopt (or it colors
    # itself out), so the region quiesces in logarithmically many iterations
    inst = _star_instance(64)
    iters = []
    for seed in range(1000):
        out = run_phase2(inst, threshold=8, iteration_cap=100, seed=seed)
        assert not out.extra["incomplete"]
        if out.residual is not None:
            assert out.residual.graph.max_degree < 8
        iters.append(out.extra["iterations"])
    assert statistics.mean(iters) <= 12


def test_contract_residual_degree_below_threshold():
    for seed in range(15):
        g = generate("gnp", 200, seed=seed, param=0.08)
        inst = make_default_instance(g)
        out = run_phase2(inst, threshold=6, iteration_cap=60, seed=seed)
        if not out.extra["incomplete"] and out.residual is not None:
            assert out.residual.graph.max_degree < 6
        merged = dict(out.colors)
        assert validity_verdict(inst, merged) in ("proper_partial", "proper_total")


def test_failure_rate_decays_with_cap():
    fails = 0
    runs = 100
    for seed in range(runs):
        g = generate("gnp", 500, seed=seed, param=0.05)
        inst = make_default_instance(g)
        out = run_phase2(inst, threshold=8, iteration_cap=40, seed=seed)
        fails += bool(out.extra["incomplete"])
    assert fails / runs < 0.01


def test_tiny_cap_flags_incomplete_but_preserves_admissibility():
    g = generate("gnp", 120, seed=7, param=0.2)
    inst = make_default_instance(g)
    out = run_phase2(inst, threshold=4, iteration_cap=1, seed=7)
    assert out.residual is not None
    make_instance(out.residual.graph, out.residual.lists)
    # degree 4 cutoff cannot be met in one iteration on a dense instance
    assert out.extra["incomplete"]


def test_colors_come_from_lists_and_prune_neighbors():
    g = generate("gnp", 150, seed=3, param=0.1)
    p1 = run_phase1(make_default_instance(g), iterations=2, seed=3)
    if p1.residual is None:
        return
    out = run_phase2(p1.residual, threshold=5, iteration_cap=50, seed=11)
    for v, c in out.colors.items():
        assert c in p1.residual.lists[v]
    if out.residual is not None:
        make_instance(out.residual.graph, out.residual.lists)
        for v in out.residual.graph.nodes:
            taken = {out.colors[u] for u in p1.residual.graph.adjacency[v]
                     if u in out.colors}
            assert not taken & set(out.residual.lists[v])


def test_zero_cap_skips_phase():
    inst = _star_instance(16)
    out = run_phase2(inst, threshold=8, iteration_cap=0, seed=1)
    assert out.rounds_executed == 0 and out.extra["incomplete"]


@pytest.mark.parametrize("family,n,param", [
    ("star", 40, None),
    ("clique", 12, None),
    ("regular", 64, 6),
    ("gnp", 300, 0.03),
])
def test_kernel_matches_engine_driver(family, n, param):
    inst = make_default_instance(generate(family, n, seed=n, param=param))
    for seed in range(3):
        residual = run_phase1(inst, 1, seed).residual
        for threshold in (1, 3, 6):
            for cap in (1, 2, 3, 40):      # cut off mid-window, and run to quiescence
                assert_same_phase2(residual, threshold, cap, seed)


def test_kernel_matches_engine_driver_on_irregular_lists_and_large_ids():
    for trial in range(20):
        assert_same_phase2(random_residual_instance(trial), 1 + trial % 6,
                           (1, 2, 3, 40)[trial % 4], trial)
    # ids at and past 2**63 do not fit a signed 64-bit word; 2**63 is core,
    # 4 and 2**64+5 ring1, and 9 a ring2 node with a neighbor outside the region
    big = [2**63, 2**63 + 1, 2**64 + 5, 2**70 - 1]
    edges = [(big[0], big[1]), (big[0], big[2]), (big[0], big[3]), (big[0], 4),
             (big[2], 9), (9, 12), (big[1], big[3])]
    inst = make_default_instance(build_graph(edges, big + [4, 9, 12]))
    for seed in range(30):
        for cap in (1, 3, 40):
            assert_same_phase2(inst, 3, cap, seed)


def test_kernel_and_engine_raise_alike_when_a_proposer_runs_out():
    # ColoringInstance(...) skips make_instance's deg+1 check: ring1 node 1
    # runs out once core node 0 adopts color 1
    inst = ColoringInstance(build_graph([(0, 1), (0, 2), (0, 3)], [0, 1, 2, 3]),
                            {0: (1, 2), 1: (1,), 2: (1, 3), 3: (2, 3)})
    raised = 0
    for seed in range(60):
        out, trace = assert_same_phase2(inst, 3, 40, seed)
        if isinstance(out, AlgorithmInvariantViolation):
            raised += 1
            assert str(out) == "node 1 ran out of colors in degree reduction"
            assert trace.node_events          # raised after the first iteration
    assert raised > 0
    # the first proposer in id order raises, before its round is traced
    empty = ColoringInstance(build_graph([(0, 8), (0, 3)], [0, 3, 8]),
                             {0: (1, 2, 3), 3: (), 8: ()})
    out, trace = assert_same_phase2(empty, 2, 5, 0)
    assert str(out) == "node 3 ran out of colors in degree reduction"
    assert trace.node_events == [] and trace.msg_events == []


def test_core_node_below_threshold_keeps_listening():
    # core node 0 stops proposing once a leaf adopts, but stays awake while
    # the other leaves still propose, and prunes their adoptions
    inst = _star_instance(4)
    listened = 0
    for seed in range(40):
        out, trace = assert_same_phase2(inst, 4, 40, seed)
        acts = {t - 11: act for t, v, act in trace.node_events if v == 0}
        quiet = [t for t, act in acts.items() if t % 2 == 1 and act == "cont"]
        if quiet and any(v == 0 and ok for t, _u, v, ok in trace.msg_events
                         if t - 11 == quiet[0]):
            listened += 1
            assert acts[quiet[0] + 1] == "cont"       # heard a proposal: stays awake
            if out.residual is not None:
                assert not set(out.colors.values()) & set(out.residual.lists[0])
    assert listened > 0


def test_core_node_degree_counts_its_awake_neighbors():
    # a double star: adjacent centres 0 and 1, five leaves each.  Both are
    # core (degree 6 >= 5); once a leaf adopts, a centre stops proposing,
    # and it sleeps after an iteration in which no neighbor proposed.  The
    # kernel counts a proposing centre's degree as its awake neighbors,
    # which holds only because a centre sleeps no earlier than that.
    edges = [(0, 1)] + [(0, v) for v in range(2, 7)] + [(1, v) for v in range(7, 12)]
    inst = make_default_instance(build_graph(edges, list(range(12))))
    slept = 0
    for seed in range(60):
        _out, trace = assert_same_phase2(inst, 5, 40, seed)
        slept += any(v in (0, 1) and act.startswith("sleep:")
                     for _t, v, act in trace.node_events)
    assert slept > 0
