import math

import pytest

from helpers import assert_same_phase1, random_residual_instance
from sleepcolor import _kernels
from sleepcolor.errors import AlgorithmInvariantViolation
from sleepcolor.graph import (
    ColoringInstance,
    build_graph,
    generate,
    make_default_instance,
    make_instance,
)
from sleepcolor.coloring import run_phase1
from sleepcolor.coloring.phase1 import simulate_phase1
from sleepcolor.metrics import validity_verdict
from sleepcolor.oracle import exact_adoption_probabilities


def test_isolated_node_adopts_iff_nonzero_draw():
    g = build_graph([], [0])
    inst = make_instance(g, {0: (1,)})
    adopted = 0
    for seed in range(4000):
        out = run_phase1(inst, iterations=1, seed=seed)
        if out.colors:
            assert out.colors[0] == 1
            adopted += 1
    # exactly Bernoulli(1/2); 4000 trials keep us within ~3 sigma of 2000
    assert abs(adopted / 4000 - 0.5) < 0.025


def test_awake_cost_is_two_rounds_per_iteration():
    g = generate("gnp", 60, seed=8, param=0.1)
    inst = make_default_instance(g)
    k = 5
    out = run_phase1(inst, iterations=k, seed=12)
    for rnd, awake in zip(out.term, out.awake):
        if rnd:
            assert rnd % 2 == 0                  # adoption happens in resolve rounds
            assert awake == rnd                  # awake every round until adopting
    for v in (out.residual.graph.nodes if out.residual else ()):
        assert out.awake[out.nodes.index(v)] == 2 * k


def test_partial_prefixes_always_proper_and_admissible():
    inst = make_default_instance(generate("clique", 3, seed=0))
    for k in range(1, 7):
        out = run_phase1(inst, iterations=k, seed=99)
        verdict = validity_verdict(inst, out.colors)
        assert verdict in ("proper_total", "proper_partial")
        if out.residual is not None:
            make_instance(out.residual.graph, out.residual.lists)


def test_k3_eventually_total_on_seed_sweep():
    inst = make_default_instance(generate("clique", 3, seed=0))
    total = 0
    for seed in range(60):
        out = run_phase1(inst, iterations=30, seed=seed)
        if out.residual is None:
            total += 1
    # P(any fixed node survives 30 iterations) <= (3/4)^30 ~ 1.8e-4
    assert total == 60


def test_empty_graph_single_iteration_colors_half():
    n, trials = 400, 10_000
    g = build_graph([], list(range(n)))
    inst = make_default_instance(g)
    counts = _kernels.phase1_trial_counts(inst, seed_base=2000, trials=trials // n)
    # pool across nodes: (trials/n) runs x n nodes ~ `trials` Bernoulli(1/2)
    frac = sum(counts.values()) / (n * (trials // n))
    assert abs(frac - 0.5) <= 0.02


def test_pruning_is_exact():
    g = generate("gnp", 40, seed=4, param=0.15)
    inst = make_default_instance(g)
    out = run_phase1(inst, iterations=3, seed=5)
    if out.residual is None:
        return
    for v in out.residual.graph.nodes:
        neighbor_colors = {
            out.colors[u] for u in g.adjacency[v] if u in out.colors
        }
        expected = tuple(c for c in inst.lists[v] if c not in neighbor_colors)
        assert out.residual.lists[v] == expected


def test_pruned_colors_are_held_by_neighbors():
    g = generate("gnp", 50, seed=14, param=0.12)
    inst = make_default_instance(g)
    out = run_phase1(inst, iterations=4, seed=3)
    if out.residual is None:
        return
    for v in out.residual.graph.nodes:
        removed = set(inst.lists[v]) - set(out.residual.lists[v])
        neighbor_colors = {out.colors[u] for u in g.adjacency[v] if u in out.colors}
        assert removed <= neighbor_colors


def test_edge_single_iteration_frequency_near_three_eighths():
    g = build_graph([(0, 1)], [0, 1])
    inst = make_instance(g, {0: (1, 2), 1: (1, 2)})
    trials = 30_000
    counts = _kernels.phase1_trial_counts(inst, seed_base=123, trials=trials)
    p = 3 / 8
    sigma = math.sqrt(p * (1 - p) / trials)
    for v in (0, 1):
        assert abs(counts[v] / trials - p) <= 4 * sigma


def test_residual_without_survivors_is_none():
    g = build_graph([], [0, 1])
    inst = make_default_instance(g)
    for seed in range(200):
        out = run_phase1(inst, iterations=40, seed=seed)
        if out.residual is None:
            return
    raise AssertionError("no seed finished an edgeless 2-node instance in 40 iterations")


@pytest.mark.parametrize("family,n,param", [
    ("path", 40, None),
    ("cycle", 41, None),
    ("clique", 12, None),
    ("star", 30, None),
    ("regular", 64, 5),
    ("gnp", 300, 0.03),
    ("gnp", 4096, 8 / 4096),
])
def test_kernel_matches_engine_driver(family, n, param):
    inst = make_default_instance(generate(family, n, seed=n, param=param))
    for seed in range(3):
        for k1 in (1, 2, 5, 40):
            assert_same_phase1(inst, k1, seed)


def test_kernel_matches_engine_driver_on_irregular_lists_and_large_ids():
    for trial in range(20):
        assert_same_phase1(random_residual_instance(trial), 1 + trial % 5, trial)
    # ids at and past 2**63 do not fit a signed 64-bit word
    big = [2**63, 2**64 + 5, 2**70 - 1]
    g = build_graph([(big[0], big[1]), (big[1], big[2]), (big[2], 3)], big + [3])
    inst = make_instance(g, {big[0]: (2, 4), big[1]: (1, 2, 4),
                             big[2]: (4, 7, 8), 3: (7, 8)})
    for seed in range(50):
        assert_same_phase1(inst, 3, seed)


def test_kernel_and_engine_raise_alike_when_a_list_runs_out():
    # ColoringInstance(...) skips make_instance's deg+1 check
    inst = ColoringInstance(build_graph([(0, 1), (1, 2)], [0, 1, 2]),
                            {0: (1,), 1: (1, 2), 2: (2,)})
    emptied = 0
    for seed in range(40):
        out = assert_same_phase1(inst, 4, seed)
        emptied += isinstance(out, AlgorithmInvariantViolation)
    assert emptied > 0
    empty = ColoringInstance(build_graph([], [3, 8]), {3: (5,), 8: ()})
    for run in (run_phase1, simulate_phase1, _kernels.phase1_trial_counts,
                lambda instance, *_: exact_adoption_probabilities(instance)):
        with pytest.raises(AlgorithmInvariantViolation,
                           match=r"node 8 ran out of colors \(inadmissible instance\?\)"):
            run(empty, 2, 1)
    for run in (run_phase1, simulate_phase1):
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            run(inst, 0, 0)


def test_kernel_and_engine_prune_every_occurrence_of_a_repeated_color():
    # ColoringInstance(...) skips make_instance's duplicate-color check; both
    # runs prune every occurrence of an adopted color, and hand on a residual
    # list that still repeats a color as it is, since residuals are not
    # validated again
    inst = ColoringInstance(build_graph([(0, 1)], [0, 1]), {0: (1,), 1: (1, 1, 2)})
    outcomes = set()
    residual_lists = []
    for seed in range(40):
        out = assert_same_phase1(inst, 3, seed)
        outcomes.add(type(out).__name__)
        if getattr(out, "residual", None) is not None:
            residual_lists.append(out.residual.lists)
    assert "PhaseOutcome" in outcomes
    assert inst.lists in residual_lists          # nobody adopted: handed on as it is
