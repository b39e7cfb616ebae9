import math

import pytest

from helpers import (
    assert_same_phase3,
    central_interim,
    greedy_by_class,
    random_residual_instance,
)

from sleepcolor.coloring import (
    PipelineConfig,
    class_duties,
    interim_palette,
    palette_schedule,
    run_phase1,
    run_phase2,
    run_phase3,
    run_pipeline,
    tournament_slot_count,
)
from sleepcolor.coloring import phase3, pipeline
from sleepcolor.coloring.phase3 import _iroot_ceil, _is_prime, _next_prime, simulate_phase3
from sleepcolor.errors import AlgorithmInvariantViolation, RunIncomplete
from sleepcolor.graph import (
    Coloring,
    ColoringInstance,
    build_graph,
    generate,
    make_default_instance,
    make_instance,
)
from sleepcolor.metrics import validity_verdict


def _palette_bound(delta: int) -> int:
    # the descent's guaranteed floor: (smallest prime > 2*delta)^2
    return _next_prime(2 * max(1, delta) + 1) ** 2


def test_palette_schedule_reaches_quadratic_floor():
    for bits in (4, 8, 16, 32, 64, 70, 201, 1101):
        for delta in (1, 2, 3, 4, 6, 8, 12, 20):
            steps, palette = palette_schedule(bits, delta)
            assert palette <= max(_palette_bound(delta), 1 << bits)
            if (1 << bits) > _palette_bound(delta):
                assert palette <= _palette_bound(delta)
            assert len(steps) <= 10
            # each step's parameters are usable: q a prime, q > d*delta
            for q, d in steps:
                assert _is_prime(q) and q > d * delta


def test_integer_roots_past_the_float_range_keep_the_schedules():
    # a float root overflowed past 1024 bits; the schedules below are the
    # ones the fixed d < 65 search gave
    for m in (2, 7, 8, 9, 10**40, 2**1100 + 1, 3**2000):
        for k in (2, 3, 7, 151):
            r = _iroot_ceil(m, k)
            assert r ** k >= m and (r - 1) ** k < m
    assert palette_schedule(64, 9) == ([(89, 9), (23, 2), (19, 2)], 361)
    assert palette_schedule(70, 1) == ([(19, 16), (5, 3), (3, 2)], 9)


def test_prime_moduli_color_the_zero_forty_edge():
    # ids {0, 40} once drew q = 4 (d = 2); Z/4Z is not a field, and 77 of
    # these 200 seeds found no distinguishing evaluation point
    inst = make_default_instance(build_graph([(0, 40)], [0, 40]))
    for seed in range(200):
        _, metrics = run_pipeline(inst, PipelineConfig(seed=seed))
        assert metrics.validity == "proper_total", seed


def test_pipeline_caps_phase3_at_its_schedule(monkeypatch):
    seen = []
    real = phase3.run_simulation

    def spy(graph, program, **kwargs):
        seen.append((program, kwargs["round_cap"]))
        return real(graph, program, **kwargs)

    residuals = []
    run = pipeline.run_phase3

    def keep(residual, trace=None):
        residuals.append(residual)
        return run(residual, trace=trace)

    monkeypatch.setattr(phase3, "run_simulation", spy)
    monkeypatch.setattr(pipeline, "run_phase3", keep)
    inst = make_default_instance(generate("gnp", 64, seed=3, param=0.2))
    _, metrics = run_pipeline(inst, PipelineConfig(seed=1, k1=1))
    assert not seen and len(residuals) == 1 and metrics.phase3_classes > 1
    residual = residuals[0]
    # interim rounds + tournament slots: the cap is the last slot's round
    simulate_phase3(residual)
    program, cap = seen[0]
    assert cap == len(program.steps) + 1 + tournament_slot_count(metrics.phase3_classes)
    # the kernel runs up to that very round, and one slot fewer cuts it off
    assert run_phase3(residual).rounds_executed == cap
    monkeypatch.setattr(phase3, "tournament_slot_count", lambda c: tournament_slot_count(c) - 1)
    with pytest.raises(RunIncomplete, match=f"round cap {cap - 1} reached"):
        run_phase3(residual)


def test_interim_edgeless_is_all_zero():
    g = build_graph([], [3, 9, 17])
    inst = make_instance(g, {3: (1,), 9: (2,), 17: (5,)})
    assert interim_palette(inst) == ([], 1)
    assert central_interim(inst) == {3: 0, 9: 0, 17: 0}


def test_interim_five_cycle_proper_and_bounded():
    inst = make_default_instance(generate("cycle", 5, seed=0))
    interim = central_interim(inst)
    g = inst.graph
    for u, v in g.edges():
        assert interim[u] != interim[v]
    _, palette = interim_palette(inst)
    assert palette <= _palette_bound(2)
    assert all(0 <= c < palette for c in interim.values())


def test_interim_proper_on_thousand_random_graphs():
    for trial in range(1000):
        n = 2 + trial % 17
        g = generate("gnp", n, seed=trial, param=0.3)
        inst = make_default_instance(g)
        interim = central_interim(inst)
        for u, v in g.edges():
            assert interim[u] != interim[v], f"trial {trial}"


def test_class_duties_structure_and_bound():
    for classes in (1, 2, 3, 5, 8, 13, 64, 100):
        for cls in range(classes):
            duties = class_duties(classes, cls)
            slots = [d[0] for d in duties]
            assert slots == sorted(slots)
            assert 0 <= min(slots) and max(slots) < tournament_slot_count(classes)
            kinds = [d[1] for d in duties]
            assert kinds.count("leaf") == 1
            leaf_at = kinds.index("leaf")
            assert all(k == "listen" for k in kinds[:leaf_at])
            assert all(k == "announce" for k in kinds[leaf_at + 1:])
            bound = 2 * math.ceil(math.log2(classes)) + 2 if classes > 1 else 2
            assert len(duties) + 1 <= bound or classes == 1
    # a slot belongs to one tree node, a leaf or an announce with its
    # listeners, so `run_phase3` runs each slot in one pass
    for classes in range(1, 301):
        kinds: dict[int, set[str]] = {}
        for cls in range(classes):
            for slot, kind, *_ in class_duties(classes, cls):
                kinds.setdefault(slot, set()).add(kind)
        assert all(k == {"leaf"} or "leaf" not in k for k in kinds.values()), classes


def test_single_class_residual():
    # edgeless residual: one leaf round, everyone adopts its smallest color
    g = build_graph([], [0, 5])
    inst = make_instance(g, {0: (4, 9), 5: (2,)})
    out = run_phase3(inst)
    assert out.colors == {0: 4, 5: 2}
    assert all(a <= 3 for a in out.awake)
    assert out.extra["classes"] == 1


def test_two_class_edge_example():
    g = build_graph([(0, 1)], [0, 1])
    inst = make_instance(g, {0: (1, 2), 1: (1, 2)})
    # ids {0, 1} are already a proper 2-class interim coloring: no reduction step
    out = run_phase3(inst)
    assert out.extra["reduction_steps"] == 0 and out.extra["classes"] == 2
    assert out.colors == {0: 1, 1: 2}


def test_tournament_equals_sequential_greedy_on_random_instances():
    for trial in range(60):
        inst = random_residual_instance(trial)
        out = run_phase3(inst)
        interim = central_interim(inst)
        assert out.colors == greedy_by_class(inst, interim), f"trial {trial}"
        assert validity_verdict(inst, Coloring(out.nodes, out.color)) == "proper_total"


def test_tournament_awake_bound():
    for trial in range(40):
        inst = random_residual_instance(trial, max_n=40)
        out = run_phase3(inst)
        classes = out.extra["classes"]
        interim_rounds = out.extra["interim_rounds"]
        bound = 2 * math.ceil(math.log2(classes)) + 2 if classes > 1 else 2
        for v, awake in zip(out.nodes, out.awake):
            tournament_awake = awake - interim_rounds
            assert tournament_awake <= bound, (trial, v, tournament_awake, bound)


def test_total_rounds_within_two_c_plus_interim():
    for trial in (1, 7, 19):
        inst = random_residual_instance(trial, max_n=40)
        out = run_phase3(inst)
        c = out.extra["classes"]
        assert out.rounds_executed <= out.extra["interim_rounds"] + 2 * c + 1


def test_phase3_deterministic():
    inst = random_residual_instance(5)
    a = run_phase3(inst)
    b = run_phase3(inst)
    assert a.colors == b.colors
    assert a.awake == b.awake


@pytest.mark.parametrize("family,n,param", [
    ("path", 30, None),
    ("cycle", 31, None),
    ("clique", 12, None),
    ("star", 40, None),
    ("regular", 64, 6),
    ("gnp", 300, 0.03),
])
def test_kernel_matches_engine_run(family, n, param):
    inst = make_default_instance(generate(family, n, seed=n, param=param))
    assert_same_phase3(inst)
    for seed in range(3):
        residual = run_phase1(inst, 1, seed).residual
        if residual is None:
            continue
        assert_same_phase3(residual)
        residual = run_phase2(residual, 3, 40, seed).residual
        if residual is not None:
            assert_same_phase3(residual)


def test_kernel_matches_engine_run_on_examples_and_random_residuals():
    examples = [
        make_instance(build_graph([], [0, 5]), {0: (4, 9), 5: (2,)}),       # one class
        make_instance(build_graph([(0, 1)], [0, 1]), {0: (1, 2), 1: (1, 2)}),
    ]
    for inst in examples + [random_residual_instance(t) for t in range(40)]:
        assert_same_phase3(inst)


def test_kernel_matches_engine_run_on_ids_past_64_bits():
    big = [2**63, 2**63 + 1, 2**64 + 5, 2**70 - 1]
    edges = [(big[0], big[1]), (big[0], big[2]), (big[0], big[3]), (big[0], 4),
             (big[2], 9), (9, 12), (big[1], big[3])]
    inst = make_default_instance(build_graph(edges, big + [4, 9, 12]))
    assert inst.graph.nodes[-1].bit_length() == 70 and interim_palette(inst)[0]
    out, _ = assert_same_phase3(inst)
    assert validity_verdict(inst, Coloring(out.nodes, out.color)) == "proper_total"


def test_kernel_and_engine_raise_alike_when_a_leaf_finds_no_free_color():
    # lists shorter than deg+1 (not admissible, so built without make_instance)
    g = build_graph([(0, 1), (1, 2), (2, 3)], [0, 1, 2, 3])
    inst = ColoringInstance(g, [(1,), (1,), (2, 1), (2,)])
    err, trace = assert_same_phase3(inst)
    assert isinstance(err, AlgorithmInvariantViolation)
    assert "no free list color at its leaf round" in str(err)
    assert trace.node_events


def test_kernel_and_engine_overrun_alike(monkeypatch):
    real = phase3.tournament_slot_count
    monkeypatch.setattr(phase3, "tournament_slot_count", lambda c: real(c) - 1)
    inst = make_default_instance(generate("gnp", 64, seed=3, param=0.2))
    err, trace = assert_same_phase3(inst)
    assert isinstance(err, RunIncomplete)
    assert 0 in err.partial.term
    assert trace.node_events
