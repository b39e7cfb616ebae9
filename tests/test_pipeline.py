import gc
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import assert_same_phase1, assert_same_phase2, assert_same_phase3
from sleepcolor.coloring import PipelineConfig, phase1, phase2, phase3, run_pipeline
from sleepcolor.coloring.pipeline import PHASE2_ITERATION_CAP, default_k1
from sleepcolor.errors import (
    AlgorithmInvariantViolation,
    InstanceError,
    InternalError,
    ProgramError,
    RunIncomplete,
)
from sleepcolor.graph import (
    Coloring,
    ColoringInstance,
    build_graph,
    format_decimal,
    generate,
    make_default_instance,
    make_instance,
    read_instance,
    write_instance,
)
from sleepcolor.metrics import collect
from sleepcolor.simcore import Action, Trace, run_simulation, sleep_act


def test_every_sleep_act_is_the_one_string_of_its_length():
    # the pipeline's kernels and the engine's three phase programs all name a
    # sleep of r rounds by the string `sleep_act(r)` itself (phase 1 has
    # every node propose in every iteration, so no node sleeps there)
    inst = make_default_instance(generate("gnp", 4096, seed=3, param=8 / 4096))
    traces = [Trace() for _ in range(4)]
    run_pipeline(inst, PipelineConfig(seed=1, k1=1, phase2_degree_threshold=10),
                 trace=traces[0])
    residual = phase1.simulate_phase1(inst, 1, 7, trace=traces[1]).residual
    residual = phase2.simulate_phase2(residual, 10, PHASE2_ITERATION_CAP, 7,
                                      trace=traces[2]).residual
    phase3.simulate_phase3(residual, trace=traces[3])
    for k, trace in enumerate(traces):
        sleeps = [a for a in trace.node_act if a.startswith("sleep:")]
        assert bool(sleeps) == (k != 1), k
        assert all(a is sleep_act(int(a[6:])) for a in sleeps), k


def test_single_node_graph_colors_with_at_most_four_awake_rounds():
    g = build_graph([], [0])
    inst = make_instance(g, {0: (7,)})
    for seed in range(64):
        coloring, metrics = run_pipeline(inst, PipelineConfig(seed=seed))
        assert coloring.assignment[0] == 7
        assert metrics.worst_case_awake <= 4
        assert metrics.validity == "proper_total"


def test_k3_seed_sweep_always_proper_total():
    inst = make_default_instance(generate("clique", 3, seed=0))
    for seed in range(1000):
        coloring, metrics = run_pipeline(inst, PipelineConfig(seed=seed))
        assert metrics.validity == "proper_total"
        assert all(coloring.assignment[v] in inst.lists[v] for v in inst.graph.nodes)


def test_metric_ordering_invariant():
    g = generate("gnp", 300, seed=21, param=0.03)
    inst = make_default_instance(g)
    _, m = run_pipeline(inst, PipelineConfig(seed=21))
    assert float(m.average_awake) <= m.worst_case_awake <= m.total_rounds


def test_determinism_of_coloring_metrics_and_trace():
    g = generate("gnp", 120, seed=5, param=0.06)
    inst = make_default_instance(g)
    t1, t2 = Trace(), Trace()
    c1, m1 = run_pipeline(inst, PipelineConfig(seed=5), trace=t1)
    c2, m2 = run_pipeline(inst, PipelineConfig(seed=5), trace=t2)
    assert c1.assignment == c2.assignment
    assert m1.per_node == m2.per_node
    assert t1.render() == t2.render()


def test_decay_histogram_accounts_for_every_node():
    g = generate("gnp", 400, seed=9, param=0.02)
    inst = make_default_instance(g)
    _, m = run_pipeline(inst, PipelineConfig(seed=9))
    phase1_colored = sum(m.decay_histogram.values())
    later = sum(1 for _, (_a, _t, ph) in m.per_node.items() if ph in (2, 3))
    assert phase1_colored + later == inst.graph.node_count


def test_phase_windows_respected():
    g = generate("gnp", 200, seed=13, param=0.05)
    inst = make_default_instance(g)
    cfg = PipelineConfig(seed=13)
    _, m = run_pipeline(inst, cfg)
    s2, s3 = cfg.phase_boundaries(inst.graph.node_count)
    for v, (_awake, term, phase) in m.per_node.items():
        assert term is not None
        if phase == 1:
            assert term <= s2
        elif phase == 2:
            assert s2 < term <= s3
        else:
            assert term > s3


def test_phase3_schedule_overrun_raises_run_incomplete(monkeypatch):
    # one tournament slot short: the last class cannot reach its leaf round
    real = phase3.tournament_slot_count
    monkeypatch.setattr(phase3, "tournament_slot_count", lambda c: real(c) - 1)
    inst = make_default_instance(generate("gnp", 64, seed=3, param=0.2))
    with pytest.raises(RunIncomplete) as err:
        run_pipeline(inst, PipelineConfig(seed=1, k1=1))
    assert 0 in err.value.partial.term


def test_forced_phase2_window_and_phase3_offsets():
    g = generate("gnp", 150, seed=4, param=0.12)
    inst = make_default_instance(g)
    cfg = PipelineConfig(seed=4, k1=2, phase2_degree_threshold=6)
    _, m = run_pipeline(inst, cfg)
    assert m.validity == "proper_total"
    s2, s3 = cfg.phase_boundaries(inst.graph.node_count)
    assert s3 == s2 + 80
    phase2_terms = [t for _, (_a, t, ph) in m.per_node.items() if ph == 2]
    phase3_terms = [t for _, (_a, t, ph) in m.per_node.items() if ph == 3]
    assert all(s2 < t <= s3 for t in phase2_terms)
    assert all(t > s3 for t in phase3_terms)


def test_pipeline_never_runs_the_engine(monkeypatch):
    # the engine runs are the references only: the pipeline never reaches
    # them, in phase 1, 2 or 3
    inst = make_default_instance(generate("gnp", 200, seed=4, param=0.05))
    cfg = PipelineConfig(seed=4, k1=1, phase2_degree_threshold=5)
    plain = Trace()
    _, m = run_pipeline(inst, cfg, trace=plain)
    assert m.phase_rounds[2] > 0 and m.phase_rounds[3] > 0

    def refuse(*args, **kwargs):
        raise AssertionError("a phase ran on the round engine")

    monkeypatch.setattr(phase1, "run_simulation", refuse)
    monkeypatch.setattr(phase2, "run_simulation", refuse)
    monkeypatch.setattr(phase3, "run_simulation", refuse)
    patched = Trace()
    run_pipeline(inst, cfg, trace=patched)
    assert patched.render() == plain.render()


def test_trace_collect_agrees_with_pipeline_metrics():
    cases = [
        (90, 0.08, PipelineConfig(seed=6, k1=2, phase2_degree_threshold=5)),
        # phase-2 dropouts sleep through the window and wake again in phase 3
        (512, 8 / 512, PipelineConfig(seed=1, k1=1, phase2_degree_threshold=10)),
    ]
    for n, p, cfg in cases:
        inst = make_default_instance(generate("gnp", n, seed=cfg.seed, param=p))
        trace = Trace()
        coloring, m = run_pipeline(inst, cfg, trace=trace)
        rebuilt = collect(trace, coloring, inst, cfg)
        assert rebuilt.worst_case_awake == m.worst_case_awake
        assert rebuilt.average_awake == m.average_awake
        assert rebuilt.total_rounds == m.total_rounds
        assert rebuilt.decay_histogram == m.decay_histogram
        assert rebuilt.validity == m.validity
        assert rebuilt.per_node == m.per_node
        assert rebuilt.phase_awake == m.phase_awake
        assert rebuilt.phase_rounds == m.phase_rounds


def test_collect_detects_a_trace_missing_a_term_event():
    g = build_graph([], [0, 1])
    inst = make_default_instance(g)
    cfg = PipelineConfig(seed=1)
    trace = Trace()
    coloring, _ = run_pipeline(inst, cfg, trace=trace)
    corrupted = dict(coloring.assignment)
    corrupted[0] = 0
    trace = _without_term_of_node_0(trace)
    with pytest.raises(InternalError):
        collect(trace, _coloring(inst, {1: corrupted.get(1, 0), 0: 5}), inst, cfg)


def test_collect_rejects_a_terminated_node_without_a_color():
    # the trace is whole, but the coloring lacks a node that terminated
    inst = make_default_instance(generate("gnp", 40, seed=2, param=0.15))
    cfg = PipelineConfig(seed=2)
    trace = Trace()
    coloring, _ = run_pipeline(inst, cfg, trace=trace)
    partial = {v: c for v, c in coloring.assignment.items() if v != 0}
    with pytest.raises(InternalError, match="node 0 terminated"):
        collect(trace, _coloring(inst, partial), inst, cfg)
    with pytest.raises(InternalError, match="node 0 terminated"):
        collect(trace, _coloring(inst, {**partial, 0: 0}), inst, cfg)


def test_collect_rejects_a_coloring_over_other_nodes():
    # the trace is whole and the colors proper, but the coloring names node
    # 40 where the instance has node 0
    inst = make_default_instance(generate("gnp", 40, seed=2, param=0.15))
    cfg = PipelineConfig(seed=2)
    trace = Trace()
    coloring, _ = run_pipeline(inst, cfg, trace=trace)
    assert collect(trace, coloring, inst, cfg).validity == "proper_total"
    other = Coloring((*inst.graph.nodes[1:], 40), coloring.color[1:] + coloring.color[:1])
    with pytest.raises(InternalError, match="over other nodes"):
        collect(trace, other, inst, cfg)


def test_collect_rejects_a_node_that_never_terminated():
    # an uncolored node without a term event: a run that never finished
    inst = make_default_instance(generate("gnp", 40, seed=2, param=0.15))
    cfg = PipelineConfig(seed=2)
    trace = Trace()
    coloring, _ = run_pipeline(inst, cfg, trace=trace)
    trace = _without_term_of_node_0(trace)
    partial = {v: c for v, c in coloring.assignment.items() if v != 0}
    with pytest.raises(InternalError, match="node 0 never terminated"):
        collect(trace, _coloring(inst, partial), inst, cfg)


def _coloring(inst, assignment):
    """The instance's coloring that `assignment`, id -> color, gives."""
    return Coloring(inst.graph.nodes, [assignment.get(v, 0) for v in inst.graph.nodes])


def _without_term_of_node_0(trace):
    """A copy of `trace` without node 0's term event."""
    kept = Trace()
    for e in trace.node_events:
        if not (e[1] == 0 and e[2] == "term"):
            kept.nodes(e[0], [e[1]], [e[2]])
    for e in trace.msg_events:
        kept.messages(e[0], [e[1]], [1], [e[2]], [e[3]])
    return kept


def test_empty_graph_pipeline():
    g = build_graph([], list(range(50)))
    inst = make_default_instance(g)
    _, m = run_pipeline(inst, PipelineConfig(seed=77))
    assert m.validity == "proper_total"
    # worst case: survive all of phase 1, then preliminary + leaf in phase 3
    assert m.worst_case_awake <= 2 * default_k1(50) + 2


@st.composite
def admissible_instances(draw):
    """Small graphs, arbitrary distinct ids, irregular lists of size >= deg+1."""
    n = draw(st.integers(min_value=1, max_value=9))
    # the id bit size sets phase 3's palette schedule, so vary it first
    bits = draw(st.integers(min_value=max(1, (n - 1).bit_length()), max_value=70))
    ids = draw(st.lists(st.integers(min_value=0, max_value=2**bits - 1),
                        min_size=n, max_size=n, unique=True))
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = build_graph([e for e, k in zip(pairs, keep) if k], ids)
    lists = {}
    for v in ids:
        size = len(graph.adjacency[v]) + 1 + draw(st.integers(min_value=0, max_value=2))
        lists[v] = tuple(draw(st.lists(st.integers(min_value=1, max_value=40),
                                       min_size=size, max_size=size, unique=True)))
    return make_instance(graph, lists)


@given(
    inst=admissible_instances(),
    k1=st.sampled_from([None, 1]),
    threshold=st.sampled_from([None, 2, 3]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_every_admissible_instance_gets_a_proper_list_coloring(inst, k1, threshold, seed):
    cfg = PipelineConfig(k1=k1, phase2_degree_threshold=threshold, seed=seed)
    trace = Trace()
    coloring, metrics = run_pipeline(inst, cfg, trace=trace)
    assert metrics.validity == "proper_total"
    colors = coloring.assignment
    assert all(colors[v] in inst.lists[v] for v in inst.graph.nodes)
    assert all(colors[u] != colors[v] for u, v in inst.graph.edges())
    rebuilt = collect(trace, coloring, inst, cfg)
    assert rebuilt.per_node == metrics.per_node
    assert rebuilt.phase_awake == metrics.phase_awake
    assert rebuilt.phase_rounds == metrics.phase_rounds
    assert rebuilt.decay_histogram == metrics.decay_histogram
    assert rebuilt.total_rounds == metrics.total_rounds
    resolved = cfg.resolve(inst.graph.node_count)
    p1 = assert_same_phase1(inst, resolved.k1, seed)
    residual = p1.residual
    if residual is not None:
        _assert_valid_residual(residual, inst)
        p2, _ = assert_same_phase2(residual, resolved.phase2_degree_threshold,
                                   PHASE2_ITERATION_CAP, seed)
        if p2.residual is not None:
            _assert_valid_residual(p2.residual, inst)
        s2, s3 = cfg.phase_boundaries(inst.graph.node_count)
        if s3 > s2:
            residual = p2.residual
    if residual is not None:
        assert_same_phase3(residual)


def _assert_valid_residual(residual, inst):
    """What `make_instance` would check of a residual, which phases 1 and 2
    build without it: sorted lists of distinct positive colors, each longer
    than its node's degree and a subsequence of the node's original list."""
    assert residual == make_instance(residual.graph, residual.lists)
    for v, lst in residual.lists.items():
        original = iter(inst.lists[v])
        assert all(c in original for c in lst), v


def test_default_lists_are_shared_per_degree_and_left_intact():
    inst = make_default_instance(generate("gnp", 300, seed=6, param=0.02))
    g = inst.graph
    by_degree = {}
    for v, degree in zip(g.nodes, g.degrees()):
        assert by_degree.setdefault(degree, inst.lists[v]) is inst.lists[v]
    assert len(by_degree) < len(g.nodes)
    # the kernels prune copies, never the shared tuples
    coloring, metrics = run_pipeline(inst, PipelineConfig(seed=6, k1=1,
                                                          phase2_degree_threshold=3))
    assert metrics.validity == "proper_total"
    assert {2, 3} <= {ph for _a, _t, ph in metrics.per_node.values()}
    for v, degree in zip(g.nodes, g.degrees()):
        assert inst.lists[v] == tuple(range(1, degree + 2))


# Ids past the interpreter's 4,300-digit str() limit: every error message that
# names a node prints it in full through graph.format_decimal
_A, _B = 10**4400, 10**4400 + 1


class _SendsToStranger:
    def initial_state(self, ctx):
        return None

    def on_round(self, ctx, inbox):
        return Action(sends={_B: "hi"})


def _emptied():
    return ColoringInstance(build_graph([], [_A]), [()])


def _collect(events, colors=((_A, 1),)):
    trace = Trace()
    for e in events:
        trace.nodes(e[0], [e[1]], [e[2]])
    inst = make_default_instance(build_graph([], [_A]))
    collect(trace, _coloring(inst, dict(colors)), inst, PipelineConfig())


# path -> (error type, the ids its message names, the call)
_HUGE_ID_ERRORS = {
    "phase1-out-of-colors": (AlgorithmInvariantViolation, [_A],
                             lambda: phase1.run_phase1(_emptied(), 1, 0)),
    "phase1-engine-out-of-colors": (AlgorithmInvariantViolation, [_A],
                                    lambda: phase1.simulate_phase1(_emptied(), 1, 0)),
    "missing-list": (InstanceError, [_A],
                     lambda: make_instance(build_graph([], [_A]), {})),
    "list-for-unknown-node": (InstanceError, [_A], lambda: make_instance(
        build_graph([], [_B]), {_B: (1,), _A: (1,)})),
    "collect-unknown-node": (InternalError, [_B], lambda: _collect([(1, _B, "term")])),
    "collect-terminated-twice": (InternalError, [_A],
                                 lambda: _collect([(1, _A, "term"), (2, _A, "term")])),
    "collect-never-terminated": (InternalError, [_A], lambda: _collect([(1, _A, "cont")])),
    "collect-no-color": (InternalError, [_A], lambda: _collect([(1, _A, "term")], {})),
    "engine-non-neighbor": (ProgramError, [_A, _B], lambda: run_simulation(
        build_graph([], [_A, _B]), _SendsToStranger(), None, 0, round_cap=1)),
    "linial-no-point": (AlgorithmInvariantViolation, [_A],
                        lambda: phase3.linial_step(_A, [_A], 3, 1, _A)),
    "phase3-no-free-color": (AlgorithmInvariantViolation, [_A],
                             lambda: phase3.run_phase3(_emptied())),
    "phase3-engine-no-free-color": (AlgorithmInvariantViolation, [_A],
                                    lambda: phase3.simulate_phase3(_emptied())),
}


@pytest.mark.parametrize("path", sorted(_HUGE_ID_ERRORS))
def test_error_messages_print_ids_past_the_digit_limit(path):
    error, ids, call = _HUGE_ID_ERRORS[path]
    with pytest.raises(error) as err:
        call()
    assert all(format_decimal(v) in str(err.value) for v in ids)


def test_pipeline_peak_memory_above_the_instance():
    # tracemalloc peak of run_pipeline on gnp 2^14, expected degree 8, seed 3,
    # measured on top of the instance: 6.4 MB while phase outcomes and the run
    # held id-keyed dicts of n entries, 3.7 MB with position-indexed lists
    # from the kernel to RunMetrics; the bound sits between the two
    n = 2**14
    inst = make_default_instance(generate("gnp", n, seed=3, param=8 / n))
    tracemalloc.start()
    try:
        _, metrics = run_pipeline(inst, PipelineConfig(seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert metrics.validity == "proper_total"
    assert peak < 4.5e6


def test_live_memory_per_node_after_each_stage():
    # tracemalloc live bytes per node on gnp 4096, expected degree 8, seed 3,
    # after generate, make_default_instance and run_pipeline (its coloring
    # and metrics kept): 177 / 214 / 268 B while the graph held a tuple of
    # neighbors per node and the instance and the coloring an n-entry
    # id-keyed dict each, 80 / 90 / 117 B with flat position-indexed
    # storage; the bounds sit between the two
    n = 4096
    gc.collect()
    tracemalloc.start()
    try:
        g = generate("gnp", n, seed=3, param=8 / n)
        live = [tracemalloc.get_traced_memory()[0]]
        inst = make_default_instance(g)
        live.append(tracemalloc.get_traced_memory()[0])
        coloring, metrics = run_pipeline(inst, PipelineConfig(seed=3))
        live.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert metrics.validity == "proper_total" and len(coloring.assignment) == n
    per_node = [b / n for b in live]
    assert per_node[0] <= 130 and per_node[1] <= 150 and per_node[2] <= 190, per_node


def test_read_instance_peak_memory_per_node(tmp_path):
    # tracemalloc peak of read_instance on gnp 4096, expected degree 8, seed 3,
    # per node: 935-965 B while the reader held a list of (id, colors) pairs
    # beside the id-keyed dict and the endpoint list until it returned,
    # 697-731 B with one id-keyed dict and the endpoints released once the
    # graph is built; the bound sits between the two
    n = 4096
    inst = make_default_instance(generate("gnp", n, seed=3, param=8 / n))
    path = tmp_path / "g.dlc"
    write_instance(inst, str(path))
    tracemalloc.start()
    try:
        back = read_instance(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == inst
    assert peak / n <= 850


@pytest.mark.parametrize("overrides", [{}, {"k1": 1, "phase2_degree_threshold": 10}],
                         ids=["default", "residual"])
def test_trace_costs_few_bytes_per_event(overrides):
    # tracemalloc peak of a traced run_pipeline over an untraced one, per
    # event, on gnp 4096, expected degree 8, seed 3: 75.7 (default) and
    # 79.4 B (residual) with one tuple per event, 23.8 and 22.3 B with the
    # events held as columns, 10.0 and 10.0 B with each round and each
    # message sender held once per run; the bound sits between the last two
    n = 4096
    inst = make_default_instance(generate("gnp", n, seed=3, param=8 / n))
    cfg = PipelineConfig(seed=3, **overrides)
    peaks = []
    for trace in (None, Trace()):
        tracemalloc.start()
        try:
            _, metrics = run_pipeline(inst, cfg, trace=trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert metrics.validity == "proper_total"
        peaks.append(peak)
    events = len(trace.node_events) + len(trace.msg_events)
    assert events > 100_000
    assert (peaks[1] - peaks[0]) / events <= 16


def test_run_retains_little_beyond_the_instance():
    # what a run's coloring and metrics keep alive on gnp 2^14, expected
    # degree 8, seed 3: 2.23 MB while per_node was a dict of n tuples, 0.88 MB
    # as a view over the run's position lists; the bound sits between the two
    n = 2**14
    inst = make_default_instance(generate("gnp", n, seed=3, param=8 / n))
    tracemalloc.start()
    try:
        coloring, metrics = run_pipeline(inst, PipelineConfig(seed=3))
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert metrics.validity == "proper_total" and len(coloring.assignment) == n
    assert len(metrics.per_node) == n
    assert kept < 1.5e6
