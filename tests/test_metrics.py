import io
from fractions import Fraction

import pytest

from helpers import file_level_verdict

from sleepcolor.coloring import PipelineConfig, run_pipeline
from sleepcolor.errors import UsageError
from sleepcolor.graph import (
    Coloring,
    build_graph,
    generate,
    make_default_instance,
    make_instance,
    write_instance,
)
from sleepcolor.metrics import (
    CSV_FIELDS,
    PerNode,
    RunMetrics,
    aggregate,
    collect,
    nearest_rank,
    validity_verdict,
    write_csv,
)
from sleepcolor.simcore import Trace


def _metrics(awake=(3, 1), term=(5, 1), phase=b"\3\1", phase1_rounds=2,
             valid="proper_total"):
    """A run's metrics from its per-node lists, on the nodes 0 .. len(awake)-1."""
    return RunMetrics(
        per_node=PerNode(tuple(range(len(awake))), awake, term, phase),
        validity=valid,
        phase2_incomplete=False,
        phase_awake={1: 1, 2: 0, 3: 3},
        phase_rounds={1: phase1_rounds, 2: 0, 3: 3},
    )


def test_run_figures_are_derived_from_the_per_node_lists():
    m = _metrics()
    assert m.worst_case_awake == 3
    assert m.average_awake == Fraction(2)
    assert m.total_rounds == 5
    assert m.decay_histogram == {1: 1}
    for name in ("worst_case_awake", "average_awake", "total_rounds", "decay_histogram"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)


def test_validity_verdicts():
    g = generate("clique", 3, seed=0)
    inst = make_default_instance(g)
    verdict = lambda color: validity_verdict(inst, Coloring(g.nodes, color))
    assert verdict([1, 2, 3]) == "proper_total"
    assert verdict([1, 2, 0]) == "proper_partial"
    assert verdict([1, 1, 3]) == "invalid"      # conflict
    assert verdict([9, 2, 3]) == "invalid"      # off-list
    # ids other than 0..n-1: the path 5 - 9 - big, so 5 and big may share
    big = 2**64 + 5
    g = build_graph([(big, 9), (9, 5)], [big, 9, 5])
    inst = make_instance(g, {5: (1, 2), 9: (1, 2, 3), big: (1, 2)})
    assert verdict([1, 2, 1]) == "proper_total"              # 5, 9, big
    assert verdict([0, 2, 1]) == "proper_partial"
    assert verdict([1, 2, 2]) == "invalid"      # conflict
    assert verdict([3, 2, 1]) == "invalid"      # off-list


def test_validity_verdict_takes_a_coloring_of_the_instance():
    inst = make_default_instance(generate("path", 3, seed=0))
    # proper colors, but over other nodes: nodes 0, 1 and 3
    assert validity_verdict(inst, Coloring((0, 1, 3), [1, 2, 1])) == "invalid"
    assert validity_verdict(inst, Coloring((0, 1), [1, 2])) == "invalid"
    assert validity_verdict(inst, Coloring((0, 1, 2), [1, 2, 1])) == "proper_total"
    with pytest.raises(AttributeError):
        validity_verdict(inst, {0: 1, 1: 2, 2: 1})


def test_injected_fault_detected():
    g = generate("cycle", 8, seed=1)
    inst = make_default_instance(g)
    coloring, metrics = run_pipeline(inst, PipelineConfig(seed=1))
    assert metrics.validity == "proper_total"
    broken = Coloring(coloring.nodes, list(coloring.color))
    broken.color[0] = broken.color[1]
    assert validity_verdict(inst, broken) == "invalid"


def test_verdict_agrees_with_file_level_recheck(tmp_path):
    for seed in range(10):
        g = generate("gnp", 40, seed=seed, param=0.15)
        inst = make_default_instance(g)
        coloring, metrics = run_pipeline(inst, PipelineConfig(seed=seed))
        path = tmp_path / f"i{seed}.dlc"
        write_instance(inst, str(path))
        assert file_level_verdict(str(path), coloring.assignment) == metrics.validity


def test_aggregate_single_run_equals_itself():
    m = _metrics()
    summary = aggregate([m])
    assert summary["runs"] == 1
    assert summary["worst_case_awake"]["mean"] == 3
    assert summary["worst_case_awake"]["max"] == 3
    assert summary["all_valid"]


def test_aggregate_two_runs():
    summary = aggregate([_metrics(awake=(3, 1)), _metrics(awake=(5, 1))])
    assert summary["worst_case_awake"]["max"] == 5
    assert summary["worst_case_awake"]["mean"] == 4


def test_nearest_rank_p95_of_100():
    values = sorted(range(1, 101))
    assert nearest_rank(values, 0.95) == 95
    assert nearest_rank(values, 0.50) == 50


def test_aggregate_empty_raises():
    with pytest.raises(UsageError):
        aggregate([])


def test_csv_schema_and_padding():
    m = _metrics()
    row = m.csv_row(seed=7, family="cycle", n=8, param=None, k=3, threshold=8)
    assert len(row) == len(CSV_FIELDS) == 23
    assert row[0] == "7" and row[1] == "cycle"
    assert row[11:] == ["1"] + ["0"] * 11          # decay padded to x12
    buf = io.StringIO()
    write_csv(buf, [row], header_comments=["k1=3"])
    text = buf.getvalue()
    assert text.startswith("# k1=3\n")
    assert text.splitlines()[1] == ",".join(CSV_FIELDS)


def test_csv_keeps_decay_columns_past_x12():
    # 13 phase-1 iterations, one node adopting in each
    m = _metrics(awake=(1,) * 13, term=tuple(range(1, 27, 2)), phase=b"\1" * 13,
                 phase1_rounds=26)
    wide = m.csv_row(seed=1, family="gnp", n=8, param=None, k=13, threshold=8)
    assert len(wide) == len(CSV_FIELDS) + 1 and wide[-1] == "1"
    narrow = _metrics().csv_row(seed=2, family="gnp", n=8, param=None, k=3, threshold=8)
    buf = io.StringIO()
    write_csv(buf, [narrow, wide])
    header, first, second = buf.getvalue().splitlines()
    assert header == ",".join(CSV_FIELDS) + ",x13"
    assert first == ",".join(narrow) + ",0"      # zero decay in x13
    assert second == ",".join(wide)


def test_average_awake_six_decimals():
    m = _metrics(awake=(3, 3, 1), term=(5, 5, 1), phase=b"\3\3\1")
    row = m.csv_row(seed=0, family="path", n=2, param=None, k=1, threshold=8)
    assert row[7] == "2.333333"


def test_per_node_is_an_id_keyed_view_of_the_run():
    g = build_graph([(5, 9), (9, 40), (40, 5), (40, 1000)], [1000, 40, 9, 5, 77])
    inst = make_default_instance(g)
    cfg = PipelineConfig(seed=2)
    trace = Trace()
    coloring, m = run_pipeline(inst, cfg, trace=trace)
    view = m.per_node
    assert isinstance(view, PerNode)
    assert len(view) == 5
    assert list(view) == [5, 9, 40, 77, 1000]
    assert 9 in view and 1000 in view
    for v in (4, 10, 78, 1001):     # below the first node, between two, above the last
        assert v not in view
        with pytest.raises(KeyError):
            view[v]
    values, items = view.values(), view.items()
    assert list(values) == list(values) == [view[v] for v in view]
    assert list(items) == list(items) == [(v, view[v]) for v in view]
    assert all(a >= 1 and t >= a and phase in (1, 2, 3) for a, t, phase in values)
    as_dict = dict(items)
    assert view == as_dict and as_dict == view
    assert view != {**as_dict, 5: (0, 0, 0)}
    rebuilt = collect(trace, coloring, inst, cfg).per_node
    assert isinstance(rebuilt, PerNode)
    assert rebuilt == view


def test_per_node_answers_a_key_of_another_type_like_a_dict():
    view = PerNode((5, 9), [1, 2], [1, 2], b"\1\1")
    as_dict = dict(view.items())
    for key in ("a", None, (5,)):
        assert (key in view) is (key in as_dict) is False
        assert view.get(key) is None
        with pytest.raises(KeyError):
            view[key]
    assert view.get(9.0) == as_dict.get(9.0) == (2, 2, 1)
