import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import HUGE_ID_DIGITS, HUGE_ID_DLC, reference_gnp_edges
from sleepcolor.errors import InstanceError, ParseError
from sleepcolor.graph import (
    _GNP_BATCH,
    _gnp_edges,
    build_graph,
    format_decimal,
    generate,
    make_default_instance,
    make_instance,
    parse_decimal,
    read_instance,
    write_instance,
)


def test_single_isolated_node():
    g = build_graph([], [7])
    assert g.node_count == 1
    assert g.max_degree == 0
    assert g.adjacency[7] == ()


def test_path_of_three():
    g = build_graph([(1, 2), (2, 3)], [1, 2, 3])
    assert g.max_degree == 2
    assert g.adjacency[2] == (1, 3)
    assert g.edges() == [(1, 2), (2, 3)]


def test_duplicate_edge_after_normalization_rejected():
    with pytest.raises(InstanceError, match=r"duplicate edge \(1,2\)"):
        build_graph([(1, 2), (2, 1)], [1, 2])


def test_self_loop_rejected():
    with pytest.raises(InstanceError):
        build_graph([(1, 1)], [1])


def test_duplicate_node_id_rejected():
    with pytest.raises(InstanceError):
        build_graph([], [1, 1])


def test_unknown_endpoint_rejected():
    with pytest.raises(InstanceError):
        build_graph([(1, 5)], [1, 2])


def test_empty_node_set_rejected():
    with pytest.raises(InstanceError):
        build_graph([], [])


def test_build_graph_peak_memory():
    # tracemalloc peak of build_graph on gnp 2^14, expected degree 8, seed 1,
    # with the edges and ids built beforehand: 5.5 MB while every adjacency
    # list and its tuple were alive at once, 3.7 MB with each list replaced
    # by its tuple after its duplicate scan; the bound sits between the two
    n = 2**14
    edges, ids = list(_gnp_edges(n, 8 / n, 1)), list(range(n))
    tracemalloc.start()
    try:
        g = build_graph(edges, ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.node_count == n
    assert peak < 4.4e6


def test_default_instance_triangle():
    g = generate("clique", 3, seed=0)
    inst = make_default_instance(g)
    assert all(inst.lists[v] == (1, 2, 3) for v in g.nodes)


def test_default_instance_isolated_and_star():
    g = build_graph([], [0])
    assert make_default_instance(g).lists[0] == (1,)
    star = generate("star", 5, seed=0)
    inst = make_default_instance(star)
    assert inst.lists[0] == (1, 2, 3, 4, 5)
    assert all(inst.lists[v] == (1, 2) for v in star.nodes if v != 0)


def test_make_instance_rejects_short_list():
    g = build_graph([(0, 1), (1, 2)], [0, 1, 2])
    with pytest.raises(InstanceError):
        make_instance(g, {0: (1, 2), 1: (1, 2), 2: (1, 2)})  # node 1 has deg 2


def test_make_instance_rejects_nonpositive_and_duplicate_colors():
    g = build_graph([], [0])
    with pytest.raises(InstanceError):
        make_instance(g, {0: (0,)})
    with pytest.raises(InstanceError):
        make_instance(g, {0: (2, 2)})


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_cycle_and_clique_shapes():
    c5 = generate("cycle", 5, seed=99)
    assert c5.max_degree == 2 and c5.edge_count() == 5
    k4 = generate("clique", 4, seed=99)
    assert k4.max_degree == 3 and k4.edge_count() == 6


def test_cycle_needs_three_nodes():
    with pytest.raises(InstanceError):
        generate("cycle", 2, seed=0)


def test_gnp_seed_determinism():
    a = generate("gnp", 100, seed=5, param=0.1)
    b = generate("gnp", 100, seed=5, param=0.1)
    assert a.edges() == b.edges()
    c = generate("gnp", 100, seed=6, param=0.1)
    assert a.edges() != c.edges()


def test_gnp_edge_count_plausible():
    g = generate("gnp", 200, seed=1, param=0.1)
    expect = 0.1 * 200 * 199 / 2
    assert 0.6 * expect < g.edge_count() < 1.4 * expect


def test_gnp_extremes():
    assert generate("gnp", 50, seed=1, param=0.0).edge_count() == 0
    assert generate("gnp", 10, seed=1, param=1.0).edge_count() == 45


@pytest.mark.parametrize("n", [2, 3, 64, 1000, 3000])
def test_gnp_edges_equal_the_scalar_reference(n):
    spans_three_batches = False
    for p in (1e-9, 1e-3, min(1.0, 8 / n), 0.5, 0.999):
        if p * n * (n - 1) / 2 > 50_000:          # keep every case cheap
            continue
        for seed in (0, 1, 2**64 - 1):
            edges = list(_gnp_edges(n, p, seed))
            assert edges == reference_gnp_edges(n, p, seed), (n, p, seed)
            # one draw per edge and one past the last pair
            spans_three_batches |= len(edges) + 1 > 2 * _GNP_BATCH
    assert spans_three_batches == (n == 3000)


def test_gnp_probability_outside_the_unit_interval_rejected():
    # the edges stream into build_graph, which raises on the first draw
    for p in (1.5, -0.1):
        with pytest.raises(InstanceError, match="probability must be in"):
            generate("gnp", 16, 0, p)


def test_regular_generator():
    g = generate("regular", 16, seed=3, param=4)
    assert all(len(nbrs) == 4 for nbrs in g.neighbors)
    assert generate("regular", 16, seed=3, param=4).edges() == g.edges()


def test_regular_parameter_validation():
    with pytest.raises(InstanceError):
        generate("regular", 5, seed=0, param=3)       # odd n*d
    with pytest.raises(InstanceError):
        generate("regular", 4, seed=0, param=4)       # d >= n


def test_unknown_family():
    with pytest.raises(InstanceError):
        generate("torus", 10, seed=0)


@given(
    family=st.sampled_from(["path", "cycle", "clique", "star", "gnp"]),
    n=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_generated_graphs_are_symmetric_with_true_max_degree(family, n, seed):
    g = generate(family, n, seed=seed, param=0.2 if family == "gnp" else None)
    for u in g.nodes:
        for v in g.adjacency[u]:
            assert u != v
            assert u in g.adjacency[v]
    assert g.max_degree == max(len(g.adjacency[v]) for v in g.nodes)


@st.composite
def _graph_inputs(draw):
    """Distinct ids (some >= 2**63), a simple edge set in shuffled order with
    random orientation, and a nonempty subset of ids to keep."""
    ids = draw(st.lists(st.one_of(st.integers(0, 300), st.integers(2**63, 2**70)),
                        min_size=1, max_size=12, unique=True))
    pairs = [(u, v) for k, u in enumerate(ids) for v in ids[k + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    keep = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    return ids, edges, keep


@given(_graph_inputs())
def test_position_layout_matches_the_edges(inputs):
    ids, edges, keep = inputs
    g = build_graph(edges, ids)
    assert g.nodes == tuple(sorted(ids))
    position = {v: i for i, v in enumerate(g.nodes)}
    for i, nbrs in enumerate(g.neighbors):
        assert list(nbrs) == sorted(set(nbrs))
        assert all(i in g.neighbors[j] for j in nbrs)
        assert nbrs == tuple(position[u] for u in g.adjacency[g.nodes[i]])
    normalized = sorted((min(u, v), max(u, v)) for u, v in edges)
    assert g.edges() == normalized and g.edge_count() == len(edges)
    degree = {v: 0 for v in ids}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert g.max_degree == max(degree.values())
    kept = set(keep)
    assert g.induced(sorted(position[v] for v in kept)) == build_graph(
        [(u, v) for u, v in edges if u in kept and v in kept], keep)


def test_induced_subgraph():
    g = generate("cycle", 6, seed=0)
    sub = g.induced([0, 1, 2, 4])             # positions, and here also ids
    assert sub.nodes == (0, 1, 2, 4)
    assert sub.adjacency[1] == (0, 2)
    assert sub.adjacency[4] == ()
    assert sub.max_degree == 2


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def test_round_trip_default_k3(tmp_path):
    inst = make_default_instance(generate("clique", 3, seed=0))
    path = tmp_path / "k3.dlc"
    write_instance(inst, str(path))
    back = read_instance(str(path))
    assert back.graph.nodes == inst.graph.nodes
    assert back.graph.adjacency == inst.graph.adjacency
    assert back.lists == inst.lists


def test_round_trip_irregular_instance(tmp_path):
    g = generate("gnp", 30, seed=2, param=0.15)
    lists = {v: tuple(range(v + 1, v + len(nbrs) + 3))
             for v, nbrs in zip(g.nodes, g.neighbors)}
    inst = make_instance(g, lists)
    path = tmp_path / "irr.dlc"
    write_instance(inst, str(path))
    back = read_instance(str(path))
    assert back.lists == inst.lists and back.graph.adjacency == inst.graph.adjacency


def test_read_rejects_inadmissible_list(tmp_path):
    path = tmp_path / "bad.dlc"
    path.write_text(
        "dlc 1 3 2\nnode 0 1 2\nnode 1 1 2\nnode 2 1 2\nedge 0 1\nedge 1 2\n"
    )
    with pytest.raises(InstanceError):
        read_instance(str(path))


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.dlc"
    path.write_text("")
    with pytest.raises(ParseError):
        read_instance(str(path))


def test_read_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "mal.dlc"
    path.write_text("dlc 1 1 0\nnode zero 1\n")
    with pytest.raises(ParseError) as err:
        read_instance(str(path))
    assert err.value.line == 2


# a numeral is an optional "-" and ASCII digits, at any length; the "+" and
# "_" that `int` also takes are parse errors on every kind of line
_NUMERAL_LINES = {
    "header": ("dlc 1 {} 0\n", 1, "non-integer header field"),
    "node-id": ("dlc 1 1 0\nnode {} 1\n", 2, "non-integer field in node line"),
    "node-color": ("dlc 1 1 0\nnode 1 {}\n", 2, "non-integer field in node line"),
    "edge": ("dlc 1 2 1\nnode 0 1 2\nnode 3 1 2\nedge 0 {}\n", 4,
             "non-integer field in edge line"),
}


@pytest.mark.parametrize("numeral", ["1_0", "+3", "+" + HUGE_ID_DIGITS[0]],
                         ids=["underscore", "plus", "plus-past-the-digit-limit"])
@pytest.mark.parametrize("kind", sorted(_NUMERAL_LINES))
def test_read_numerals_are_minus_and_digits_only(tmp_path, kind, numeral):
    text, line, message = _NUMERAL_LINES[kind]
    path = tmp_path / "n.dlc"
    path.write_text(text.format(numeral))
    with pytest.raises(ParseError, match=message) as err:
        read_instance(str(path))
    assert err.value.line == line


def test_read_header_numbers_past_the_digit_limit(tmp_path):
    path = tmp_path / "h.dlc"
    big = HUGE_ID_DIGITS[0]
    for text, message in ((f"dlc 1 {big} 0\n", f"header declares {big} nodes"),
                          (f"dlc 1 0 {big}\n", f"header declares {big} edges"),
                          (f"dlc {big} 0 0\n", f"unsupported format version {big}")):
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_instance(str(path))
        assert message in str(err.value)


def test_read_negative_numerals_reach_their_instance_error(tmp_path):
    path = tmp_path / "neg.dlc"
    for text, message in (("dlc 1 1 0\nnode -1 1\n", "non-negative"),
                          ("dlc 1 1 0\nnode 1 -2\n", "positive")):
        path.write_text(text)
        with pytest.raises(InstanceError, match=message):
            read_instance(str(path))


def test_read_allows_comments_and_checks_counts(tmp_path):
    path = tmp_path / "c.dlc"
    path.write_text("# a comment\ndlc 1 1 0\n# another\nnode 5 1\n")
    inst = read_instance(str(path))
    assert inst.graph.nodes == (5,)
    bad = tmp_path / "counts.dlc"
    bad.write_text("dlc 1 2 0\nnode 0 1\n")
    with pytest.raises(ParseError):
        read_instance(str(bad))


def test_ids_past_the_digit_limit_read_and_write_back(tmp_path):
    path = tmp_path / "huge.dlc"
    path.write_text(HUGE_ID_DLC)
    inst = read_instance(str(path))
    a = 10**4400
    assert inst.graph.nodes == (a, a + 1)
    assert inst.lists == {a: (1, 2), a + 1: (3,)}
    back = tmp_path / "back.dlc"
    write_instance(inst, str(back))
    assert back.read_bytes() == path.read_bytes()
    bad = tmp_path / "bad.dlc"
    bad.write_text(f"dlc 1 1 0\nnode {HUGE_ID_DIGITS[0]}x 1\n")
    with pytest.raises(ParseError) as err:
        read_instance(str(bad))
    assert err.value.line == 2


def test_read_non_ascii_byte_reports_its_own_line(tmp_path):
    # the byte sits past the decoder's first chunk, on line 3002
    path = tmp_path / "latin.dlc"
    path.write_bytes(b"dlc 1 1 0\n" + b"# padding padding padding\n" * 3000
                     + b"node 1 \xff\n")
    with pytest.raises(ParseError, match="non-ASCII byte 0xff") as err:
        read_instance(str(path))
    assert err.value.line == 3002


@pytest.mark.parametrize("digits", [512, 513, 1100, 4300])
def test_decimal_conversion_by_halves_equals_str(digits):
    # within the interpreter's limit, so str() and int() are the reference;
    # powers of ten leave runs of zeros in the lower halves
    top = 10**digits
    for x in (top // 10, top - 1, top // 7, top // 10 + 1, 3 * top // 10 + 10**(digits // 2)):
        text = str(x)
        assert format_decimal(x) == text and format_decimal(-x) == "-" + text
        assert parse_decimal(text) == x and parse_decimal("-" + text) == -x
        assert parse_decimal("+" + text) == x
