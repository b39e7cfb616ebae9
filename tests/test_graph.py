import hashlib
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import HUGE_ID_DIGITS, HUGE_ID_DLC, reference_gnp_edges
from sleepcolor.errors import InstanceError, ParseError
from sleepcolor.graph import (
    _GNP_BATCH,
    _gnp_edges,
    _regular_edges,
    build_graph,
    decimal_ints,
    format_decimal,
    generate,
    make_default_instance,
    make_instance,
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
    lo, hi = _gnp_edges(n, 8 / n, 1)
    edges, ids = list(zip(lo, hi)), list(range(n))
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
    for p in (5e-324, 1e-17, 1e-9, 1e-3, min(1.0, 8 / n), 0.5, 0.999):
        if p * n * (n - 1) / 2 > 50_000:          # keep every case cheap
            continue
        for seed in (0, 1, 2**64 - 1):
            lo, hi = _gnp_edges(n, p, seed)
            edges = list(zip(lo, hi))
            assert edges == reference_gnp_edges(n, p, seed), (n, p, seed)
            # one draw per edge and one past the last pair
            spans_three_batches |= len(edges) + 1 > 2 * _GNP_BATCH
    assert spans_three_batches == (n == 3000)


def test_gnp_probability_outside_the_unit_interval_rejected():
    # _gnp_edges checks p before it draws
    for p in (1.5, -0.1):
        with pytest.raises(InstanceError, match="probability must be in"):
            generate("gnp", 16, 0, p)


def test_regular_generator():
    g = generate("regular", 16, seed=3, param=4)
    assert list(g.degrees()) == [4] * 16
    assert generate("regular", 16, seed=3, param=4).edges() == g.edges()


def test_regular_parameter_validation():
    with pytest.raises(InstanceError):
        generate("regular", 5, seed=0, param=3)       # odd n*d
    with pytest.raises(InstanceError):
        generate("regular", 4, seed=0, param=4)       # d >= n


# SHA-256 of repr(edge list) from `_regular_edges` before it found stubs with a
# Fenwick tree: (8, 6) and (10, 8) restart, (12, 10, 257) and (20, 16, 62)
# also match one stub by the fallback scan
_REGULAR_EDGES_SHA = {
    (8, 6, 0): "919264342add001b9871d53fdddeb783272144b8eea891b3443435f24a4e19b2",
    (8, 6, 3): "d08bbfcd35f73c9f9b738c6e6de36fa039c73c51e65f87adce1e378be7d23cdc",
    (10, 8, 2): "ec7d0c0f693deeab306ab008b4849d8b6dddf0820c7228a60a5f3816c6816830",
    (10, 8, 4): "2f7fd5f2fa8d73e5f58851b351aa6eb2a8682f03d2769ec07e4b271e65b9d4a4",
    (12, 10, 257): "642be01f3374b11726d746ce5e551818184a07de0588335fc7b63fddf061fc25",
    (20, 16, 62): "6b13d20f975f1fef67aa5c57b249aa551ac39a85807e2b0d8d80f2068aa26353",
    (16, 3, 1): "ab2bbcd9dcf7664b02946f4de8a3e8cfb09bc3e1b45a222c5cf079b9a8991d69",
    (64, 8, 5): "bc6a41224ea49fa8844de91e2ed0f856a497f80e612c12d9c57f8eedd40e61f2",
    (1000, 7, 2): "f5a0673fadcd1453e798cf11565c9fb4593c4b862cbb6f9e0c66f450dcff57fe",
    (4096, 8, 1): "1d68a89c65aa3efbf5b5c9e3a024760a2150fc093f77782c8eed01dd9cabe487",
}


@pytest.mark.parametrize("n,d,seed", sorted(_REGULAR_EDGES_SHA))
def test_regular_edges_are_pinned(n, d, seed):
    lo, hi = _regular_edges(n, d, seed)
    edges = list(zip(lo, hi))
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == _REGULAR_EDGES_SHA[n, d, seed]


# SHA-256 of repr((offsets, flat)) of `generate(family, n, 1, param)` when
# every generator handed `build_graph` one tuple per edge
_GENERATED_SHA = {
    ("path", 1000, None): "459670fb6fbaa544b1efe4bc01a50b3c86973ebe2afdbf41ecfe933f72924117",
    ("cycle", 1000, None): "3734959542b338458fa505c1a998a80cf680259224cba48cf178aeb1947bf6b0",
    ("clique", 60, None): "743e54f0a86a41226d551b1b7c5064782b341e32f05e34aaf3a1af17c115cb0d",
    ("star", 1000, None): "2b4ae2362624542a24cef4ce6ab340ea1efd9d300be66f7628673bf23dbe3cd4",
    ("regular", 1000, 8): "fcd3f6e9d6f685b6054212d64a1d72102444f65065d2d4fb094b31aa73694080",
    ("gnp", 2**16, 8 / 2**16): "bd38226796e4b6cd1ff5876dcfe1752381588cf15861c41ee8cdcc6e2e9445c3",
}


@pytest.mark.parametrize("family,n,param", list(_GENERATED_SHA))
def test_generated_rows_are_pinned(family, n, param):
    g = generate(family, n, 1, param)
    rows = repr((g.offsets.tolist(), g.flat.tolist()))
    assert hashlib.sha256(rows.encode()).hexdigest() == _GENERATED_SHA[family, n, param]


@pytest.mark.parametrize("family,param", [
    ("path", None), ("cycle", None), ("clique", None), ("star", None),
    ("gnp", 0.15), ("gnp", 1.0), ("regular", 4),
])
def test_generators_and_the_id_front_end_agree(family, param):
    # the generators' presorted columns and build_graph's sort of the same
    # edges, shuffled and randomly reoriented, give the same graph
    for n in (3, 4, 9, 40, 101):
        if family == "regular" and n <= param:
            continue
        for seed in (0, 1, 12345):
            g = generate(family, n, seed, param)
            rng = random.Random(seed * 1000 + n)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
            rng.shuffle(edges)
            ids = list(g.nodes)
            rng.shuffle(ids)
            assert build_graph(edges, ids) == g, (family, n, seed)


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


def _assert_csr(g):
    """The row invariants: n + 1 offsets from 0 to the end of `flat`, every
    row strictly ascending (so without repeats), no self-loop, every edge in
    both ends' rows, and `max_degree` the longest row."""
    off, flat, n = g.offsets, g.flat, len(g.nodes)
    assert len(off) == n + 1 and off[0] == 0 and off[-1] == len(flat)
    for i in range(n):
        row = list(g.row(i))
        assert row == sorted(set(row)) and i not in row
        assert all(0 <= j < n and i in g.row(j) for j in row)
    assert g.max_degree == max(map(len, map(g.row, range(n))))


@given(_graph_inputs())
def test_position_layout_matches_the_edges(inputs):
    ids, edges, keep = inputs
    g = build_graph(edges, ids)
    assert g.nodes == tuple(sorted(ids))
    _assert_csr(g)
    position = {v: i for i, v in enumerate(g.nodes)}
    for i in range(len(g.nodes)):
        assert tuple(g.row(i)) == tuple(position[u] for u in g.adjacency[g.nodes[i]])
    normalized = sorted((min(u, v), max(u, v)) for u, v in edges)
    assert g.edges() == normalized and g.edge_count() == len(edges)
    degree = {v: 0 for v in ids}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert g.max_degree == max(degree.values())
    kept = set(keep)
    sub = g.induced(sorted(position[v] for v in kept))
    _assert_csr(sub)
    assert sub == build_graph([(u, v) for u, v in edges if u in kept and v in kept], keep)


def _write_edges(path, ids, edges):
    """A `.dlc` file with lists 1..n for the ids and the edges as given."""
    lines = [f"dlc 1 {len(ids)} {len(edges)}"]
    lines += [f"node {v} {' '.join(map(str, range(1, len(ids) + 1)))}" for v in ids]
    lines += [f"edge {u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def test_rows_do_not_depend_on_the_edge_order(tmp_path):
    # ids whose positions differ from their values, one of them past 64 bits
    g = generate("gnp", 60, seed=5, param=0.2)
    ids = [3 * v + 7 for v in g.nodes[:-1]] + [2**70]
    rename = dict(zip(g.nodes, ids))
    ascending = [(rename[u], rename[v]) for u, v in g.edges()]
    rng = random.Random(11)
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in ascending]
    rng.shuffle(shuffled)
    reversed_ = [(v, u) if k % 3 else (u, v) for k, (u, v) in enumerate(ascending[::-1])]
    want = build_graph(ascending, ids)
    assert list(want.offsets) == list(g.offsets) and list(want.flat) == list(g.flat)
    for name, edges in (("ascending", ascending), ("reversed", reversed_),
                        ("shuffled", shuffled)):
        path = tmp_path / f"{name}.dlc"
        _write_edges(path, ids[::-1], edges)
        got = read_instance(str(path)).graph
        assert (got.nodes, got.offsets, got.flat) == (want.nodes, want.offsets, want.flat)
        assert build_graph(iter(edges), ids) == want, name


@pytest.mark.parametrize("edges,message", [
    ([(9, 5), (5, 9)], "duplicate edge (5,9)"),
    ([(5, 9), (2**70, 5), (9, 5)], "duplicate edge (5,9)"),
    # the smallest repeated edge is named, whatever order the file has
    ([(9, 2**70), (2**70, 9), (5, 9), (9, 5)], "duplicate edge (5,9)"),
    ([(2**70, 5), (9, 2**70), (5, 2**70), (2**70, 9)], f"duplicate edge (5,{2**70})"),
])
def test_a_repeated_edge_in_either_orientation_is_named(edges, message):
    with pytest.raises(InstanceError) as err:
        build_graph(edges, [9, 5, 2**70])
    assert str(err.value) == message


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
    lists = {v: tuple(range(v + 1, v + degree + 3))
             for v, degree in zip(g.nodes, g.degrees())}
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


def test_read_errors_come_counts_then_duplicate_ids_then_edges(tmp_path):
    path = tmp_path / "dup.dlc"
    for text, error, message in (
            ("dlc 1 3 1\nnode 4 1 2\nnode 4 1 2\nedge 4 9\n", ParseError, "3 nodes"),
            ("dlc 1 2 0\nnode 4 1 2\nnode 4 1 2\nedge 4 9\n", ParseError, "0 edges"),
            ("dlc 1 2 1\nnode 4 1 2\nnode 4 1 2\nedge 4 9\n", InstanceError,
             "duplicate node id"),
            ("dlc 1 2 1\nnode 4 1 2\nnode 5 1 2\nedge 4 9\n", InstanceError,
             "unknown node id")):
        path.write_text(text)
        with pytest.raises(error, match=message):
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


@pytest.mark.parametrize("numeral", [
    "1_0", "+3", "+" + HUGE_ID_DIGITS[0],
    # the "-" begins the lower half that the conversion by halves splits off
    HUGE_ID_DIGITS[0][:2201] + "-" + HUGE_ID_DIGITS[0][2201:],
], ids=["underscore", "plus", "plus-past-the-digit-limit", "minus-inside-past-the-digit-limit"])
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
    # the conversions run under the lowest limit it accepts, so a numeral of
    # over 640 digits is read by halves; powers of ten leave runs of zeros in
    # the lower halves
    top = 10**digits
    xs = (top // 10, top - 1, top // 7, top // 10 + 1, 3 * top // 10 + 10**(digits // 2))
    texts = [str(x) for x in xs]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for x, text in zip(xs, texts):
            assert format_decimal(x) == text and format_decimal(-x) == "-" + text
            assert decimal_ints((text, "-" + text)) == (x, -x)
    finally:
        sys.set_int_max_str_digits(limit)
