"""Graphs, list-coloring instances, generators and instance file I/O.

Node identifiers are arbitrary distinct non-negative integers (not
necessarily 0..n-1).  Colors are positive integers; 0 is reserved as the
"no color yet" sentinel used throughout the coloring pipeline.

Everything per node is stored once, by node position: position i is the
index of an id in the sorted `nodes`.  A `Graph` holds its adjacency as
compressed sparse rows, two flat arrays: node i's neighbors are the
positions flat[offsets[i]:offsets[i+1]], ascending, which is also id
order.  A `ColoringInstance` holds one color list per position, and a
`Coloring` one color per position (0 for none).  These lists are each
datum's one form: the constructors take them, and the kernels, the verdict
and `induced` read them.  The id-keyed forms are derived, for callers at the
edges: `Graph.adjacency`, which the round engine and the node programs use,
is built on first use, and `ColoringInstance.lists` and `Coloring.assignment`
are read-only views that find an id's position with `position`.

Rows are built in two layers.  `_rows` is the core: it takes the edges as
two columns of end positions, checks them for repeats and fills the rows.
`build_graph` is its id front end, which `.dlc` files and every caller with
ids of its own use: it checks the ids and maps each edge's ends to
positions.  The generators make their ids as positions 0..n-1, so they hand
`_rows` ascending columns directly, with no id map and no tuple per edge.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, pairwise, repeat, starmap
from operator import add, floordiv, lt, mod, mul, sub
from typing import Iterable, Iterator, Sequence

from .errors import InstanceError, ParseError
from .rng import Lanes, NodeRng, stream_state

UNCOLORED = 0

# role constants so generator streams never collide with node streams
_GEN_STREAM = 0x67656E                       # "gen"
_GNP_BATCH = 4096                            # most lanes the gnp generator draws at once


def position(nodes: Sequence[int], v) -> int:
    """The position of id v in the sorted `nodes`; KeyError if v is not one
    of them, a key that does not compare with ids included."""
    try:
        i = bisect_left(nodes, v)
    except TypeError:
        raise KeyError(v) from None
    if i == len(nodes) or nodes[i] != v:
        raise KeyError(v)
    return i


class NodeView(Mapping):
    """A read-only id-keyed view over position lists, keyed by the sorted ids
    `nodes`.  A subclass gives `__getitem__`; `Mapping` derives the rest."""

    __slots__ = ()

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self):
        return len(self.nodes)


class PositionView(NodeView):
    """id -> column[i] for the node at position i of the sorted `nodes`;
    nothing is copied, and a lookup finds the id's position with `position`."""

    __slots__ = ("nodes", "column")

    def __init__(self, nodes: Sequence[int], column: Sequence):
        self.nodes, self.column = nodes, column

    def __getitem__(self, v):
        return self.column[position(self.nodes, v)]


class ColorView(PositionView):
    """A `PositionView` of colors without the uncolored nodes."""

    __slots__ = ()

    def __getitem__(self, v):
        c = self.column[position(self.nodes, v)]
        if c == UNCOLORED:
            raise KeyError(v)
        return c

    def __iter__(self):
        return compress(self.nodes, self.column)

    def __len__(self):
        return len(self.column) - self.column.count(UNCOLORED)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph with stable integer node ids, held
    as compressed sparse rows over node positions.

    Node position i is the index of id nodes[i].  Its neighbors' positions
    are flat[offsets[i]:offsets[i+1]], ascending, so also in id order; each
    edge is in `flat` twice, once in each end's row.
    """

    nodes: tuple[int, ...]                       # sorted, distinct
    offsets: array                               # "q", n + 1 row starts in `flat`
    flat: array                                  # "i", the rows one after another
    max_degree: int

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """id -> sorted neighbor ids, derived from the rows on first use."""
        nodes, off, flat = self.nodes, self.offsets, self.flat
        at = nodes.__getitem__
        return {v: tuple(map(at, flat[off[i]:off[i + 1]])) for i, v in enumerate(nodes)}

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def row(self, i: int) -> array:
        """The neighbor positions of node position i, ascending."""
        return self.flat[self.offsets[i]:self.offsets[i + 1]]

    def degrees(self) -> Iterator[int]:
        """Each node's degree, in position order."""
        off = self.offsets
        return map(sub, off[1:], off)

    def edges(self) -> list[tuple[int, int]]:
        nodes, off, flat = self.nodes, self.offsets, self.flat
        return [(u, nodes[j]) for i, u in enumerate(nodes)
                for j in flat[off[i]:off[i + 1]] if j > i]

    def edge_count(self) -> int:
        return len(self.flat) // 2

    def induced(self, keep: Sequence[int]) -> "Graph":
        """Subgraph induced on the ascending node positions `keep` (ids preserved)."""
        new = [-1] * len(self.nodes)             # old position -> new position
        for k, i in enumerate(keep):
            new[i] = k
        off, flat = self.offsets, self.flat
        offsets, rows = array("q", [0]), array("i")
        for i in keep:
            rows.extend([k for k in map(new.__getitem__, flat[off[i]:off[i + 1]]) if k >= 0])
            offsets.append(len(rows))
        return _graph(tuple([self.nodes[i] for i in keep]), offsets, rows)


def _graph(nodes: tuple[int, ...], offsets: array, flat: array) -> Graph:
    return Graph(nodes, offsets, flat, max(map(sub, offsets[1:], offsets), default=0))


def build_graph(edges: Iterable[tuple[int, int]], node_ids: Sequence[int]) -> Graph:
    """Build a graph from explicit edges, consumed in one pass, and node ids.

    The id front end of `_rows`: it rejects duplicate ids and negative ids,
    then self-loops and edges touching unknown ids (each in the order the
    edges come), and maps every edge to its ends' positions, the smaller
    end first.  `_rows` then rejects duplicate edges, the smallest one by
    its ends' positions, and fills the rows.  Isolated nodes are fine.
    """
    if not node_ids:
        raise InstanceError("a graph needs at least one node")
    nodes = tuple(sorted(node_ids))
    positions = {v: i for i, v in enumerate(nodes)}
    if len(positions) != len(nodes):
        raise InstanceError("duplicate node id")
    if nodes[0] < 0:
        raise InstanceError("node ids must be non-negative")

    lo, hi = array("i"), array("i")
    lo_append, hi_append = lo.append, hi.append
    for u, v in edges:
        if u == v:
            raise InstanceError(f"self-loop at node {format_decimal(u)}")
        try:
            i = positions[u]
            j = positions[v]
        except KeyError:
            raise InstanceError(f"edge ({format_decimal(u)},{format_decimal(v)}) "
                                f"touches an unknown node id") from None
        if i < j:
            lo_append(i)
            hi_append(j)
        else:
            lo_append(j)
            hi_append(i)
    del positions
    return _rows(nodes, lo, hi)


def _rows(nodes: tuple[int, ...], lo: array, hi: array) -> Graph:
    """The graph on the sorted distinct ids `nodes` whose edge e joins the
    positions lo[e] < hi[e]: the position-column core of `build_graph`,
    which the generators call directly, since they make their ids as
    positions 0..n-1.

    Unless the columns already ascend strictly, as generated edges do, they
    are sorted in place, and a repeated edge is refused: the smallest one.
    One pass over them in that order then fills every row in ascending
    order: a node hears from its lower neighbors before its higher ones.
    """
    n = len(nodes)
    if not all(starmap(lt, pairwise(zip(lo, hi)))):      # not strictly ascending
        keys = sorted(map(add, map(mul, lo, repeat(n)), hi))    # edge (i, j) as i*n + j
        for a, b in pairwise(keys):
            if a == b:
                i, j = divmod(a, n)
                raise InstanceError(f"duplicate edge ({format_decimal(nodes[i])},"
                                    f"{format_decimal(nodes[j])})")
        # one column at a time, so one temporary array is alive, not two
        lo[:] = array("i", map(floordiv, keys, repeat(n)))
        hi[:] = array("i", map(mod, keys, repeat(n)))
        del keys

    degree = [0] * n
    for i in lo:
        degree[i] += 1
    for j in hi:
        degree[j] += 1
    offsets = array("q", accumulate(degree, initial=0))
    del degree
    nxt = offsets.tolist()                       # the next free slot of each row
    flat = array("i", bytes(8 * len(lo)))
    for i, j in zip(lo, hi):
        flat[nxt[i]] = j
        nxt[i] += 1
        flat[nxt[j]] = i
        nxt[j] += 1
    return _graph(nodes, offsets, flat)


@dataclass(frozen=True)
class ColoringInstance:
    """A (deg+1)-list-coloring problem: a graph plus one color list per node.

    `list_at[i]` is the sorted color list of node position i, and `lists`
    the read-only id-keyed view of it.

    The constructor checks nothing.  Input from outside is validated where
    it enters, by `make_instance` and `read_instance`: every list sorted,
    of distinct positive colors, and longer than its node's degree.
    `make_default_instance` and the residuals that phases 1 and 2 hand on
    are built directly; they keep those properties by construction.

    Lists are read, never changed, so nodes may share one tuple:
    `make_default_instance` gives all nodes of one degree the same tuple,
    and the phase-1 and phase-2 kernel copies a list before its first prune.
    """

    graph: Graph
    list_at: list[tuple[int, ...]]               # position -> sorted color list

    @property
    def lists(self) -> PositionView:
        """id -> sorted color list."""
        return PositionView(self.graph.nodes, self.list_at)


def make_instance(graph: Graph, lists: Mapping[int, Sequence[int]]) -> ColoringInstance:
    """Validate and normalize lists (sorted, deduplicated is an error); nodes
    with equal lists share one tuple."""
    norm: list[tuple[int, ...]] = []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for v, degree in zip(graph.nodes, graph.degrees()):
        if v not in lists:
            raise InstanceError(f"node {format_decimal(v)} has no color list")
        lst = tuple(sorted(lists[v]))
        if len(set(lst)) != len(lst):
            raise InstanceError(f"node {format_decimal(v)}: duplicate color in list")
        if any(c <= 0 for c in lst):
            raise InstanceError(
                f"node {format_decimal(v)}: colors must be positive (0 is reserved)")
        if len(lst) < degree + 1:
            raise InstanceError(
                f"node {format_decimal(v)}: list of size {len(lst)} but degree "
                f"{degree} (needs at least deg+1)"
            )
        norm.append(shared.setdefault(lst, lst))
    extra = set(lists).difference(graph.nodes)
    if extra:
        raise InstanceError(f"lists given for unknown nodes: {_id_list(extra)}")
    return ColoringInstance(graph, norm)


def make_default_instance(graph: Graph) -> ColoringInstance:
    """The (deg+1)-coloring special case: node v gets the list {1, ..., deg(v)+1},
    one tuple per distinct degree, shared by the nodes of that degree."""
    shared = {d: tuple(range(1, d + 2)) for d in set(graph.degrees())}
    return ColoringInstance(graph, list(map(shared.__getitem__, graph.degrees())))


@dataclass
class Coloring:
    """A (possibly partial) coloring by node position: color[i] is the color
    of node nodes[i], 0 for none.  `assignment` is the read-only id-keyed
    view, without the uncolored nodes."""

    nodes: tuple[int, ...]
    color: list[int]

    @property
    def assignment(self) -> ColorView:
        return ColorView(self.nodes, self.color)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

FAMILIES = ("path", "cycle", "clique", "star", "gnp", "regular")


def generate(family: str, n: int, seed: int, param: float | None = None) -> Graph:
    """Generate a graph from one of the supported families.

    Deterministic: the same (family, n, seed, param) always yields the same
    graph.  `param` is the edge probability for gnp and the degree for
    regular; the other families ignore it.  The ids are 0..n-1, and each
    family hands `_rows` its edges as ascending position columns.
    """
    if n < 1:
        raise InstanceError("n must be >= 1")
    if n > sys.maxsize:                          # more ids than a list can hold
        raise InstanceError(f"n must be at most {sys.maxsize}")
    if family == "path":
        columns = array("i", range(n - 1)), array("i", range(1, n))
    elif family == "cycle":
        if n < 3:
            raise InstanceError("a cycle needs n >= 3")
        # (0, 1), (0, n - 1), (1, 2), (2, 3), ..., (n - 2, n - 1)
        columns = array("i", [0, *range(n - 1)]), array("i", [1, n - 1, *range(2, n)])
    elif family == "clique":
        columns = _clique_columns(n)
    elif family == "star":
        columns = array("i", bytes(4 * (n - 1))), array("i", range(1, n))
    elif family == "gnp":
        if param is None:
            raise InstanceError("gnp needs an edge probability parameter")
        columns = _gnp_edges(n, float(param), seed)
    elif family == "regular":
        if param is None:
            raise InstanceError("regular needs a degree parameter")
        if not float(param).is_integer():
            raise InstanceError(f"regular needs an integer degree, got {param}")
        columns = _regular_edges(n, int(param), seed)
    else:
        raise InstanceError(f"unknown family {family!r}")
    return _rows(tuple(range(n)), *columns)


def _clique_columns(n: int) -> tuple[array, array]:
    """Every pair (i, j), i < j, in ascending order, as two columns."""
    lo, hi = array("i"), array("i")
    for i in range(n - 1):
        lo.extend(repeat(i, n - 1 - i))
        hi.extend(range(i + 1, n))
    return lo, hi


def _gnp_edges(n: int, p: float, seed: int) -> tuple[array, array]:
    """G(n,p) by geometric gap-skipping over the C(n,2) pair indexes.

    Returns the edges as two columns of positions, lo[e] < hi[e], in
    ascending pair rank, which is the order `_rows` takes without a sort.

    The gaps come from one SplitMix64 stream (the generator's, see
    `_GEN_STREAM`), word after word, each turned into a uniform in [0, 1)
    with 53 random bits as `NodeRng.uniform01` does.  The words are drawn on
    lanes, in batches of consecutive words sized to the expected number of
    draws (at most `_GNP_BATCH`), so a small graph pays for few lanes.
    """
    if not 0.0 <= p <= 1.0:
        raise InstanceError("gnp probability must be in [0,1]")
    lo, hi = array("i"), array("i")
    if p == 0.0 or n < 2:
        return lo, hi
    if p == 1.0:
        return _clique_columns(n)
    # log(1 - p) is 0.0 once 1 - p rounds to 1.0 (p <= 2**-54); log1p is not
    log1p = math.log(1.0 - p) or math.log1p(-p)
    total = n * (n - 1) // 2
    expected = p * total + 1                       # draws: one per edge, one past the end
    lanes = Lanes(min(_GNP_BATCH, int(expected + 4 * math.sqrt(expected)) + 16))
    # lane L draws words L + 1, L + 1 + k, L + 1 + 2k, ... of the stream
    states = lanes.consecutive(stream_state(seed, _GEN_STREAM))
    lo_append, hi_append, log = lo.append, hi.append, math.log
    k = -1
    # decode increasing pair ranks incrementally, O(n + m) overall: row i
    # holds the ranks below row_end, and rank k in it is the pair (i, k + shift)
    i = 0
    row_end = n - 1
    shift = 1
    while True:
        for w in lanes.words(lanes.mix(states) >> 11):
            # gap ~ Geometric(p): number of skipped pairs before the next edge;
            # a gap too large for a float (p near 5e-324) is past the end too
            try:
                k += 1 + int(log(1.0 - w * 2.0 ** -53) / log1p)
            except OverflowError:
                return lo, hi
            if k >= total:
                return lo, hi
            while k >= row_end:
                i += 1
                shift = i + 1 - row_end
                row_end += n - 1 - i
            lo_append(i)
            hi_append(k + shift)
        states = lanes.advance(states, lanes.k)


def _regular_edges(n: int, d: int, seed: int) -> tuple[array, array]:
    """A simple d-regular graph via stub matching with restarts, as two
    ascending columns of positions, lo[e] < hi[e].

    Not the uniform distribution over d-regular graphs, but a valid and
    deterministic member of the family, which is all the harness needs.

    Each attempt shuffles the n*d stubs, then matches the last unmatched
    stub with a random unmatched one that keeps the graph simple.  A
    Fenwick tree over the unmatched stubs finds the idx-th of them in
    O(log(n*d)) steps, where popping it from a list would shift the rest.
    """
    if d < 0 or d >= n:
        raise InstanceError("regular needs 0 <= d < n")
    if (n * d) % 2 != 0:
        raise InstanceError("regular needs n*d even")
    if d == 0:
        return array("i"), array("i")
    rng = NodeRng(seed, _GEN_STREAM)
    size = n * d
    top_bit = 1 << (size.bit_length() - 1)
    for _attempt in range(200):
        stubs = [v for v in range(n) for _ in range(d)]
        # Fisher-Yates with the node stream
        for i in range(size - 1, 0, -1):
            j = rng.randrange(i + 1)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        unmatched = bytearray(b"\x01") * size
        # tree[t] counts the unmatched stubs in stubs[t - (t & -t):t]; the
        # last unmatched stub is taken without an update, since no search
        # reaches past it again
        tree = [t & -t for t in range(size + 1)]
        top = size                               # stubs[top:] are all matched
        left = size                              # unmatched stubs
        edges: set[int] = set()                  # u * n + w for each edge, u < w
        while left:
            top -= 1
            while not unmatched[top]:
                top -= 1
            u = stubs[top]
            unmatched[top] = 0
            left -= 1
            # find a partner stub that keeps the graph simple
            pick = -1
            for _try in range(80):
                idx = rng.randrange(left)
                pos, bit = 0, top_bit            # the idx-th unmatched stub
                while bit:
                    t = pos + bit
                    if t <= size and tree[t] <= idx:
                        pos = t
                        idx -= tree[t]
                    bit >>= 1
                w = stubs[pos]
                key = u * n + w if u < w else w * n + u
                if w != u and key not in edges:
                    pick = pos
                    break
            if pick < 0:
                for pos in compress(range(top), unmatched):
                    w = stubs[pos]
                    key = u * n + w if u < w else w * n + u
                    if w != u and key not in edges:
                        pick = pos
                        break
            if pick < 0:
                break
            unmatched[pick] = 0
            left -= 1
            t = pick + 1
            while t <= size:
                tree[t] -= 1
                t += t & -t
            edges.add(key)
        else:
            keys = sorted(edges)
            return (array("i", map(floordiv, keys, repeat(n))),
                    array("i", map(mod, keys, repeat(n))))
    raise InstanceError(f"could not realize a simple {d}-regular graph on {n} nodes")


# ---------------------------------------------------------------------------
# instance file format
#
#   # comment
#   dlc 1 <n> <m>
#   node <id> <c1> <c2> ... <ck>
#   edge <u> <v>
#
# Every number is an optional "-" and ASCII digits, of any length.
# ---------------------------------------------------------------------------


# Digits that `int` and `str` convert in one piece: below 640, the smallest
# limit `sys.set_int_max_str_digits` accepts, so no interpreter setting trips
# the divide-and-conquer conversions below.
_PIECE_DIGITS = 512
_PIECE_BITS = 1700                 # 2**1700 < 10**512


def _parse_digits(digits: str) -> int:
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _parse_digits(digits[:-k]) * 10**k + _parse_digits(digits[-k:])


def _id_list(ids) -> str:
    """The ids sorted, as `str(sorted(ids))` prints them, at any size."""
    return f"[{', '.join(map(format_decimal, sorted(ids)))}]"


def format_decimal(x: int) -> str:
    """`"%d" % x` for an int of any size, converted by halves past
    `_PIECE_BITS` bits, so the interpreter's limit never applies."""
    if x < 0:
        return "-" + format_decimal(-x)
    if x.bit_length() <= _PIECE_BITS:
        return "%d" % x
    k = x.bit_length() * 3 // 20          # about half the digits (log10 2 > 0.3)
    hi, lo = divmod(x, 10**k)
    return format_decimal(hi) + format_decimal(lo).zfill(k)


def decimal_ints(fields: Sequence[str]) -> tuple[int, ...]:
    """The fields as ints, each an optional "-" and ASCII digits, at any
    length: the one integer grammar of `.dlc` files and the command line.

    `int` would also take "+", "_", blanks and non-ASCII digits, so the
    fields are screened first: once every "-" is removed, only ASCII digits
    may remain, and `int` refuses a "-" anywhere but first.  Past the
    interpreter's digit limit the fields convert by halves; a "-" past the
    first character is refused there first, since `int` would take it at
    the start of a half.
    """
    digits = "".join(fields).replace("-", "")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer in: {' '.join(fields)[:40]}")
    try:
        return tuple(map(int, fields))
    except ValueError:
        if any("-" in f[1:] for f in fields):
            raise
        return tuple([-_parse_digits(f[1:]) if f.startswith("-") else _parse_digits(f)
                      for f in fields])


def _line(kind: str, values) -> str:
    """One record line of ints; past the interpreter's digit limit, by halves."""
    try:
        return f"{kind} {' '.join(map(str, values))}\n"
    except ValueError:
        return f"{kind} {' '.join(map(format_decimal, values))}\n"


def write_instance(instance: ColoringInstance, path: str) -> None:
    g = instance.graph
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dlc 1 {g.node_count} {g.edge_count()}\n")
        for v, lst in zip(g.nodes, instance.list_at):
            fh.write(_line("node", (v, *lst)))
        for edge in g.edges():
            fh.write(_line("edge", edge))


def _ints(fields: Sequence[str], message: str, lineno: int) -> tuple[int, ...]:
    """`decimal_ints(fields)`, with a field it refuses as a ParseError."""
    try:
        return decimal_ints(fields)
    except ValueError:
        raise ParseError(message, lineno) from None


def read_instance(path: str) -> ColoringInstance:
    header = None
    lists: dict[int, tuple[int, ...]] = {}    # id -> color list, as read
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}   # one copy of each list
    node_lines = 0                         # a repeated id is counted, then rejected
    ends = array("q")                      # edge endpoints, two per edge line; ints
                                           # once an id does not fit 64 bits
    # a non-ASCII byte decodes to a lone surrogate, so it is caught on its own line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                byte = next(b for b in raw.encode("ascii", "surrogateescape") if b > 127)
                raise ParseError(f"non-ASCII byte 0x{byte:02x}", lineno)
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            if kind == "dlc":
                if header is not None:
                    raise ParseError("duplicate header", lineno)
                if len(parts) != 4:
                    raise ParseError("header must be 'dlc 1 <n> <m>'", lineno)
                version, n, m = _ints(parts[1:], "non-integer header field", lineno)
                if version != 1:
                    raise ParseError(
                        f"unsupported format version {format_decimal(version)}", lineno)
                header = (n, m)
            elif kind == "node":
                if header is None:
                    raise ParseError("node line before header", lineno)
                if len(parts) < 3:
                    raise ParseError("node line needs an id and at least one color", lineno)
                vid, *cols = _ints(parts[1:], "non-integer field in node line", lineno)
                cols = tuple(cols)
                lists[vid] = shared.setdefault(cols, cols)
                node_lines += 1
            elif kind == "edge":
                if header is None:
                    raise ParseError("edge line before header", lineno)
                if len(parts) != 3:
                    raise ParseError("edge line must be 'edge <u> <v>'", lineno)
                pair = _ints(parts[1:], "non-integer field in edge line", lineno)
                try:
                    ends += array("q", pair)
                except OverflowError:
                    if ends.__class__ is array:
                        ends = ends.tolist()
                    ends += pair
            else:
                raise ParseError(f"unknown record {kind!r}", lineno)
    if header is None:
        raise ParseError("missing 'dlc' header (empty file?)", 1)
    n, m = header
    if node_lines != n:
        raise ParseError(f"header declares {format_decimal(n)} nodes but file has "
                         f"{node_lines}", 1)
    if len(ends) != 2 * m:
        raise ParseError(f"header declares {format_decimal(m)} edges but file has "
                         f"{len(ends) // 2}", 1)
    if len(lists) != node_lines:
        raise InstanceError("duplicate node id")
    it = iter(ends)
    graph = build_graph(zip(it, it), list(lists))
    del ends, it, shared                   # the graph holds the edges from here on
    return make_instance(graph, lists)
