"""Graphs, list-coloring instances, generators and instance file I/O.

Node identifiers are arbitrary distinct non-negative integers (not
necessarily 0..n-1).  Colors are positive integers; 0 is reserved as the
"no color yet" sentinel used throughout the coloring pipeline.

A `Graph` stores its adjacency once, over node positions: position i is
the index of an id in the sorted `nodes`, and `neighbors[i]` lists the
positions of its neighbors in ascending order, which is also id order.
`build_graph` fills that layout in one pass, and the phase-1 kernel, the
validity verdict and `induced` read it directly.  `adjacency`, the
id-keyed view that the round engine and the node programs use, is
derived from it on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InstanceError, ParseError
from .rng import Lanes, NodeRng, stream_state

UNCOLORED = 0

# role constants so generator streams never collide with node streams
_GEN_STREAM = 0x67656E                       # "gen"
_GNP_BATCH = 4096                            # most lanes the gnp generator draws at once


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph with stable integer node ids.

    Node position i is the index of id nodes[i]; neighbors[i] holds the
    ascending positions of its neighbors, which are also in id order.
    """

    nodes: tuple[int, ...]                       # sorted, distinct
    neighbors: tuple[tuple[int, ...], ...]       # position -> neighbor positions
    max_degree: int

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """id -> sorted neighbor ids, derived from `neighbors` on first use."""
        nodes = self.nodes
        return {v: tuple([nodes[j] for j in nbrs])
                for v, nbrs in zip(nodes, self.neighbors)}

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def edges(self) -> list[tuple[int, int]]:
        nodes = self.nodes
        return [(u, nodes[j]) for i, (u, nbrs) in enumerate(zip(nodes, self.neighbors))
                for j in nbrs if j > i]

    def edge_count(self) -> int:
        return sum(map(len, self.neighbors)) // 2

    def induced(self, keep: Sequence[int]) -> "Graph":
        """Subgraph induced on the ascending node positions `keep` (ids preserved)."""
        new = [-1] * len(self.nodes)             # old position -> new position
        for k, i in enumerate(keep):
            new[i] = k
        nodes = tuple([self.nodes[i] for i in keep])
        neighbors = tuple([tuple([new[j] for j in self.neighbors[i] if new[j] >= 0])
                           for i in keep])
        return Graph(nodes, neighbors, max(map(len, neighbors), default=0))


def build_graph(edges: Iterable[tuple[int, int]], node_ids: Sequence[int]) -> Graph:
    """Build a graph from explicit edges, consumed in one pass, and node ids.

    Rejects duplicate ids, self-loops, duplicate edges (after normalizing
    orientation) and edges touching unknown ids.  Isolated nodes are fine.
    """
    if not node_ids:
        raise InstanceError("a graph needs at least one node")
    nodes = tuple(sorted(node_ids))
    position = {v: i for i, v in enumerate(nodes)}
    if len(position) != len(nodes):
        raise InstanceError("duplicate node id")
    if nodes[0] < 0:
        raise InstanceError("node ids must be non-negative")

    adj: list[list[int]] = [[] for _ in nodes]
    for u, v in edges:
        if u == v:
            raise InstanceError(f"self-loop at node {format_decimal(u)}")
        try:
            i = position[u]
            j = position[v]
        except KeyError:
            raise InstanceError(f"edge ({format_decimal(u)},{format_decimal(v)}) "
                                f"touches an unknown node id") from None
        adj[i].append(j)
        adj[j].append(i)

    for i, nbrs in enumerate(adj):
        nbrs.sort()
        prev = -1
        for j in nbrs:
            if j == prev:                        # the first sighting has i < j
                raise InstanceError(f"duplicate edge ({format_decimal(nodes[i])},"
                                    f"{format_decimal(nodes[j])})")
            prev = j
        adj[i] = tuple(nbrs)                     # frees the list as it goes
    neighbors = tuple(adj)
    return Graph(nodes, neighbors, max(map(len, neighbors)))


@dataclass(frozen=True)
class ColoringInstance:
    """A (deg+1)-list-coloring problem: a graph plus one color list per node.

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
    lists: Mapping[int, tuple[int, ...]]         # id -> sorted color list


def make_instance(graph: Graph, lists: Mapping[int, Sequence[int]]) -> ColoringInstance:
    """Validate and normalize lists (sorted, deduplicated is an error)."""
    norm: dict[int, tuple[int, ...]] = {}
    for v, nbrs in zip(graph.nodes, graph.neighbors):
        if v not in lists:
            raise InstanceError(f"node {format_decimal(v)} has no color list")
        lst = tuple(sorted(lists[v]))
        if len(set(lst)) != len(lst):
            raise InstanceError(f"node {format_decimal(v)}: duplicate color in list")
        if any(c <= 0 for c in lst):
            raise InstanceError(
                f"node {format_decimal(v)}: colors must be positive (0 is reserved)")
        if len(lst) < len(nbrs) + 1:
            raise InstanceError(
                f"node {format_decimal(v)}: list of size {len(lst)} but degree "
                f"{len(nbrs)} (needs at least deg+1)"
            )
        norm[v] = lst
    extra = set(lists).difference(graph.nodes)
    if extra:
        raise InstanceError(f"lists given for unknown nodes: {_id_list(extra)}")
    return ColoringInstance(graph, norm)


def make_default_instance(graph: Graph) -> ColoringInstance:
    """The (deg+1)-coloring special case: node v gets the list {1, ..., deg(v)+1},
    one tuple per distinct degree, shared by the nodes of that degree."""
    shared = {d: tuple(range(1, d + 2)) for d in set(map(len, graph.neighbors))}
    return ColoringInstance(
        graph, {v: shared[len(nbrs)] for v, nbrs in zip(graph.nodes, graph.neighbors)})


@dataclass
class Coloring:
    """A (possibly partial) color assignment, node id -> color; uncolored nodes
    are absent."""

    assignment: dict[int, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

FAMILIES = ("path", "cycle", "clique", "star", "gnp", "regular")


def generate(family: str, n: int, seed: int, param: float | None = None) -> Graph:
    """Generate a graph from one of the supported families.

    Deterministic: the same (family, n, seed, param) always yields the same
    graph.  `param` is the edge probability for gnp and the degree for
    regular; the other families ignore it.
    """
    if n < 1:
        raise InstanceError("n must be >= 1")
    ids = list(range(n))
    if family == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "cycle":
        if n < 3:
            raise InstanceError("a cycle needs n >= 3")
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif family == "clique":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif family == "star":
        edges = [(0, i) for i in range(1, n)]
    elif family == "gnp":
        if param is None:
            raise InstanceError("gnp needs an edge probability parameter")
        edges = _gnp_edges(n, float(param), seed)
    elif family == "regular":
        if param is None:
            raise InstanceError("regular needs a degree parameter")
        if not float(param).is_integer():
            raise InstanceError(f"regular needs an integer degree, got {param}")
        edges = _regular_edges(n, int(param), seed)
    else:
        raise InstanceError(f"unknown family {family!r}")
    return build_graph(edges, ids)


def _gnp_edges(n: int, p: float, seed: int) -> Iterator[tuple[int, int]]:
    """G(n,p) by geometric gap-skipping over the C(n,2) pair indexes.

    Yields the edges in ascending pair rank, so `build_graph` consumes them
    as they are drawn and no edge list is held.

    The gaps come from one SplitMix64 stream (the generator's, see
    `_GEN_STREAM`), word after word, each turned into a uniform in [0, 1)
    with 53 random bits as `NodeRng.uniform01` does.  The words are drawn on
    lanes, in batches of consecutive words sized to the expected number of
    draws (at most `_GNP_BATCH`), so a small graph pays for few lanes.
    """
    if not 0.0 <= p <= 1.0:
        raise InstanceError("gnp probability must be in [0,1]")
    if p == 0.0 or n < 2:
        return
    if p == 1.0:
        yield from ((i, j) for i in range(n) for j in range(i + 1, n))
        return
    log1p = math.log(1.0 - p)
    total = n * (n - 1) // 2
    expected = p * total + 1                       # draws: one per edge, one past the end
    lanes = Lanes(min(_GNP_BATCH, int(expected + 4 * math.sqrt(expected)) + 16))
    # lane L draws words L + 1, L + 1 + k, L + 1 + 2k, ... of the stream
    states = lanes.consecutive(stream_state(seed, _GEN_STREAM))
    k = -1
    # decode increasing pair ranks (i, j) incrementally: O(n + m) overall
    i = 0
    row_start = 0
    row_len = n - 1
    while True:
        for w in lanes.words(lanes.mix(states) >> 11):
            # gap ~ Geometric(p): number of skipped pairs before the next edge
            k += 1 + int(math.log(1.0 - w * 2.0 ** -53) / log1p)
            if k >= total:
                return
            while k - row_start >= row_len:
                row_start += row_len
                i += 1
                row_len -= 1
            yield i, i + 1 + (k - row_start)
        states = lanes.advance(states, lanes.k)


def _regular_edges(n: int, d: int, seed: int) -> list[tuple[int, int]]:
    """A simple d-regular graph via stub matching with restarts.

    Not the uniform distribution over d-regular graphs, but a valid and
    deterministic member of the family, which is all the harness needs.
    """
    if d < 0 or d >= n:
        raise InstanceError("regular needs 0 <= d < n")
    if (n * d) % 2 != 0:
        raise InstanceError("regular needs n*d even")
    if d == 0:
        return []
    rng = NodeRng(seed, _GEN_STREAM)
    for _attempt in range(200):
        stubs = [v for v in range(n) for _ in range(d)]
        # Fisher-Yates with the node stream
        for i in range(len(stubs) - 1, 0, -1):
            j = rng.randrange(i + 1)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        edges: set[tuple[int, int]] = set()
        ok = True
        while stubs and ok:
            u = stubs.pop()
            # find a partner stub that keeps the graph simple
            pick = None
            for _try in range(80):
                idx = rng.randrange(len(stubs))
                w = stubs[idx]
                key = (u, w) if u < w else (w, u)
                if w != u and key not in edges:
                    pick = idx
                    break
            if pick is None:
                for idx, w in enumerate(stubs):
                    key = (u, w) if u < w else (w, u)
                    if w != u and key not in edges:
                        pick = idx
                        break
            if pick is None:
                ok = False
                break
            w = stubs.pop(pick)
            edges.add((u, w) if u < w else (w, u))
        if ok:
            return sorted(edges)
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


def parse_decimal(text: str) -> int:
    """`int(text)` for a decimal numeral of any length.

    Numerals of up to `_PIECE_DIGITS` characters go to `int` as they are;
    a longer one must be an optional sign and ASCII digits, and is converted
    by halves, so the interpreter's integer string-conversion limit never
    applies.  Raises ValueError for anything else.
    """
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    digits = text[1:] if text[0] in "+-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text[:20]}...")
    value = _parse_digits(digits)
    return -value if text[0] == "-" else value


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


def _ints(fields, line: str) -> tuple[int, ...]:
    """The number fields of a record line as ints, each an optional "-" and
    ASCII digits, at any length.

    `int` would also take "+" and "_", so a line holding either is refused
    first; past the interpreter's digit limit the fields convert by halves.
    """
    if "+" in line or "_" in line:
        raise ValueError(f"not a decimal integer in: {line[:40]}")
    try:
        return tuple(map(int, fields))
    except ValueError:
        return tuple(map(parse_decimal, fields))


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
        for v in g.nodes:
            fh.write(_line("node", (v, *instance.lists[v])))
        for edge in g.edges():
            fh.write(_line("edge", edge))


def read_instance(path: str) -> ColoringInstance:
    header = None
    node_lines: list[tuple[int, tuple[int, ...]]] = []
    edge_lines: list[tuple[int, int]] = []
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
                try:
                    version, n, m = _ints(parts[1:], line)
                except ValueError:
                    raise ParseError("non-integer header field", lineno) from None
                if version != 1:
                    raise ParseError(
                        f"unsupported format version {format_decimal(version)}", lineno)
                header = (n, m)
            elif kind == "node":
                if header is None:
                    raise ParseError("node line before header", lineno)
                if len(parts) < 3:
                    raise ParseError("node line needs an id and at least one color", lineno)
                try:
                    vid, *cols = _ints(parts[1:], line)
                except ValueError:
                    raise ParseError("non-integer field in node line", lineno) from None
                node_lines.append((vid, tuple(cols)))
            elif kind == "edge":
                if header is None:
                    raise ParseError("edge line before header", lineno)
                if len(parts) != 3:
                    raise ParseError("edge line must be 'edge <u> <v>'", lineno)
                try:
                    edge_lines.append(_ints(parts[1:], line))
                except ValueError:
                    raise ParseError("non-integer field in edge line", lineno) from None
            else:
                raise ParseError(f"unknown record {kind!r}", lineno)
    if header is None:
        raise ParseError("missing 'dlc' header (empty file?)", 1)
    n, m = header
    if len(node_lines) != n:
        raise ParseError(f"header declares {format_decimal(n)} nodes but file has "
                         f"{len(node_lines)}", 1)
    if len(edge_lines) != m:
        raise ParseError(f"header declares {format_decimal(m)} edges but file has "
                         f"{len(edge_lines)}", 1)
    graph = build_graph(edge_lines, [vid for vid, _ in node_lines])
    return make_instance(graph, {vid: cols for vid, cols in node_lines})
