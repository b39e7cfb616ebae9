"""Exact single-iteration analysis by brute-force enumeration.

For tiny instances the joint distribution of one propose round is small
enough to enumerate exactly: each node draws 0 with probability 1/2 and
each of its list colors with probability 1/(2|L|).  The enumeration sums
integer weights over a common denominator and returns exact rationals, so
bound checks like "adoption probability >= 1/4" carry no floating-point
risk.  Doubles as the calibration target for the Monte Carlo kernel,
`_kernels.phase1_trial_counts`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import _kernels
from .errors import TooLargeForOracle
from .graph import ColoringInstance, build_graph, make_instance

ENUMERATION_GUARD = 10**7


def choice_space(instance: ColoringInstance) -> dict[int, list[tuple[int, int]]]:
    """Per node: integer-weighted outcomes [(0, |L|)] + [(c, 1) for c in L].

    The weights sum to 2|L|, so outcome (c, w) has probability w / (2|L|):
    1/2 for the 0 draw and 1/(2|L|) for each list color.
    """
    space = {}
    for v in instance.graph.nodes:
        lst = instance.lists[v]
        if not lst:
            raise _kernels.out_of_colors(v)
        space[v] = [(0, len(lst))] + [(c, 1) for c in lst]
    return space


def _guard(instance: ColoringInstance) -> None:
    size = 1
    for v in instance.graph.nodes:
        size *= len(instance.lists[v]) + 1
        if size > ENUMERATION_GUARD:
            raise TooLargeForOracle(
                f"joint choice space exceeds {ENUMERATION_GUARD} outcomes"
            )


def exact_adoption_probabilities(instance: ColoringInstance) -> dict[int, Fraction]:
    """Exact per-node probability of adopting in one iteration.

    Every joint outcome weighs the product of its nodes' integer weights,
    over the common denominator, the product of the nodes' weight sums.
    """
    _guard(instance)
    g = instance.graph
    nodes = g.nodes
    space = list(choice_space(instance).values())     # in node order
    total = math.prod(sum(w for _, w in outcomes) for outcomes in space)
    hits = [0] * len(nodes)
    for joint in itertools.product(*space):
        weight = math.prod(w for _, w in joint)
        for i, nbrs in enumerate(g.neighbors):
            cv = joint[i][0]
            if cv == 0:
                continue
            if all(joint[j][0] != cv for j in nbrs):
                hits[i] += weight
    return {v: Fraction(h, total) for v, h in zip(nodes, hits)}


# ---------------------------------------------------------------------------
# the tiny-instance catalog
# ---------------------------------------------------------------------------


def _nonisomorphic_graphs(max_n: int = 4):
    """All non-isomorphic simple graphs on 1..max_n nodes, by brute force."""
    out = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
            canon = None
            for perm in itertools.permutations(range(n)):
                mapped = tuple(
                    sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
                )
                if canon is None or mapped < canon:
                    canon = mapped
            if canon in seen:
                continue
            seen.add(canon)
            out.append((n, edges))
    return out


def _assignment(kind: str, graph) -> dict[int, tuple[int, ...]]:
    lists = {}
    for i, (v, nbrs) in enumerate(zip(graph.nodes, graph.neighbors)):
        size = len(nbrs) + 1
        if kind == "minimal":
            lists[v] = tuple(range(1, size + 1))
        elif kind == "shifted":
            lists[v] = tuple(range(6, 6 + size))
        else:  # staggered: distinct windows per node
            lists[v] = tuple(range(i + 1, i + 1 + size))
    return lists


ASSIGNMENT_KINDS = ("minimal", "shifted", "staggered")


def tiny_catalog() -> list[tuple[str, ColoringInstance]]:
    """Every graph on <= 4 nodes (up to isomorphism) with three list kinds."""
    catalog = []
    for n, edges in _nonisomorphic_graphs(4):
        graph = build_graph(edges, list(range(n)))
        tag = f"n{n}e{len(edges)}_" + (
            "-".join(f"{u}{v}" for u, v in edges) if edges else "empty"
        )
        for kind in ASSIGNMENT_KINDS:
            instance = make_instance(graph, _assignment(kind, graph))
            catalog.append((f"{tag}/{kind}", instance))
    return catalog
