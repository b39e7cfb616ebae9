"""Shared test utilities: independent reference implementations.

These deliberately re-derive results through different code paths than the
package (sequential greedy instead of the tournament, a file-level
properness scan instead of the in-memory one, the round engine instead of
the kernels of phases 1, 2 and 3, one scalar draw at a time instead of lanes
in the gnp generator, a product of `Fraction`s per joint outcome instead of
the oracle's integer weights, a dict of lines per round instead of the
trace's round-sorted chunks) so that agreement between the two is
meaningful.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import fields
from fractions import Fraction

from sleepcolor.coloring import interim_palette, linial_step
from sleepcolor.coloring.phase1 import PhaseOutcome, run_phase1, simulate_phase1
from sleepcolor.coloring.phase2 import run_phase2, simulate_phase2
from sleepcolor.coloring.phase3 import run_phase3, simulate_phase3
from sleepcolor.errors import RunIncomplete, SleepColorError
from sleepcolor.graph import _GEN_STREAM, ColoringInstance, make_instance, read_instance
from sleepcolor.rng import NodeRng
from sleepcolor.simcore import Trace


def greedy_by_class(instance: ColoringInstance, interim: dict[int, int]) -> dict[int, int]:
    """Centralized sequential greedy: interim-color order, smallest free color."""
    order = sorted(instance.graph.nodes, key=lambda v: (interim[v], v))
    colors: dict[int, int] = {}
    for v in order:
        used = {colors[u] for u in instance.graph.adjacency[v] if u in colors}
        colors[v] = next(c for c in instance.lists[v] if c not in used)
    return colors


def central_interim(instance: ColoringInstance) -> dict[int, int]:
    """Centralized interim coloring: every reduction step on all nodes at once."""
    steps, classes = interim_palette(instance)
    g = instance.graph
    colors = {v: v if classes > 1 else 0 for v in g.nodes}
    for q, d in steps:
        colors = {v: linial_step(colors[v], [colors[u] for u in g.adjacency[v]], q, d, v)
                  for v in g.nodes}
    return colors


def file_level_verdict(instance_path: str, assignment: dict[int, int]) -> str:
    """Second properness scan, driven by re-reading the instance file."""
    inst = read_instance(instance_path)
    g = inst.graph
    colored = {v: c for v, c in assignment.items() if c != 0}
    for v, c in colored.items():
        if c not in inst.lists[v]:
            return "invalid"
    for u, v in g.edges():
        if u in colored and v in colored and colored[u] == colored[v]:
            return "invalid"
    return "proper_total" if len(colored) == g.node_count else "proper_partial"


def random_residual_instance(trial: int, max_n: int = 60) -> ColoringInstance:
    """A random small instance with irregular (but admissible) lists."""
    from sleepcolor.graph import generate

    rng = NodeRng(0xFEED, trial)
    n = 2 + rng.randrange(max_n - 1)
    p = 0.03 + 0.25 * (rng.randrange(1000) / 1000.0)
    graph = generate("gnp", n, seed=trial, param=p)
    lists = {}
    for v, nbrs in zip(graph.nodes, graph.neighbors):
        start = 1 + rng.randrange(4)
        extra = rng.randrange(3)
        step = 1 + rng.randrange(2)
        size = len(nbrs) + 1 + extra
        lists[v] = tuple(start + step * i for i in range(size))
    return make_instance(graph, lists)


def assert_same_phase1(instance: ColoringInstance, iterations: int, seed: int):
    """`run_phase1` (the kernel) and `simulate_phase1` (the engine) agree.

    Every `PhaseOutcome` field, the colors' order, the trace events and the
    rendered trace at a nonzero round offset must be identical, and a run
    that raises must raise the same error after the same trace events.
    Returns the kernel's outcome (or error).
    """
    return _run_both(run_phase1, simulate_phase1, 7, instance, iterations, seed)[0]


def assert_same_phase2(residual: ColoringInstance, threshold: int, iteration_cap: int,
                       seed: int):
    """`run_phase2` (the kernel) and `simulate_phase2` (the engine) agree.

    As `assert_same_phase1`.  Returns the kernel's outcome (or error) and
    its trace, whose round offset is 11.
    """
    kernel, _, trace = _run_both(run_phase2, simulate_phase2, 11,
                                 residual, threshold, iteration_cap, seed)
    return kernel, trace


def assert_same_phase3(residual: ColoringInstance):
    """`run_phase3` (the kernel) and `simulate_phase3` (the engine) agree.

    As `assert_same_phase2`; a run that overruns its schedule must also
    leave the same awake rounds, termination rounds (0 in the kernel's
    outcome, None in the engine's result where cut off) and rounds executed
    in the error's `partial`.  Returns the kernel's outcome (or error) and
    its trace, whose round offset is 5.
    """
    kernel, engine, trace = _run_both(run_phase3, simulate_phase3, 5, residual)
    if isinstance(kernel, RunIncomplete):
        mine, theirs, nodes = kernel.partial, engine.partial, residual.graph.nodes
        assert mine.awake == [theirs.awake_rounds[v] for v in nodes]
        assert mine.term == [theirs.termination_round[v] or 0 for v in nodes]
        assert mine.rounds_executed == theirs.rounds_executed
    return kernel, trace


def _run_both(kernel_run, engine_run, offset: int, *args):
    """Run both with a trace at `offset`; the outcomes, or the errors' types
    and texts, and the traces must be identical.  Returns (kernel outcome or
    error, engine outcome or error, kernel trace)."""
    runs = []
    for run in (kernel_run, engine_run):
        trace = Trace(round_offset=offset)
        try:
            out = run(*args, trace=trace)
        except SleepColorError as exc:
            out = exc
        runs.append((out, trace))
    (kernel, kernel_trace), (engine, engine_trace) = runs
    if isinstance(kernel, PhaseOutcome) and isinstance(engine, PhaseOutcome):
        _assert_same_outcome(kernel, engine)
    else:
        assert (type(kernel), str(kernel)) == (type(engine), str(engine))
    _assert_same_trace(kernel_trace, engine_trace)
    return kernel, engine, kernel_trace


def _assert_same_outcome(kernel: PhaseOutcome, engine: PhaseOutcome) -> None:
    for f in fields(PhaseOutcome):
        assert getattr(kernel, f.name) == getattr(engine, f.name), f.name
    assert list(kernel.colors) == list(engine.colors)


def _assert_same_trace(kernel: Trace, engine: Trace) -> None:
    assert kernel.node_events == engine.node_events
    assert kernel.msg_events == engine.msg_events
    assert kernel.render() == engine.render()


def reference_render(trace: Trace) -> str:
    """`Trace.render` as it was first written: one f-string per event,
    grouped in a dict of lists per round, node lines before message lines."""
    lines = []
    by_round: dict[int, list[str]] = {}
    for rnd, v, act in trace.node_events:
        by_round.setdefault(rnd, []).append(f"t={rnd} v={v} status=A act={act}")
    for rnd, u, v, ok in trace.msg_events:
        by_round.setdefault(rnd, []).append(
            f"msg t={rnd} {u}->{v} delivered={1 if ok else 0}"
        )
    for rnd in sorted(by_round):
        lines.extend(by_round[rnd])
    return "\n".join(lines) + ("\n" if lines else "")


# Two isolated nodes whose ids, 10**4400 and 10**4400 + 1, have more decimal
# digits than Python converts with `int()` and `str()` by default (4,300).
HUGE_ID_DIGITS = ("1" + "0" * 4400, "1" + "0" * 4399 + "1")
HUGE_ID_DLC = (f"dlc 1 2 0\nnode {HUGE_ID_DIGITS[0]} 1 2\n"
               f"node {HUGE_ID_DIGITS[1]} 3\n")


def reference_gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """`graph._gnp_edges` drawing one `NodeRng.uniform01` at a time."""
    if p == 0.0 or n < 2:
        return []
    if p == 1.0:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = NodeRng(seed, _GEN_STREAM)
    log1p = math.log(1.0 - p)
    total = n * (n - 1) // 2
    edges = []
    k = -1
    i = 0
    row_start = 0
    row_len = n - 1
    while True:
        u = rng.uniform01()
        gap = int(math.log(1.0 - u) / log1p) if u > 0.0 else 0
        k += 1 + gap
        if k >= total:
            break
        while k - row_start >= row_len:
            row_start += row_len
            i += 1
            row_len -= 1
        edges.append((i, i + 1 + (k - row_start)))
    return edges


def reference_adoption_probabilities(instance: ColoringInstance) -> dict[int, Fraction]:
    """`oracle.exact_adoption_probabilities` multiplying `Fraction`s: each node
    draws 0 with weight 1/2 and each list color with weight 1/(2|L|)."""
    g = instance.graph
    space = []
    for v in g.nodes:
        w = Fraction(1, 2 * len(instance.lists[v]))
        space.append([(0, Fraction(1, 2))] + [(c, w) for c in instance.lists[v]])
    probs = [Fraction(0)] * len(g.nodes)
    for joint in itertools.product(*space):
        weight = Fraction(1)
        for _, w in joint:
            weight *= w
        for i, nbrs in enumerate(g.neighbors):
            cv = joint[i][0]
            if cv != 0 and all(joint[j][0] != cv for j in nbrs):
                probs[i] += weight
    return dict(zip(g.nodes, probs))
