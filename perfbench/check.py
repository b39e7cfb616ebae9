"""Independent output checks, run outside every timed region.

Nothing here calls the package's own verdict code (`metrics.validity_verdict`,
`metrics.collect`): colorings are scanned edge by edge against lists the
checker derives from the graph itself, CSV rows are compared with figures
recomputed from the per-node accounting, and Monte Carlo counts are replayed
through the round engine trial by trial.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

REPLAY_TRIALS = 8
QUARTER = Fraction(1, 4)


def default_instance_problems(instance, n: int) -> list[str]:
    """The instance `sleepcolor run` built: n nodes, symmetric, lists 1..deg+1."""
    g = instance.graph
    if len(g.nodes) != n:
        return [f"instance has {len(g.nodes)} nodes, expected {n}"]
    for v in g.nodes:
        nbrs = g.adjacency[v]
        if v in nbrs or any(v not in g.adjacency[u] for u in nbrs):
            return [f"adjacency of node {v} is not simple and symmetric"]
        if tuple(instance.lists[v]) != tuple(range(1, len(nbrs) + 2)):
            return [f"node {v} list is not 1..deg+1"]
    return []


def coloring_problems(instance, assignment) -> list[str]:
    """Total, proper, and every color from the node's original list."""
    g = instance.graph
    for v in g.nodes:
        c = assignment.get(v)
        if c is None or c == 0:
            return [f"node {v} uncolored"]
        if c not in instance.lists[v]:
            return [f"node {v} color {c} not in its list"]
        for u in g.adjacency[v]:
            if assignment.get(u) == c:
                return [f"edge ({v},{u}) both colored {c}"]
    if len(assignment) != len(g.nodes):
        return ["coloring names nodes outside the instance"]
    return []


def per_node_figures(per_node) -> dict:
    """Worst/average awake, rounds and awake node-rounds from per-node data."""
    awake = [a for a, _term, _phase in per_node.values()]
    terms = [t for _a, t, _phase in per_node.values()]
    if any(t is None for t in terms):
        raise ValueError("a node never terminated")
    return {
        "worst_awake": max(awake),
        "avg_awake": Fraction(sum(awake), len(awake)),
        "rounds": max(terms),
        "node_rounds": sum(awake),
    }


def read_csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def csv_problems(rows: list[dict], seed: int, n: int, figures: dict) -> list[str]:
    """The CLI's CSV row agrees with the recomputed figures."""
    if len(rows) != 1:
        return [f"CSV has {len(rows)} data rows, expected 1"]
    row = rows[0]
    avg = figures["avg_awake"]
    expect = {
        "seed": str(seed),
        "n": str(n),
        "worst_awake": str(figures["worst_awake"]),
        "avg_awake": f"{avg.numerator / avg.denominator:.6f}",
        "total_rounds": str(figures["rounds"]),
        "valid": "1",
    }
    bad = [f"CSV {k}={row.get(k)!r}, expected {v!r}"
           for k, v in expect.items() if row.get(k) != v]
    return bad


def trace_problems(trace, per_node, path: str) -> list[str]:
    """Awake counts rebuilt from the node events, and the file's line count."""
    awake: dict[int, int] = {}
    for _rnd, v, _act in trace.node_events:
        awake[v] = awake.get(v, 0) + 1
    for v, (a, _t, _p) in per_node.items():
        if awake.get(v, 0) != a:
            return [f"trace gives node {v} {awake.get(v, 0)} awake rounds, run says {a}"]
    with open(path, "rb") as fh:
        lines = fh.read().count(b"\n")
    events = len(trace.node_events) + len(trace.msg_events)
    if lines != events + 1:           # one "# run seed=" header line per run
        return [f"trace file has {lines} lines for {events} events"]
    return []


def four_sigma_misses(exact, counts, trials: int) -> list[int]:
    """Nodes whose Monte Carlo frequency is more than 4 sigma off the exact value."""
    misses = []
    for v, p in exact.items():
        pf = float(p)
        sigma = math.sqrt(pf * (1 - pf) / trials)
        if abs(counts[v] / trials - pf) > 4 * sigma:
            misses.append(v)
    return misses


def exact_problems(exact) -> list[str]:
    """Every exact adoption probability lies in [1/4, 1] (the 1/4 bound)."""
    bad = [v for v, p in exact.items() if not QUARTER <= p <= 1]
    return [f"exact adoption probability outside [1/4, 1] at nodes {bad}"] if bad else []


def replay(prog, instance, seed_base: int, trials: int = REPLAY_TRIALS):
    """Replay trials through the engine: (problems, engine figures).

    Trial t runs the first phase-1 iteration with run seed seed_base + t; the
    kernel's counts over the same trials must match the engine bit for bit.
    """
    engine = {v: 0 for v in instance.graph.nodes}
    awake_max, awake_sum, rounds_max, runs = 0, 0, 0, 0
    for t in range(trials):
        res = prog.simcore.run_simulation(
            instance.graph, prog.phase1.Phase1Program(1), inputs=instance.lists,
            seed=seed_base + t, round_cap=2, on_incomplete="return",
        )
        for v in res.outputs:
            engine[v] += 1
        awake_max = max(awake_max, max(res.awake_rounds.values()))
        awake_sum += sum(res.awake_rounds.values())
        rounds_max = max(rounds_max, res.rounds_executed)
        runs += len(res.awake_rounds)
    kernel = prog.kernels.phase1_trial_counts(instance, seed_base, trials)
    problems = [] if kernel == engine else [
        f"kernel counts {kernel} differ from engine replay {engine}"
    ]
    figures = {
        "worst_awake": awake_max,
        "avg_awake": Fraction(awake_sum, runs),
        "rounds": rounds_max,
    }
    return problems, figures
