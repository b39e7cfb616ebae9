"""The benchmark's workloads: program loading, inputs and operations.

Every operation seed derives from the workload seed.  An operation is a
timed callable plus an untimed check that turns its output into an
`Outcome`: the problems found, the simulated complexity figures, and a
fingerprint that must repeat exactly when the same operation runs again.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

from check import (
    coloring_problems,
    csv_problems,
    default_instance_problems,
    exact_problems,
    four_sigma_misses,
    per_node_figures,
    read_csv_rows,
    replay,
    trace_problems,
)

GNP_SWEEP_SIZES = (1 << 12, 1 << 14, 1 << 16)
GNP_DEGREE = 8.0                     # expected degree: p = 8/n
RESIDUAL_N = 1 << 14
RESIDUAL_ARGS = ("--k1", "1", "--phase2-threshold", "10")
CATALOG_TRIALS = 10_000
BENCH_N, BENCH_P, BENCH_TRIALS = 64, 0.1, 20_000
C03_RETRY_OFFSET = 1_000_000         # C03 retries once on a fresh seed base

_MASK = (1 << 64) - 1


def op_seed(seed: int, *salts: int) -> int:
    """A 31-bit operation seed mixed from the workload seed and salts."""
    z = seed & _MASK
    for s in salts:
        z = (z ^ (s * 0x9E3779B97F4A7C15)) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
    return z >> 33


def load_program(src: str) -> SimpleNamespace:
    """Import the package afresh from `src` and name the modules used."""
    for name in [m for m in sys.modules if m == "sleepcolor" or m.startswith("sleepcolor.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = {key: importlib.import_module(f"sleepcolor.{path}") for key, path in (
        ("cli", "cli"), ("graph", "graph"), ("simcore", "simcore"),
        ("metrics", "metrics"), ("oracle", "oracle"), ("kernels", "_kernels"),
        ("errors", "errors"), ("pipeline", "coloring.pipeline"),
        ("phase1", "coloring.phase1"), ("phase2", "coloring.phase2"),
        ("phase3", "coloring.phase3"),
    )}
    package = sys.modules["sleepcolor"]
    origin = os.path.dirname(os.path.abspath(package.__file__))
    if origin != os.path.join(src, "sleepcolor"):
        raise ImportError(f"sleepcolor imported from {origin}, not from {src}")
    return SimpleNamespace(package=package, Trace=mods["simcore"].Trace, **mods)


@dataclass
class Outcome:
    problems: list[str]                # outputs the checker rejected
    figures: dict                      # worst_awake, avg_awake, rounds, node_rounds
    fingerprint: Any                   # must repeat exactly for the same op
    keep: dict = field(default_factory=dict)   # objects the span run inspects
    error: str | None = None           # the op itself failed (no output to check)


@dataclass
class Op:
    name: str
    work: int                          # nodes colored, or node-trials analyzed
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


class PipelineCapture:
    """Keeps what `cli.run_pipeline` was given and returned, for the checker.

    Installed as `cli.run_pipeline` in plain and span runs alike; it adds one
    Python call per operation.
    """

    def __init__(self, prog):
        self.real = prog.cli.run_pipeline
        self.inner = self.real               # the span run puts a span here
        self.seen: list[tuple] = []
        prog.cli.run_pipeline = self

    def __call__(self, instance, config, trace=None):
        coloring, metrics = self.inner(instance, config, trace=trace)
        self.seen.append((instance, config, trace, coloring, metrics))
        return coloring, metrics


def _cli_op(prog, capture, tmp: str, label: str, n: int, seed: int, traced: bool) -> Op:
    out = os.path.join(tmp, f"{label}.csv")
    trace_path = os.path.join(tmp, f"{label}.trace")
    argv = ["run", "--family", "gnp", "--n", str(n), "--param", repr(GNP_DEGREE / n),
            "--seeds", "1", "--seed-base", str(seed), "--out", out]
    if traced:
        argv += [*RESIDUAL_ARGS, "--trace", trace_path]

    def run():
        capture.seen.clear()
        return prog.cli.main(argv)

    def check(code) -> Outcome:
        if code != 0 or len(capture.seen) != 1:
            return Outcome([], {}, None, error=f"sleepcolor {' '.join(argv)} exited {code}")
        instance, config, trace, coloring, metrics = capture.seen.pop()
        problems = default_instance_problems(instance, n)
        problems += coloring_problems(instance, coloring.assignment)
        try:
            figures = per_node_figures(metrics.per_node)
        except ValueError as exc:
            return Outcome(problems + [str(exc)], {}, ())
        problems += csv_problems(read_csv_rows(out), seed, n, figures)
        keep = {"metrics": metrics}
        if traced:
            problems += trace_problems(trace, metrics.per_node, trace_path)
            keep.update(instance=instance, config=config, trace=trace,
                        coloring=coloring, trace_bytes=os.path.getsize(trace_path))
        fingerprint = (tuple(sorted(figures.items())),
                       hash(frozenset(coloring.assignment.items())),
                       tuple(sorted(metrics.phase_awake.items())),
                       metrics.phase3_classes)
        return Outcome(problems, figures, fingerprint, keep)

    return Op(label, n, run, check)


def _oracle_op(prog, name: str, instance, seed_base: int) -> Op:
    nodes = len(instance.graph.nodes)

    def run():
        exact = prog.oracle.exact_adoption_probabilities(instance)
        counts = prog.kernels.phase1_trial_counts(instance, seed_base, CATALOG_TRIALS)
        misses = four_sigma_misses(exact, counts, CATALOG_TRIALS)
        if misses:
            retry = prog.kernels.phase1_trial_counts(
                instance, seed_base + C03_RETRY_OFFSET, CATALOG_TRIALS)
            misses = four_sigma_misses(exact, retry, CATALOG_TRIALS)
        return exact, counts, misses

    def check(result) -> Outcome:
        exact, counts, misses = result
        problems = [f"4-sigma miss after retry at nodes {misses}"] if misses else []
        problems += exact_problems(exact)
        replay_problems, figures = replay(prog, instance, seed_base)
        fingerprint = (tuple(sorted(exact.items())), tuple(sorted(counts.items())))
        return Outcome(problems + replay_problems, figures, fingerprint,
                       {"instance": instance})

    return Op(name, nodes * CATALOG_TRIALS, run, check)


def _bench_op(prog, instance, seed_base: int) -> Op:
    def run():
        return prog.kernels.phase1_trial_counts(instance, seed_base, BENCH_TRIALS)

    def check(counts) -> Outcome:
        problems = [] if all(0 <= c <= BENCH_TRIALS for c in counts.values()) else [
            "adoption count outside [0, trials]"]
        replay_problems, figures = replay(prog, instance, seed_base)
        return Outcome(problems + replay_problems, figures,
                       tuple(sorted(counts.items())))

    return Op(f"bench_gnp{BENCH_N}", BENCH_N * BENCH_TRIALS, run, check)


def build(workload: str, prog, seed: int, tmp: str) -> tuple[list[Op], float]:
    """The operations of one pass, and the seconds spent building the catalog.

    A pass is the fixed list of operations; the run repeats whole passes.
    """
    if workload in ("gnp_sweep", "residual_traced"):
        capture = PipelineCapture(prog)
        prog.capture = capture
        if workload == "gnp_sweep":
            ops = [_cli_op(prog, capture, tmp, f"gnp_n{n}", n, op_seed(seed, 1, i), False)
                   for i, n in enumerate(GNP_SWEEP_SIZES)]
        else:
            ops = [_cli_op(prog, capture, tmp, f"residual_n{RESIDUAL_N}", RESIDUAL_N,
                           op_seed(seed, 2), True)]
        return ops, 0.0
    if workload == "mc_oracle":
        t0 = perf_counter()
        catalog = prog.oracle.tiny_catalog()
        catalog_s = perf_counter() - t0
        ops = [_oracle_op(prog, name, inst, op_seed(seed, 3, i))
               for i, (name, inst) in enumerate(catalog)]
        graph = prog.graph.generate("gnp", BENCH_N, seed=op_seed(seed, 4), param=BENCH_P)
        ops.append(_bench_op(prog, prog.graph.make_default_instance(graph), op_seed(seed, 5)))
        return ops, catalog_s
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("gnp_sweep", "residual_traced", "mc_oracle")
