"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS
lines inline).  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import math
import time
from fractions import Fraction

import pytest

from helpers import central_interim, greedy_by_class, random_residual_instance

from sleepcolor import _kernels
from sleepcolor.cli import fit_line, main as cli_main
from sleepcolor.coloring import (
    PipelineConfig,
    run_pipeline,
    run_phase3,
)
from sleepcolor.graph import build_graph, generate, make_default_instance
from sleepcolor.metrics import PROPER_TOTAL
from sleepcolor.oracle import exact_adoption_probabilities, tiny_catalog
from sleepcolor.simcore import Action, Trace, run_simulation


def _ok(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def _run(instance, seed, **cfg) -> object:
    _, metrics = run_pipeline(instance, PipelineConfig(seed=seed, **cfg))
    return metrics


def _envelope(n: int) -> int:
    return int(10 * math.log2(n) ** 2) + 200


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------


def test_c01_las_vegas_safety():
    """>= 10^4 runs, mixed families, n in {4..4096}: 100% proper colorings."""
    t0 = time.perf_counter()
    runs = 0

    def check(instance, seed):
        nonlocal runs
        metrics = _run(instance, seed)
        assert metrics.validity == PROPER_TOTAL
        runs += 1

    for n in (4, 8, 16, 32, 64):
        for family in ("path", "cycle", "star", "gnp", "regular", "clique"):
            if family == "clique" and n == 64:
                seeds = 40
            else:
                seeds = 340
            param = {"gnp": 0.3, "regular": 3}.get(family)
            for seed in range(seeds):
                g = generate(family, n, seed=seed, param=param)
                check(make_default_instance(g), seed)
    for family, param, seeds in (("gnp", 8 / 512, 25), ("cycle", None, 25),
                                 ("star", None, 25), ("regular", 4, 25)):
        for seed in range(seeds):
            g = generate(family, 512, seed=seed, param=param)
            check(make_default_instance(g), seed)
    for n, plan in ((2048, (("gnp", 8 / 2048, 30), ("star", None, 10))),
                    (4096, (("gnp", 8 / 4096, 30), ("cycle", None, 10),
                            ("star", None, 10)))):
        for family, param, seeds in plan:
            for seed in range(seeds):
                g = generate(family, n, seed=seed, param=param)
                check(make_default_instance(g), seed)

    assert runs >= 10_000
    _ok(1, "las-vegas-safety",
        f"{runs} runs, all proper, {time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2 and 3
# ---------------------------------------------------------------------------


def test_c02_exact_adoption_bound():
    """Every tiny-catalog node adopts with exact probability >= 1/4."""
    quarter = Fraction(1, 4)
    checked = 0
    for name, inst in tiny_catalog():
        for v, p in exact_adoption_probabilities(inst).items():
            assert p >= quarter, f"{name} node {v}: {p} < 1/4"
            checked += 1
    _ok(2, "exact-adoption-bound", f"{checked} node probabilities, exact rationals")


def test_c03_oracle_simulator_agreement():
    """Monte Carlo over 1e5 simulator-equivalent trials within 4 sigma."""
    trials = 100_000
    catalog = tiny_catalog()

    def failures(seed_base):
        failed = []
        for name, inst in catalog:
            exact = exact_adoption_probabilities(inst)
            counts = _kernels.phase1_trial_counts(inst, seed_base, trials)
            for v in inst.graph.nodes:
                p = float(exact[v])
                sigma = math.sqrt(p * (1 - p) / trials)
                if abs(counts[v] / trials - p) > 4 * sigma:
                    failed.append((name, v))
        return failed

    first = failures(616_000)
    if first:
        second = failures(616_000 + 1_000_000)   # one retry on a fresh seed
        assert not second, f"4-sigma misses after retry: {second}"
    _ok(3, "oracle-simulator-agreement",
        f"{len(catalog)} instances x {trials} trials")


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------


def test_c04_geometric_decay():
    """Mean uncolored after iteration i <= n*(3/4)^i + 3*sqrt(n/R)."""
    n, r = 2048, 200
    totals = {i: 0 for i in range(1, 9)}
    for seed in range(r):
        g = generate("gnp", n, seed=seed, param=8 / n)
        metrics = _run(make_default_instance(g), seed)
        uncolored = n
        for i in range(1, 9):
            uncolored -= metrics.decay_histogram.get(i, 0)
            totals[i] += uncolored
    slack = 3 * math.sqrt(n / r)
    worst_margin = min(
        n * 0.75 ** i + slack - totals[i] / r for i in range(1, 9)
    )
    for i in range(1, 9):
        assert totals[i] / r <= n * 0.75 ** i + slack, (
            f"iteration {i}: mean {totals[i] / r:.2f} > "
            f"{n * 0.75 ** i + slack:.2f}"
        )
    _ok(4, "geometric-decay", f"{r} seeds, min margin {worst_margin:.1f} nodes")


# ---------------------------------------------------------------------------
# criteria 5, 6, 7 share one sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaling_sweep():
    sizes = (256, 1024, 4096, 16384)
    seeds = 50
    per_size = {}
    for n in sizes:
        rows = []
        for seed in range(seeds):
            g = generate("gnp", n, seed=seed, param=8 / n)
            metrics = _run(make_default_instance(g), seed)
            rows.append(metrics)
        per_size[n] = rows
    return per_size


def test_c05_constant_average_awake(scaling_sweep):
    """Mean average awake flat across sizes: diff <= 1.0, slope in [-.5, .5]."""
    means = {
        n: sum(float(m.average_awake) for m in rows) / len(rows)
        for n, rows in scaling_sweep.items()
    }
    sizes = sorted(means)
    diff = abs(means[sizes[-1]] - means[sizes[0]])
    assert diff <= 1.0, f"mean average awake drifts by {diff:.3f}"
    xs = [math.log2(math.log2(n)) for n in sizes]
    slope, _, _ = fit_line(xs, [means[n] for n in sizes])
    assert -0.5 <= slope <= 0.5, f"slope {slope:.3f} outside [-0.5, 0.5]"
    detail = " ".join(f"n={n}:{means[n]:.3f}" for n in sizes)
    _ok(5, "constant-average-awake", f"{detail} slope={slope:+.3f}")


def test_c06_worst_case_awake_scaling(scaling_sweep):
    """Per-size max worst awake fits a*log2log2(n)+b with a<=20, resid<=5."""
    sizes = sorted(scaling_sweep)
    xs = [math.log2(math.log2(n)) for n in sizes]
    ys = [max(m.worst_case_awake for m in scaling_sweep[n]) for n in sizes]
    a, b, residuals = fit_line(xs, ys)
    worst = max(abs(r) for r in residuals)
    assert a <= 20, f"fitted slope {a:.2f} > 20"
    assert worst <= 5, f"max residual {worst:.2f} > 5"
    _ok(6, "worst-awake-scaling",
        f"max worst awake {ys} a={a:.2f} b={b:.2f} max_residual={worst:.2f}")


def test_c07_round_complexity_envelope(scaling_sweep):
    """100% of sweep runs finish within 10*(log2 n)^2 + 200 rounds."""
    total = 0
    for n, rows in scaling_sweep.items():
        cap = _envelope(n)
        for m in rows:
            assert m.validity == PROPER_TOTAL
            assert m.total_rounds <= cap
            total += 1
    maxima = {n: max(m.total_rounds for m in rows)
              for n, rows in scaling_sweep.items()}
    detail = " ".join(f"n={n}:{maxima[n]}/{_envelope(n)}" for n in sorted(maxima))
    _ok(7, "round-complexity-envelope", f"{total} runs, max/cap {detail}")


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------


def test_c08_sleep_semantics_bit_exact():
    """sleep(r) at t hides rounds t+1..t+r exactly; silent peers lose messages."""
    g = build_graph([(0, 1)], [0, 1])
    observed = {"rounds": [], "inbox": []}

    class Probe:
        def initial_state(self, ctx):
            return None

        def on_round(self, ctx, inbox):
            if ctx.node_id == 1:
                if ctx.round >= 10:
                    return Action(terminate=True)
                return Action(sends={0: ctx.round})
            observed["rounds"].append(ctx.round)
            observed["inbox"].extend(inbox)
            if ctx.round == 2:
                return Action(sleep_rounds=3)       # sleeps 3,4,5; wakes at 6
            if ctx.round >= 7:
                return Action(terminate=True)
            return Action()

    res = run_simulation(g, Probe(), None, seed=1, round_cap=40)
    assert observed["rounds"] == [1, 2, 6, 7]
    # messages of rounds 3,4,5 were lost; round-7 message arrived in node 0's
    # terminating round and was never consumed
    assert observed["inbox"] == [1, 2, 6]
    assert res.awake_rounds[0] == 4

    # a terminated sender can never transmit again: its final send is the
    # last message it ever produces
    trace = Trace()

    class OneShot:
        def initial_state(self, ctx):
            return None

        def on_round(self, ctx, inbox):
            if ctx.node_id == 0:
                return Action(sends={1: "final"}, terminate=True)
            return Action(terminate=True) if ctx.round >= 3 else Action()

    run_simulation(g, OneShot(), None, seed=1, round_cap=10, trace=trace)
    assert [e for e in trace.msg_events if e[1] == 0] == [(1, 0, 1, True)]
    assert [e for e in trace.node_events if e[1] == 0] == [(1, 0, "term")]
    _ok(8, "sleep-semantics", "wake windows, message loss, terminated silence")


# ---------------------------------------------------------------------------
# criteria 9 and 10 share one corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def phase3_corpus():
    corpus = []
    for trial in range(500):
        inst = random_residual_instance(trial, max_n=60)
        outcome = run_phase3(inst)
        corpus.append((inst, outcome))
    return corpus


def test_c09_tournament_equals_sequential_greedy(phase3_corpus):
    """Tournament output == centralized greedy on 500 random instances."""
    for idx, (inst, outcome) in enumerate(phase3_corpus):
        interim = central_interim(inst)
        expected = greedy_by_class(inst, interim)
        assert outcome.colors == expected, f"instance {idx} diverged"
    _ok(9, "tournament-greedy-equivalence", f"{len(phase3_corpus)} instances")


def test_c10_tournament_awake_bound(phase3_corpus):
    """Per-node awake rounds in the reduction <= 2*ceil(log2 C) + 2."""
    checked = 0
    for idx, (inst, outcome) in enumerate(phase3_corpus):
        classes = outcome.extra["classes"]
        interim_rounds = outcome.extra["interim_rounds"]
        bound = 2 * math.ceil(math.log2(classes)) + 2 if classes > 1 else 2
        for v, awake in zip(outcome.nodes, outcome.awake):
            assert awake - interim_rounds <= bound, (
                f"instance {idx} node {v}: {awake - interim_rounds} > {bound}"
            )
            checked += 1
    _ok(10, "tournament-awake-bound", f"{checked} node schedules within bound")


# ---------------------------------------------------------------------------
# criterion 11
# ---------------------------------------------------------------------------


def test_c11_byte_identical_reruns(tmp_path, capsys):
    """Fixed (command, seed): CSV and trace output identical across runs."""
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.csv"
        tr = tmp_path / f"{tag}.trace"
        code = cli_main(
            ["run", "--family", "gnp", "--n", "512", "--param", "0.02",
             "--seeds", "5", "--seed-base", "3",
             "--out", str(out), "--trace", str(tr)]
        )
        assert code == 0
        blobs.append((out.read_bytes(), tr.read_bytes()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    csv_bytes, trace_bytes = blobs[0]
    _ok(11, "byte-identical-output",
        f"csv {len(csv_bytes)}B and trace {len(trace_bytes)}B match")
