"""sleepcolor benchmark: end-to-end figures, or per-layer spans with --trace 1.

Run from the root of a source checkout (it imports the package from ./src
and never builds the compiled kernel):

    python3 perfbench/run.py --workload gnp_sweep --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

(--workload all runs the three in one process, so its peak_rss_mb for the
later workloads is the process peak so far; run one workload per process for
a per-workload peak.)

Workloads (see BENCHMARK.json for why each was chosen):
  gnp_sweep        `sleepcolor run --family gnp` at n = 2^12, 2^14, 2^16, p = 8/n
  residual_traced  the same at n = 2^14 with --k1 1 --phase2-threshold 10 --trace
  mc_oracle        exact oracle + 10^4-trial kernel + C03 4-sigma check for each
                   tiny-catalog instance, then 2*10^4 kernel trials on gnp(64, 0.1)

One single-threaded process runs whole passes over a workload's operations
until --seconds is used up, and at least two passes, so every operation runs
twice with the same seed and its simulated figures must repeat exactly.
Every output is checked outside the timed region.

--trace 0 times the operations with nothing wrapped.  The gated timings are
in reference units: the operations' CPU seconds divided by the mean CPU
seconds of a fixed reference load (refwork.py) sampled between operations in
the same run, which damps the host's drift in speed.  Wall-clock and CPU
seconds, op latency percentiles, worst-case awake, rounds and the failed-op
fraction are printed beside them.

--trace 1 runs span passes that wrap each module boundary, then one plain
pass, and reports per-layer times, counts and the span overhead.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics declared in BENCHMARK.json.  --save FILE appends the full result,
with git SHA, Python version, core count and kernel backend, as one JSON
line; perfbench/compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from time import perf_counter, process_time

from layers import LAYER_MOVES, op_layer, pass_layers
from refwork import HostSpeed
from spans import PIPELINE_SPAN, Recorder, instrumented, tree_times
from workloads import WORKLOADS, build, load_program

SETUP_REPS = 21
MIN_PASSES = 2


def git_sha(root: str) -> str:
    """HEAD's commit from the .git directory, or "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, prog) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "kernel_backend": prog.package.kernel_backend,
    }


def set_up(workload: str, src: str, seed: int, tmp: str):
    """Import and build inputs SETUP_REPS times; keep the last, time each."""
    times, catalog = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        prog = load_program(src)
        ops, catalog_s = build(workload, prog, seed, tmp)
        times.append(perf_counter() - t0)
        catalog.append(catalog_s)
    return prog, ops, statistics.median(times), statistics.median(catalog)


def run_op(prog, op, recorder: Recorder | None) -> dict:
    """Time one operation, then check it; with a recorder, also its spans."""
    result, error = None, None
    with recorder.span("op") if recorder else nullcontext() as root:
        t0, c0 = perf_counter(), process_time()
        try:
            result = op.run()
        except prog.errors.SleepColorError as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds, cpu = perf_counter() - t0, process_time() - c0
    if recorder is not None:
        seconds = root[2] - root[1]          # the op span, so self times add up
        spans, calls = recorder.take()
    rec = {"name": op.name, "seconds": seconds, "cpu": cpu, "work": op.work,
           "error": error, "problems": [], "figures": {}, "fingerprint": None}
    if error:
        return rec
    outcome = op.check(result)
    rec.update(error=outcome.error, problems=outcome.problems, figures=outcome.figures,
               fingerprint=outcome.fingerprint)
    if recorder is not None:
        recorder.take()                    # drop spans the checker caused
        collect = None
        if "trace" in outcome.keep:
            collect = collect_trace(prog, recorder, outcome.keep)
        rec["spans"] = spans
        rec["layer"] = op_layer(spans, calls, outcome.figures, outcome.keep, collect)
    return rec


def collect_trace(prog, recorder: Recorder, keep: dict) -> tuple[float, int]:
    """Run metrics.collect on the op's trace: (seconds, InternalError count).

    Kept outside the operation: `sleepcolor run` never calls it.  On
    residual_traced it raises for nodes phase 2 drops and phase 3 colors
    (they terminate twice in the trace); that is counted, not hidden.
    """
    errors = 0
    try:
        prog.metrics.collect(keep["trace"], keep["coloring"], keep["instance"], keep["config"])
    except prog.errors.InternalError:
        errors = 1
    spans, _calls = recorder.take()
    return spans[0][2] - spans[0][1], errors


def run_passes(prog, ops, deadline: float, recorder=None, min_passes=MIN_PASSES,
               reserve=0, speed: HostSpeed | None = None) -> list:
    """Whole passes until the next one (plus `reserve` more) would pass `deadline`.

    With `speed`, the reference load is sampled between operations.
    """
    passes = []
    while True:
        p0 = perf_counter()
        recs = []
        for op in ops:
            if speed is not None:
                speed.sample()
            recs.append(run_op(prog, op, recorder))
            if speed is not None:
                speed.sample()
        passes.append(recs)
        last = perf_counter() - p0
        if len(passes) >= min_passes and perf_counter() + last * (1 + reserve) > deadline:
            return passes


def repeat_problems(passes: list[list[dict]]) -> list[str]:
    """Every op must give identical figures and fingerprint in every pass."""
    out = []
    first = passes[0]
    for p in passes[1:]:
        for a, b in zip(first, p):
            if (a["figures"], a["fingerprint"]) != (b["figures"], b["fingerprint"]):
                out.append(f"{a['name']}: simulated figures differ between repeats")
    return out


def span_problems(passes: list[list[dict]]) -> list[str]:
    """Self times of an op's spans are non-negative and sum to its wall time."""
    out = []
    for p in passes:
        for rec in p:
            if "spans" not in rec:
                continue
            own = tree_times(rec["spans"])[2]
            if min(own) < -1e-9 or abs(sum(own) - rec["seconds"]) > 1e-6:
                out.append(f"{rec['name']}: span self times do not add up to the op")
    return out


def failed(rec: dict) -> bool:
    """An op fails when it raised, exited nonzero, or the checker rejected it."""
    return bool(rec["error"] or rec["problems"])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes, setup_s: float, unit: float) -> tuple[dict, dict, list[str]]:
    """(gated values, printed-only values, notes) of a plain run.

    Gated timings are process CPU seconds divided by `unit`, the reference
    load's mean CPU seconds in the same run (see refwork.py).  Wall-clock and
    plain CPU figures are printed beside them.
    """
    ops = [rec for p in passes for rec in p]
    ok = [rec for rec in ops if rec["figures"]]
    secs = [rec["seconds"] for rec in ops]
    cpus = [rec["cpu"] for rec in ops]
    work = sum(rec["work"] for rec in ops)
    # mc_oracle ops carry the engine's awake rounds per node-trial instead
    node_rounds = float(sum(r["figures"].get("node_rounds", r["figures"]["avg_awake"] * r["work"])
                            for r in ok))
    gated = {
        "pass_ref": sum(cpus) / len(passes) / unit,
        "node_rounds_per_ref": node_rounds * unit / sum(cpus),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "avg_awake_mean": statistics.fmean(float(r["figures"]["avg_awake"]) for r in ok)
        if ok else 0.0,
    }
    printed = {
        "wall_s": (sum(secs) / len(passes), "s"),
        "op_p50_s": (statistics.median(secs), "s"),
        "op_p90_s": (p90(secs), "s"),
        "pass_cpu_s": (sum(cpus) / len(passes), "s"),
        "op_p50_cpu_s": (statistics.median(cpus), "s"),
        "op_p90_cpu_s": (p90(cpus), "s"),
        "nodes_per_s": (work / sum(secs), "1/s"),
        "nodes_per_cpu_s": (work / sum(cpus), "1/s"),
        "node_rounds_per_s": (node_rounds / sum(secs), "1/s"),
        "node_rounds_per_cpu_s": (node_rounds / sum(cpus), "1/s"),
        "ref_cpu_s": (unit, "s"),
        "worst_awake_max": (max((r["figures"]["worst_awake"] for r in ok), default=0), "rounds"),
        "rounds_max": (max((r["figures"]["rounds"] for r in ok), default=0), "rounds"),
        "failed_ops_frac": (sum(1 for r in ops if failed(r)) / len(ops), "frac"),
    }
    above = sum(1 for c in cpus if c > printed["op_p90_cpu_s"][0])
    pass_cpus = [round(sum(r["cpu"] for r in p), 4) for p in passes]
    notes = [f"{len(passes)} passes, {len(ops)} op samples ({above} above p90); "
             f"per-pass figures are means over passes",
             f"pass CPU seconds: {pass_cpus}"]
    return gated, printed, notes


def run_workload(args, root: str, declared: dict, out) -> dict:
    src = os.path.join(root, "src")
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        prog, ops, setup_s, catalog_s = set_up(args.workload, src, args.seed, tmp)
        env = environment(root, prog)
        print(f"env {json.dumps(env, sort_keys=True)}", file=out)
        deadline = perf_counter() + args.seconds
        printed: dict = {}
        if not args.trace:
            speed = HostSpeed()
            passes = run_passes(prog, ops, deadline, speed=speed)
            values, printed, notes = end_to_end(passes, setup_s, speed.unit())
            notes.append(f"ref_cpu_s: mean of {len(speed.samples)} reference loads")
            kind, all_passes = "end_to_end", passes
            problems = repeat_problems(passes)
        else:
            recorder = Recorder()
            capture = getattr(prog, "capture", None)
            with instrumented(prog, recorder):
                if capture is not None:
                    capture.inner = recorder.wrap(PIPELINE_SPAN, capture.real)
                try:
                    traced = run_passes(prog, ops, deadline, recorder, reserve=1)
                finally:
                    if capture is not None:
                        capture.inner = capture.real
            # the plain pass follows the span passes, so both sides of the
            # overhead figure are warm
            plain = run_passes(prog, ops, 0.0, min_passes=1)
            values, notes = pass_layers(traced, plain[0], catalog_s)
            kind, all_passes = "per_layer", traced + plain
            problems = repeat_problems(all_passes) + span_problems(traced)
            problems += ["per-layer counts differ between span passes"
                         for p in traced[1:] if p[0]["counts"] != traced[0][0]["counts"]]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops_run = [rec for p in all_passes for rec in p]
    for rec in ops_run:
        for msg in ([rec["error"]] if rec["error"] else []) + rec["problems"][:3]:
            print(f"FAIL {rec['name']}: {msg}", file=out)
    for msg in problems:
        print(f"FAIL {msg}", file=out)
    metrics = {}
    for name, unit in declared[kind].items():
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        hint = f"  -> {LAYER_MOVES[name]}" if name in LAYER_MOVES else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{hint}", file=out)
    for name, (value, unit) in printed.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (printed, not gated)", file=out)
    for note in notes:
        print(f"{args.workload} {note}", file=out)
    return {
        "correct": not problems and not any(rec["problems"] for rec in ops_run),
        "attempted": len(ops_run),
        "failed": sum(1 for rec in ops_run if failed(rec)),
        "metrics": metrics,
        "printed": {name: {"value": v, "unit": u} for name, (v, u) in printed.items()},
        "env": env,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append the full result as one JSON line")
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    if not os.path.isfile(os.path.join(root, "src", "sleepcolor", "__init__.py")):
        print("error: run from a sleepcolor checkout (no src/sleepcolor here)",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        results[name] = run_workload(args, root, declared, sys.stdout)
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            for name, res in results.items():
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "seconds": args.seconds, "trace": args.trace,
                                     **res}, sort_keys=True) + "\n")
    if len(results) == 1:
        line = next(iter(results.values()))
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: line[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
