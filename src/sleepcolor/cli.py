"""Experiment harness CLI.

Subcommands:

  run      generate or load instances, sweep seeds, emit one CSV row per run
  scaling  run a size sweep and fit awake complexity against log2 log2 n
  oracle   exact single-iteration adoption probabilities (tiny instances)

Exit codes: 0 all runs valid, 1 usage, instance or output errors, 2 when a
phase overran its own schedule (an internal invariant).  Errors go to
stderr prefixed "error:".
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import oracle
from .coloring import PipelineConfig, run_pipeline
from .errors import (
    InstanceError,
    ParseError,
    RunIncomplete,
    SleepColorError,
    TooLargeForOracle,
    UsageError,
)
from .graph import FAMILIES, format_decimal, generate, make_default_instance, read_instance
from .metrics import aggregate, write_csv
from .simcore import Trace


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="sleepcolor", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--family", choices=FAMILIES, help="graph family to generate")
        p.add_argument("--n", type=int, help="number of nodes")
        p.add_argument("--param", type=float,
                       help="family parameter (gnp probability, regular degree)")
        p.add_argument("--instance", help="read the instance from a .dlc file instead")
        p.add_argument("--seeds", type=int, default=1, help="number of seeds to run")
        p.add_argument("--seed-base", type=int, default=0,
                       help="first seed; seeds are base..base+k-1")
        p.add_argument("--k1", type=int, help="phase-1 iteration budget override")
        p.add_argument("--phase2-threshold", type=int,
                       help="degree threshold for phase 2 (default: polylog, usually > n)")

    p_run = sub.add_parser("run", help="run the pipeline over a seed sweep")
    add_common(p_run)
    p_run.add_argument("--out", help="CSV output path (default: stdout)")
    p_run.add_argument("--trace", help="write the per-run traces to this path")

    p_sca = sub.add_parser("scaling", help="size sweep with a log2 log2 n fit")
    add_common(p_sca)
    p_sca.add_argument("--sizes", required=True,
                       help="comma-separated node counts, e.g. 256,1024,4096")
    p_sca.add_argument("--out", help="also write every run as a CSV row")

    p_ora = sub.add_parser("oracle", help="exact adoption probabilities")
    p_ora.add_argument("--instance", help="analyze one instance file instead of the catalog")
    return parser


def _config_from_args(args, seed: int) -> PipelineConfig:
    return PipelineConfig(k1=args.k1, phase2_degree_threshold=args.phase2_threshold, seed=seed)


def _read(path: str):
    """The instance in the `.dlc` file at `path`; a file that cannot be
    opened is an `InstanceError`.  Every command reads its file here, once."""
    try:
        return read_instance(path)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from None


def _output(path):
    """`path` opened for writing, or a null context when no path is given.

    Output files are opened before the first run, so an unwritable path
    fails before any work is done."""
    return open(path, "w", encoding="utf-8") if path else nullcontext()


def _sweep(args, family, n, param, trace_out=None):
    """Run the seed sweep, returning (csv rows, metrics list, exit code).

    An `--instance` file is read once and run with every seed; otherwise
    each seed generates its own graph.  With `trace_out`, each run's trace
    goes there as soon as the run ends, under a `# run seed=S` line, and is
    dropped before the next run starts.
    """
    if args.instance:
        family, param, inst = "file", None, _read(args.instance)
    elif not family or not n:
        raise UsageError("need --family and --n (or --instance)")
    rows = []
    metrics_list = []
    code = 0
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        if not args.instance:
            inst = make_default_instance(generate(family, n, seed, param))
        size = inst.graph.node_count
        config = _config_from_args(args, seed)
        resolved = config.resolve(size)
        trace = None if trace_out is None else Trace()
        _, metrics = run_pipeline(inst, config, trace=trace)
        if trace is not None:
            trace_out.write(f"# run seed={seed}\n")
            trace_out.writelines(trace.chunks())
            del trace
        rows.append(metrics.csv_row(seed, family, size, param,
                                    resolved.k1, resolved.phase2_degree_threshold))
        metrics_list.append(metrics)
        if metrics.validity != "proper_total":
            code = 1
    return rows, metrics_list, code


def cmd_run(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    if args.out and args.trace and os.path.realpath(args.out) == os.path.realpath(args.trace):
        raise UsageError("--out and --trace name the same file")
    with _output(args.trace) as trace_out, _output(args.out) as out:
        rows, _metrics, code = _sweep(args, args.family, args.n, args.param, trace_out)
        # written after the last run: the header's width depends on every row
        write_csv(out or sys.stdout, rows, _config_from_args(args, args.seed_base).kv_block())
    return code


def fit_line(xs, ys) -> tuple[float, float, list[float]]:
    """Least-squares y = a*x + b; returns (a, b, residuals)."""
    n = len(xs)
    if n == 0:
        raise UsageError("empty fit")
    if len(set(xs)) == 1:
        b = sum(ys) / n
        return 0.0, b, [y - b for y in ys]
    xm = sum(xs) / n
    ym = sum(ys) / n
    var = sum((x - xm) ** 2 for x in xs)
    cov = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    a = cov / var
    b = ym - a * xm
    return a, b, [y - (a * x + b) for x, y in zip(xs, ys)]


def cmd_scaling(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad --sizes list: {args.sizes!r}") from None
    if not sizes:
        raise UsageError("--sizes must list at least one size")
    if min(sizes) < 1:
        raise UsageError(f"--sizes must all be >= 1, got {min(sizes)}")
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    if args.instance:
        raise UsageError("scaling needs generated families, not --instance")

    all_rows = []
    xs, worst_max, avg_mean = [], [], []
    family = args.family or "gnp"
    code = 0
    with _output(args.out) as out:
        for n in sizes:
            # gnp's --param is the expected degree here, so p = param / n
            param = args.param
            if family == "gnp":
                param = (param if param is not None else 8.0) / n
            rows, metrics, c = _sweep(args, family, n, param)
            code = max(code, c)
            all_rows.extend(rows)
            summary = aggregate(metrics)
            x = math.log2(math.log2(n)) if n >= 4 else 1.0
            xs.append(x)
            worst_max.append(summary["worst_case_awake"]["max"])
            avg_mean.append(summary["average_awake"]["mean"])
            print(
                f"size n={n} runs={summary['runs']} "
                f"worst_awake_max={summary['worst_case_awake']['max']:.0f} "
                f"worst_awake_p95={summary['worst_case_awake']['p95']:.0f} "
                f"avg_awake_mean={summary['average_awake']['mean']:.4f} "
                f"total_rounds_max={summary['total_rounds']['max']:.0f} "
                f"all_valid={int(summary['all_valid'])}"
            )
        a, b, residuals = fit_line(xs, worst_max)
        res_txt = ",".join(f"{r:+.3f}" for r in residuals)
        print(f"fit worst_awake_max ~ a*log2log2(n)+b: a={a:.4f} b={b:.4f} "
              f"residuals=[{res_txt}] max_residual={max(abs(r) for r in residuals):.4f}")
        slope, _b2, _res2 = fit_line(xs, avg_mean)
        print(f"fit avg_awake_mean slope={slope:.4f}")
        if out is not None:
            write_csv(out, all_rows, _config_from_args(args, args.seed_base).kv_block())
    return code


def cmd_oracle(args) -> int:
    quarter = Fraction(1, 4)
    if args.instance:
        entries = [(args.instance, _read(args.instance))]
    else:
        entries = oracle.tiny_catalog()
    ok = True
    for name, inst in entries:
        probs = oracle.exact_adoption_probabilities(inst)
        for v in inst.graph.nodes:
            p = probs[v]
            mark = "" if p >= quarter else "  BELOW-1/4"
            print(f"{name} node {format_decimal(v)} p={p.numerator}/{p.denominator}{mark}")
            if p < quarter:
                ok = False
    print(f"all-adoption-probabilities>=1/4: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "scaling":
            return cmd_scaling(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 1
    except InstanceError as exc:
        print(f"error: instance: {exc}", file=sys.stderr)
        return 1
    except TooLargeForOracle as exc:
        print(f"error: oracle: {exc}", file=sys.stderr)
        return 1
    except RunIncomplete as exc:
        print(f"error: incomplete: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an output path that cannot be written; input files are read by `_read`
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except SleepColorError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
