import json
import os
import subprocess
import sys

import sleepcolor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sleepcolor.__file__)))

# Resolves every span boundary on the namespace the benchmark itself builds.
_PROBE = """
from spans import BOUNDARIES
from workloads import load_program

prog = load_program({src!r})
for key, attr, _name, _keep in BOUNDARIES:
    if not hasattr(getattr(prog, key, None), attr):
        print(key, attr)
"""

# Parses the argv of the benchmark's traced `sleepcolor run` operation.
_ARGV_PROBE = """
from workloads import GNP_DEGREE, RESIDUAL_ARGS, RESIDUAL_N, load_program

prog = load_program({src!r})
n = RESIDUAL_N
prog.cli.build_parser().parse_args(
    ["run", "--family", "gnp", "--n", str(n), "--param", repr(GNP_DEGREE / n),
     "--seeds", "1", "--seed-base", "1", "--out", "o.csv", *RESIDUAL_ARGS,
     "--trace", "o.trace"])
"""


# One span pass of gnp_sweep's first operation (n = 4096) and of the
# residual_traced operation, wrapped as run.py's span run wraps them; prints
# each operation's error, problems and layer counts as one JSON line.
_SPAN_RUN_PROBE = """
import json
from run import run_op
from spans import PIPELINE_SPAN, Recorder, instrumented
from workloads import build, load_program

for workload in ("gnp_sweep", "residual_traced"):
    prog = load_program({src!r})
    ops, _ = build(workload, prog, 1, {tmp!r})
    recorder = Recorder()
    capture = prog.capture
    with instrumented(prog, recorder):
        capture.inner = recorder.wrap(PIPELINE_SPAN, capture.real)
        try:
            rec = run_op(prog, ops[0], recorder)
        finally:
            capture.inner = capture.real
    print(json.dumps([rec["name"], rec["error"], rec["problems"], rec["layer"]]))
"""


def _probe(code: str, **fields) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code.format(src=SRC, **fields)],
        cwd=PERFBENCH, capture_output=True, text=True,
    )


def test_span_boundaries_resolve_on_the_package():
    # a rename that only the --trace 1 span run would trip over fails here
    out = _probe(_PROBE)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "", f"unresolved span boundaries:\n{out.stdout}"


def test_benchmark_cli_arguments_parse():
    # a flag removal that would break a benchmark workload fails here
    out = _probe(_ARGV_PROBE)
    assert out.returncode == 0, out.stderr


def test_span_run_counts_layers_on_the_package(tmp_path):
    # the layer counter reads colors, residual and extra["classes"] from the
    # phase outcomes; a rename there fails here, not only in a --trace 1 run
    out = _probe(_SPAN_RUN_PROBE, tmp=str(tmp_path))
    assert out.returncode == 0, out.stderr
    recs = [json.loads(line) for line in out.stdout.splitlines()]
    assert [name for name, *_ in recs] == ["gnp_n4096", "residual_n16384"]
    for name, error, problems, layer in recs:
        assert error is None and problems == [], name
        assert layer["coloring.phase1_colored"] > 0, name
        assert layer["coloring.phase3_classes"] >= 1, name
        assert layer["metrics.collect_errors"] == 0, name
