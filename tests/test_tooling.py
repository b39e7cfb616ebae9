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


def _probe(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code.format(src=SRC)],
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
