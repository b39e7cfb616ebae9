import os
import subprocess
import sys

import sleepcolor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# Resolves every span boundary on the namespace the benchmark itself builds.
_PROBE = """
from spans import BOUNDARIES
from workloads import load_program

prog = load_program({src!r})
for key, attr, _name, _keep in BOUNDARIES:
    if not hasattr(getattr(prog, key, None), attr):
        print(key, attr)
"""


def test_span_boundaries_resolve_on_the_package():
    # a rename that only the --trace 1 span run would trip over fails here
    src = os.path.dirname(os.path.dirname(os.path.abspath(sleepcolor.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(src=src)],
        cwd=PERFBENCH, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "", f"unresolved span boundaries:\n{out.stdout}"
