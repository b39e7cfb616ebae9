"""Compare two result sets written by `run.py --save`.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Prints, per workload and metric, each side's median and quartiles and the
change against the parent.  End-to-end metrics worse than the parent by
more than their BENCHMARK.json bound are marked REGRESSED.  Refuses (exit 2)
when the two sets ran on different kernel backends: the pure and compiled
kernels differ by about 100x, so such a comparison measures the build, not
the change.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def backends(records: list[dict]) -> set[str]:
    return {r["env"]["kernel_backend"] for r in records}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    used = (backends(parent), backends(change))
    if len(used[0] | used[1]) != 1:
        print(f"error: kernel backends differ (parent {sorted(used[0])}, change "
              f"{sorted(used[1])}); refusing to compare", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def values(records, workload, trace, name):
        figs = [{**r["metrics"], **r.get("printed", {})} for r in records
                if (r["workload"], r["trace"]) == (workload, trace)]
        return [f[name]["value"] for f in figs if name in f]

    # printed-only figures have no direction or bound; compare them as "lower"
    for r in parent + change:
        for name, m in r.get("printed", {}).items():
            declared.setdefault(name, {"unit": m["unit"], "better": "lower"})
    groups = sorted({(r["workload"], r["trace"]) for r in parent + change})
    for workload, trace in groups:
        for name, meta in declared.items():
            a = values(parent, workload, trace, name)
            b = values(change, workload, trace, name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            rel = (mb - ma) / ma if ma else 0.0
            worse = rel if meta["better"] == "lower" else -rel
            flag = " REGRESSED" if "bound" in meta and worse > meta["bound"] else ""
            print(f"{workload} {name}: parent {ma:.6g} (n={len(a)}) change {mb:.6g} "
                  f"(n={len(b)}) {rel:+.2%} {meta['unit']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
