"""Per-layer metrics of the span run, and what each is expected to move.

Times are self times (span minus child spans) unless the name says a
phase span (`coloring.phaseN_s`), which includes the engine call inside
it.  Counts come from the objects the wrapped calls returned, read after
the operation ends.  Not-applicable values (no trace on gnp_sweep, no
kernel on the pipeline workloads) read 0.
"""

from __future__ import annotations

import statistics

from spans import tree_times, wrapper_cost

# per-layer metric -> the end-to-end metric and workload it should move
LAYER_MOVES = {
    "graph.generate_s": "pass_ref on gnp_sweep",
    "graph.instance_s": "pass_ref on gnp_sweep",
    "graph.edges": "pass_ref on gnp_sweep",
    "simcore.simulate_s": "node_rounds_per_ref on gnp_sweep",
    "simcore.calls": "node_rounds_per_ref on gnp_sweep",
    "simcore.rounds": "node_rounds_per_ref on gnp_sweep",
    "simcore.node_rounds": "node_rounds_per_ref on gnp_sweep",
    "simcore.node_rounds_per_s": "node_rounds_per_ref on gnp_sweep",
    "simcore.msgs_sent": "pass_ref, peak_rss_mb on residual_traced",
    "simcore.msgs_lost": "pass_ref, peak_rss_mb on residual_traced",
    "simcore.delivery_ratio": "pass_ref, peak_rss_mb on residual_traced",
    "simcore.trace_events": "pass_ref, peak_rss_mb on residual_traced",
    "simcore.trace_bytes": "pass_ref, peak_rss_mb on residual_traced",
    "simcore.trace_render_s": "pass_ref, peak_rss_mb on residual_traced",
    "coloring.phase1_s": "pass_ref on gnp_sweep",
    "coloring.phase2_s": "pass_ref on residual_traced",
    "coloring.phase3_s": "pass_ref on residual_traced",
    "coloring.phase1_self_s": "pass_ref on residual_traced",
    "coloring.phase2_self_s": "pass_ref on residual_traced",
    "coloring.phase3_self_s": "pass_ref on residual_traced",
    "coloring.pipeline_self_s": "pass_ref on residual_traced",
    "coloring.phase1_colored_frac": "avg_awake_mean; worst_awake_max, rounds_max (printed)",
    "coloring.residual_nodes": "avg_awake_mean; worst_awake_max, rounds_max (printed)",
    "coloring.phase3_classes": "avg_awake_mean; worst_awake_max, rounds_max (printed)",
    "coloring.phase1_awake": "avg_awake_mean; worst_awake_max, rounds_max (printed)",
    "coloring.phase2_awake": "avg_awake_mean; worst_awake_max, rounds_max (printed)",
    "coloring.phase3_awake": "avg_awake_mean; worst_awake_max, rounds_max (printed)",
    "coloring.worst_awake_max": "worst_awake_max (printed)",
    "coloring.rounds_max": "rounds_max (printed)",
    "metrics.verdict_s": "pass_ref on gnp_sweep and residual_traced",
    "metrics.csv_s": "pass_ref on gnp_sweep and residual_traced",
    "metrics.collect_s": "none (span run only)",
    "metrics.collect_errors": "none (span run only)",
    "kernels.arrays_s": "node_rounds_per_ref on mc_oracle",
    "kernels.trial_counts_s": "node_rounds_per_ref on mc_oracle",
    "kernels.node_trials_per_s": "node_rounds_per_ref on mc_oracle",
    "oracle.exact_s": "pass_ref on mc_oracle",
    "oracle.outcomes": "pass_ref on mc_oracle",
    "oracle.catalog_s": "setup_s on mc_oracle",
    "cli.self_s": "pass_ref on residual_traced",
    "bench.self_s": "none (benchmark code inside an op)",
    "span.overhead_frac": "none (span run against the plain pass)",
}

# metric -> span name, for self times
_SELF = {
    "graph.generate_s": "graph.generate",
    "graph.instance_s": "graph.instance",
    "simcore.simulate_s": "simcore.simulate",
    "simcore.trace_render_s": "simcore.trace_render",
    "coloring.phase1_self_s": "coloring.phase1",
    "coloring.phase2_self_s": "coloring.phase2",
    "coloring.phase3_self_s": "coloring.phase3",
    "coloring.pipeline_self_s": "coloring.pipeline",
    "metrics.verdict_s": "metrics.verdict",
    "metrics.csv_s": "metrics.csv",
    "kernels.arrays_s": "kernels.arrays",
    "kernels.trial_counts_s": "kernels.trial_counts",
    "oracle.exact_s": "oracle.exact",
    "cli.self_s": "cli",
    "bench.self_s": "op",
}
# metric -> span name, for inclusive phase spans
_INCL = {
    "coloring.phase1_s": "coloring.phase1",
    "coloring.phase2_s": "coloring.phase2",
    "coloring.phase3_s": "coloring.phase3",
}
COUNTS = ("graph.edges", "simcore.calls", "simcore.rounds", "simcore.node_rounds",
           "simcore.msgs_sent", "simcore.msgs_lost", "simcore.trace_events",
           "simcore.trace_bytes", "coloring.residual_nodes", "coloring.phase3_classes",
           "coloring.phase1_awake", "coloring.phase2_awake", "coloring.phase3_awake",
           "metrics.collect_errors", "oracle.outcomes", "kernels.node_trials",
           "coloring.phase1_nodes", "coloring.phase1_colored",
           "coloring.worst_awake_max", "coloring.rounds_max")
# counts a pass reports as the largest over its ops; the rest are summed
_MAX = ("coloring.phase3_classes", "coloring.worst_awake_max", "coloring.rounds_max")


def op_layer(spans, calls, figures, keep, collect) -> dict:
    """Times and counts of one operation, taken right after it ends."""
    self_by, incl_by, _own = tree_times(spans)
    c = {metric: self_by.get(span, 0.0) for metric, span in _SELF.items()}
    c.update({metric: incl_by.get(span, 0.0) for metric, span in _INCL.items()})
    c.update(dict.fromkeys(COUNTS, 0))
    c["metrics.collect_s"] = 0.0
    c["coloring.worst_awake_max"] = figures.get("worst_awake", 0)
    c["coloring.rounds_max"] = figures.get("rounds", 0)
    for name, args, _kwargs, result in calls:
        if name == "graph.generate":
            c["graph.edges"] += result.edge_count()
        elif name == "simcore.simulate":
            c["simcore.calls"] += 1
            c["simcore.rounds"] += result.rounds_executed
            c["simcore.node_rounds"] += sum(result.awake_rounds.values())
        elif name == "coloring.phase1":
            c["coloring.phase1_nodes"] += len(args[0].graph.nodes)
            c["coloring.phase1_colored"] += len(result.colors)
            if result.residual is not None:
                c["coloring.residual_nodes"] += len(result.residual.graph.nodes)
        elif name == "coloring.phase3":
            c["coloring.phase3_classes"] = max(c["coloring.phase3_classes"],
                                               result.extra["classes"])
        elif name == "oracle.exact":
            size = 1
            for lst in args[0].lists.values():
                size *= len(lst) + 1
            c["oracle.outcomes"] += size
        elif name == "kernels.trial_counts":
            instance, _seed_base, trials = args[:3]
            c["kernels.node_trials"] += len(instance.graph.nodes) * trials
    if "metrics" in keep:
        for phase, awake in keep["metrics"].phase_awake.items():
            c[f"coloring.phase{phase}_awake"] += awake
    if "trace" in keep:
        msgs = keep["trace"].msg_events
        c["simcore.msgs_sent"] += len(msgs)
        c["simcore.msgs_lost"] += sum(1 for m in msgs if not m[3])
        c["simcore.trace_events"] += len(msgs) + len(keep["trace"].node_events)
        c["simcore.trace_bytes"] += keep["trace_bytes"]
    if collect is not None:
        c["metrics.collect_s"], c["metrics.collect_errors"] = collect
    return c


def _pass_values(recs: list[dict]) -> tuple[dict, dict]:
    """(metric values, raw counts) for one span pass."""
    total: dict = {}
    for rec in recs:
        for k, v in rec.get("layer", {}).items():
            if k in _MAX:
                total[k] = max(total.get(k, 0), v)
            else:
                total[k] = total.get(k, 0) + v
    counts = {k: total.get(k, 0) for k in COUNTS}
    values = {k: v for k, v in total.items() if k in LAYER_MOVES}
    sent = counts["simcore.msgs_sent"]
    values.update({
        "simcore.node_rounds_per_s": _ratio(counts["simcore.node_rounds"],
                                            total.get("simcore.simulate_s", 0.0)),
        "simcore.delivery_ratio": _ratio(sent - counts["simcore.msgs_lost"], sent),
        "coloring.phase1_colored_frac": _ratio(counts["coloring.phase1_colored"],
                                               counts["coloring.phase1_nodes"]),
        "kernels.node_trials_per_s": _ratio(counts["kernels.node_trials"],
                                            total.get("kernels.trial_counts_s", 0.0)),
    })
    return values, counts


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_layers(traced: list[list[dict]], plain: list[dict], catalog_s: float):
    """Per-layer values (median over span passes) and notes.

    Each pass's raw counts are stored on its first record under "counts" so
    the caller can require them to repeat exactly.
    """
    per_pass = []
    for recs in traced:
        values, counts = _pass_values(recs)
        recs[0]["counts"] = counts
        per_pass.append(values)
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    plain_wall = sum(rec["seconds"] for rec in plain)
    span_wall = sum(rec["seconds"] for rec in traced[-1])
    out["span.overhead_frac"] = span_wall / plain_wall - 1
    out["oracle.catalog_s"] = catalog_s
    spans = sum(len(rec.get("spans", ())) for rec in traced[-1])
    direct = spans * wrapper_cost()
    notes = [f"span overhead: last of {len(traced)} span passes {span_wall:.4f} s, "
             f"plain pass after it {plain_wall:.4f} s; the difference is mostly "
             f"host noise, the wrappers themselves cost {spans} spans x "
             f"{direct / max(spans, 1) * 1e6:.2f} us = {direct / span_wall:.2e} of the pass"]
    return out, notes
