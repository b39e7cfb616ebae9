"""Span recording at the package's module boundaries.

The span run wraps the public functions each module hands to the next one
(the names a caller looks up at call time), records one span per call with
its name, start, end and parent, and restores the originals afterwards.
Nothing inside the package changes: the wrappers only replace module
attributes for the duration of the span passes.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under one operation add up to
that operation's wall time.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# (module key in the program namespace, attribute, span name, keep the call)
# A kept call stores (args, kwargs, result) so counts can be taken after the
# operation ends, outside every timed span.
BOUNDARIES = (
    ("cli", "main", "cli", False),
    ("cli", "generate", "graph.generate", True),
    ("cli", "make_default_instance", "graph.instance", False),
    ("cli", "write_csv", "metrics.csv", False),
    ("pipeline", "run_phase1", "coloring.phase1", True),
    ("pipeline", "run_phase2", "coloring.phase2", False),
    ("pipeline", "run_phase3", "coloring.phase3", True),
    ("pipeline", "validity_verdict", "metrics.verdict", False),
    ("phase1", "run_simulation", "simcore.simulate", True),
    ("phase2", "run_simulation", "simcore.simulate", True),
    ("phase3", "run_simulation", "simcore.simulate", True),
    ("Trace", "render", "simcore.trace_render", False),
    ("metrics", "collect", "metrics.collect", False),
    ("oracle", "exact_adoption_probabilities", "oracle.exact", True),
    ("kernels", "phase1_trial_counts", "kernels.trial_counts", True),
    ("kernels", "instance_arrays", "kernels.arrays", False),
)
# cli.run_pipeline is wrapped separately, inside the benchmark's output
# capture, so that capture stays in place whether spans are on or off.
PIPELINE_SPAN = "coloring.pipeline"


class Recorder:
    """Spans and kept calls of one span run, held in memory."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.calls: list[tuple] = []         # (name, args, kwargs, result)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep: bool = False):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.calls.append((name, args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def take(self) -> tuple[list[list], list[tuple]]:
        """Hand over everything recorded so far and start empty."""
        spans, calls = self.spans, self.calls
        self.spans, self.calls = [], []
        return spans, calls


@contextmanager
def instrumented(prog, recorder: Recorder):
    """Install the boundary wrappers on `prog`'s modules, restore on exit."""
    saved = []
    try:
        for key, attr, name, keep in BOUNDARIES:
            owner = getattr(prog, key)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, keep))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def tree_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], list[float]]:
    """(self seconds by name, inclusive seconds by name, self per span).

    Spans must be in start order with parents before children, which is
    the order the recorder appends them in.
    """
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    self_by: dict[str, float] = {}
    incl_by: dict[str, float] = {}
    for (name, start, end, _parent), s in zip(spans, own):
        self_by[name] = self_by.get(name, 0.0) + s
        incl_by[name] = incl_by.get(name, 0.0) + (end - start)
    return self_by, incl_by, own


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    wrapped = Recorder().wrap("noop", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
