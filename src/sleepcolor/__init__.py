"""Sleeping-model distributed list-coloring simulator.

A deterministic synchronous round engine where nodes may sleep (messages
to sleeping nodes are lost), a three-phase randomized (deg+1)-list-coloring
pipeline instrumented for awake-complexity accounting, an exact-enumeration
oracle for tiny instances, and an experiment harness.
"""

from .coloring import PipelineConfig, run_pipeline
from .graph import (
    Coloring,
    ColoringInstance,
    Graph,
    build_graph,
    generate,
    make_default_instance,
    make_instance,
    read_instance,
    write_instance,
)
from .metrics import RunMetrics, aggregate, collect, validity_verdict
from .rng import NodeRng
from .simcore import (
    Action,
    SimulationResult,
    Trace,
    run_simulation,
)

__version__ = "0.1.0"

# The phase-1 kernel is plain Python; perfbench records this name.
kernel_backend = "pure"

__all__ = [
    "Action",
    "Coloring",
    "ColoringInstance",
    "Graph",
    "NodeRng",
    "PipelineConfig",
    "RunMetrics",
    "SimulationResult",
    "Trace",
    "aggregate",
    "build_graph",
    "collect",
    "generate",
    "kernel_backend",
    "make_default_instance",
    "make_instance",
    "read_instance",
    "run_pipeline",
    "run_simulation",
    "validity_verdict",
    "write_instance",
]
