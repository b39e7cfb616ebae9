"""The three-phase randomized list-coloring pipeline."""

from .phase1 import Phase1Program, run_phase1
from .phase2 import run_phase2
from .phase3 import (
    class_duties,
    interim_palette,
    linial_step,
    palette_schedule,
    run_phase3,
    tournament_slot_count,
)
from .pipeline import (
    PipelineConfig,
    default_k1,
    default_phase2_threshold,
    run_pipeline,
)

__all__ = [
    "Phase1Program",
    "PipelineConfig",
    "class_duties",
    "default_k1",
    "default_phase2_threshold",
    "interim_palette",
    "linial_step",
    "palette_schedule",
    "run_phase1",
    "run_phase2",
    "run_phase3",
    "run_pipeline",
    "tournament_slot_count",
]
