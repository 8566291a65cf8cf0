"""Collision-model simulator for coherent and measurement-based quantum feedback."""

__version__ = "0.1.0"

from . import linops, metrics, oracles, quantum, weaklimit
from .loop import (
    CoherentStage,
    DegenerateSteadyStateError,
    FeedbackProtocol,
    PovmStage,
    ProjectiveStage,
    Superoperator,
    all_to_target_stage,
    build_superoperator,
    conditional_branches,
    cycle_unconditional,
    iterate_to_fixed_point,
    sample_ensemble,
    steady_state,
)

__all__ = [
    "__version__",
    "linops",
    "quantum",
    "metrics",
    "oracles",
    "weaklimit",
    "CoherentStage",
    "ProjectiveStage",
    "PovmStage",
    "FeedbackProtocol",
    "Superoperator",
    "DegenerateSteadyStateError",
    "all_to_target_stage",
    "build_superoperator",
    "conditional_branches",
    "cycle_unconditional",
    "iterate_to_fixed_point",
    "sample_ensemble",
    "steady_state",
]
