"""Collision-model simulator for coherent and measurement-based quantum feedback."""

__version__ = "0.1.0"

from . import metrics, oracles, quantum, weaklimit
from .loop import (
    DegenerateSteadyStateError,
    FeedbackProtocol,
    all_to_target_stage,
    build_superoperator,
    coherent_stage,
    conditional_branches,
    cycle_unconditional,
    iterate_to_fixed_point,
    povm_stage,
    projective_stage,
    sample_ensemble,
    steady_state,
)

__all__ = [
    "__version__",
    "quantum",
    "metrics",
    "oracles",
    "weaklimit",
    "coherent_stage",
    "projective_stage",
    "povm_stage",
    "FeedbackProtocol",
    "DegenerateSteadyStateError",
    "all_to_target_stage",
    "build_superoperator",
    "conditional_branches",
    "cycle_unconditional",
    "iterate_to_fixed_point",
    "sample_ensemble",
    "steady_state",
]
