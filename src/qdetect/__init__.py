"""Quantum-decision change detection: an open-system decision model, the
two-layer filtering protocol built on it, the resulting optimal stopping
problem, and Blackwell-style robustness comparisons."""

from types import ModuleType as _ModuleType

from .errors import (
    CacheMiss,
    ConfigError,
    ImpossibleAction,
    ImpossibleObservation,
    InvalidModel,
    NonConvergence,
    NumericalFailure,
    QDetectError,
    RunawayEpisode,
    UnsupportedParameter,
)
from .quantum import (
    ActionMap,
    DecisionFrame,
    PsychParams,
    assemble_lindbladian,
    belief_matrix,
    cognitive_matrix,
    evolve,
    hamiltonian,
    maximally_mixed,
    steady_state_distribution,
    subjective_choice_matrix,
)
from .protocol import (
    ActionKernel,
    BeliefGrid,
    ChangeModel,
    DetectionCosts,
    EpisodeBatch,
    ObservationModel,
    ParameterMixture,
    build_action_kernel,
    build_mismatched_kernel,
    episode_generators,
    estimate_cost,
    simulate_episodes,
)
from .stopping import (
    Policy,
    ValueTable,
    classical_value_iteration,
    evaluate_policy,
    extract_threshold,
    value_iteration,
)
from .config import ExperimentConfig, config_hash, load_config, load_config_file

__version__ = "0.1.0"

# dominance takes about 3 ms to import and serves only the robustness
# comparisons, so its names load it on first access (PEP 562)
_DOMINANCE = (
    "BetweennessReport",
    "KLBoundReport",
    "best_transform",
    "box_grid",
    "interpolation_betweenness_check",
    "model_distance",
    "region_scan",
    "sensitivity_bound_check",
)


def __getattr__(name):
    if name in _DOMINANCE:
        from . import dominance
        return getattr(dominance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_DOMINANCE})


# the public names, not the submodules that importing them binds here
__all__ = sorted([*_DOMINANCE, *(name for name, value in globals().items()
                                 if not name.startswith("_")
                                 and not isinstance(value, _ModuleType))])
