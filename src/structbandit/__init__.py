"""Simulation and analysis toolkit for finite-model structured bandits."""

__version__ = "0.1.0"

from .algorithms import (
    ALGORITHMS,
    AgentConfig,
    AgentState,
    AsaeAgent,
    Environment,
    RunResult,
    SaeAgent,
    SucbAgent,
    Ucb1Agent,
    make_agent,
    simulate,
)
from .gaps import (
    TOLERANCE,
    RewardSpec,
    Structure,
    StructureClass,
    classify,
    delta_floor,
    gamma_star,
    model_gap,
    models_with_optimal_arm,
    optimal_arm_set,
    optimistic_models,
    psi,
    suboptimality_gap,
    true_gaps,
)
from .simulation import (
    AggregateResult,
    BatchResult,
    ExperimentConfig,
    default_checkpoints,
    regularized_incomplete_beta,
    run_batch,
    run_randomized_batch,
    stream_seed,
    student_t_quantile,
    write_batch,
    write_pulls_csv,
    write_regret_csv,
)
from .structures import (
    GeneratorSpec,
    build_figure_left,
    build_figure_right,
    generate_random,
    load_structure,
    save_structure,
)
from .theory import (
    BoundReport,
    BoundTerm,
    TheorySequences,
    asae_bound,
    asae_constant_bound,
    confidence_failure_bound,
    deterministic_sequences,
    k_beta,
    lower_bound_cr,
    omega,
    sae_bound,
    sucb_bound,
    ucb_reference_bound,
)

__all__ = [
    "ALGORITHMS", "AgentConfig", "AgentState", "AggregateResult", "AsaeAgent",
    "BatchResult", "BoundReport", "BoundTerm", "Environment",
    "ExperimentConfig", "GeneratorSpec", "RewardSpec",
    "RunResult", "SaeAgent", "Structure", "StructureClass", "SucbAgent",
    "TOLERANCE", "TheorySequences", "Ucb1Agent", "asae_bound",
    "asae_constant_bound", "build_figure_left", "build_figure_right",
    "classify", "confidence_failure_bound", "default_checkpoints",
    "delta_floor", "deterministic_sequences", "gamma_star", "generate_random",
    "k_beta", "load_structure", "lower_bound_cr", "make_agent", "model_gap",
    "models_with_optimal_arm", "omega", "optimal_arm_set", "optimistic_models",
    "psi", "regularized_incomplete_beta", "run_batch", "run_randomized_batch",
    "sae_bound", "save_structure", "simulate", "stream_seed",
    "student_t_quantile", "suboptimality_gap", "sucb_bound", "true_gaps",
    "ucb_reference_bound", "write_batch", "write_pulls_csv", "write_regret_csv",
]
