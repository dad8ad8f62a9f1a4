"""Named experiments, workloads, parallel trial runners and reporting."""

from .parallel import (
    default_jobs,
    measure_protocol_batched,
    measure_protocol_parallel,
    run_trials_batched,
    run_trials_parallel,
    shared_process_pool,
)
from .reporting import format_comparison, format_experiment_report, format_markdown_table
from .runner import (
    EXPERIMENTS,
    Experiment,
    ExperimentResult,
    SpanningTreeFactory,
    TagFactory,
    UniformGossipFactory,
    default_config,
    register_experiment,
    run_experiment,
    tag_case,
    uniform_ag_case,
)
# Re-exported from the scenario layer, where the placements live.
from ..scenarios.placements import (
    Placement,
    adversarial_far_placement,
    all_to_all_placement,
    random_placement,
    single_source_placement,
    spread_placement,
    validate_placement,
)

__all__ = [
    "default_jobs",
    "measure_protocol_batched",
    "measure_protocol_parallel",
    "run_trials_batched",
    "run_trials_parallel",
    "shared_process_pool",
    "SpanningTreeFactory",
    "TagFactory",
    "UniformGossipFactory",
    "format_comparison",
    "format_experiment_report",
    "format_markdown_table",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "default_config",
    "register_experiment",
    "run_experiment",
    "tag_case",
    "uniform_ag_case",
    "Placement",
    "adversarial_far_placement",
    "all_to_all_placement",
    "random_placement",
    "single_source_placement",
    "spread_placement",
    "validate_placement",
]
