"""Multi-process Monte Carlo trial runners and the engine rule."""

from .parallel import (
    default_jobs,
    measure_protocol_parallel,
    run_trials_parallel,
    shared_process_pool,
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
    "measure_protocol_parallel",
    "run_trials_parallel",
    "shared_process_pool",
    "Placement",
    "adversarial_far_placement",
    "all_to_all_placement",
    "random_placement",
    "single_source_placement",
    "spread_placement",
    "validate_placement",
]
