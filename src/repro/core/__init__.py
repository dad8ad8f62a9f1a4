"""Core simulation kernel: configuration, results and random-number streams."""

from .config import GossipAction, SimulationConfig, TimeModel
from .results import RunResult, StoppingTimeStats, aggregate_results, json_ready
from .rng import DEFAULT_SEED, derive_rng, derive_seed

__all__ = [
    "GossipAction",
    "SimulationConfig",
    "TimeModel",
    "RunResult",
    "StoppingTimeStats",
    "aggregate_results",
    "json_ready",
    "DEFAULT_SEED",
    "derive_rng",
    "derive_seed",
]
