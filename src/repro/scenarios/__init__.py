"""The scenario layer: declarative, named, JSON-round-trippable workloads.

One :class:`ScenarioSpec` describes a whole experiment — topology, size,
message placement, protocol, simulation config (including churn schedules
and heterogeneous activation rates), trial/seed plan — and drives the same
workload through the CLI, the campaigns, the parallel trial
runners and the benchmarks with identical seeded results.
"""

from .placements import (
    Placement,
    adversarial_far_placement,
    all_to_all_placement,
    random_placement,
    single_source_placement,
    spread_placement,
    validate_placement,
)
from .registry import SCENARIOS, get_scenario, register_scenario, scenario_names
from .spec import (
    ACTIVATION_KINDS,
    PLACEMENTS,
    PROTOCOLS,
    TREE_PROTOCOLS,
    MaterializedScenario,
    ScenarioSpec,
    SpanningTreeFactory,
    TagFactory,
    UniformGossipFactory,
    default_scenario_config,
)
from .sweeps import decade_ns, decade_sweep, log_sized_cliques

__all__ = [
    "Placement",
    "adversarial_far_placement",
    "all_to_all_placement",
    "random_placement",
    "single_source_placement",
    "spread_placement",
    "validate_placement",
    "SCENARIOS",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "ACTIVATION_KINDS",
    "PLACEMENTS",
    "PROTOCOLS",
    "TREE_PROTOCOLS",
    "MaterializedScenario",
    "ScenarioSpec",
    "SpanningTreeFactory",
    "TagFactory",
    "UniformGossipFactory",
    "default_scenario_config",
    "decade_ns",
    "decade_sweep",
    "log_sized_cliques",
]
