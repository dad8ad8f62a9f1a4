"""Reproduction of "Order Optimal Information Spreading Using Algebraic Gossip".

(Avin, Borokhovich, Censor-Hillel, Lotker — PODC 2011, arXiv:1101.4372.)

The package is organised bottom-up:

* :mod:`repro.gf` — finite-field arithmetic,
* :mod:`repro.rlnc` — random linear network coding (encoder / decoder /
  helpfulness, Section 2 of the paper),
* :mod:`repro.graphs` — topologies, structural properties and spanning trees,
* :mod:`repro.gossip` — time models, communication models and the
  discrete-event engine,
* :mod:`repro.protocols` — uniform algebraic gossip (Theorem 1), TAG
  (Theorem 4), the spanning-tree protocols it composes with (round-robin
  broadcast of Theorem 5, the simulated IS protocol of Section 6) and uncoded
  baselines,
* :mod:`repro.queueing` — the queueing-network substrate of Theorem 2 and the
  gossip→queueing reduction of Theorem 1,
* :mod:`repro.analysis` — bound evaluators, stopping-time statistics and
  the Table 1 / Table 2 generators,
* :mod:`repro.scenarios` — the declarative scenario layer: one immutable,
  JSON-round-trippable :class:`ScenarioSpec` (topology + placement +
  protocol + config + trial plan, including churn schedules and
  heterogeneous activation rates) drives the CLI, the campaigns and the
  benchmarks with identical seeded results,
* :mod:`repro.store` — the persistent content-addressed result store:
  per-trial results keyed by ``(spec fingerprint, seed, trial)`` in
  append-only JSONL shards; every runner reads through it, making campaigns
  resumable and re-runs free,
* :mod:`repro.experiments` — the multi-process trial runners and the engine rule,
* :mod:`repro.campaigns` — declarative experiment campaigns: named sets of
  scenario sweeps (``table1`` ... ``full-paper``, and ``bounds`` for the
  measured-vs-bound tables) compiled to a DAG,
  executed incrementally through the result store, and rendered as
  self-documenting Markdown/HTML reports.

Quickstart
----------
>>> from repro import quick_run
>>> result = quick_run("ring", n=12, k=6, seed=1)
>>> result.completed
True
"""

from __future__ import annotations

import numpy as np

from .campaigns import (
    CAMPAIGNS,
    ArtifactSpec,
    CampaignResult,
    CampaignSpec,
    CampaignUnit,
    campaign_names,
    get_campaign,
    load_campaign_file,
    register_campaign,
    run_campaign,
    write_report,
)
from .core import (
    DEFAULT_SEED,
    GossipAction,
    RunResult,
    SimulationConfig,
    StoppingTimeStats,
    TimeModel,
    aggregate_results,
)
from .errors import (
    AnalysisError,
    ConfigurationError,
    DecodingError,
    FieldError,
    ReproError,
    SimulationError,
    StoreError,
    TopologyError,
)
from .gf import GF
from .gossip import EventGossipEngine, EventTrace, GossipEngine, run_protocol
from .graphs import build_topology
from .protocols import (
    AlgebraicGossip,
    ISSpanningTree,
    RoundRobinBroadcastTree,
    TagProtocol,
    UniformBroadcastTree,
)
from .rlnc import CodedPacket, Generation, RlncDecoder, RlncEncoder
from .scenarios import (
    SCENARIOS,
    MaterializedScenario,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)
from .store import ResultStore

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DEFAULT_SEED",
    "GossipAction",
    "RunResult",
    "SimulationConfig",
    "StoppingTimeStats",
    "TimeModel",
    "aggregate_results",
    "AnalysisError",
    "ConfigurationError",
    "DecodingError",
    "FieldError",
    "ReproError",
    "SimulationError",
    "StoreError",
    "TopologyError",
    "GF",
    "EventTrace",
    "EventGossipEngine",
    "GossipEngine",
    "run_protocol",
    "build_topology",
    "AlgebraicGossip",
    "ISSpanningTree",
    "RoundRobinBroadcastTree",
    "TagProtocol",
    "UniformBroadcastTree",
    "CodedPacket",
    "Generation",
    "RlncDecoder",
    "RlncEncoder",
    "SCENARIOS",
    "MaterializedScenario",
    "ScenarioSpec",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "ResultStore",
    "CAMPAIGNS",
    "ArtifactSpec",
    "CampaignResult",
    "CampaignSpec",
    "CampaignUnit",
    "campaign_names",
    "get_campaign",
    "load_campaign_file",
    "register_campaign",
    "run_campaign",
    "write_report",
    "quick_run",
]


def quick_run(
    topology: str,
    *,
    n: int = 16,
    k: int | None = None,
    protocol: str = "uniform",
    time_model: TimeModel = TimeModel.SYNCHRONOUS,
    field_size: int = 16,
    seed: int = DEFAULT_SEED,
    trace: EventTrace | None = None,
    **topology_kwargs,
) -> RunResult:
    """Run one gossip dissemination on a named topology with sensible defaults.

    Parameters
    ----------
    topology:
        Any name from :data:`repro.graphs.TOPOLOGY_BUILDERS`
        (``"line"``, ``"grid"``, ``"complete"``, ``"barbell"``, ...).
    n:
        Requested number of nodes (some topologies round it, e.g. grids).
    k:
        Number of messages; defaults to ``n`` (all-to-all).
    protocol:
        ``"uniform"`` for uniform algebraic gossip, ``"tag"`` for TAG with the
        round-robin broadcast spanning tree, ``"tag-is"`` for TAG with the
        simulated IS protocol.
    time_model, field_size, seed:
        Standard knobs; see :class:`~repro.core.SimulationConfig`.
    trace:
        Optional :class:`EventTrace` to record every delivered message.

    Returns
    -------
    RunResult
        Stopping time (rounds / timeslots), completion data and counters.
    """
    from .scenarios.placements import all_to_all_placement, spread_placement

    graph = build_topology(topology, n, **topology_kwargs)
    actual_n = graph.number_of_nodes()
    actual_k = actual_n if k is None else min(k, actual_n)
    config = SimulationConfig(
        field_size=field_size,
        payload_length=2,
        time_model=time_model,
        action=GossipAction.EXCHANGE,
        max_rounds=200_000,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    field = GF(field_size)
    generation = Generation.random(field, actual_k, config.payload_length, rng)
    placement = (
        all_to_all_placement(graph)
        if actual_k >= actual_n
        else spread_placement(graph, actual_k)
    )
    if protocol == "uniform":
        process = AlgebraicGossip(graph, generation, placement, config, rng)
    elif protocol == "tag":
        root = 0
        process = TagProtocol(
            graph,
            generation,
            placement,
            config,
            rng,
            lambda g, r: RoundRobinBroadcastTree(g, root, r),
        )
    elif protocol == "tag-is":
        process = TagProtocol(
            graph,
            generation,
            placement,
            config,
            rng,
            lambda g, r: ISSpanningTree(g, r),
        )
    else:
        raise SimulationError(
            f"unknown protocol {protocol!r}; expected 'uniform', 'tag' or 'tag-is'"
        )
    return run_protocol(graph, process, config, rng, trace)
