"""Synchronous deliveries become visible only at the round end.

Section 2 of the paper: "information received in the current round will be
available to a node for sending only at the beginning of the next round".
So information moves at most one hop per round: after round ``r`` a node's
rank is at most the number of distinct messages placed on the nodes within
``r`` hops of it.  An engine that let a packet received in round ``r`` feed
an encode of the same round would carry information two or more hops and
break the bound.

The generated test reads every node's rank at every round end of trial 0 on
both engines — through the event engine's ``on_round_end`` hook, and on the
scalar engine through ``GossipProcess.on_round_end`` with ``rank_of``.  Each
engine, protocol (uniform AG, TAG + B_RR), topology (line, ring, grid,
barbell) and placement (single-source, spread, all-to-all) is its own case,
so every combination runs every time; hypothesis draws the size, message
count, source, field and seed within each.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.rng import derive_rng
from repro.gossip import EventGossipEngine, GossipEngine
from repro.graphs import build_topology, csr_bfs_distances
from repro.scenarios import MaterializedScenario, ScenarioSpec, default_scenario_config

PROTOCOLS = ("uniform", "tag")
TOPOLOGIES = ("line", "ring", "grid", "barbell")
PLACEMENTS = ("single_source", "spread", "all_to_all")


def _spec(
    protocol: str, topology: str, placement: str,
    n: int, k: int, source: int, field_size: int, seed: int,
) -> ScenarioSpec:
    """A synchronous scenario; ``k`` and ``source`` are fitted to the graph."""
    nodes = build_topology(topology, n).number_of_nodes()
    params = {}
    if placement == "all_to_all":
        k = None
    elif placement == "spread":
        k = min(k, nodes)
    else:
        params = {"source": source % nodes}
    return ScenarioSpec(
        topology=topology,
        n=n,
        k=k,
        protocol=protocol,
        placement=placement,
        placement_params=params,
        config=default_scenario_config(field_size=field_size),
        seed=seed,
    )


def _round_end_ranks(scenario: MaterializedScenario, engine: str) -> list[list[int]]:
    """Every node's rank at each round end of trial 0, in round order."""
    rng = derive_rng(scenario.spec.seed, "trial-0")
    process = scenario.build_process(rng)
    ranks: list[list[int]] = []

    def record(round_index: int, current) -> None:
        assert round_index == len(ranks) + 1
        ranks.append(list(current))

    if engine == "event":
        EventGossipEngine(
            scenario.graph, process, scenario.config, rng, on_round_end=record
        ).run()
    else:
        inner_hook = process.on_round_end
        nodes = range(scenario.n)

        def on_round_end(round_index: int) -> None:
            record(round_index, [process.rank_of(node) for node in nodes])
            inner_hook(round_index)

        process.on_round_end = on_round_end
        GossipEngine(scenario.graph, process, scenario.config, rng).run()
    return ranks


def _messages_within(scenario: MaterializedScenario, node: int) -> list[int]:
    """``counts[r]``: distinct messages placed within ``r`` hops of ``node``."""
    graph = scenario.graph
    distances = csr_bfs_distances(graph.indptr, graph.indices, node)
    by_distance: list[set[int]] = [set() for _ in range(int(distances.max()) + 1)]
    for holder, messages in scenario.placement.items():
        by_distance[int(distances[holder])].update(messages)
    counts, seen = [], set()
    for messages in by_distance:
        seen |= messages
        counts.append(len(seen))
    return counts


@pytest.mark.parametrize("engine", ["scalar", "event"])
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(4, 24),
    k=st.integers(1, 24),
    source=st.integers(0, 23),
    field_size=st.sampled_from([2, 16]),
    seed=st.integers(0, 2**16),
)
@example(n=16, k=4, source=0, field_size=2, seed=5)
@example(n=12, k=8, source=5, field_size=16, seed=5)
def test_information_moves_at_most_one_hop_per_round(
    engine, placement, topology, protocol, n, k, source, field_size, seed
):
    scenario = _spec(
        protocol, topology, placement, n, k, source, field_size, seed
    ).materialize()
    ranks = _round_end_ranks(scenario, engine)
    assert ranks, "the run played no round"
    assert ranks[-1] == [scenario.k] * scenario.n
    for node in range(scenario.n):
        counts = _messages_within(scenario, node)
        for round_index, round_ranks in enumerate(ranks, start=1):
            bound = counts[min(round_index, len(counts) - 1)]
            assert round_ranks[node] <= bound, (
                f"node {node} reached rank {round_ranks[node]} after round "
                f"{round_index}, but only {bound} message(s) lie within "
                f"{round_index} hop(s) of it"
            )
