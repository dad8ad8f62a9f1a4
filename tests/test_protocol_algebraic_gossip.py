"""Unit and integration tests for uniform algebraic gossip (Theorem 1's protocol)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.experiments
import repro.scenarios
from repro.analysis.stopping_time import measure_protocol
from repro.core import GossipAction, SimulationConfig, TimeModel
from repro.errors import SimulationError
from repro.gf import GF
from repro.gossip import GossipEngine, RoundRobinSelector
from repro.graphs import complete_graph, line_graph, ring_graph
from repro.protocols import (
    AlgebraicGossip,
    RoundRobinBroadcastTree,
    TagProtocol,
    validate_placement,
)
from repro.rlnc import Generation
from repro.experiments import (
    all_to_all_placement,
    measure_protocol_parallel,
    spread_placement,
)
from repro.scenarios import (
    SpanningTreeFactory,
    TagFactory,
    UniformGossipFactory,
    default_scenario_config,
)


def make_protocol(graph, k, config, seed=0, selector=None, placement=None):
    rng = np.random.default_rng(seed)
    field = GF(config.field_size)
    generation = Generation.random(field, k, config.payload_length, rng)
    if placement is None:
        placement = (
            all_to_all_placement(graph)
            if k >= graph.number_of_nodes()
            else spread_placement(graph, k)
        )
    process = AlgebraicGossip(graph, generation, placement, config, rng, selector)
    return process, rng


class TestConstruction:
    def test_decoders_seeded_with_placement(self, sync_config):
        """Decoders are built on first use, seeded from the placement; a
        node's rank reads the same before and after its decoder exists."""
        graph = line_graph(6)
        rng = np.random.default_rng(0)
        field = GF(sync_config.field_size)
        generation = Generation.random(field, 3, 2, rng)
        placement = {0: [0, 1], 4: [2, 2], 5: [2]}
        process = AlgebraicGossip(graph, generation, placement, sync_config, rng)
        expected = {0: 2, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
        assert {node: process.rank_of(node) for node in graph.nodes()} == expected
        assert process.metadata()["min_rank"] == 0
        assert not process.is_complete() and not process.finished_nodes()
        assert {node: process.decoder(node).rank for node in graph.nodes()} == expected
        assert {node: process.rank_of(node) for node in graph.nodes()} == expected
        assert process.decoder(0) is process.decoder(0)
        assert process.decoder(0).coefficient_matrix().tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_missing_message_rejected(self, sync_config):
        graph = line_graph(4)
        rng = np.random.default_rng(0)
        field = GF(sync_config.field_size)
        generation = Generation.random(field, 3, 2, rng)
        with pytest.raises(SimulationError):
            AlgebraicGossip(graph, generation, {0: [0, 1]}, sync_config, rng)

    def test_unknown_node_rejected(self, sync_config):
        graph = line_graph(4)
        rng = np.random.default_rng(0)
        field = GF(sync_config.field_size)
        generation = Generation.random(field, 1, 2, rng)
        with pytest.raises(SimulationError):
            AlgebraicGossip(graph, generation, {99: [0]}, sync_config, rng)

    def test_field_mismatch_rejected(self, sync_config):
        graph = line_graph(4)
        rng = np.random.default_rng(0)
        generation = Generation.random(GF(256), 2, 2, rng)
        with pytest.raises(SimulationError):
            AlgebraicGossip(graph, generation, {0: [0], 1: [1]}, sync_config, rng)


#: Invalid placements for k = 2 on ``ring_graph(6)``, with the error each
#: must raise.  A negative index once wrapped through numpy indexing on the
#: event engine, and an index of k raised a bare IndexError.
INVALID_PLACEMENTS = {
    "negative-index": ({0: [0, 1], 3: [-1]}, "message index -1 out of range for k=2"),
    "index-k": ({0: [0, 1], 3: [2]}, "message index 2 out of range for k=2"),
    "unplaced-message": ({0: [0]}, r"source messages \[1\] are not placed"),
    "unknown-node": ({0: [0, 1], 6: [1]}, "unknown node 6"),
}

CODED_PROCESSES = {
    "AlgebraicGossip": AlgebraicGossip,
    "TagProtocol": lambda *args: TagProtocol(
        *args, lambda graph, rng: RoundRobinBroadcastTree(graph, 0, rng)
    ),
}

#: Placement → picklable factory of each coded protocol the runners ship.
FACTORIES = {
    "uniform": lambda placement: UniformGossipFactory(
        16, 2, 2, placement, default_scenario_config()
    ),
    "tag": lambda placement: TagFactory(
        16, 2, 2, placement, default_scenario_config(), SpanningTreeFactory("brr", 0)
    ),
}

#: The sequential runner is the scalar engine; the parallel one picks the
#: event engine for both factories.
RUNNERS = {
    "scalar": lambda graph, factory: measure_protocol(
        graph, factory, factory.config, trials=1
    ),
    "event": lambda graph, factory: measure_protocol_parallel(
        graph, factory, factory.config, trials=1, jobs=1
    ),
}


class TestPlacementValidation:
    """One validator, run by every coded process, typed errors on both engines."""

    def test_one_validator_for_every_layer(self):
        assert repro.scenarios.validate_placement is validate_placement
        assert repro.experiments.validate_placement is validate_placement

    @pytest.mark.parametrize("process", sorted(CODED_PROCESSES))
    def test_process_keeps_the_normalised_placement(self, process):
        rng = np.random.default_rng(0)
        generation = Generation.random(GF(16), 3, 2, rng)
        built = CODED_PROCESSES[process](
            ring_graph(6), generation, {np.int64(0): [2, 0], 4: np.array([1, 1])},
            default_scenario_config(), rng,
        )
        assert built.placement == {0: (2, 0), 4: (1, 1)}

    @pytest.mark.parametrize("case", sorted(INVALID_PLACEMENTS))
    @pytest.mark.parametrize("process", sorted(CODED_PROCESSES))
    def test_every_coded_process_refuses(self, process, case):
        placement, message = INVALID_PLACEMENTS[case]
        rng = np.random.default_rng(0)
        generation = Generation.random(GF(16), 2, 2, rng)
        with pytest.raises(SimulationError, match=message):
            CODED_PROCESSES[process](
                ring_graph(6), generation, placement, default_scenario_config(), rng
            )

    @pytest.mark.parametrize("case", sorted(INVALID_PLACEMENTS))
    @pytest.mark.parametrize("engine", sorted(RUNNERS))
    @pytest.mark.parametrize("protocol", sorted(FACTORIES))
    def test_both_engines_refuse(self, protocol, engine, case):
        placement, message = INVALID_PLACEMENTS[case]
        with pytest.raises(SimulationError, match=message):
            RUNNERS[engine](ring_graph(6), FACTORIES[protocol](placement))


class TestDissemination:
    @pytest.mark.parametrize("time_model", [TimeModel.SYNCHRONOUS, TimeModel.ASYNCHRONOUS])
    def test_all_to_all_on_ring_completes_and_decodes(self, time_model):
        graph = ring_graph(8)
        config = SimulationConfig(time_model=time_model, max_rounds=20_000)
        process, rng = make_protocol(graph, 8, config, seed=1)
        result = GossipEngine(graph, process, config, rng).run()
        assert result.completed
        assert process.all_nodes_decoded_correctly()
        assert result.k == 8
        assert result.helpful_messages >= 8 * 7  # every node needs 8 helpful packets minus seeds

    def test_partial_k_dissemination(self, sync_config):
        graph = line_graph(10)
        process, rng = make_protocol(graph, 4, sync_config, seed=2)
        result = GossipEngine(graph, process, sync_config, rng).run()
        assert result.completed
        assert all(process.rank_of(node) == 4 for node in graph.nodes())
        assert process.decoded_messages(0).shape == (4, sync_config.payload_length)

    @pytest.mark.parametrize("action", [GossipAction.PUSH, GossipAction.PULL, GossipAction.EXCHANGE])
    def test_all_actions_complete_on_complete_graph(self, action):
        graph = complete_graph(8)
        config = SimulationConfig(action=action, max_rounds=20_000)
        process, rng = make_protocol(graph, 8, config, seed=3)
        result = GossipEngine(graph, process, config, rng).run()
        assert result.completed

    def test_exchange_not_slower_than_push_on_line(self):
        graph = line_graph(8)
        rounds = {}
        for action in (GossipAction.PUSH, GossipAction.EXCHANGE):
            config = SimulationConfig(action=action, max_rounds=50_000)
            samples = []
            for seed in range(3):
                process, rng = make_protocol(graph, 8, config, seed=seed)
                samples.append(GossipEngine(graph, process, config, rng).run().rounds)
            rounds[action] = np.mean(samples)
        assert rounds[GossipAction.EXCHANGE] <= rounds[GossipAction.PUSH] * 1.5

    def test_round_robin_selector_also_completes(self, sync_config):
        graph = ring_graph(8)
        selector = RoundRobinSelector(graph, np.random.default_rng(9))
        process, rng = make_protocol(graph, 8, sync_config, seed=4, selector=selector)
        result = GossipEngine(graph, process, sync_config, rng).run()
        assert result.completed
        assert process.metadata()["selector"] == "RoundRobinSelector"

    def test_single_message_broadcast_case(self, sync_config):
        """k = 1 reduces algebraic gossip to a (coded) broadcast; it must finish."""
        graph = line_graph(8)
        process, rng = make_protocol(graph, 1, sync_config, seed=5, placement={0: [0]})
        result = GossipEngine(graph, process, sync_config, rng).run()
        assert result.completed
        assert result.rounds >= 4  # information must cross at least ~D/2 hops

    def test_metadata_reports_progress(self, sync_config):
        graph = ring_graph(6)
        process, rng = make_protocol(graph, 6, sync_config, seed=6)
        metadata = process.metadata()
        assert metadata["protocol"] == "algebraic-gossip"
        assert metadata["k"] == 6
        assert metadata["min_rank"] <= 1

    def test_wrong_payload_type_rejected(self, sync_config):
        graph = ring_graph(6)
        process, rng = make_protocol(graph, 6, sync_config, seed=7)
        with pytest.raises(SimulationError):
            process.on_deliver(0, 1, "not-a-packet")


class TestStoppingTimeSanity:
    def test_lower_bound_respected(self, sync_config):
        """No gossip protocol can beat k/2 rounds (Theorem 3's lower bound)."""
        graph = complete_graph(10)
        process, rng = make_protocol(graph, 10, sync_config, seed=8)
        result = GossipEngine(graph, process, sync_config, rng).run()
        assert result.rounds >= 10 / 2

    def test_diameter_lower_bound_synchronous(self, sync_config):
        graph = line_graph(12)
        process, rng = make_protocol(graph, 2, sync_config, seed=9,
                                     placement={0: [0], 11: [1]})
        result = GossipEngine(graph, process, sync_config, rng).run()
        # Message 0 must travel 11 hops to reach node 11: at least D/2 rounds
        # (it can move at most one hop per round; EXCHANGE may move it 1 hop
        # towards both directions per round).
        assert result.rounds >= 6
