"""Unit tests for the gossip engine: time-model semantics and result accounting."""

from __future__ import annotations

from typing import Any

import networkx as nx
import numpy as np
import pytest

from repro.core import GossipAction, SimulationConfig, TimeModel
from repro.errors import SimulationError
from repro.gossip import EventTrace, GossipEngine, GossipProcess, Transmission
from repro.graphs import CSRGraph, line_graph, ring_graph


class TokenSpread(GossipProcess):
    """Minimal protocol: node 0 owns a token; informed nodes push it to a fixed neighbour.

    On a line each informed node pushes to its right neighbour, so in the
    synchronous model the token moves exactly one hop per round — which makes
    the engine's "deliveries visible next round" semantics directly testable.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.informed = {0}
        self.n = graph.number_of_nodes()

    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        if node not in self.informed or node + 1 >= self.n:
            return []
        return [Transmission(node, node + 1, "token", kind="token")]

    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool:
        if receiver in self.informed:
            return False
        self.informed.add(receiver)
        return True

    def is_complete(self) -> bool:
        return len(self.informed) == self.n

    def finished_nodes(self) -> set[int]:
        return set(self.informed)

    def metadata(self) -> dict[str, Any]:
        return {"k": 1, "note": "token"}


class TestSynchronousSemantics:
    def test_token_travels_one_hop_per_round(self):
        graph = line_graph(6)
        process = TokenSpread(graph)
        config = SimulationConfig(time_model=TimeModel.SYNCHRONOUS, max_rounds=100)
        result = GossipEngine(graph, process, config, np.random.default_rng(0)).run()
        # The token must reach node 5, exactly 5 hops, one per round.
        assert result.completed
        assert result.rounds == 5
        assert result.timeslots == 5 * 6
        assert result.completion_rounds[0] == 0
        assert result.completion_rounds[5] == 5

    def test_helpful_message_counting(self):
        graph = line_graph(4)
        process = TokenSpread(graph)
        config = SimulationConfig(time_model=TimeModel.SYNCHRONOUS, max_rounds=100)
        result = GossipEngine(graph, process, config, np.random.default_rng(0)).run()
        # Each round, every informed interior node transmits; only the frontier
        # delivery is helpful.
        assert result.helpful_messages == 3
        assert result.messages_sent >= 3
        assert result.helpful_messages <= result.messages_sent

    def test_metadata_k_extracted(self):
        graph = line_graph(3)
        process = TokenSpread(graph)
        config = SimulationConfig(time_model=TimeModel.SYNCHRONOUS)
        result = GossipEngine(graph, process, config, np.random.default_rng(0)).run()
        assert result.k == 1
        assert result.metadata["note"] == "token"


class TestAsynchronousSemantics:
    def test_completion_and_round_accounting(self):
        graph = line_graph(5)
        process = TokenSpread(graph)
        config = SimulationConfig(time_model=TimeModel.ASYNCHRONOUS, max_rounds=10_000)
        result = GossipEngine(graph, process, config, np.random.default_rng(1)).run()
        assert result.completed
        assert result.rounds >= 4  # needs at least 4 helpful deliveries
        assert result.rounds == -(-result.timeslots // 5)

    def test_async_needs_at_least_one_timeslot_per_hop(self):
        """Each hop of the token needs its own timeslot (deliveries are per wakeup),
        so the asynchronous run can never use fewer timeslots than hops."""
        graph = line_graph(8)
        async_result = GossipEngine(
            graph,
            TokenSpread(graph),
            SimulationConfig(time_model=TimeModel.ASYNCHRONOUS, max_rounds=50_000),
            np.random.default_rng(2),
        ).run()
        assert async_result.completed
        assert async_result.timeslots >= 7
        assert async_result.helpful_messages == 7


class TestSafetyLimits:
    class NeverFinishes(TokenSpread):
        def is_complete(self) -> bool:
            return False

    def test_max_rounds_raises_by_default(self):
        graph = line_graph(4)
        config = SimulationConfig(time_model=TimeModel.SYNCHRONOUS, max_rounds=5)
        with pytest.raises(SimulationError):
            GossipEngine(graph, self.NeverFinishes(graph), config, np.random.default_rng(0)).run()

    def test_allow_incomplete_returns_partial_result(self):
        graph = line_graph(4)
        config = SimulationConfig(
            time_model=TimeModel.SYNCHRONOUS, max_rounds=5, allow_incomplete=True
        )
        result = GossipEngine(
            graph, self.NeverFinishes(graph), config, np.random.default_rng(0)
        ).run()
        assert not result.completed
        assert result.rounds == 5

    def test_disconnected_or_tiny_graphs_rejected(self):
        config = SimulationConfig()
        single = nx.Graph()
        single.add_node(0)
        tiny = CSRGraph.from_networkx(single)
        with pytest.raises(SimulationError):
            GossipEngine(tiny, TokenSpread(tiny), config, np.random.default_rng(0))
        disconnected = CSRGraph.from_networkx(nx.Graph([(0, 1), (2, 3)]))
        with pytest.raises(SimulationError):
            GossipEngine(disconnected, TokenSpread(disconnected), config, np.random.default_rng(0))


class TestTracing:
    def test_trace_records_every_delivery(self):
        graph = line_graph(5)
        trace = EventTrace()
        config = SimulationConfig(time_model=TimeModel.SYNCHRONOUS)
        result = GossipEngine(
            graph, TokenSpread(graph), config, np.random.default_rng(0), trace
        ).run()
        assert len(trace) == result.messages_sent
        helpful = trace.helpful_events()
        assert len(helpful) == result.helpful_messages
        assert all(event.kind == "token" for event in trace)
        # Round histogram covers rounds 1..rounds.
        histogram = trace.messages_per_round()
        assert set(histogram) <= set(range(1, result.rounds + 1))

    def test_trace_queries(self):
        graph = ring_graph(6)
        trace = EventTrace()
        config = SimulationConfig(time_model=TimeModel.SYNCHRONOUS, max_rounds=50,
                                  allow_incomplete=True)
        GossipEngine(graph, TokenSpread(graph), config, np.random.default_rng(0), trace).run()
        contacts = trace.contacts_of(0)
        assert all(event.sender == 0 or event.receiver == 0 for event in contacts)
        assert trace.events_in_round(1)

    def test_disabled_trace_records_nothing(self):
        graph = line_graph(4)
        trace = EventTrace(enabled=False)
        config = SimulationConfig(time_model=TimeModel.SYNCHRONOUS)
        GossipEngine(graph, TokenSpread(graph), config, np.random.default_rng(0), trace).run()
        assert len(trace) == 0
