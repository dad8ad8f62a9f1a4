"""Unit tests for the communication models (partner selectors)."""

from __future__ import annotations

import collections

import networkx as nx
import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gossip import RoundRobinSelector, UniformSelector
from repro.graphs import (
    CSRGraph,
    dumbbell_graph,
    line_graph,
    ring_graph,
    star_graph,
    star_of_cliques_graph,
)


class TestUniformSelector:
    def test_partner_is_always_a_neighbour(self, rng):
        graph = ring_graph(8)
        selector = UniformSelector(graph)
        for node in graph.nodes():
            for _ in range(10):
                partner = selector.partner(node, rng)
                assert graph.has_edge(node, partner)

    def test_partner_distribution_roughly_uniform(self, rng):
        graph = star_graph(5)  # hub 0 with 4 leaves
        selector = UniformSelector(graph)
        counts = collections.Counter(selector.partner(0, rng) for _ in range(4000))
        for leaf in range(1, 5):
            assert 800 <= counts[leaf] <= 1200

    @pytest.mark.parametrize(
        "graph",
        [star_graph(6), star_of_cliques_graph(13, cliques=3), dumbbell_graph(12, path_length=3)],
        ids=["star", "star-of-cliques", "dumbbell"],
    )
    def test_partner_draws_match_the_neighbour_tuples(self, graph):
        """Indexing the CSR arrays picks what indexing each node's ascending
        neighbour tuple would, draw for draw on the same stream."""
        selector = UniformSelector(graph)
        neighbours = graph.neighbor_tuples()
        draws, reference = np.random.default_rng(5), np.random.default_rng(5)
        for node in list(graph.nodes()) * 3:
            row = neighbours[node]
            assert selector.partner(node, draws) == row[int(reference.integers(0, len(row)))]
        assert draws.bit_generator.state == reference.bit_generator.state

    def test_isolated_node_rejected(self, rng):
        reference = nx.Graph()
        reference.add_nodes_from([0, 1])
        reference.add_edge(0, 1)
        reference.add_node(2)
        graph = CSRGraph.from_networkx(reference)
        with pytest.raises(SimulationError):
            UniformSelector(graph)


class TestRoundRobinSelector:
    def test_cycles_through_all_neighbours(self, rng):
        graph = star_graph(5)
        selector = RoundRobinSelector(graph, np.random.default_rng(0))
        partners = [selector.partner(0, rng) for _ in range(4)]
        assert sorted(partners) == [1, 2, 3, 4]
        # The next cycle repeats the same order.
        assert [selector.partner(0, rng) for _ in range(4)] == partners

    def test_reset_restores_initial_offsets(self, rng):
        graph = ring_graph(6)
        selector = RoundRobinSelector(graph, np.random.default_rng(1))
        first = [selector.partner(2, rng) for _ in range(2)]
        selector.reset()
        assert [selector.partner(2, rng) for _ in range(2)] == first

    def test_random_initial_offsets_differ_across_constructions(self, rng):
        graph = star_graph(9)
        offsets = set()
        for seed in range(12):
            selector = RoundRobinSelector(graph, np.random.default_rng(seed))
            offsets.add(selector.partner(0, rng))
        assert len(offsets) > 1

    def test_line_endpoints_have_single_partner(self, rng):
        graph = line_graph(4)
        selector = RoundRobinSelector(graph, np.random.default_rng(2))
        assert selector.partner(0, rng) == 1
        assert selector.partner(0, rng) == 1

    @pytest.mark.parametrize(
        "graph",
        [star_of_cliques_graph(13, cliques=3), dumbbell_graph(12, path_length=3)],
        ids=["star_of_cliques", "dumbbell"],
    )
    def test_offsets_are_drawn_in_ascending_node_order(self, graph):
        """One offset per node, node 0 first: the families whose nodes were
        once listed out of order draw the same stream as every other."""
        selector = RoundRobinSelector(graph, np.random.default_rng(5))
        draws = np.random.default_rng(5)
        expected = {node: int(draws.integers(0, graph.degree[node])) for node in graph}
        assert selector.positions() == expected
        assert list(selector.positions()) == list(range(graph.number_of_nodes()))
