"""Tests for the additional topology families (lollipop, caterpillar, small world,
star of cliques) and their use in gossip runs."""

from __future__ import annotations

import networkx as nx
import pytest

from repro import quick_run
from repro.errors import TopologyError
from repro.graphs import (
    caterpillar_graph,
    diameter,
    graph_conductance,
    lollipop_graph,
    max_degree,
    small_world_graph,
    star_of_cliques_graph,
    weak_conductance,
)


class TestLollipop:
    def test_structure(self):
        graph = lollipop_graph(16)
        assert graph.number_of_nodes() == 16
        assert graph.is_connected()
        # Clique of 8 plus a path of 8: diameter is at least the path length.
        assert diameter(graph) >= 8
        assert max_degree(graph) >= 7

    def test_low_conductance(self):
        assert graph_conductance(lollipop_graph(14)) < 0.1

    def test_too_small(self):
        with pytest.raises(TopologyError):
            lollipop_graph(4)


class TestCaterpillar:
    def test_constant_degree_and_exact_size(self):
        graph = caterpillar_graph(20, legs_per_spine=2)
        assert graph.number_of_nodes() == 20
        assert graph.is_connected()
        assert max_degree(graph) <= 6

    def test_invalid_legs(self):
        with pytest.raises(TopologyError):
            caterpillar_graph(10, legs_per_spine=0)


class TestSmallWorld:
    def test_connected_and_seeded(self):
        a = small_world_graph(24, seed=5)
        b = small_world_graph(24, seed=5)
        assert a.is_connected()
        assert nx.utils.graphs_equal(a.to_networkx(), b.to_networkx())
        # Small world: diameter much smaller than n.
        assert diameter(a) <= 8

    def test_parameter_validation(self):
        with pytest.raises(TopologyError):
            small_world_graph(20, neighbours=1)
        with pytest.raises(TopologyError):
            small_world_graph(20, rewire_probability=1.5)


class TestStarOfCliques:
    def test_structure(self):
        graph = star_of_cliques_graph(17, cliques=4)
        assert graph.number_of_nodes() == 17
        assert graph.is_connected()
        # The hub connects the cliques; removing it disconnects the graph.
        pruned = graph.to_networkx()
        pruned.remove_node(0)
        assert not nx.is_connected(pruned)

    def test_weak_conductance_larger_than_conductance(self):
        graph = star_of_cliques_graph(17, cliques=4)
        assert weak_conductance(graph, 4) > 3 * graph_conductance(graph)

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            star_of_cliques_graph(17, cliques=1)
        with pytest.raises(TopologyError):
            star_of_cliques_graph(7, cliques=4)


class TestGossipOnNewTopologies:
    @pytest.mark.parametrize("topology", ["lollipop", "caterpillar", "small_world",
                                          "star_of_cliques"])
    def test_uniform_ag_completes(self, topology):
        result = quick_run(topology, n=14, k=7, seed=9)
        assert result.completed

    def test_tag_on_star_of_cliques(self):
        result = quick_run("star_of_cliques", n=13, protocol="tag", seed=10, cliques=3)
        assert result.completed
