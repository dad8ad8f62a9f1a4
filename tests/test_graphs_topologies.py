"""Unit tests for the topology generators."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.graphs import (
    CSRGraph,
    TOPOLOGY_BUILDERS,
    barbell_graph,
    binary_tree_graph,
    build_topology,
    clique_chain_graph,
    complete_graph,
    dumbbell_graph,
    erdos_renyi_graph,
    expander_graph,
    grid_graph,
    hypercube_graph,
    line_graph,
    random_regular_graph,
    ring_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.properties import diameter, max_degree


@pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
def test_every_builder_produces_connected_consecutive_graph(name):
    graph = build_topology(name, 16)
    assert isinstance(graph, CSRGraph)
    assert nx.is_connected(graph.to_networkx())
    assert sorted(graph.nodes()) == list(range(graph.number_of_nodes()))
    assert graph.number_of_nodes() >= 4


def test_build_topology_unknown_name():
    with pytest.raises(TopologyError):
        build_topology("moebius", 16)


class TestLineRingGrid:
    def test_line_structure(self):
        graph = line_graph(10)
        assert graph.number_of_nodes() == 10
        assert graph.number_of_edges() == 9
        assert max_degree(graph) == 2
        assert diameter(graph) == 9

    def test_ring_structure(self):
        graph = ring_graph(10)
        assert graph.number_of_edges() == 10
        assert max_degree(graph) == 2
        assert diameter(graph) == 5

    def test_grid_structure(self):
        graph = grid_graph(16)
        assert graph.number_of_nodes() == 16
        assert max_degree(graph) == 4
        assert diameter(graph) == 6  # 2 * (4 - 1)

    def test_torus_is_four_regular(self):
        graph = torus_graph(16)
        degrees = {d for _, d in graph.degree}
        assert degrees == {4}

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            line_graph(1)
        with pytest.raises(TopologyError):
            ring_graph(2)


class TestDenseTopologies:
    def test_complete_graph(self):
        graph = complete_graph(8)
        assert graph.number_of_edges() == 28
        assert diameter(graph) == 1
        assert max_degree(graph) == 7

    def test_star_graph(self):
        graph = star_graph(9)
        assert graph.number_of_nodes() == 9
        assert max_degree(graph) == 8
        assert diameter(graph) == 2

    def test_hypercube_degree_is_dimension(self):
        graph = hypercube_graph(16)
        assert graph.number_of_nodes() == 16
        assert max_degree(graph) == 4


class TestTreeTopologies:
    def test_binary_tree_exact_node_count_and_degree(self):
        graph = binary_tree_graph(13)
        assert graph.number_of_nodes() == 13
        assert graph.number_of_edges() == 12
        assert max_degree(graph) <= 3
        assert nx.is_tree(graph.to_networkx())

    def test_binary_tree_logarithmic_diameter(self):
        graph = binary_tree_graph(31)
        assert diameter(graph) == 8  # two root-to-leaf paths of depth 4


class TestBottleneckTopologies:
    def test_barbell_structure(self):
        graph = barbell_graph(10)
        assert graph.number_of_nodes() == 10
        # Two 5-cliques (2 * C(5,2) = 20 edges) plus the bridge.
        assert graph.number_of_edges() == 21
        assert diameter(graph) == 3

    def test_barbell_odd_count_keeps_n_nodes(self):
        graph = barbell_graph(11)
        assert graph.number_of_nodes() == 11
        assert graph.is_connected()

    def test_barbell_too_small(self):
        with pytest.raises(TopologyError):
            barbell_graph(3)

    def test_dumbbell_path_length(self):
        graph = dumbbell_graph(14, path_length=4)
        assert graph.number_of_nodes() == 14
        assert graph.is_connected()
        assert diameter(graph) >= 5

    def test_dumbbell_invalid_parameters(self):
        with pytest.raises(TopologyError):
            dumbbell_graph(6, path_length=10)
        with pytest.raises(TopologyError):
            dumbbell_graph(14, path_length=-1)

    def test_clique_chain_counts(self):
        graph = clique_chain_graph(20, cliques=4)
        assert graph.number_of_nodes() == 20
        assert graph.is_connected()
        # Four 5-cliques plus three bridges.
        assert graph.number_of_edges() == 4 * 10 + 3

    def test_clique_chain_invalid(self):
        with pytest.raises(TopologyError):
            clique_chain_graph(20, cliques=1)
        with pytest.raises(TopologyError):
            clique_chain_graph(6, cliques=4)


class TestRandomTopologies:
    def test_random_regular_is_regular_and_deterministic(self):
        a = random_regular_graph(12, degree=3, seed=7)
        b = random_regular_graph(12, degree=3, seed=7)
        assert set(dict(a.degree).values()) == {3}
        assert nx.utils.graphs_equal(a.to_networkx(), b.to_networkx())

    def test_random_regular_invalid_degree(self):
        with pytest.raises(TopologyError):
            random_regular_graph(12, degree=1)

    def test_erdos_renyi_connected_and_seeded(self):
        a = erdos_renyi_graph(30, average_degree=5.0, seed=3)
        b = erdos_renyi_graph(30, average_degree=5.0, seed=3)
        assert a.is_connected()
        assert nx.utils.graphs_equal(a.to_networkx(), b.to_networkx())

    def test_expander_is_connected_constant_degree(self):
        graph = expander_graph(20, seed=1)
        assert graph.is_connected()
        assert max_degree(graph) == 4


class TestTopologyRegistry:
    """The register_topology decorator keeps the registry and exports in sync."""

    def test_every_module_builder_is_registered(self):
        # Every public *_graph generator defined in the module must have gone
        # through @register_topology — the registry cannot drift from the code.
        from repro.graphs import topologies

        defined = {
            name
            for name in vars(topologies)
            if name.endswith("_graph") and callable(getattr(topologies, name))
        }
        registered = {builder.__name__ for builder in topologies.TOPOLOGY_BUILDERS.values()}
        assert defined == registered

    def test_every_builder_is_exported(self):
        from repro.graphs import topologies

        for builder in topologies.TOPOLOGY_BUILDERS.values():
            assert builder.__name__ in topologies.__all__

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
    def test_every_builder_yields_connected_consecutive_graph(self, name):
        graph = build_topology(name, 16)
        assert graph.is_connected()
        assert sorted(graph.nodes()) == list(range(graph.number_of_nodes()))

    def test_duplicate_registration_rejected(self):
        from repro.graphs.topologies import register_topology

        with pytest.raises(TopologyError):

            @register_topology("ring")
            def ring_clone_graph(n):  # pragma: no cover - must not register
                raise AssertionError

    def test_user_registration_reaches_build_topology_and_scenarios(self):
        from repro.graphs.topologies import register_topology
        from repro.scenarios import ScenarioSpec

        @register_topology("test_tiny_clique")
        def test_tiny_clique_graph(n):
            return CSRGraph.from_networkx(nx.complete_graph(n))

        try:
            assert build_topology("test_tiny_clique", 5).number_of_nodes() == 5
            stats = ScenarioSpec(topology="test_tiny_clique", n=6, trials=1).materialize().run()
            assert stats.trials == 1
        finally:
            from repro.graphs import topologies

            TOPOLOGY_BUILDERS.pop("test_tiny_clique")
            topologies.__all__.remove("test_tiny_clique_graph")
