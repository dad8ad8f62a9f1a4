"""Unit tests for structural graph properties (Claim 1, Lemma 2, conductances)."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.graphs import (
    barbell_graph,
    binary_tree_graph,
    complete_graph,
    cut_conductance,
    diameter,
    graph_conductance,
    grid_graph,
    line_graph,
    max_degree,
    max_shortest_path_degree_sum,
    min_cut_gamma,
    min_degree,
    profile_graph,
    ring_graph,
    shortest_path_degree_sum,
    spectral_gap,
    weak_conductance,
)
from repro.analysis.bounds import claim1_min_diameter, lemma2_path_degree_bound


class TestBasicProperties:
    def test_diameter_and_degrees(self):
        graph = line_graph(10)
        assert diameter(graph) == 9
        assert max_degree(graph) == 2
        assert min_degree(graph) == 1

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(TopologyError):
            diameter(graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            max_degree(nx.Graph())

    def test_profile_graph_summary(self):
        profile = profile_graph(ring_graph(8))
        assert profile.n == 8
        assert profile.max_degree == 2
        assert profile.diameter == 4
        assert "n=8" in profile.describe()


class TestClaim1:
    """Claim 1: constant-maximum-degree graphs have diameter Ω(log n)."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_line_ring_tree_satisfy_claim(self, n):
        for builder in (line_graph, ring_graph, binary_tree_graph):
            graph = builder(n)
            lower = claim1_min_diameter(graph.number_of_nodes(), max_degree(graph))
            assert diameter(graph) >= lower

    def test_lower_bound_decreases_with_degree(self):
        assert claim1_min_diameter(64, 2) > claim1_min_diameter(64, 8)


class TestLemma2:
    """Lemma 2: the degree sum along any shortest path is at most 3n."""

    @pytest.mark.parametrize(
        "builder, n",
        [(line_graph, 16), (ring_graph, 16), (grid_graph, 16), (barbell_graph, 16),
         (complete_graph, 12), (binary_tree_graph, 15)],
    )
    def test_bound_holds_on_all_families(self, builder, n):
        graph = builder(n)
        actual_n = graph.number_of_nodes()
        worst = max_shortest_path_degree_sum(graph)
        assert worst <= lemma2_path_degree_bound(actual_n)

    def test_single_pair_degree_sum(self):
        graph = line_graph(6)
        # Path 0-1-2-3-4-5: degrees 1,2,2,2,2,1 sum to 10.
        assert shortest_path_degree_sum(graph, 0, 5) == 10

    def test_source_restricted_maximum(self):
        graph = barbell_graph(10)
        assert max_shortest_path_degree_sum(graph, source=0) <= 3 * 10


class TestConductance:
    def test_cut_conductance_of_barbell_bridge(self):
        graph = barbell_graph(10)
        left = set(range(5))
        # Exactly one edge crosses; each side has volume 21.
        assert cut_conductance(graph, left) == pytest.approx(1 / 21)

    def test_trivial_cut_rejected(self):
        graph = ring_graph(6)
        with pytest.raises(TopologyError):
            cut_conductance(graph, set())
        with pytest.raises(TopologyError):
            cut_conductance(graph, set(range(6)))

    def test_complete_graph_has_high_conductance(self):
        assert graph_conductance(complete_graph(8)) > 0.4

    def test_barbell_has_low_conductance(self):
        assert graph_conductance(barbell_graph(10)) == pytest.approx(1 / 21)

    def test_large_graph_falls_back_to_spectral_estimate(self):
        graph = ring_graph(40)
        value = graph_conductance(graph)
        assert 0 < value < 0.2

    def test_spectral_gap_ordering(self):
        # The complete graph mixes much faster than the ring.
        assert spectral_gap(complete_graph(12)) > spectral_gap(ring_graph(12))


class TestWeakConductance:
    def test_barbell_weak_conductance_much_larger_than_conductance(self):
        graph = barbell_graph(12)
        phi = graph_conductance(graph)
        phi_2 = weak_conductance(graph, c=2)
        assert phi_2 > 5 * phi

    def test_c_equal_one_reduces_to_conductance(self):
        graph = ring_graph(10)
        assert weak_conductance(graph, c=1) == pytest.approx(graph_conductance(graph))

    def test_invalid_c_rejected(self):
        with pytest.raises(TopologyError):
            weak_conductance(ring_graph(8), c=0)

    def test_line_weak_conductance_stays_small(self):
        graph = line_graph(24)
        assert weak_conductance(graph, c=2) < 0.3


class TestMinCutGamma:
    def test_line_gamma_matches_bridge_probability(self):
        graph = line_graph(8)
        # The sparsest cut is a single edge between two interior degree-2 nodes:
        # gamma = 1/(n*2) + 1/(n*2) = 1/n.
        assert min_cut_gamma(graph) == pytest.approx(1 / 8, rel=0.3)

    def test_complete_graph_gamma_is_large(self):
        assert min_cut_gamma(complete_graph(10)) > 0.05

    def test_larger_graph_uses_min_edge_cut_path(self):
        graph = line_graph(30)
        assert 0 < min_cut_gamma(graph) < 0.2
