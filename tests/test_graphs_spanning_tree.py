"""Unit tests for spanning trees (parent maps, BFS construction, depth/diameter)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.errors import TopologyError
from repro.graphs import (
    CSRGraph,
    SpanningTree,
    barbell_graph,
    bfs_spanning_tree,
    binary_tree_graph,
    diameter,
    grid_graph,
    line_graph,
    random_spanning_tree,
    ring_graph,
)


class TestSpanningTreeStructure:
    def test_from_parent_map_valid(self):
        tree = SpanningTree.from_parent_map(0, {1: 0, 2: 0, 3: 1})
        assert tree.size == 4
        assert tree.depth == 2
        assert tree.depth_of(3) == 2
        assert tree.children()[0] == [1, 2]
        assert tree.path_to_root(3) == [3, 1, 0]

    def test_root_with_parent_rejected(self):
        with pytest.raises(TopologyError):
            SpanningTree.from_parent_map(0, {0: 1, 1: 0})

    def test_cycle_rejected(self):
        with pytest.raises(TopologyError):
            SpanningTree.from_parent_map(0, {1: 2, 2: 1})

    def test_unreachable_node_rejected(self):
        with pytest.raises(TopologyError):
            SpanningTree.from_parent_map(0, {1: 5})

    def test_depth_of_unknown_node_raises(self):
        tree = SpanningTree.from_parent_map(0, {1: 0})
        with pytest.raises(TopologyError):
            tree.depth_of(9)

    def test_single_node_tree(self):
        tree = SpanningTree.from_parent_map(0, {})
        assert tree.depth == 0
        assert tree.tree_diameter == 0
        assert tree.size == 1

    def test_as_graph_and_spans(self):
        graph = ring_graph(6)
        tree = bfs_spanning_tree(graph, 0)
        assert nx.is_tree(tree.as_graph())
        assert tree.spans(graph)
        # A tree over different node ids does not span the ring.
        other = SpanningTree.from_parent_map(10, {11: 10})
        assert not other.spans(graph)

    def test_tree_diameter_of_path_tree(self):
        tree = SpanningTree.from_parent_map(0, {1: 0, 2: 1, 3: 2})
        assert tree.tree_diameter == 3


class TestBfsSpanningTree:
    @pytest.mark.parametrize(
        "builder, n", [(line_graph, 12), (ring_graph, 12), (grid_graph, 16),
                       (barbell_graph, 12), (binary_tree_graph, 15)],
    )
    def test_bfs_tree_spans_and_depth_at_most_diameter(self, builder, n):
        graph = builder(n)
        tree = bfs_spanning_tree(graph, 0)
        assert tree.spans(graph)
        assert tree.depth <= diameter(graph)

    def test_bfs_tree_gives_shortest_path_depths(self):
        graph = grid_graph(16)
        tree = bfs_spanning_tree(graph, 0)
        lengths = nx.single_source_shortest_path_length(graph.to_networkx(), 0)
        for node, distance in lengths.items():
            if node == 0:
                continue
            assert tree.depth_of(node) == distance

    def test_unknown_root_rejected(self):
        with pytest.raises(TopologyError):
            bfs_spanning_tree(ring_graph(6), 99)

    def test_disconnected_graph_rejected(self):
        graph = CSRGraph.from_networkx(nx.Graph([(0, 1), (2, 3)]))
        with pytest.raises(TopologyError):
            bfs_spanning_tree(graph, 0)


class TestRandomSpanningTree:
    def test_random_tree_spans_graph(self):
        rng = np.random.default_rng(0)
        graph = grid_graph(16)
        tree = random_spanning_tree(graph, 0, rng)
        assert tree.spans(graph)

    def test_random_tree_depth_can_exceed_bfs_depth(self):
        """On the ring a randomised tree is usually deeper than the BFS tree."""
        rng = np.random.default_rng(1)
        graph = ring_graph(20)
        bfs_depth = bfs_spanning_tree(graph, 0).depth
        depths = [random_spanning_tree(graph, 0, rng).depth for _ in range(10)]
        assert max(depths) >= bfs_depth

    def test_random_tree_requires_known_root(self):
        rng = np.random.default_rng(2)
        with pytest.raises(TopologyError):
            random_spanning_tree(ring_graph(6), 42, rng)
