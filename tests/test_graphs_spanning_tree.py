"""Unit tests for spanning trees (parent maps, BFS construction, depth/diameter)."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# Generated trees: the O(n) measures against networkx and the walk-by-walk
# validation
# ----------------------------------------------------------------------
def _walk_by_walk_error(root: int, parent: dict[int, int]) -> str | None:
    """The message of a node-by-node validation (one full walk per node)."""
    if root in parent:
        return f"root {root} must not have a parent"
    for node in parent:
        seen, current = {node}, node
        while current != root:
            if current not in parent:
                return f"node {current} has no path to the root"
            current = parent[current]
            if current in seen:
                return f"cycle detected through node {current}"
            seen.add(current)
    return None


@st.composite
def parent_maps(draw):
    """A random recursive tree, a path or a star on shuffled labels, maybe
    broken by a parented root, an orphan or a cycle."""
    n = draw(st.integers(1, 200))
    shape = draw(st.sampled_from(["recursive", "path", "star"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    labels = list(range(n))
    rng.shuffle(labels)
    # Node i (in attachment order) hangs below an earlier node.
    below = {"recursive": lambda i: rng.randrange(i), "path": lambda i: i - 1,
             "star": lambda i: 0}[shape]
    parent = {labels[i]: labels[below(i)] for i in range(1, n)}
    flaw = draw(st.sampled_from(["none", "none", "parented-root", "orphan", "cycle"]))
    if flaw != "none" and n >= 2:
        node = labels[rng.randrange(1, n)]
        if flaw == "parented-root":
            parent[labels[0]] = node
        elif flaw == "orphan":
            parent[node] = n  # a label that is not in the tree
        else:
            descendants = [child for child in parent if node in _ancestors(parent, child)]
            parent[node] = rng.choice([node, *descendants])
    return labels[0], parent


def _ancestors(parent: dict[int, int], node: int) -> set[int]:
    """``node`` and the nodes above it (the map must be a tree)."""
    chain = {node}
    while node in parent:
        node = parent[node]
        chain.add(node)
    return chain


@settings(max_examples=150, deadline=None)
@given(tree=parent_maps())
def test_tree_measures_and_validation_on_generated_trees(tree):
    root, parent = tree
    expected = _walk_by_walk_error(root, parent)
    if expected is not None:
        with pytest.raises(TopologyError) as error:
            SpanningTree.from_parent_map(root, parent)
        assert str(error.value) == expected
        return
    tree = SpanningTree.from_parent_map(root, parent)
    assert tree.depth == max((tree.depth_of(node) for node in parent), default=0)
    expected_diameter = nx.diameter(tree.as_graph()) if parent else 0
    assert tree.tree_diameter == expected_diameter
