"""Spanning trees represented as parent maps.

TAG (Section 4) runs algebraic gossip on a spanning tree in which "each node,
except the root, has a single parent" — exactly a parent map.  The queueing
reduction (Theorem 1) also starts from a BFS shortest-path tree.  This module
provides the tree data structure, BFS construction, validation, and the depth
and diameter measures the bounds refer to (``l_max``, ``d(S)``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import networkx as nx

from ..errors import TopologyError
from .csr import CSRGraph

__all__ = ["SpanningTree", "bfs_spanning_tree"]


@dataclass(frozen=True)
class SpanningTree:
    """A rooted spanning tree given by a parent map.

    Attributes
    ----------
    root:
        The unique node without a parent.
    parent:
        Mapping from every non-root node to its parent.
    """

    root: int
    parent: dict[int, int]

    # -- construction / validation --------------------------------------
    @classmethod
    def from_parent_map(cls, root: int, parent: dict[int, int]) -> "SpanningTree":
        """Build and validate a tree from a parent map."""
        tree = cls(root=root, parent=dict(parent))
        tree.validate()
        return tree

    def validate(self) -> None:
        """Check that the parent map is acyclic and reaches the root from every node."""
        self._depths()

    def _depths(self) -> dict[int, int]:
        """Every node's depth, in one pass over the parent map; validates it.

        Nodes are walked towards the root in parent-map order, each walk
        stopping at the first node whose depth is known, so every node is
        visited once.  A walk that fails never meets a known node, so it is
        the walk a node-by-node check would fail on first, with the same
        :class:`~repro.errors.TopologyError`.
        """
        parent, root = self.parent, self.root
        if root in parent:
            raise TopologyError(f"root {root} must not have a parent")
        depths = {root: 0}
        for node in parent:
            walk: dict[int, None] = {}  # this walk's nodes, in order
            current = node
            while current not in depths:
                if current not in parent:
                    raise TopologyError(f"node {current} has no path to the root")
                walk[current] = None
                current = parent[current]
                if current in walk:
                    raise TopologyError(f"cycle detected through node {current}")
            depth = depths[current]
            for vertex in reversed(walk):
                depth += 1
                depths[vertex] = depth
        return depths

    # -- basic accessors ---------------------------------------------------
    @property
    def nodes(self) -> list[int]:
        """All nodes of the tree (root first, then sorted non-root nodes)."""
        return [self.root, *sorted(self.parent.keys())]

    @property
    def size(self) -> int:
        """Number of nodes in the tree."""
        return len(self.parent) + 1

    def children(self) -> dict[int, list[int]]:
        """Inverse of the parent map: node → sorted list of children."""
        result: dict[int, list[int]] = {node: [] for node in self.nodes}
        for child, parent in self.parent.items():
            result[parent].append(child)
        for children in result.values():
            children.sort()
        return result

    def depth_of(self, node: int) -> int:
        """Distance (in tree edges) from ``node`` to the root."""
        depth = 0
        current = node
        while current != self.root:
            try:
                current = self.parent[current]
            except KeyError:
                raise TopologyError(f"node {node} is not part of the tree") from None
            depth += 1
        return depth

    @property
    def depth(self) -> int:
        """Maximum depth over all nodes (``l_max`` in the paper)."""
        return max(self._depths().values())

    @property
    def tree_diameter(self) -> int:
        """Diameter of the tree viewed as an undirected graph (``d(S)``).

        Two breadth-first passes, exact on a tree: the node farthest from
        the root ends a longest path, and the farthest distance from it is
        the diameter.
        """
        neighbours: dict[int, list[int]] = {node: [] for node in self.nodes}
        for child, parent in self.parent.items():
            neighbours[child].append(parent)
            neighbours[parent].append(child)
        farthest, _ = _farthest(neighbours, self.root)
        return _farthest(neighbours, farthest)[1]

    def path_to_root(self, node: int) -> list[int]:
        """The node sequence from ``node`` up to (and including) the root."""
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def as_graph(self) -> nx.Graph:
        """The tree as an undirected :class:`networkx.Graph`."""
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from((child, parent) for child, parent in self.parent.items())
        return graph

    def spans(self, graph: CSRGraph) -> bool:
        """``True`` if the tree covers every node of ``graph`` and uses only its edges."""
        if set(self.nodes) != set(graph.nodes()):
            return False
        return all(graph.has_edge(child, parent) for child, parent in self.parent.items())

    def __repr__(self) -> str:
        return f"SpanningTree(root={self.root}, size={self.size}, depth={self.depth})"


def _farthest(neighbours: dict[int, list[int]], source: int) -> tuple[int, int]:
    """A node farthest from ``source`` in a tree, and its distance."""
    distance = {source: 0}
    queue = deque([source])
    node = source
    while queue:
        node = queue.popleft()
        for neighbour in neighbours[node]:
            if neighbour not in distance:
                distance[neighbour] = distance[node] + 1
                queue.append(neighbour)
    # Breadth-first order: the last node dequeued is a farthest one.
    return node, distance[node]


def bfs_spanning_tree(graph: CSRGraph, root: int) -> SpanningTree:
    """Breadth-first-search shortest-path spanning tree rooted at ``root``.

    This is the tree used by the proof of Theorem 1; its depth is at most the
    graph diameter ``D``.
    """
    if root not in graph:
        raise TopologyError(f"root {root} is not a node of the graph")
    if not graph.is_connected():
        raise TopologyError("cannot build a spanning tree of a disconnected graph")
    parent: dict[int, int] = {}
    visited = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            parent[neighbor] = node
            queue.append(neighbor)
    return SpanningTree(root=root, parent=parent)
