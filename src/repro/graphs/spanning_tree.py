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

__all__ = ["SpanningTree", "bfs_spanning_tree", "random_spanning_tree"]


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
        if self.root in self.parent:
            raise TopologyError(f"root {self.root} must not have a parent")
        for node in self.parent:
            seen = {node}
            current = node
            steps = 0
            while current != self.root:
                if current not in self.parent:
                    raise TopologyError(f"node {current} has no path to the root")
                current = self.parent[current]
                if current in seen:
                    raise TopologyError(f"cycle detected through node {current}")
                seen.add(current)
                steps += 1
                if steps > len(self.parent) + 1:
                    raise TopologyError("parent map does not terminate at the root")

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
        return max((self.depth_of(node) for node in self.parent), default=0)

    @property
    def tree_diameter(self) -> int:
        """Diameter of the tree viewed as an undirected graph (``d(S)``)."""
        if self.size == 1:
            return 0
        return int(nx.diameter(self.as_graph()))

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


def random_spanning_tree(graph: CSRGraph, root: int, rng) -> SpanningTree:
    """A uniformly random-ish spanning tree built by a randomised BFS/DFS hybrid.

    Used by tests and ablations to exercise TAG with trees that are *not*
    shortest-path trees (their depth can exceed the graph diameter).
    """
    if root not in graph:
        raise TopologyError(f"root {root} is not a node of the graph")
    if not graph.is_connected():
        raise TopologyError("cannot build a spanning tree of a disconnected graph")
    parent: dict[int, int] = {}
    visited = {root}
    frontier = [root]
    while frontier:
        index = int(rng.integers(0, len(frontier)))
        node = frontier[index]
        unvisited = [v for v in graph.neighbors(node) if v not in visited]
        if not unvisited:
            frontier.pop(index)
            continue
        chosen = unvisited[int(rng.integers(0, len(unvisited)))]
        visited.add(chosen)
        parent[chosen] = node
        frontier.append(chosen)
    return SpanningTree(root=root, parent=parent)
