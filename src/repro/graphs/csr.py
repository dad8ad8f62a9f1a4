"""The simulator's one graph type: ``(n, indptr, indices)`` in CSR form.

Every topology builder in :mod:`repro.graphs.topologies` returns a
:class:`CSRGraph`, and every engine, protocol, selector and placement runs on
it.  Node labels are the consecutive integers ``0 .. n-1``, the neighbours of
node ``p`` are ``indices[indptr[p]:indptr[p+1]]`` in ascending order, and both
arrays are read-only ``int64``.  At n = 10^5 a :class:`networkx.Graph` would
dominate both build time and peak RSS, while the engines only ever read these
arrays.

The class mirrors the handful of :class:`networkx.Graph` surface points the
simulation layers touch (``number_of_nodes``, ``nodes()``, ``neighbors``,
``degree``, ``has_edge``, containment).  Graph algorithms the analysis needs
(diameter, conductance, min cuts) run on :meth:`CSRGraph.to_networkx`, and
:meth:`CSRGraph.from_networkx` is the only conversion the other way.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..errors import TopologyError

__all__ = ["CSRGraph", "csr_from_edges", "csr_bfs_distances"]


def csr_bfs_distances(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> np.ndarray:
    """BFS hop distances from ``source`` over a CSR adjacency (-1 = unreachable).

    Vectorised frontier expansion: each level gathers every neighbour of the
    frontier with one flat fancy-index, so the python-level cost is
    O(diameter) instead of O(V + E) — connectivity and farthest-node queries
    at n = 10^6 stay sub-second.
    """
    n = len(indptr) - 1
    distances = np.full(n, -1, dtype=np.int64)
    distances[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Flat multi-range gather: positions of every neighbour of the frontier.
        ends = np.cumsum(counts)
        flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
        neighbours = indices[flat]
        fresh = np.unique(neighbours[distances[neighbours] < 0])
        if fresh.size == 0:
            break
        level += 1
        distances[fresh] = level
        frontier = fresh
    return distances


def csr_from_edges(n: int, sources: np.ndarray, targets: np.ndarray) -> "CSRGraph":
    """Build a :class:`CSRGraph` from one undirected edge list.

    ``sources[i]–targets[i]`` are the distinct undirected edges (no
    duplicates, no self-loops — every builder in
    :mod:`repro.graphs.topologies` guarantees this by construction).  Both
    directions are emitted and sorted so each node's neighbours come out
    ascending.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    src = np.concatenate([sources, targets])
    dst = np.concatenate([targets, sources])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    degrees = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return CSRGraph(n, indptr, np.ascontiguousarray(dst))


class _DegreeView:
    """The slice of networkx's degree view the simulation layers use."""

    def __init__(self, graph: "CSRGraph") -> None:
        self._graph = graph

    def __getitem__(self, node: int) -> int:
        graph = self._graph
        node = graph._checked(node)
        return int(graph.indptr[node + 1] - graph.indptr[node])

    def __call__(self, node: int) -> int:
        return self[node]

    def __iter__(self):
        return zip(range(self._graph.n), self._graph.degrees().tolist())


class CSRGraph:
    """Read-only undirected graph as CSR arrays; nodes are ``0 .. n-1``.

    ``indptr`` (``n + 1`` int64) and ``indices`` (``2m`` int64, each node's
    neighbours ascending).  Node arguments outside ``0 .. n-1`` raise
    :class:`~repro.errors.TopologyError` naming the node.
    """

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.shape != (n + 1,):
            raise ValueError(f"indptr must have shape ({n + 1},), got {indptr.shape}")
        if indices.shape != (int(indptr[-1]),):
            raise ValueError(
                f"indices must have shape ({int(indptr[-1])},), got {indices.shape}"
            )
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self._connected: bool | None = None
        self._neighbor_tuples: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def from_networkx(cls, graph) -> "CSRGraph":
        """The CSR form of a :class:`networkx.Graph`.

        Node ``sorted(graph.nodes())[p]`` becomes node ``p``; each node's
        neighbours are listed in ascending order.
        """
        nodes = sorted(graph.nodes())
        position = {node: index for index, node in enumerate(nodes)}
        rows = [sorted(position[v] for v in graph.neighbors(node)) for node in nodes]
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        indices = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
        )
        return cls(len(nodes), indptr, indices)

    def to_networkx(self):
        """A fresh :class:`networkx.Graph` with the same nodes and edges.

        Nodes are added in ascending order and edges row by row, so every
        node's adjacency is ascending too.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        graph.add_edges_from(self.edges())
        return graph

    def _checked(self, node: object) -> int:
        if node not in self:
            raise TopologyError(
                f"node {node!r} is not in the graph (nodes are 0..{self.n - 1})"
            )
        return int(node)  # type: ignore[arg-type]

    # -- the networkx surface the simulation layers touch ------------------
    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        return len(self.indices) // 2

    def nodes(self) -> range:
        return range(self.n)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(range(self.n))

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= int(node) < self.n

    def neighbors(self, node: int):
        node = self._checked(node)
        start, stop = int(self.indptr[node]), int(self.indptr[node + 1])
        return iter(self.indices[start:stop].tolist())

    @property
    def degree(self) -> _DegreeView:
        return _DegreeView(self)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._checked(u), self._checked(v)
        row = self.indices[self.indptr[u]:self.indptr[u + 1]]
        at = int(np.searchsorted(row, v))
        return at < row.size and int(row[at]) == v

    def edges(self):
        """Every undirected edge once, as ``(u, v)`` with ``u < v``, row by row."""
        sources = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        upper = sources < self.indices
        return zip(sources[upper].tolist(), self.indices[upper].tolist())

    # -- CSR-native extras ------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Degree of every node as one int64 array."""
        return np.diff(self.indptr)

    def neighbor_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Each node's ascending neighbour tuple, indexed by node (memoized).

        The cyclic lists :class:`~repro.gossip.RoundRobinSelector` walks;
        trial runners reuse one graph across trials, so this is built once.
        """
        if self._neighbor_tuples is None:
            flat = self.indices.tolist()
            bounds = self.indptr.tolist()
            self._neighbor_tuples = tuple(
                tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])
            )
        return self._neighbor_tuples

    def is_connected(self) -> bool:
        """Whether the graph is connected (memoized; vectorised BFS)."""
        if self._connected is None:
            if self.n == 0:
                self._connected = True
            else:
                distances = csr_bfs_distances(self.indptr, self.indices, 0)
                self._connected = bool((distances >= 0).all())
        return self._connected

    def bfs_distances(self, source: int) -> np.ndarray:
        """BFS hop distances from ``source`` (-1 for unreachable nodes)."""
        return csr_bfs_distances(self.indptr, self.indices, self._checked(source))

    # -- pickling (worker processes receive the graph by value) ----------
    def __getstate__(self) -> dict:
        return {"n": self.n, "indptr": self.indptr, "indices": self.indices}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["n"], state["indptr"], state["indices"])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRGraph(n={self.n}, m={self.number_of_edges()})"
