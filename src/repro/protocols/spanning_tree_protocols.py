"""Gossip spanning-tree protocols (the protocol ``S`` plugged into TAG).

Section 2 defines an *STP gossip* protocol: its goal is that every node except
a designated root ends up with a single parent.  Section 4.1 observes that any
gossip broadcast (1-dissemination) protocol ``B`` yields such a tree: a node's
parent is the neighbour from which it first received the broadcast message.

Three concrete protocols are provided:

* :class:`UniformBroadcastTree` — broadcast with the uniform communication
  model (Definition 1);
* :class:`RoundRobinBroadcastTree` — the ``B_RR`` protocol of Theorem 5:
  broadcast with the round-robin (quasirandom) communication model, whose
  stopping time is ``O(n)`` rounds on *any* graph;
* :class:`BfsOracleTree` — an idealised protocol that knows the BFS tree from
  the start (``t(S) = 0``); used to isolate phase 2 of TAG in experiments and
  ablations.

Every protocol implements two interfaces at once:

* the :class:`SpanningTreeProtocol` hooks TAG drives directly
  (:meth:`choose_partner` / :meth:`tree_payload` / :meth:`handle_tree_payload`
  / :meth:`parent_of`), and
* the generic :class:`~repro.gossip.engine.GossipProcess` interface, so the
  same object can be run standalone to measure ``t(S)`` and ``d(S)`` (this is
  what the Theorem 5 benchmark does) — on the scalar engine or, for the
  four built-in trees, on the event engine.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any

import numpy as np

from ..errors import SimulationError
from ..gossip.communication import RoundRobinSelector, UniformSelector
from ..gossip.engine import GossipProcess, Transmission
from ..graphs.csr import CSRGraph
from ..graphs.spanning_tree import SpanningTree, bfs_spanning_tree

__all__ = [
    "TreeToken",
    "SpanningTreeProtocol",
    "BroadcastSpanningTree",
    "UniformBroadcastTree",
    "RoundRobinBroadcastTree",
    "BfsOracleTree",
]


class TreeToken:
    """Payload exchanged by broadcast-based spanning-tree protocols.

    It only says whether the sender is already *informed* (has received the
    broadcast message, i.e. is part of the tree).  Using a tiny class instead
    of a bare bool keeps payload dispatch in TAG explicit.
    """

    __slots__ = ("informed",)

    def __init__(self, informed: bool) -> None:
        self.informed = informed

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TreeToken(informed={self.informed})"


class SpanningTreeProtocol(GossipProcess):
    """Interface every spanning-tree protocol exposes to TAG.

    Subclasses must implement the four tree-specific hooks; the generic
    :class:`GossipProcess` methods are provided here in terms of those hooks
    (EXCHANGE semantics: the waking node and its chosen partner swap payloads).
    """

    #: Node at which the tree is rooted.
    root: int

    # -- hooks TAG drives directly ---------------------------------------
    @abstractmethod
    def choose_partner(self, node: int, rng: np.random.Generator) -> int:
        """The partner ``node`` contacts when it performs a phase-1 step."""

    @abstractmethod
    def tree_payload(self, node: int) -> Any:
        """The protocol message ``node`` sends during a phase-1 step."""

    @abstractmethod
    def handle_tree_payload(self, node: int, sender: int, payload: Any) -> bool:
        """Apply a received protocol message; return ``True`` if it changed state."""

    @abstractmethod
    def parent_of(self, node: int) -> int | None:
        """Parent of ``node`` in the (partially built) tree, or ``None``."""

    # -- derived helpers -----------------------------------------------------
    def tree_complete(self) -> bool:
        """``True`` when every non-root node has a parent."""
        return all(
            self.parent_of(node) is not None
            for node in self.graph.nodes()
            if node != self.root
        )

    def current_tree(self) -> SpanningTree | None:
        """The spanning tree built so far, or ``None`` if it is not complete."""
        if not self.tree_complete():
            return None
        parent = {
            node: self.parent_of(node)
            for node in self.graph.nodes()
            if node != self.root
        }
        return SpanningTree.from_parent_map(self.root, parent)  # type: ignore[arg-type]

    # -- GossipProcess interface (standalone runs) ----------------------------
    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        partner = self.choose_partner(node, rng)
        return [
            Transmission(node, partner, self.tree_payload(node), kind="stp"),
            Transmission(partner, node, self.tree_payload(partner), kind="stp"),
        ]

    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool:
        return self.handle_tree_payload(receiver, sender, payload)

    def is_complete(self) -> bool:
        return self.tree_complete()

    def finished_nodes(self) -> set[int]:
        return {
            node
            for node in self.graph.nodes()
            if node == self.root or self.parent_of(node) is not None
        }

    def supports_event_engine(self) -> bool:
        """The four built-in trees run on the event engine, standalone or in TAG.

        Exact types only (a subclass could carry state the engine does not
        drive): :class:`UniformBroadcastTree`, :class:`RoundRobinBroadcastTree`,
        :class:`BfsOracleTree` and
        :class:`~repro.protocols.is_protocol.ISSpanningTree`.  The engine
        calls the tree hooks above, with its block reader as the generator.
        """
        from .is_protocol import ISSpanningTree

        return type(self) in (
            UniformBroadcastTree,
            RoundRobinBroadcastTree,
            BfsOracleTree,
            ISSpanningTree,
        )

    def metadata(self) -> dict[str, Any]:
        tree = self.current_tree()
        return {
            "k": 1,
            "protocol": type(self).__name__,
            "root": self.root,
            "tree_depth": tree.depth if tree is not None else None,
            "tree_diameter": tree.tree_diameter if tree is not None else None,
        }


class BroadcastSpanningTree(SpanningTreeProtocol):
    """Spanning tree via gossip broadcast: parent = first informer (Section 4.1)."""

    def __init__(self, graph: CSRGraph, root: int, rng: np.random.Generator) -> None:
        if root not in graph:
            raise SimulationError(f"broadcast root {root} is not a node of the graph")
        self.graph = graph
        self.root = root
        self._informed: set[int] = {root}
        self._parent: dict[int, int] = {}
        self._selector = self._build_selector(graph, rng)

    @abstractmethod
    def _build_selector(self, graph: CSRGraph, rng: np.random.Generator):
        """Return the partner selector implementing the communication model."""

    # -- tree hooks -----------------------------------------------------------
    def choose_partner(self, node: int, rng: np.random.Generator) -> int:
        return self._selector.partner(node, rng)

    def tree_payload(self, node: int) -> TreeToken:
        return TreeToken(informed=node in self._informed)

    def handle_tree_payload(self, node: int, sender: int, payload: Any) -> bool:
        if not isinstance(payload, TreeToken):
            raise SimulationError(
                f"broadcast protocol received unexpected payload {type(payload)!r}"
            )
        if payload.informed and node not in self._informed:
            self._informed.add(node)
            if node != self.root:
                self._parent[node] = sender
            return True
        return False

    def parent_of(self, node: int) -> int | None:
        return self._parent.get(node)

    @property
    def informed_count(self) -> int:
        """Number of nodes that have received the broadcast so far."""
        return len(self._informed)


class UniformBroadcastTree(BroadcastSpanningTree):
    """Broadcast with the uniform communication model (Definition 1)."""

    def _build_selector(self, graph: CSRGraph, rng: np.random.Generator):
        return UniformSelector(graph)


class RoundRobinBroadcastTree(BroadcastSpanningTree):
    """``B_RR`` of Theorem 5: broadcast with round-robin partner selection.

    Theorem 5 shows this finishes after ``O(n)`` rounds on any connected graph
    (deterministically in the synchronous model, with exponentially high
    probability in the asynchronous one), which makes TAG order optimal for
    ``k = Ω(n)`` on any topology.
    """

    def _build_selector(self, graph: CSRGraph, rng: np.random.Generator):
        return RoundRobinSelector(graph, rng)


class BfsOracleTree(SpanningTreeProtocol):
    """Idealised spanning-tree protocol: the BFS tree is known from the start.

    ``t(S) = 0`` and ``d(S) <= 2 D``; phase 1 of TAG has nothing to do, so
    experiments using this protocol isolate the ``O(k + log n + d(S))``
    algebraic-gossip-on-a-tree part of Theorem 4 (Lemma 1).
    """

    def __init__(self, graph: CSRGraph, root: int, rng: np.random.Generator | None = None) -> None:
        if root not in graph:
            raise SimulationError(f"tree root {root} is not a node of the graph")
        self.graph = graph
        self.root = root
        self._tree = bfs_spanning_tree(graph, root)
        self._selector = UniformSelector(graph)

    def choose_partner(self, node: int, rng: np.random.Generator) -> int:
        # Phase-1 steps are no-ops for the oracle; contacting the parent (or
        # any neighbour for the root) keeps the step well defined.
        parent = self._tree.parent.get(node)
        if parent is not None:
            return parent
        return self._selector.partner(node, rng)

    def tree_payload(self, node: int) -> TreeToken:
        return TreeToken(informed=True)

    def handle_tree_payload(self, node: int, sender: int, payload: Any) -> bool:
        return False

    def parent_of(self, node: int) -> int | None:
        return self._tree.parent.get(node)

    def current_tree(self) -> SpanningTree:
        return self._tree
