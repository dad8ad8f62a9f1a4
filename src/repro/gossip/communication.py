"""Gossip communication models: how a waking node picks its partner.

Section 2 of the paper defines the *gossip communication model* as the rule a
waking node uses to select the single neighbour it will contact, independent
of what is then sent.  Two models appear in the paper:

* **Uniform gossip** (Definition 1) — the partner is chosen uniformly at
  random among all neighbours.
* **Round-robin gossip** (Definition 2) — the partner is chosen according to a
  fixed cyclic list of neighbours; with a random starting point this is the
  quasirandom rumor-spreading model.

(Phase 2 of TAG always contacts the node's spanning-tree parent;
:class:`~repro.protocols.tag.TagProtocol` reads it from the tree protocol.)

Each selector exposes ``partner(node, rng) -> int | None`` and is constructed
from the graph so that the neighbour lists are fixed up front.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import SimulationError
from ..graphs.csr import CSRGraph

__all__ = [
    "PartnerSelector",
    "UniformSelector",
    "RoundRobinSelector",
]


class PartnerSelector(ABC):
    """Strategy interface for choosing the communication partner of a node."""

    @abstractmethod
    def partner(self, node: int, rng: np.random.Generator) -> int | None:
        """Return the neighbour ``node`` contacts on this wakeup (or ``None``)."""

    def reset(self) -> None:
        """Reset any internal per-run state (default: nothing to reset)."""


class UniformSelector(PartnerSelector):
    """Definition 1: partner chosen uniformly at random among the neighbours."""

    def __init__(self, graph: CSRGraph) -> None:
        # The graph's own CSR arrays: nothing is built per node or per trial.
        self._indptr, self._indices = graph.indptr, graph.indices
        isolated = np.flatnonzero(graph.degrees() == 0)
        if isolated.size:
            raise SimulationError(
                f"node {int(isolated[0])} has no neighbours; graph must be connected"
            )

    def partner(self, node: int, rng: np.random.Generator) -> int:
        start, stop = self._indptr.item(node), self._indptr.item(node + 1)
        return self._indices.item(start + int(rng.integers(0, stop - start)))


class RoundRobinSelector(PartnerSelector):
    """Definition 2: partner chosen from a fixed cyclic neighbour list.

    The starting offset of every node's cycle is chosen uniformly at random
    when the selector is created (the quasirandom rumor-spreading model of
    Doerr et al.); subsequent wakeups walk the list cyclically.  The offsets
    are drawn one per node in ascending node order.
    """

    def __init__(self, graph: CSRGraph, rng: np.random.Generator | None = None) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        self._neighbors = graph.neighbor_tuples()
        self._initial_offset: dict[int, int] = {}
        self._position: dict[int, int] = {}
        for node, neighbors in enumerate(self._neighbors):
            if not neighbors:
                raise SimulationError(f"node {node} has no neighbours; graph must be connected")
            offset = int(rng.integers(0, len(neighbors)))
            self._initial_offset[node] = offset
            self._position[node] = offset

    def partner(self, node: int, rng: np.random.Generator) -> int:
        neighbors = self._neighbors[node]
        index = self._position[node] % len(neighbors)
        self._position[node] = (index + 1) % len(neighbors)
        return neighbors[index]

    def reset(self) -> None:
        self._position = dict(self._initial_offset)

    def positions(self) -> dict[int, int]:
        """Copy of the current per-node cycle positions."""
        return dict(self._position)
