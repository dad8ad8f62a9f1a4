"""Uncoded baseline dissemination protocols.

The paper motivates algebraic gossip by contrasting it with *uncoded* rumor
mongering: when a node can only forward one of the raw messages it happens to
hold, choosing which one to forward becomes a coupon-collector problem and the
dissemination time picks up extra logarithmic (or worse) factors.  These
baselines make that comparison measurable:

* :class:`UncodedRandomGossip` — on every wakeup the node picks a partner
  (uniform or any other communication model) and forwards one uniformly random
  raw message it currently holds; with EXCHANGE the partner does the same in
  the opposite direction.  This is the classic "random useful-agnostic"
  baseline that RLNC is compared against in the network-coding literature.
* :class:`FloodingDissemination` — every node sends every message it knows to
  every neighbour each round.  This violates the bounded-message-size and
  single-partner constraints of gossip, so it is *not* a gossip protocol; it
  serves as an idealised lower envelope (essentially ``D`` rounds plus the
  time for messages to spread) in plots and sanity tests.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..core.config import GossipAction, SimulationConfig
from ..errors import SimulationError
from ..gossip.communication import PartnerSelector, UniformSelector
from ..gossip.engine import GossipProcess, Transmission
from ..graphs.csr import CSRGraph
from .algebraic_gossip import validate_placement

__all__ = ["UncodedRandomGossip", "FloodingDissemination"]


class UncodedRandomGossip(GossipProcess):
    """Store-and-forward gossip that sends one random raw message per contact."""

    def __init__(
        self,
        graph: CSRGraph,
        k: int,
        placement: Mapping[int, Sequence[int]],
        config: SimulationConfig,
        rng: np.random.Generator,
        selector: PartnerSelector | None = None,
    ) -> None:
        if k < 1:
            raise SimulationError(f"k must be positive, got {k}")
        self.graph = graph
        self.k = k
        self.action = config.action
        self.selector = selector if selector is not None else UniformSelector(graph)
        self._rng = rng
        self._known: dict[int, set[int]] = {node: set() for node in graph.nodes()}
        for node, indices in validate_placement(graph, k, placement).items():
            self._known[node].update(indices)

    # -- helpers -----------------------------------------------------------
    def _random_known_message(self, node: int) -> int | None:
        known = self._known[node]
        if not known:
            return None
        items = sorted(known)
        return items[int(self._rng.integers(0, len(items)))]

    # -- GossipProcess interface --------------------------------------------
    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        partner = self.selector.partner(node, rng)
        if partner is None:
            return []
        transmissions: list[Transmission] = []
        if self.action in (GossipAction.PUSH, GossipAction.EXCHANGE):
            message = self._random_known_message(node)
            if message is not None:
                transmissions.append(Transmission(node, partner, message, kind="raw"))
        if self.action in (GossipAction.PULL, GossipAction.EXCHANGE):
            message = self._random_known_message(partner)
            if message is not None:
                transmissions.append(Transmission(partner, node, message, kind="raw"))
        return transmissions

    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool:
        message = int(payload)
        if message in self._known[receiver]:
            return False
        self._known[receiver].add(message)
        return True

    def is_complete(self) -> bool:
        return all(len(known) == self.k for known in self._known.values())

    def finished_nodes(self) -> set[int]:
        return {node for node, known in self._known.items() if len(known) == self.k}

    def metadata(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "protocol": "uncoded-random-gossip",
            "action": self.action.value,
        }

    def messages_known(self, node: int) -> set[int]:
        """Copy of the raw message indices currently held by ``node``."""
        return set(self._known[node])


class FloodingDissemination(GossipProcess):
    """Idealised flooding: every round, every node tells every neighbour everything.

    Not a gossip protocol (unbounded messages, all neighbours at once); used
    only as a reference point — its synchronous stopping time equals the graph
    eccentricity structure of the placement and lower-bounds every gossip
    protocol that respects the same initial placement.
    """

    def __init__(
        self,
        graph: CSRGraph,
        k: int,
        placement: Mapping[int, Sequence[int]],
    ) -> None:
        if k < 1:
            raise SimulationError(f"k must be positive, got {k}")
        self.graph = graph
        self.k = k
        self._known: dict[int, set[int]] = {node: set() for node in graph.nodes()}
        for node, indices in validate_placement(graph, k, placement).items():
            self._known[node].update(indices)

    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        known = frozenset(self._known[node])
        if not known:
            return []
        return [
            Transmission(node, neighbor, known, kind="flood")
            for neighbor in sorted(self.graph.neighbors(node))
        ]

    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool:
        before = len(self._known[receiver])
        self._known[receiver].update(payload)
        return len(self._known[receiver]) > before

    def is_complete(self) -> bool:
        return all(len(known) == self.k for known in self._known.values())

    def finished_nodes(self) -> set[int]:
        return {node for node, known in self._known.items() if len(known) == self.k}

    def metadata(self) -> dict[str, Any]:
        return {"k": self.k, "protocol": "flooding"}
