"""TAG — Tree-based Algebraic Gossip (Section 4 of the paper).

TAG interleaves two phases, exactly as the pseudocode in the paper does:

* **Phase 1** (odd wakeups): run a gossip spanning-tree protocol ``S``.  Once
  a node becomes part of the tree it knows its parent.
* **Phase 2** (even wakeups): a node that already has a parent performs an
  EXCHANGE of RLNC-coded packets with that parent; a node without a parent is
  idle.  The root never obtains a parent and therefore never *initiates* a
  phase-2 exchange, but it still participates whenever a child contacts it
  (EXCHANGE sends packets in both directions).

Theorem 4 bounds the stopping time by ``O(k + log n + d(S) + t(S))`` for both
time models.  The spanning-tree protocol is pluggable — any
:class:`~repro.protocols.spanning_tree_protocols.SpanningTreeProtocol` works,
including the round-robin broadcast of Theorem 5 and the simulated IS protocol
of Section 6.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.config import SimulationConfig
from ..errors import SimulationError
from ..gossip.engine import Transmission
from ..graphs.csr import CSRGraph
from ..rlnc.message import Generation
from ..rlnc.packet import CodedPacket
from .algebraic_gossip import CodedGossipProcess
from .spanning_tree_protocols import SpanningTreeProtocol

__all__ = ["TagProtocol"]

#: Factory signature expected for the ``spanning_tree_factory`` argument: it
#: receives the graph and a random generator and returns a fresh protocol
#: instance (a fresh instance per run keeps trials independent).
SpanningTreeFactory = Callable[[CSRGraph, np.random.Generator], SpanningTreeProtocol]


class TagProtocol(CodedGossipProcess):
    """The TAG k-dissemination protocol.

    A reset-churn crash wipes the node's coded knowledge
    (:meth:`~repro.protocols.algebraic_gossip.CodedGossipProcess.on_crash`)
    but not the spanning-tree state: the tree is shared infrastructure
    (parents, informed bits) that the restarted node can keep using.

    Parameters
    ----------
    graph:
        The communication graph.
    generation:
        The ``k`` source messages.
    placement:
        Initial placement of source messages at nodes.
    config:
        Simulation configuration (time model, action, field size, ...).
        TAG always uses EXCHANGE in both phases, as in the paper's pseudocode;
        the configured action is ignored for phase semantics but kept in the
        metadata for bookkeeping.
    rng:
        Random stream for coding coefficients and tree-protocol randomness.
    spanning_tree:
        Either an already-constructed spanning-tree protocol instance or a
        factory ``(graph, rng) -> SpanningTreeProtocol``.
    keep_phase1_after_tree:
        When ``True`` (the default, faithful to the pseudocode) nodes keep
        performing phase-1 steps on odd wakeups even after the tree is
        complete.  Setting it to ``False`` lets every wakeup run phase 2 once
        the tree exists — an ablation that only changes constants.
    """

    def __init__(
        self,
        graph: CSRGraph,
        generation: Generation,
        placement: Mapping[int, Sequence[int]],
        config: SimulationConfig,
        rng: np.random.Generator,
        spanning_tree: SpanningTreeProtocol | SpanningTreeFactory,
        *,
        keep_phase1_after_tree: bool = True,
    ) -> None:
        super().__init__(graph, generation, placement, config, rng)
        self.keep_phase1_after_tree = keep_phase1_after_tree
        if callable(spanning_tree) and not isinstance(spanning_tree, SpanningTreeProtocol):
            self.stp: SpanningTreeProtocol = spanning_tree(graph, rng)
        else:
            self.stp = spanning_tree  # type: ignore[assignment]
        if not isinstance(self.stp, SpanningTreeProtocol):
            raise SimulationError(
                "spanning_tree must be a SpanningTreeProtocol or a factory returning one"
            )
        self._n = graph.number_of_nodes()
        self._wakeups = [0] * self._n
        self._total_wakeups = 0
        self._tree_complete_at_wakeup: int | None = None

    # ------------------------------------------------------------------
    # GossipProcess interface
    # ------------------------------------------------------------------
    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        if self.count_wakeup(node, self.stp.tree_complete):
            return self._phase1_step(node, rng)
        return self._phase2_step(node)

    def count_wakeup(self, node: int, tree_complete: Callable[[], bool]) -> bool:
        """Count one wakeup of ``node``; return ``True`` if it runs phase 1.

        Odd wakeups run phase 1 and even ones phase 2, except that with
        ``keep_phase1_after_tree=False`` a complete tree turns phase 1 into
        phase 2.  ``tree_complete`` is asked only in that case: the scalar
        path passes ``self.stp.tree_complete``, the event engine its O(1)
        counter.  Both engines count wakeups here (and tree deliveries in
        :meth:`count_tree_delivery`), so :meth:`metadata` comes from the same
        code whichever engine ran.
        """
        self._wakeups[node] += 1
        self._total_wakeups += 1
        if self._wakeups[node] % 2 == 0:
            return False
        return self.keep_phase1_after_tree or not tree_complete()

    def count_tree_delivery(self, tree_complete: Callable[[], bool]) -> None:
        """Record the wakeup count at the first delivery that finds the tree complete."""
        if self._tree_complete_at_wakeup is None and tree_complete():
            self._tree_complete_at_wakeup = self._total_wakeups

    def _phase1_step(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        """EXCHANGE of spanning-tree protocol messages with a partner chosen by S."""
        partner = self.stp.choose_partner(node, rng)
        return [
            Transmission(node, partner, self.stp.tree_payload(node), kind="stp"),
            Transmission(partner, node, self.stp.tree_payload(partner), kind="stp"),
        ]

    def _phase2_step(self, node: int) -> list[Transmission]:
        """EXCHANGE of RLNC packets with the node's parent, if it has one yet."""
        parent = self.stp.parent_of(node)
        if parent is None:
            return []
        transmissions: list[Transmission] = []
        packet_out = self._coded_packet(node)
        if packet_out is not None:
            transmissions.append(Transmission(node, parent, packet_out, kind="rlnc"))
        packet_back = self._coded_packet(parent)
        if packet_back is not None:
            transmissions.append(Transmission(parent, node, packet_back, kind="rlnc"))
        return transmissions

    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool:
        if isinstance(payload, CodedPacket):
            return super().on_deliver(receiver, sender, payload)
        changed = self.stp.handle_tree_payload(receiver, sender, payload)
        self.count_tree_delivery(self.stp.tree_complete)
        return changed

    def supports_event_engine(self) -> bool:
        """TAG runs on the event engine with each built-in spanning tree.

        Eligible when this is exactly :class:`TagProtocol` (a subclass could
        carry state the engine does not drive) composed with a tree that
        runs there itself — exactly one of the four built-in tree types
        (:meth:`SpanningTreeProtocol.supports_event_engine`).  The engine
        drives this process's own tree object in phase 1, and phase 2
        depends only on decoder ranks and the random stream, never on
        packet payloads.
        """
        return type(self) is TagProtocol and self.stp.supports_event_engine()

    def metadata(self) -> dict[str, Any]:
        tree = self.stp.current_tree()
        phase1_rounds = (
            None
            if self._tree_complete_at_wakeup is None
            else -(-self._tree_complete_at_wakeup // self._n)  # ceil
        )
        return {
            "k": self.generation.k,
            "protocol": "TAG",
            "spanning_tree_protocol": type(self.stp).__name__,
            "tree_complete": self.stp.tree_complete(),
            "tree_depth": tree.depth if tree is not None else None,
            "tree_diameter": tree.tree_diameter if tree is not None else None,
            "phase1_rounds": phase1_rounds,
        }
