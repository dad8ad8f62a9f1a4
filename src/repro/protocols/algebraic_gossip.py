"""Uniform (and round-robin) algebraic gossip — the protocol of Theorem 1.

Every node owns an :class:`~repro.rlnc.decoder.RlncDecoder` seeded with the
source messages initially placed at it, built the first time the node sends
or receives a coded packet (:class:`CodedGossipProcess`, which TAG shares).
On every wakeup the node selects a communication partner according to the
configured communication model (uniform by default) and the configured
action:

* ``PUSH``  — the waking node sends one freshly coded packet to the partner;
* ``PULL``  — the partner sends one packet to the waking node;
* ``EXCHANGE`` — both happen (this is the variant all the paper's theorems
  are stated for).

The protocol stops when every node's decoder reaches rank ``k``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..core.config import GossipAction, SimulationConfig
from ..errors import SimulationError
from ..gossip.communication import PartnerSelector, UniformSelector
from ..gossip.engine import GossipProcess, Transmission
from ..graphs.csr import CSRGraph
from ..rlnc.decoder import RlncDecoder
from ..rlnc.encoder import encode_from_decoder
from ..rlnc.message import Generation
from ..rlnc.packet import CodedPacket

__all__ = ["AlgebraicGossip", "CodedGossipProcess", "validate_placement"]


def validate_placement(
    graph: CSRGraph, k: int, placement: Mapping[int, Sequence[int]]
) -> dict[int, tuple[int, ...]]:
    """Check a placement and return it as node → tuple of message indices.

    ``placement`` maps node id → indices of the source messages initially
    stored there.  A node may hold several messages or none, but every node
    must exist, every index must lie in ``0..k-1``, and every message must be
    placed at least once, otherwise no protocol could ever disseminate it.
    Anything else raises :class:`~repro.errors.SimulationError`.
    """
    normalised: dict[int, tuple[int, ...]] = {}
    for node, indices in placement.items():
        if node not in graph:
            raise SimulationError(f"placement references unknown node {node}")
        indices = tuple(int(index) for index in indices)
        for index in indices:
            if not 0 <= index < k:
                raise SimulationError(f"message index {index} out of range for k={k}")
        normalised[int(node)] = indices
    missing = set(range(k)).difference(*normalised.values())
    if missing:
        raise SimulationError(
            f"source messages {sorted(missing)} are not placed at any node"
        )
    return normalised


class CodedGossipProcess(GossipProcess):
    """Per-node RLNC knowledge, shared by :class:`AlgebraicGossip` and TAG.

    Construction checks the field and the placement and builds nothing per
    node: a node's :class:`~repro.rlnc.decoder.RlncDecoder` is built, and
    seeded with the messages the placement puts there, the first time the
    node sends or receives a coded packet.  Ranks of nodes not yet built come
    from the placement, so :meth:`rank_of`, :meth:`is_complete` and
    :meth:`metadata` build nothing either.  The event engine replays these
    processes from ranks alone, so a trial there builds no decoder at all.
    """

    def __init__(
        self,
        graph: CSRGraph,
        generation: Generation,
        placement: Mapping[int, Sequence[int]],
        config: SimulationConfig,
        rng: np.random.Generator,
    ) -> None:
        if generation.field.order != config.field_size:
            raise SimulationError(
                f"generation field GF({generation.field.order}) does not match "
                f"config field_size {config.field_size}"
            )
        self.graph = graph
        self.generation = generation
        self.config = config
        #: Node → initial message indices: each decoder is seeded from it
        #: (again after a reset-churn crash), and the event engine seeds its
        #: rows from it.
        self.placement = validate_placement(graph, generation.k, placement)
        self._rng = rng
        self._decoders: dict[int, RlncDecoder] = {}

    def decoder(self, node: int) -> RlncDecoder:
        """``node``'s decoder, built and seeded from the placement on first use."""
        decoder = self._decoders.get(node)
        if decoder is None:
            generation = self.generation
            decoder = RlncDecoder(generation.field, generation.k, generation.payload_length)
            for index in self.placement.get(node, ()):
                decoder.add_source_message(index, generation.payload_matrix[index])
            self._decoders[node] = decoder
        return decoder

    def _coded_packet(self, node: int) -> CodedPacket | None:
        """A fresh random combination of ``node``'s knowledge, or ``None``.

        Every node draws its coefficients from the process's one stream.
        """
        return encode_from_decoder(self.decoder(node), self._rng)

    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool:
        if not isinstance(payload, CodedPacket):
            raise SimulationError(
                f"{type(self).__name__} received unexpected payload type {type(payload)!r}"
            )
        return self.decoder(receiver).receive(payload)

    def is_complete(self) -> bool:
        k, rank_of = self.generation.k, self.rank_of
        return all(rank_of(node) == k for node in self.graph.nodes())

    def finished_nodes(self) -> set[int]:
        k, rank_of = self.generation.k, self.rank_of
        return {node for node in self.graph.nodes() if rank_of(node) == k}

    def on_crash(self, node: int) -> None:
        """Reset-churn crash: the node loses every coded row it accumulated.

        Its decoder is dropped, so the node rejoins with exactly the source
        messages the placement originally stored at it.
        """
        self._decoders.pop(node, None)

    def rank_of(self, node: int) -> int:
        """Current rank of ``node``; asking builds no decoder.

        A node whose decoder is not built yet holds the distinct messages
        placed there.
        """
        decoder = self._decoders.get(node)
        if decoder is None:
            return len(set(self.placement.get(node, ())))
        return decoder.rank

    def all_nodes_decoded_correctly(self) -> bool:
        """Check every node's decoded payloads against the generation's ground truth."""
        return all(
            self.decoder(node).matches_generation(self.generation)
            for node in self.graph.nodes()
        )


class AlgebraicGossip(CodedGossipProcess):
    """Gossip process running RLNC dissemination with a pluggable partner selector.

    Parameters
    ----------
    graph:
        The communication graph ``G_n``.
    generation:
        The ``k`` source messages.
    placement:
        Initial placement of source messages at nodes (node → message indices).
    config:
        Simulation configuration (field size must match ``generation.field``).
    rng:
        Random stream used for coding coefficients.
    selector:
        Communication model; defaults to :class:`UniformSelector` (Definition 1).
    """

    def __init__(
        self,
        graph: CSRGraph,
        generation: Generation,
        placement: Mapping[int, Sequence[int]],
        config: SimulationConfig,
        rng: np.random.Generator,
        selector: PartnerSelector | None = None,
    ) -> None:
        super().__init__(graph, generation, placement, config, rng)
        self.action = config.action
        self.selector = selector if selector is not None else UniformSelector(graph)

    # ------------------------------------------------------------------
    # GossipProcess interface
    # ------------------------------------------------------------------
    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        partner = self.selector.partner(node, rng)
        if partner is None:
            return []
        transmissions: list[Transmission] = []
        if self.action in (GossipAction.PUSH, GossipAction.EXCHANGE):
            packet = self._coded_packet(node)
            if packet is not None:
                transmissions.append(Transmission(node, partner, packet, kind="rlnc"))
        if self.action in (GossipAction.PULL, GossipAction.EXCHANGE):
            packet = self._coded_packet(partner)
            if packet is not None:
                transmissions.append(Transmission(partner, node, packet, kind="rlnc"))
        return transmissions

    def supports_event_engine(self) -> bool:
        """Uniform algebraic gossip runs on the rank-only event engine.

        Everything the engine observes — who talks to whom, how many
        coefficients are drawn, whether a packet is helpful, when a node
        completes — depends only on decoder ranks and the random stream, so
        the stopping time is independent of the payloads.  Subclasses and
        non-uniform selectors (which may carry extra state) are excluded.
        """
        return type(self) is AlgebraicGossip and type(self.selector) is UniformSelector

    def metadata(self) -> dict[str, Any]:
        return {
            "k": self.generation.k,
            "protocol": "algebraic-gossip",
            "action": self.action.value,
            "min_rank": min(self.rank_of(node) for node in self.graph.nodes()),
            "selector": type(self.selector).__name__,
        }

    def decoded_messages(self, node: int) -> np.ndarray:
        """Decoded payload matrix at ``node`` (raises if the node is not done)."""
        return self.decoder(node).decode()
