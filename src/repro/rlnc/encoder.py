"""RLNC encoding: building outgoing coded packets.

In algebraic gossip "a message is built as a random linear combination of all
messages stored by the node and the coefficients are drawn uniformly at random
from F_q" (Section 2).  Since every node stores its knowledge in an
:class:`~repro.rlnc.decoder.RlncDecoder` (whose rows span exactly the node's
subspace), encoding draws one uniform coefficient per stored row and combines
rows — coefficient parts and payload parts alike — on the decoder's
:class:`~repro.backends.rows.RowEliminator` (:meth:`RlncDecoder.combine`).
"""

from __future__ import annotations

import numpy as np

from ..errors import DecodingError
from ..gf.field import GaloisField
from .decoder import RlncDecoder
from .packet import CodedPacket

__all__ = ["RlncEncoder", "encode_from_decoder"]


def encode_from_decoder(
    decoder: RlncDecoder, rng: np.random.Generator
) -> CodedPacket | None:
    """Build a random linear combination of everything ``decoder`` knows.

    Returns ``None`` when the decoder has rank zero — a node that knows
    nothing has nothing to send (transmitting an all-zero packet would be
    equivalent; returning ``None`` lets callers skip the transmission and
    keeps the message counters meaningful).
    """
    if decoder.rank == 0:
        return None
    coefficients = decoder.field.random_elements(rng, decoder.rank)
    combined = decoder.combine(coefficients.tolist())
    return CodedPacket.from_arrays(combined[: decoder.k], combined[decoder.k :])


class RlncEncoder:
    """Stateful wrapper around :func:`encode_from_decoder`.

    A node's encoder shares the node's decoder (its knowledge base) and a
    random stream.  Keeping a class makes the node objects in the gossip
    engine read naturally (``node.encoder.next_packet()``) and gives a place
    to count emitted packets.
    """

    def __init__(self, decoder: RlncDecoder, rng: np.random.Generator) -> None:
        self.decoder = decoder
        self.rng = rng
        self.packets_emitted = 0

    @property
    def field(self) -> GaloisField:
        """The field packets are coded over."""
        return self.decoder.field

    def next_packet(self) -> CodedPacket | None:
        """Emit one freshly coded packet, or ``None`` if the node knows nothing."""
        packet = encode_from_decoder(self.decoder, self.rng)
        if packet is not None:
            self.packets_emitted += 1
        return packet

    def systematic_packet(self, index: int) -> CodedPacket:
        """Emit the trivial (uncoded) packet for source message ``index``.

        Only valid when the decoder has full knowledge of that message, i.e.
        the unit vector ``e_index`` lies in its row space.  Used by tests and
        by uncoded baselines; algebraic gossip itself never calls this.
        """
        field = self.field
        unit = field.zeros(self.decoder.k)
        unit[index] = 1
        stored = self.decoder.coefficient_matrix()
        from ..gf.linalg import is_in_row_space, solve

        if stored.size == 0 or not is_in_row_space(field, stored, unit):
            raise DecodingError(
                f"node does not know source message {index}; cannot emit it systematically"
            )
        weights = solve(field, stored.T, unit)
        payload = field.dot(weights, self.decoder.augmented_matrix()[:, self.decoder.k :])
        self.packets_emitted += 1
        return CodedPacket.from_arrays(unit, payload)
