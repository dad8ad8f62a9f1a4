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

from .decoder import RlncDecoder
from .packet import CodedPacket

__all__ = ["encode_from_decoder"]


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
