"""Random linear network coding (RLNC) substrate.

The contents map one-to-one onto the "Random Linear Network Coding" paragraph
of Section 2 of the paper: :class:`Generation` holds the ``k`` source messages,
:class:`CodedPacket` is the bounded-size message on the wire,
:class:`RlncDecoder` accumulates linear equations and reports the node's rank,
:class:`RlncEncoder` builds uniform random combinations of everything a node
stores, and :mod:`~repro.rlnc.helpful` implements Definition 3 (helpful nodes
and messages).
"""

from .decoder import RlncDecoder
from .encoder import RlncEncoder, encode_from_decoder
from .helpful import (
    helpful_message_probability_lower_bound,
    is_helpful_node,
    subspace_dimension_gain,
)
from .message import Generation, SourceMessage
from .packet import CodedPacket

__all__ = [
    "RlncDecoder",
    "RlncEncoder",
    "encode_from_decoder",
    "helpful_message_probability_lower_bound",
    "is_helpful_node",
    "subspace_dimension_gain",
    "Generation",
    "SourceMessage",
    "CodedPacket",
]
