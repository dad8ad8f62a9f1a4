"""Gossip protocols: the paper's contributions and the baselines they are compared to."""

from .algebraic_gossip import AlgebraicGossip, validate_placement
from .baselines import FloodingDissemination, UncodedRandomGossip
from .is_protocol import BitStringMessage, ISSpanningTree
from .spanning_tree_protocols import (
    BfsOracleTree,
    BroadcastSpanningTree,
    RoundRobinBroadcastTree,
    SpanningTreeProtocol,
    TreeToken,
    UniformBroadcastTree,
)
from .tag import TagProtocol

__all__ = [
    "AlgebraicGossip",
    "FloodingDissemination",
    "UncodedRandomGossip",
    "BitStringMessage",
    "ISSpanningTree",
    "BfsOracleTree",
    "BroadcastSpanningTree",
    "RoundRobinBroadcastTree",
    "SpanningTreeProtocol",
    "TreeToken",
    "UniformBroadcastTree",
    "TagProtocol",
    "validate_placement",
]
