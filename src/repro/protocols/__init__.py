"""Gossip protocols: uniform algebraic gossip, TAG and the spanning-tree protocols TAG composes with."""

from .algebraic_gossip import AlgebraicGossip, validate_placement
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
