"""Gossip machinery: communication models, the engines and event traces."""

from .communication import (
    PartnerSelector,
    RoundRobinSelector,
    UniformSelector,
)
from .dynamics import NodeDynamics
from .engine import GossipEngine, GossipProcess, Transmission
from .event import EventGossipEngine
from .trace import EventTrace, GossipEvent

__all__ = [
    "NodeDynamics",
    "PartnerSelector",
    "RoundRobinSelector",
    "UniformSelector",
    "GossipEngine",
    "GossipProcess",
    "Transmission",
    "EventGossipEngine",
    "EventTrace",
    "GossipEvent",
]
