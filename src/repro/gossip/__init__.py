"""Gossip machinery: communication models, the engines and event traces."""

from .communication import (
    FixedPartnerSelector,
    PartnerSelector,
    RoundRobinSelector,
    UniformSelector,
)
from .dynamics import NodeDynamics
from .engine import GossipEngine, GossipProcess, Transmission, run_protocol
from .event import EventGossipEngine
from .trace import EventTrace, GossipEvent

__all__ = [
    "NodeDynamics",
    "FixedPartnerSelector",
    "PartnerSelector",
    "RoundRobinSelector",
    "UniformSelector",
    "GossipEngine",
    "GossipProcess",
    "Transmission",
    "run_protocol",
    "EventGossipEngine",
    "EventTrace",
    "GossipEvent",
]
