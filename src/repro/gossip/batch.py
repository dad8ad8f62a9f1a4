"""Placeholders for the deleted lockstep batch engine.

The event-driven engine (:mod:`repro.gossip.event`) runs uniform algebraic
gossip, TAG and the standalone spanning trees; everything else runs on the
scalar :class:`~repro.gossip.engine.GossipEngine`.  The repository benchmark's
tracer (``perfbench/tracer.py``) still imports and patches these two names,
so they stay as classes that refuse to be used.
"""

from __future__ import annotations

from ..errors import EngineError

__all__ = ["BatchEngineCore", "BatchGossipEngine"]


class BatchEngineCore:
    """Kept for perfbench, whose tracer patches it by name; raises ``EngineError``."""

    def __init__(self, *args, **kwargs) -> None:
        self.run()

    def run(self):
        """Raises :class:`~repro.errors.EngineError`."""
        raise EngineError(
            f"{type(self).__name__} was deleted: uniform algebraic gossip, "
            "TAG and spanning trees run on EventGossipEngine, everything else "
            "on GossipEngine"
        )


class BatchGossipEngine(BatchEngineCore):
    """Kept for perfbench, whose tracer patches it by name; raises ``EngineError``."""
