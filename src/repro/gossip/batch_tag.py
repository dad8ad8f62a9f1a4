"""Placeholders for the deleted lockstep TAG and spanning-tree engines.

TAG and the standalone spanning trees run on the event-driven engine
(:mod:`repro.gossip.event`).
The repository benchmark's tracer (``perfbench/tracer.py``) still imports
and patches these two names, so they stay as classes that refuse to be used.
"""

from __future__ import annotations

from .batch import BatchEngineCore

__all__ = ["BatchSpanningTreeEngine", "BatchTagEngine"]


class BatchTagEngine(BatchEngineCore):
    """Kept for perfbench, whose tracer patches it by name; raises ``EngineError``."""


class BatchSpanningTreeEngine(BatchEngineCore):
    """Kept for perfbench, whose tracer patches it by name; raises ``EngineError``."""
