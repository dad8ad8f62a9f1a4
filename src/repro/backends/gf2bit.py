"""Placeholder for the deleted bit-packed GF(2) eliminator.

Both engines run on :class:`~repro.backends.rows.RowEliminator`, which keeps
GF(2) rows one bit per column.  The repository benchmark's tracer
(``perfbench/tracer.py``) still imports this name and patches its
``combine``, ``combine_one``, ``eliminate`` and ``eliminate_one``, so it
stays as a class that refuses to be used, as does
:class:`~repro.gf.linalg.BatchEliminator`.
"""

from __future__ import annotations

from ..errors import BackendError

__all__ = ["PackedGf2Eliminator"]


class PackedGf2Eliminator:
    """Kept for perfbench, whose tracer patches it by name; raises ``BackendError``."""

    def __init__(self, *args, **kwargs) -> None:
        self.eliminate()

    def eliminate(self, *args, **kwargs):
        """Raises :class:`~repro.errors.BackendError`."""
        raise BackendError(
            "PackedGf2Eliminator was deleted: both engines run on RowEliminator"
        )

    combine = combine_one = eliminate_one = eliminate
