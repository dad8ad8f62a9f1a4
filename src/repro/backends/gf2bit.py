"""Placeholder for the deleted bit-packed GF(2) eliminator.

The scalar decoder runs on the dense :class:`~repro.gf.linalg.BatchEliminator`
over every field, the event engine on
:class:`~repro.backends.rows.RowEliminator`.  The repository benchmark's
tracer (``perfbench/tracer.py``) still imports this name and patches its
``combine``, ``combine_one``, ``eliminate`` and ``eliminate_one``, so it
stays as a class that refuses to be used.
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
            "PackedGf2Eliminator was deleted: the scalar decoder runs on the "
            "dense BatchEliminator over every field, the event engine on "
            "RowEliminator"
        )

    combine = combine_one = eliminate_one = eliminate
