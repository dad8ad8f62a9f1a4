"""The field picks the eliminator; the engine picks its layout.

Every array-touching step of the RLNC decoders and engines — absorbing a
row, the helpfulness test, encoding a random combination — runs on an
incremental Gaussian eliminator, in one of two layouts:

* :class:`EliminatorState` — many independent problems swept at once as
  numpy slabs, under the scalar decoders.
  The field alone decides which implementation :func:`make_eliminator`
  builds:

  * ``GF(2)`` — :class:`~repro.backends.gf2bit.PackedGf2Eliminator`, rows
    packed into uint64 words with word-parallel XOR elimination;
  * every other field — the dense :class:`~repro.gf.linalg.BatchEliminator`.

* :class:`~repro.backends.rows.RowEliminator` — one problem at a time, each
  stored row one python int (a bit per column over ``GF(2)``, a byte per
  column otherwise): the event-driven engine's only eliminator.

All of them keep the canonical RREF basis of every problem, so they are
**bit-identical by contract**: the choice changes wall-clock only, never a
result, a fingerprint or a stored record.
``tests/test_backend_conformance.py`` holds the packed and the row
eliminators to the dense one on seeded and generated traces, and on
generated GF(2) scenarios.

>>> from repro.backends import make_eliminator
>>> from repro.gf import GF
>>> type(make_eliminator(GF(2), 4, 8)).__name__
'PackedGf2Eliminator'
>>> type(make_eliminator(GF(16), 4, 8)).__name__
'BatchEliminator'
"""

from __future__ import annotations

from ..gf.field import GaloisField
from ..gf.linalg import BatchEliminator
from .base import EliminatorState
from .gf2bit import PackedGf2Eliminator
from .rows import RowEliminator

__all__ = ["EliminatorState", "PackedGf2Eliminator", "RowEliminator", "make_eliminator"]


def make_eliminator(
    field: GaloisField, batch: int, columns: int, *, augmented_columns: int = 0
) -> EliminatorState:
    """A fresh eliminator for ``batch`` problems over ``columns``-wide rows.

    Packed words over ``GF(2)``, dense field arithmetic over any other
    field.  The decoders look this function up at call time, so patching
    ``repro.backends.make_eliminator`` swaps the eliminator under the scalar
    engine (the conformance tests force the dense one on ``GF(2)`` that
    way).
    """
    eliminator = PackedGf2Eliminator if field.order == 2 else BatchEliminator
    return eliminator(field, batch, columns, augmented_columns=augmented_columns)
