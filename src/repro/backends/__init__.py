"""The field picks the eliminator.

Every array-touching step of the RLNC decoders and engines — absorbing a
row, the helpfulness test, encoding a random combination — runs on an
:class:`EliminatorState`: incremental Gaussian elimination over many
independent problems.  Two implementations ship, and the field alone
decides which one runs (:func:`make_eliminator`):

* ``GF(2)`` — :class:`~repro.backends.gf2bit.PackedGf2Eliminator`, rows
  packed into uint64 words with word-parallel XOR elimination;
* every other field — the dense :class:`~repro.gf.linalg.BatchEliminator`.

Both keep the canonical RREF basis of every problem, so they are
**bit-identical by contract**: the choice changes wall-clock only, never a
result, a fingerprint or a stored record.
``tests/test_backend_conformance.py`` holds the packed eliminator to the
dense one on seeded traces and on generated GF(2) scenarios.

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

__all__ = ["EliminatorState", "PackedGf2Eliminator", "make_eliminator"]


def make_eliminator(
    field: GaloisField, batch: int, columns: int, *, augmented_columns: int = 0
) -> EliminatorState:
    """A fresh eliminator for ``batch`` problems over ``columns``-wide rows.

    Packed words over ``GF(2)``, dense field arithmetic over any other
    field.  The decoders and the event engine look this function up at call
    time, so patching ``repro.backends.make_eliminator`` swaps the
    eliminator everywhere (the conformance tests and the E11 benchmark force
    the dense one on ``GF(2)`` that way).
    """
    eliminator = PackedGf2Eliminator if field.order == 2 else BatchEliminator
    return eliminator(field, batch, columns, augmented_columns=augmented_columns)
