"""The eliminator contract every decoder and engine is written against.

:class:`EliminatorState` is incremental Gaussian elimination over many
independent problems — the rank updates, pivot search, helpfulness test
(Definition 3 of the paper) and encode step of the RLNC stack.  The
decoders of :mod:`repro.rlnc` — and through them the scalar engine — only
ever talk to this interface;
:func:`repro.backends.make_eliminator` picks the implementation from the
field.  The event engine, which touches one problem at a time, runs on
:class:`~repro.backends.rows.RowEliminator` instead.

Every implementation must be **bit-identical** to the dense
:class:`~repro.gf.linalg.BatchEliminator` on the fields it supports — same
RREF rows, same pivot choices, same helpfulness flags.  That is what keeps
results and the result store independent of the eliminator, and
``tests/test_backend_conformance.py`` enforces it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..gf.field import GaloisField
from ..gf.linalg import BatchEliminator

__all__ = ["EliminatorState"]


class EliminatorState(ABC):
    """Incremental Gaussian-elimination state over many independent problems.

    One instance carries the canonical reduced-row-echelon basis of ``batch``
    independent row spaces over ``columns``-wide rows.  With
    ``augmented_columns = r > 0`` the trailing ``r`` columns are carried along
    through every row operation but are never eligible as pivots and never
    count towards helpfulness — the ``[coefficients | payload]`` layout of the
    scalar RLNC decoder.

    Because the RREF basis of a subspace is unique, any two conforming
    implementations hold identical state after identical inputs; that is the
    invariant the engines' bit-identity (and the eliminator-blind result
    cache) rest on.

    Attributes
    ----------
    ranks:
        ``(batch,)`` int64 array — current rank of every problem (live view).
    pivot_mask:
        ``(batch, pivot_limit)`` boolean array — which pivot columns each
        problem has filled (``pivot_limit = columns - augmented_columns``).
    """

    field: GaloisField
    batch: int
    columns: int
    ranks: np.ndarray
    pivot_mask: np.ndarray

    @abstractmethod
    def eliminate(
        self, incoming: np.ndarray, indices: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Absorb one row per selected problem; return the helpfulness mask.

        ``incoming`` is ``(m, columns)``; row ``j`` is reduced into problem
        ``indices[j]`` (default ``0 .. m-1``; indices must be distinct).
        Returns a boolean ``(m,)`` mask, ``True`` where the row increased its
        problem's rank.  Rows whose pivot-eligible part reduces to zero are
        counted unhelpful and **not** stored, even if their augmented part is
        non-zero — exactly the scalar decoder's semantics.
        """

    @abstractmethod
    def rank_of(self, index: int) -> int:
        """Current rank of one problem."""

    @abstractmethod
    def basis(self, index: int) -> np.ndarray:
        """Stored RREF rows of one problem in pivot order (a dense copy)."""

    @abstractmethod
    def combine(self, index: int, coefficients: np.ndarray) -> np.ndarray:
        """Linear combination of one problem's stored rows (the encode step).

        ``coefficients`` must have exactly ``rank_of(index)`` entries; the
        result is a dense ``(columns,)`` row of field elements.
        """


# BatchEliminator predates this contract and is re-exported through
# ``repro.gf``; registering it as a virtual subclass keeps that public
# surface untouched while making isinstance(x, EliminatorState) hold.
EliminatorState.register(BatchEliminator)
