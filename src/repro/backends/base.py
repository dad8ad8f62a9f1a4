"""Abstract interfaces of the pluggable linear-algebra compute backends.

A :class:`ComputeBackend` owns every array-touching operation of the RLNC
stack — Gaussian elimination, rank computation, row-space membership (the
helpfulness test of Definition 3) and the incremental batched eliminator the
decoders are built on.  The simulation layers (:mod:`repro.gf.linalg`,
:mod:`repro.rlnc`, the batch engines) only ever talk to these interfaces, so
swapping the arithmetic kernel (dense numpy, bit-packed GF(2) words, a future
numba/cupy kernel) never touches protocol code.

The contract every backend must honour is **bit-identical results**: for any
field it supports, every operation returns exactly what the reference numpy
implementation returns — same RREF rows, same pivot choices, same helpfulness
flags.  This is what keeps the ResultStore backend-invariant and is enforced
by ``tests/test_backend_conformance.py``, which runs every registered backend
through the same seeded matrix of elimination, decoder and whole-scenario
equivalence checks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..gf.field import GaloisField

__all__ = ["ComputeBackend", "EliminatorState"]


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
    invariant the batch fast paths (and the cross-backend result cache) rest
    on.

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

    def combine_one(self, index: int, coefficients: "Sequence[int] | np.ndarray"):
        """Encode step for one problem in the backend's *native* payload form.

        Semantically identical to :meth:`combine`, but ``coefficients`` may
        be a plain sequence and the return value is an opaque payload
        understood only by :meth:`eliminate_one` on the same eliminator — a
        backend may hand back a packed representation so the event-driven
        engine's per-delivery cost stays flat instead of paying dense
        pack/unpack round-trips on every message.  The default returns the
        dense :meth:`combine` row of the converted coefficients.
        """
        return self.combine(index, np.asarray(coefficients, dtype=self.field.dtype))

    def eliminate_one(self, index: int, payload) -> bool:
        """Absorb one :meth:`combine_one` payload into one problem.

        Returns the helpfulness flag.  Must be bit-identical to a single-row
        :meth:`eliminate` call on the dense equivalent of ``payload`` — the
        packed fast paths change the representation, never the arithmetic.
        """
        row = np.asarray(payload)
        mask = self.eliminate(row[np.newaxis, :], np.array([index], dtype=np.int64))
        return bool(mask[0])

    def reset_problems(self, indices: np.ndarray) -> None:
        """Wipe the selected problems back to the empty (rank-zero) state.

        Used by the event-driven engine for reset-mode churn: a crashing
        node's problem is cleared and re-seeded with its initial knowledge.
        Both shipped eliminators implement it; the default refuses loudly so
        a backend that cannot reset never pretends to.
        """
        from ..errors import BackendError

        raise BackendError(
            f"{type(self).__name__} does not support resetting individual problems"
        )


class ComputeBackend(ABC):
    """One complete arithmetic kernel for finite-field linear algebra.

    Implementations are registered with
    :func:`repro.backends.register_backend` and selected per run through
    :func:`repro.backends.use_backend` (driven by ``ScenarioSpec.backend``,
    the CLI ``--backend`` flag or the ``REPRO_BACKEND`` environment default).

    A backend that does not support a field must raise
    :class:`~repro.errors.BackendError` from every operation handed that
    field — never fall back silently to different arithmetic.
    """

    #: Registry name (``"numpy"``, ``"gf2bit"``, ...).
    name: str = ""

    @abstractmethod
    def supports_field(self, field: GaloisField) -> bool:
        """Can this backend compute over ``field``?"""

    @abstractmethod
    def row_reduce(
        self, field: GaloisField, matrix: np.ndarray, *, augmented_columns: int = 0
    ) -> "tuple[np.ndarray, list[int]]":
        """Reduced row-echelon form and pivot columns of ``matrix``.

        Same contract as :func:`repro.gf.linalg.row_reduce`: the matrix is
        copied, trailing ``augmented_columns`` are carried but never pivoted.
        """

    @abstractmethod
    def rank(self, field: GaloisField, matrix: np.ndarray) -> int:
        """Rank of ``matrix`` over ``field``."""

    @abstractmethod
    def is_in_row_space(
        self, field: GaloisField, matrix: np.ndarray, vector: np.ndarray
    ) -> bool:
        """Is ``vector`` in the row space of ``matrix``? (helpfulness test)

        A received packet is *helpful* exactly when its coefficient vector is
        **not** already in the receiver's row space (Definition 3 of the
        paper).
        """

    @abstractmethod
    def make_eliminator(
        self,
        field: GaloisField,
        batch: int,
        columns: int,
        *,
        augmented_columns: int = 0,
    ) -> EliminatorState:
        """A fresh incremental eliminator for ``batch`` independent problems."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
