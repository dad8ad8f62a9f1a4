"""Linear algebra over finite fields.

The RLNC decoder needs exactly four operations on matrices over ``GF(q)``:

* reduced row-echelon form (Gaussian elimination),
* rank computation,
* membership of a vector in a row space, and
* solving a full-rank linear system (to recover the original messages).

All routines operate on integer numpy arrays whose entries are field elements
in ``[0, q)`` and take the :class:`~repro.gf.field.GaloisField` instance as an
explicit argument, mirroring how a mathematician would write "over ``F_q``".

Since the compute-backend seam (:mod:`repro.backends`) the public
:func:`row_reduce` / :func:`rank` / :func:`is_in_row_space` entry points
dispatch to the *active* backend (default ``numpy``, overridable per run);
the ``_reference_*`` functions below are the dense numpy implementations the
default backend wraps, and :class:`BatchEliminator` is its eliminator state.
Every backend is bit-identical by contract, so callers never observe the
difference — a non-default backend is purely a speed choice.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import FieldError
from .field import GaloisField

__all__ = [
    "row_reduce",
    "rank",
    "is_in_row_space",
    "solve",
    "invert_matrix",
    "identity",
    "matmul",
    "BatchEliminator",
]


def identity(field: GaloisField, size: int) -> np.ndarray:
    """The ``size x size`` identity matrix over ``field``."""
    matrix = field.zeros((size, size))
    for i in range(size):
        matrix[i, i] = 1
    return matrix


def matmul(field: GaloisField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field.

    Shapes follow numpy conventions: ``(m, k) @ (k, n) -> (m, n)``.  The
    implementation iterates over rows and uses the field's vectorised
    :meth:`~repro.gf.field.GaloisField.dot`, which is fast enough for the
    small systems (``k`` up to a few hundred) that gossip simulations solve.
    """
    a = field.validate(a)
    b = field.validate(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise FieldError(f"incompatible shapes for matmul: {a.shape} and {b.shape}")
    result = field.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        result[i] = field.dot(a[i], b)
    return result


def row_reduce(
    field: GaloisField, matrix: np.ndarray, *, augmented_columns: int = 0
) -> tuple[np.ndarray, list[int]]:
    """Bring ``matrix`` to reduced row-echelon form over ``field``.

    Parameters
    ----------
    matrix:
        A 2-D array of field elements.  It is copied, never modified.
    augmented_columns:
        Number of trailing columns that are carried along but never chosen as
        pivots (use this to row-reduce ``[A | b]`` while only pivoting in
        ``A``).

    Returns
    -------
    (rref, pivot_columns):
        The reduced matrix and the list of pivot column indices in order.

    Dispatches to the active :mod:`repro.backends` backend (identical results
    on every backend; a backend that does not support ``field`` raises
    :class:`~repro.errors.BackendError`).
    """
    from ..backends import current_backend

    return current_backend().row_reduce(
        field, matrix, augmented_columns=augmented_columns
    )


def _reference_row_reduce(
    field: GaloisField, matrix: np.ndarray, *, augmented_columns: int = 0
) -> tuple[np.ndarray, list[int]]:
    """Dense-numpy :func:`row_reduce` (the ``numpy`` backend's kernel)."""
    work = field.validate(matrix).copy()
    if work.ndim != 2:
        raise FieldError(f"row_reduce expects a 2-D matrix, got shape {work.shape}")
    rows, cols = work.shape
    pivot_limit = cols - augmented_columns
    if pivot_limit < 0:
        raise FieldError(
            f"augmented_columns={augmented_columns} exceeds column count {cols}"
        )
    pivot_columns: list[int] = []
    pivot_row = 0
    for col in range(pivot_limit):
        if pivot_row >= rows:
            break
        # Find a row at or below pivot_row with a non-zero entry in this column.
        candidates = np.nonzero(work[pivot_row:, col])[0]
        if candidates.size == 0:
            continue
        source = pivot_row + int(candidates[0])
        if source != pivot_row:
            work[[pivot_row, source]] = work[[source, pivot_row]]
        # Normalise the pivot to 1.
        pivot_value = int(work[pivot_row, col])
        if pivot_value != 1:
            inv = int(field.inv(pivot_value))
            work[pivot_row] = field.scalar_mul(inv, work[pivot_row])
        # Eliminate the column from every other row.
        for other in range(rows):
            if other == pivot_row:
                continue
            factor = int(work[other, col])
            if factor == 0:
                continue
            work[other] = field.sub(
                work[other], field.scalar_mul(factor, work[pivot_row])
            )
        pivot_columns.append(col)
        pivot_row += 1
    return work, pivot_columns


def rank(field: GaloisField, matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over ``field`` (computed by the active backend)."""
    from ..backends import current_backend

    return current_backend().rank(field, matrix)


def _reference_rank(field: GaloisField, matrix: np.ndarray) -> int:
    """Dense-numpy :func:`rank` (the ``numpy`` backend's kernel)."""
    matrix = field.validate(matrix)
    if matrix.size == 0:
        return 0
    _, pivots = _reference_row_reduce(field, matrix)
    return len(pivots)


def is_in_row_space(field: GaloisField, matrix: np.ndarray, vector: np.ndarray) -> bool:
    """Return ``True`` if ``vector`` lies in the row space of ``matrix``.

    Used to decide whether a received coded packet is *helpful* (Definition 3
    of the paper): a packet is helpful exactly when its coefficient vector is
    **not** already in the row space of the receiver's coefficient matrix.
    Computed by the active :mod:`repro.backends` backend.
    """
    from ..backends import current_backend

    return current_backend().is_in_row_space(field, matrix, vector)


def _reference_is_in_row_space(
    field: GaloisField, matrix: np.ndarray, vector: np.ndarray
) -> bool:
    """Dense-numpy :func:`is_in_row_space` (the ``numpy`` backend's kernel)."""
    matrix = field.validate(matrix)
    vector = field.validate(vector)
    if matrix.size == 0:
        return not np.any(vector)
    if vector.ndim != 1 or vector.shape[0] != matrix.shape[1]:
        raise FieldError(
            f"vector of length {vector.shape} does not match matrix with "
            f"{matrix.shape[1]} columns"
        )
    base_rank = _reference_rank(field, matrix)
    stacked = np.vstack([matrix, vector[np.newaxis, :]])
    return _reference_rank(field, stacked) == base_rank


def solve(field: GaloisField, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` over the field for a full-column-rank matrix.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides (one per
    column... here: one per *row* of the solution, matching the decoder's
    ``[coefficients | payloads]`` layout: we solve ``C X = P`` where ``C`` is
    ``(m, k)``, ``P`` is ``(m, r)`` and the result ``X`` is ``(k, r)``).

    Raises
    ------
    FieldError:
        If the system is inconsistent or the coefficient matrix does not have
        full column rank (the decoder checks rank before calling this).
    """
    matrix = field.validate(matrix)
    rhs = field.validate(rhs)
    if rhs.ndim == 1:
        rhs = rhs[:, np.newaxis]
        squeeze = True
    else:
        squeeze = False
    if matrix.shape[0] != rhs.shape[0]:
        raise FieldError(
            f"matrix has {matrix.shape[0]} rows but rhs has {rhs.shape[0]}"
        )
    k = matrix.shape[1]
    augmented = np.hstack([matrix, rhs])
    reduced, pivots = row_reduce(field, augmented, augmented_columns=rhs.shape[1])
    if len(pivots) < k:
        raise FieldError(
            f"system is under-determined: rank {len(pivots)} < {k} unknowns"
        )
    # Check consistency: any row that is zero in the coefficient part must be
    # zero in the augmented part as well.
    for row_index in range(len(pivots), reduced.shape[0]):
        if np.any(reduced[row_index, k:]):
            raise FieldError("system is inconsistent")
    solution = field.zeros((k, rhs.shape[1]))
    for row_index, col in enumerate(pivots):
        solution[col] = reduced[row_index, k:]
    return solution[:, 0] if squeeze else solution


class BatchEliminator:
    """Incremental Gaussian elimination over many independent problems at once.

    The scalar :class:`~repro.rlnc.decoder.RlncDecoder` reduces one incoming
    row against one node's stored pivots, which makes a Monte Carlo sweep of
    ``T`` trials pay ``T`` separate Python-level elimination loops per event.
    ``BatchEliminator`` instead carries the row-reduction state of ``batch``
    independent problems (for gossip: trials x nodes) as stacked numpy arrays
    and absorbs one new row *per problem* in a single vectorised ``GF(q)``
    sweep — the add/mul/inverse lookup tables are applied to whole
    ``(batch, columns)`` slabs instead of one short row at a time.

    Representation: for every problem the stored rows form the *canonical*
    reduced row-echelon basis of the absorbed row space, kept keyed by pivot
    column (``rows[b, p]`` is the row whose pivot is column ``p``, if
    ``pivot_mask[b, p]``).  Because the RREF basis of a subspace is unique,
    this state matches the scalar decoder's stored rows exactly — which is
    what makes the batched simulation fast path bit-identical to the
    sequential one.

    With ``augmented_columns = r > 0`` the trailing ``r`` columns ride along
    through every row operation but are never chosen as pivots and never make
    a row helpful — the ``[coefficients | payload]`` layout of the scalar
    :class:`~repro.rlnc.decoder.RlncDecoder`, which runs on one of these with
    ``batch=1``.
    """

    def __init__(
        self,
        field: GaloisField,
        batch: int,
        columns: int,
        *,
        augmented_columns: int = 0,
    ) -> None:
        if batch < 1:
            raise FieldError(f"batch size must be positive, got {batch}")
        if columns < 1:
            raise FieldError(f"column count must be positive, got {columns}")
        if not 0 <= augmented_columns < columns:
            raise FieldError(
                f"augmented_columns must lie in [0, {columns}), "
                f"got {augmented_columns}"
            )
        self.field = field
        self.batch = batch
        self.columns = columns
        #: Pivots (and helpfulness) live in the first ``pivot_limit`` columns.
        self.pivot_limit = columns - augmented_columns
        #: ``rows[b, p]`` is the stored row of problem ``b`` with pivot column
        #: ``p`` (all-zero when that pivot is absent).
        self.rows = field.zeros((batch, self.pivot_limit, columns))
        #: ``pivot_mask[b, p]`` — does problem ``b`` have a pivot in column ``p``?
        self.pivot_mask = np.zeros((batch, self.pivot_limit), dtype=bool)
        #: Current rank of every problem.
        self.ranks = np.zeros(batch, dtype=np.int64)

    # ------------------------------------------------------------------
    # Absorbing rows
    # ------------------------------------------------------------------
    def eliminate(
        self, incoming: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Absorb one row per selected problem; return the per-row rank gains.

        Parameters
        ----------
        incoming:
            ``(m, columns)`` array of field elements — row ``j`` is reduced
            into problem ``indices[j]``.
        indices:
            ``(m,)`` array of **distinct** problem indices (default:
            ``0 .. m-1``).  Distinctness is required because every selected
            problem absorbs exactly one row in this sweep.

        Returns
        -------
        numpy.ndarray
            Boolean ``(m,)`` mask: ``True`` where the row was linearly
            independent of its problem's stored rows (rank increased).
        """
        field = self.field
        work = np.ascontiguousarray(incoming, dtype=field.dtype).copy()
        if work.ndim != 2 or work.shape[1] != self.columns:
            raise FieldError(
                f"expected incoming rows of shape (m, {self.columns}), got {work.shape}"
            )
        if indices is None:
            indices = np.arange(work.shape[0])
        else:
            indices = np.asarray(indices, dtype=np.int64)
            if indices.shape != (work.shape[0],):
                raise FieldError(
                    f"indices shape {indices.shape} does not match {work.shape[0]} rows"
                )
            if indices.size > 1 and np.unique(indices).size != indices.size:
                # A duplicated problem would silently lose one of its rows in
                # the fancy-indexed writes below; feed such rows in separate
                # sweeps instead.
                raise FieldError(
                    "eliminate requires distinct problem indices "
                    "(one row per problem per sweep)"
                )
        # Forward sweep: one pass over the stored pivot columns eliminates
        # every stored pivot from every incoming row (RREF ⇒ a pivot row is
        # zero in all *other* pivot columns, so earlier columns are never
        # re-polluted).  Only columns some selected problem actually pivots
        # on are visited, which keeps a nearly-empty eliminator (the scalar
        # decoder's early life) cheap.
        selected_mask = self.pivot_mask[indices]
        for col in np.nonzero(selected_mask.any(axis=0))[0]:
            factor = work[:, col]
            live = selected_mask[:, col] & (factor != 0)
            if not live.any():
                continue
            sel = np.nonzero(live)[0]
            pivot_rows = self.rows[indices[sel], col]
            work[sel] = field.raw_sub(
                work[sel], field.raw_mul(factor[sel, np.newaxis], pivot_rows)
            )
        # Helpfulness and the new pivot are decided on the pivot-eligible
        # columns only: a row whose coefficient part cancels is dependent and
        # is dropped, whatever its augmented part holds.
        nonzero = work[:, : self.pivot_limit] != 0
        helpful = nonzero.any(axis=1)
        sel = np.nonzero(helpful)[0]
        if sel.size:
            # After a full reduction the first non-zero entry sits in a
            # non-pivot column: that column becomes the new pivot.
            new_pivots = np.argmax(nonzero[sel], axis=1)
            problems = indices[sel]
            pivot_values = work[sel, new_pivots]
            work[sel] = field.raw_mul(
                field.raw_inv(pivot_values)[:, np.newaxis], work[sel]
            )
            # Back-substitute: clear the new pivot column from every stored
            # row (absent rows are all-zero, so their factor is zero too).
            stored = self.rows[problems]
            factors = np.take_along_axis(
                stored, new_pivots[:, np.newaxis, np.newaxis], axis=2
            )[:, :, 0]
            self.rows[problems] = field.raw_sub(
                stored,
                field.raw_mul(factors[:, :, np.newaxis], work[sel][:, np.newaxis, :]),
            )
            self.rows[problems, new_pivots] = work[sel]
            self.pivot_mask[problems, new_pivots] = True
            self.ranks[problems] += 1
        return helpful

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    def rank_of(self, index: int) -> int:
        """Current rank of one problem."""
        return int(self.ranks[index])

    def basis(self, index: int) -> np.ndarray:
        """Stored RREF rows of one problem, ordered by pivot column (a copy).

        This ordering matches the scalar decoder's row order, so random
        linear combinations drawn against it coincide coefficient-for-
        coefficient with the scalar encoder's packets.
        """
        pivots = np.nonzero(self.pivot_mask[index])[0]
        return self.rows[index, pivots].copy()

    def combine(self, index: int, coefficients: np.ndarray) -> np.ndarray:
        """Linear combination of one problem's stored rows (the encode step)."""
        pivots = np.nonzero(self.pivot_mask[index])[0]
        if coefficients.shape != pivots.shape:
            raise FieldError(
                f"expected {pivots.size} coefficients for problem {index}, "
                f"got {coefficients.shape}"
            )
        return self.field.raw_combine(
            np.asarray(coefficients, dtype=self.field.dtype), self.rows[index, pivots]
        )

    def combine_one(
        self, index: int, coefficients: "Sequence[int] | np.ndarray"
    ) -> np.ndarray:
        """Single-problem encode; the dense payload twin of :meth:`combine`.

        Part of the :class:`~repro.backends.base.EliminatorState` hot-path
        contract (``BatchEliminator`` is a virtual subclass, so the base
        defaults do not apply).  ``coefficients`` may be a plain sequence;
        it is converted once, since :meth:`combine` reads its shape.  The
        payload feeds :meth:`eliminate_one`.
        """
        return self.combine(index, np.asarray(coefficients, dtype=self.field.dtype))

    def eliminate_one(self, index: int, payload: np.ndarray) -> bool:
        """Absorb one dense row into one problem; return the helpfulness flag.

        Bit-identical to ``eliminate(payload[np.newaxis], [index])`` with the
        batch-wide machinery (index validation, fancy batch indexing)
        stripped, which keeps the event-driven engine's per-delivery cost on
        this backend proportional to one problem instead of the whole slab.
        """
        field = self.field
        work = np.array(payload, dtype=field.dtype)
        mask = self.pivot_mask[index]
        rows = self.rows[index]
        # Forward sweep over this problem's stored pivots (RREF ⇒ one pass).
        for col in np.nonzero(mask)[0]:
            factor = work[col]
            if factor:
                work = field.raw_sub(work, field.raw_mul(factor, rows[col]))
        nonzero = np.nonzero(work[: self.pivot_limit])[0]
        if nonzero.size == 0:
            return False
        new_pivot = int(nonzero[0])
        work = field.raw_mul(field.raw_inv(work[new_pivot]), work)
        # Back-substitute: clear the new pivot column from every stored row
        # (absent rows are all-zero, so their factor is zero too).
        factors = rows[:, new_pivot]
        self.rows[index] = field.raw_sub(
            rows, field.raw_mul(factors[:, np.newaxis], work[np.newaxis, :])
        )
        self.rows[index, new_pivot] = work
        self.pivot_mask[index, new_pivot] = True
        self.ranks[index] += 1
        return True

    def reset_problems(self, indices: np.ndarray) -> None:
        """Wipe the selected problems back to the empty (rank-zero) state.

        Reset-mode churn support for the event-driven engine: the cleared
        problems are indistinguishable from freshly constructed ones, so
        re-seeding them with unit rows reproduces a scalar decoder rebuilt
        from its initial placement.
        """
        indices = np.asarray(indices, dtype=np.int64)
        self.rows[indices] = 0
        self.pivot_mask[indices] = False
        self.ranks[indices] = 0


def invert_matrix(field: GaloisField, matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square, full-rank matrix over the field."""
    matrix = field.validate(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise FieldError(f"invert_matrix expects a square matrix, got {matrix.shape}")
    size = matrix.shape[0]
    return solve(field, matrix, identity(field, size))
