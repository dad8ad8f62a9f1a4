"""Linear algebra over finite fields.

Three one-shot operations on matrices over ``GF(q)``, plus ``identity`` and
``matmul``:

* reduced row-echelon form (Gaussian elimination),
* rank computation, and
* membership of a vector in a row space.

All routines operate on integer numpy arrays whose entries are field elements
in ``[0, q)`` and take the :class:`~repro.gf.field.GaloisField` instance as an
explicit argument, mirroring how a mathematician would write "over ``F_q``".

These are one-shot, textbook numpy kernels.  Incremental elimination, the
per-packet step of both engines, runs on
:class:`~repro.backends.rows.RowEliminator`, and the conformance tests hold
it to :func:`row_reduce`, which shares no code with it.
"""

from __future__ import annotations

import numpy as np

from ..errors import BackendError, FieldError
from .field import GaloisField

__all__ = [
    "row_reduce",
    "rank",
    "is_in_row_space",
    "identity",
    "matmul",
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
    """
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
    """Rank of ``matrix`` over ``field``."""
    matrix = field.validate(matrix)
    if matrix.size == 0:
        return 0
    _, pivots = row_reduce(field, matrix)
    return len(pivots)


def is_in_row_space(field: GaloisField, matrix: np.ndarray, vector: np.ndarray) -> bool:
    """Return ``True`` if ``vector`` lies in the row space of ``matrix``.

    Used to decide whether a received coded packet is *helpful* (Definition 3
    of the paper): a packet is helpful exactly when its coefficient vector is
    **not** already in the row space of the receiver's coefficient matrix.
    """
    matrix = field.validate(matrix)
    vector = field.validate(vector)
    if matrix.size == 0:
        return not np.any(vector)
    if vector.ndim != 1 or vector.shape[0] != matrix.shape[1]:
        raise FieldError(
            f"vector of length {vector.shape} does not match matrix with "
            f"{matrix.shape[1]} columns"
        )
    base_rank = rank(field, matrix)
    stacked = np.vstack([matrix, vector[np.newaxis, :]])
    return rank(field, stacked) == base_rank


class BatchEliminator:
    """Kept for perfbench, whose tracer patches it by name; raises ``BackendError``.

    The dense incremental eliminator was deleted: the scalar decoder runs on
    :class:`~repro.backends.rows.RowEliminator`, as the event engine does.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.eliminate()

    def eliminate(self, *args, **kwargs):
        """Raises :class:`~repro.errors.BackendError`."""
        raise BackendError(
            "BatchEliminator was deleted: both engines run on RowEliminator"
        )

    combine = combine_one = eliminate_one = eliminate
