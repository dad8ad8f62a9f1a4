"""Bit-packed word-parallel GF(2) elimination.

Over ``GF(2)`` a row of ``c`` field elements is just ``c`` bits, so
:class:`PackedGf2Eliminator` packs every stored row into ``ceil(c / 64)``
``uint64`` words (column ``j`` is bit ``j % 64`` of word ``j // 64``) and
replaces the dense field arithmetic of
:class:`~repro.gf.linalg.BatchEliminator` with machine-word operations, in
the style of the M4RI family of GF(2) libraries:

* **elimination** — subtracting a pivot row is one XOR per word instead of a
  masked modular multiply-subtract over ``c`` bytes;
* **pivot normalisation** — a GF(2) pivot is always 1, so the whole
  normalisation step disappears;
* **pivot search** — the first non-zero column of a reduced row is the
  lowest set bit of its first non-zero word, found with an isolate-and-log2
  trick on whole batches at once;
* **encoding** — a random linear combination is the XOR-reduction of the
  packed basis rows selected by the 0/1 coefficients.

Everything is **bit-identical** to the dense eliminator by construction:
both maintain the canonical RREF basis, and the RREF of a subspace is
unique.  ``tests/test_backend_conformance.py`` asserts this on seeded random
traces and generated GF(2) scenarios.  :func:`repro.backends.make_eliminator`
builds this eliminator for every ``GF(2)`` run; constructed directly over
any other field it raises a typed :class:`~repro.errors.BackendError`.
"""

from __future__ import annotations

import numpy as np

from ..errors import BackendError, FieldError
from ..gf.field import GaloisField
from .base import EliminatorState

__all__ = ["PackedGf2Eliminator"]

_WORD_BITS = 64
_BYTE_SHIFTS = (np.arange(8, dtype=np.uint64) * np.uint64(8))
_ONE = np.uint64(1)


def _require_gf2(field: GaloisField) -> None:
    """The no-silent-fallback guard: anything but GF(2) is a typed error."""
    if field.order != 2:
        raise BackendError(
            f"PackedGf2Eliminator only supports GF(2), got GF({field.order}); "
            "make_eliminator builds the dense BatchEliminator for other fields"
        )


def _pack_rows(rows: np.ndarray, words: int) -> np.ndarray:
    """Pack ``(m, c)`` 0/1 rows into ``(m, words)`` little-bit-endian uint64."""
    m = rows.shape[0]
    bits = np.packbits(rows, axis=1, bitorder="little")  # (m, ceil(c/8)) bytes
    padded = np.zeros((m, words * 8), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    grouped = padded.reshape(m, words, 8).astype(np.uint64)
    return np.bitwise_or.reduce(grouped << _BYTE_SHIFTS, axis=2)


def _unpack_rows(packed: np.ndarray, columns: int, dtype) -> np.ndarray:
    """Inverse of :func:`_pack_rows` for any ``(..., words)`` array."""
    if packed.size == 0:
        return np.zeros((*packed.shape[:-1], columns), dtype=dtype)
    grouped = ((packed[..., np.newaxis] >> _BYTE_SHIFTS) & np.uint64(0xFF)).astype(
        np.uint8
    )
    flat = grouped.reshape(*packed.shape[:-1], -1)
    bits = np.unpackbits(flat, axis=-1, bitorder="little")
    return bits[..., :columns].astype(dtype)


def _lowest_set_bit(masked: np.ndarray) -> np.ndarray:
    """Global bit index of the lowest set bit of each ``(m, words)`` row.

    Rows must be non-zero.  Isolates the lowest bit of the first non-zero
    word with ``v & (~v + 1)`` and recovers its position through an exact
    ``log2`` (powers of two up to ``2**63`` are exact in float64).
    """
    first_word = np.argmax(masked != 0, axis=1).astype(np.int64)
    vals = np.take_along_axis(masked, first_word[:, np.newaxis], axis=1)[:, 0]
    lowest = vals & (~vals + _ONE)
    bit = np.rint(np.log2(lowest.astype(np.float64))).astype(np.int64)
    return first_word * _WORD_BITS + bit


class PackedGf2Eliminator(EliminatorState):
    """Word-parallel incremental GF(2) elimination over stacked problems.

    The packed twin of :class:`~repro.gf.linalg.BatchEliminator`: identical
    constructor signature, identical validation, identical canonical-RREF
    state — but ``rows[b, p]`` is a ``(words,)`` uint64 view of the stored
    row and every sweep is XOR arithmetic.  :meth:`basis` and :meth:`combine`
    unpack back to dense field elements on demand, so callers never see the
    packed representation.
    """

    def __init__(
        self,
        field: GaloisField,
        batch: int,
        columns: int,
        *,
        augmented_columns: int = 0,
    ) -> None:
        _require_gf2(field)
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
        self.pivot_limit = columns - augmented_columns
        self.words = (columns + _WORD_BITS - 1) // _WORD_BITS
        #: Packed stored rows, keyed by pivot column as in BatchEliminator.
        self.rows = np.zeros((batch, self.pivot_limit, self.words), dtype=np.uint64)
        self.pivot_mask = np.zeros((batch, self.pivot_limit), dtype=bool)
        self.ranks = np.zeros(batch, dtype=np.int64)
        # Word mask selecting the pivot-eligible bits (augmented bits never
        # decide helpfulness or pivots).
        pivot_words = np.zeros(self.words, dtype=np.uint64)
        for word in range(self.words):
            low = word * _WORD_BITS
            high = min(low + _WORD_BITS, self.pivot_limit)
            if high <= low:
                continue
            count = high - low
            if count == _WORD_BITS:
                pivot_words[word] = np.uint64(0xFFFFFFFFFFFFFFFF)
            else:
                pivot_words[word] = (_ONE << np.uint64(count)) - _ONE
        self._pivot_words = pivot_words

    def eliminate(
        self, incoming: np.ndarray, indices: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Absorb one row per selected problem; return the helpfulness mask.

        Same contract (and validation) as
        :meth:`repro.gf.linalg.BatchEliminator.eliminate`; the arithmetic is
        one XOR per 64 columns instead of a dense field sweep.
        """
        work = np.ascontiguousarray(incoming, dtype=self.field.dtype)
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
                raise FieldError(
                    "eliminate requires distinct problem indices "
                    "(one row per problem per sweep)"
                )
        packed = _pack_rows(work, self.words)
        # Forward sweep over the stored pivot columns: testing bit ``col`` of
        # every incoming row and XOR-ing the matching packed pivot rows in.
        selected_mask = self.pivot_mask[indices]
        for col in np.nonzero(selected_mask.any(axis=0))[0]:
            word, bit = divmod(int(col), _WORD_BITS)
            has_bit = (packed[:, word] >> np.uint64(bit)) & _ONE
            live = selected_mask[:, col] & has_bit.astype(bool)
            if not live.any():
                continue
            sel = np.nonzero(live)[0]
            packed[sel] ^= self.rows[indices[sel], col]
        masked = packed & self._pivot_words[np.newaxis, :]
        helpful = masked.any(axis=1)
        sel = np.nonzero(helpful)[0]
        if sel.size:
            # The new pivot is the lowest surviving pivot-eligible bit; a
            # GF(2) pivot is already 1, so there is nothing to normalise.
            new_pivots = _lowest_set_bit(masked[sel])
            problems = indices[sel]
            stored = self.rows[problems]
            word_idx = (new_pivots // _WORD_BITS).astype(np.int64)
            bit_idx = (new_pivots % _WORD_BITS).astype(np.uint64)
            pivot_col_words = np.take_along_axis(
                stored, word_idx[:, np.newaxis, np.newaxis], axis=2
            )[:, :, 0]
            factors = (pivot_col_words >> bit_idx[:, np.newaxis]) & _ONE
            # Back-substitute: XOR the new row into every stored row holding
            # the new pivot bit (0/1 factors make the multiply a select).
            self.rows[problems] = stored ^ (
                factors[:, :, np.newaxis] * packed[sel][:, np.newaxis, :]
            )
            self.rows[problems, new_pivots] = packed[sel]
            self.pivot_mask[problems, new_pivots] = True
            self.ranks[problems] += 1
        return helpful

    def rank_of(self, index: int) -> int:
        """Current rank of one problem."""
        return int(self.ranks[index])

    def basis(self, index: int) -> np.ndarray:
        """Stored RREF rows of one problem, pivot order, unpacked (a copy)."""
        pivots = np.nonzero(self.pivot_mask[index])[0]
        return _unpack_rows(self.rows[index, pivots], self.columns, self.field.dtype)

    def combine(self, index: int, coefficients: np.ndarray) -> np.ndarray:
        """Linear combination of one problem's stored rows (the encode step)."""
        pivots = np.nonzero(self.pivot_mask[index])[0]
        coefficients = np.asarray(coefficients)
        if coefficients.shape != pivots.shape:
            raise FieldError(
                f"expected {pivots.size} coefficients for problem {index}, "
                f"got {coefficients.shape}"
            )
        if pivots.size == 0:
            return self.field.zeros(self.columns)
        selected = self.rows[index, pivots] * coefficients.astype(np.uint64)[
            :, np.newaxis
        ]
        return _unpack_rows(
            np.bitwise_xor.reduce(selected, axis=0), self.columns, self.field.dtype
        )

    # Kept for the repository benchmark, whose tracer patches these names.
    def combine_one(self, *args):
        """Moved to :class:`~repro.backends.rows.RowEliminator`; raises."""
        raise BackendError("moved to RowEliminator")

    def eliminate_one(self, *args):
        """Moved to :class:`~repro.backends.rows.RowEliminator`; raises."""
        raise BackendError("moved to RowEliminator")
