"""Bit-packed word-parallel GF(2) kernels (the ``gf2bit`` backend).

Over ``GF(2)`` a row of ``c`` field elements is just ``c`` bits, so this
backend packs every stored row into ``ceil(c / 64)`` ``uint64`` words
(column ``j`` is bit ``j % 64`` of word ``j // 64``) and replaces the dense
field arithmetic of the numpy backend with machine-word operations, in the
style of the M4RI family of GF(2) libraries:

* **elimination** — subtracting a pivot row is one XOR per word instead of a
  masked modular multiply-subtract over ``c`` bytes (the numpy
  :class:`~repro.gf.field.PrimeField` path widens to int64 on top);
* **pivot normalisation** — a GF(2) pivot is always 1, so the whole
  normalisation step disappears;
* **pivot search** — the first non-zero column of a reduced row is the
  lowest set bit of its first non-zero word, found with an isolate-and-log2
  trick on whole batches at once;
* **encoding** — a random linear combination is the XOR-reduction of the
  packed basis rows selected by the 0/1 coefficients.

Everything is **bit-identical** to the numpy backend by construction: both
maintain the canonical RREF basis, and the RREF of a subspace is unique.
``tests/test_backend_conformance.py`` asserts this on seeded random traces,
whole registry scenarios and hypothesis-generated matrices.

Any field other than ``GF(2)`` is rejected with a typed
:class:`~repro.errors.BackendError` — never a silent fallback — so a run
that names this backend either computes with packed words or fails loudly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import BackendError, FieldError
from ..gf.field import GaloisField
from .base import ComputeBackend, EliminatorState

__all__ = ["Gf2BitBackend", "PackedGf2Eliminator"]

_WORD_BITS = 64
_BYTE_SHIFTS = (np.arange(8, dtype=np.uint64) * np.uint64(8))
_ONE = np.uint64(1)


def _require_gf2(field: GaloisField) -> None:
    """The no-silent-fallback guard: anything but GF(2) is a typed error."""
    if field.order != 2:
        raise BackendError(
            f"the gf2bit backend only supports GF(2), got GF({field.order}); "
            "choose the numpy backend for other fields"
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
        # Pivot-eligible bits of a whole packed row, as one arbitrary-precision
        # python int (the single-delivery fast path works in int space).
        self._eligible_int = (1 << self.pivot_limit) - 1
        # Lazy per-problem pivot bitmask (int per problem), materialised by the
        # first combine_one/eliminate_one call and kept in sync by every state
        # mutation (eliminate, eliminate_one, reset_problems).
        self._pivot_bits: "list[int] | None" = None

    def _ensure_pivot_bits(self) -> "list[int]":
        if self._pivot_bits is None:
            packed_mask = np.packbits(self.pivot_mask, axis=1, bitorder="little")
            self._pivot_bits = [
                int.from_bytes(row.tobytes(), "little") for row in packed_mask
            ]
        return self._pivot_bits

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
            if self._pivot_bits is not None:
                for problem, pivot in zip(problems.tolist(), new_pivots.tolist()):
                    self._pivot_bits[problem] |= 1 << pivot
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

    def combine_one(self, index: int, coefficients: "Sequence[int] | np.ndarray") -> int:
        """Encode step for one problem, returned as one packed python int.

        The packed twin of :meth:`combine`: same coefficient-per-pivot
        semantics (ascending pivot order), but the XOR-reduction runs on
        arbitrary-precision ints and the dense unpack is skipped entirely.
        ``coefficients`` may be a plain sequence, which is iterated as is.
        The payload is only meaningful to :meth:`eliminate_one` on this
        eliminator.
        """
        index = int(index)
        rank = self.ranks.item(index)
        if isinstance(coefficients, np.ndarray):
            if coefficients.shape != (rank,):
                raise FieldError(
                    f"expected {rank} coefficients for problem {index}, "
                    f"got {coefficients.shape}"
                )
            coefficients = coefficients.tolist()
        elif len(coefficients) != rank:
            raise FieldError(
                f"expected {rank} coefficients for problem {index}, "
                f"got {len(coefficients)}"
            )
        bits = self._ensure_pivot_bits()[index]
        rows = self.rows[index]
        acc = 0
        for coefficient in coefficients:
            col = (bits & -bits).bit_length() - 1
            if coefficient:
                acc ^= int.from_bytes(rows[col].tobytes(), "little")
            bits &= bits - 1
        return acc

    def eliminate_one(self, index: int, payload: int) -> bool:
        """Absorb one packed-int payload into one problem.

        Bit-identical to a single-row :meth:`eliminate` call on the unpacked
        payload, but every sweep is python-int bit arithmetic — no array
        packing, no per-column numpy dispatch.  This is what keeps the
        event-driven engine's per-delivery cost in the microsecond range.
        """
        index = int(index)
        pivot_bits = self._ensure_pivot_bits()
        bits = pivot_bits[index]
        rows = self.rows[index]
        eligible = self._eligible_int
        # Forward sweep in ascending column order.  A stored RREF row's
        # lowest set bit is its pivot, so XOR-ing it in clears exactly bit
        # ``col`` and only ever flips higher bits — one left-to-right pass
        # visits every column once.
        x = int(payload)
        new_pivot = -1
        remaining = x & eligible
        while remaining:
            col = (remaining & -remaining).bit_length() - 1
            if (bits >> col) & 1:
                x ^= int.from_bytes(rows[col].tobytes(), "little")
                remaining = x & eligible & (-1 << (col + 1))
            else:
                if new_pivot < 0:
                    new_pivot = col
                remaining &= remaining - 1
        if new_pivot < 0:
            return False
        # Back-substitute: XOR the reduced row into every stored row holding
        # the new pivot bit, then store it keyed by its pivot column.
        nbytes = self.words * 8
        pivot_bit = 1 << new_pivot
        scan = bits
        while scan:
            col = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            stored = int.from_bytes(rows[col].tobytes(), "little")
            if stored & pivot_bit:
                rows[col] = np.frombuffer(
                    (stored ^ x).to_bytes(nbytes, "little"), dtype=np.uint64
                )
        rows[new_pivot] = np.frombuffer(x.to_bytes(nbytes, "little"), dtype=np.uint64)
        self.pivot_mask[index, new_pivot] = True
        self.ranks[index] += 1
        pivot_bits[index] = bits | pivot_bit
        return True

    def reset_problems(self, indices: np.ndarray) -> None:
        """Wipe the selected problems back to the empty (rank-zero) state.

        Same contract as
        :meth:`repro.gf.linalg.BatchEliminator.reset_problems` — the cleared
        problems behave exactly like freshly constructed ones.
        """
        indices = np.asarray(indices, dtype=np.int64)
        self.rows[indices] = 0
        self.pivot_mask[indices] = False
        self.ranks[indices] = 0
        if self._pivot_bits is not None:
            for index in indices.tolist():
                self._pivot_bits[index] = 0


class Gf2BitBackend(ComputeBackend):
    """Bit-packed GF(2) linear algebra; rejects every other field loudly."""

    name = "gf2bit"

    def supports_field(self, field: GaloisField) -> bool:
        return field.order == 2

    def row_reduce(
        self, field: GaloisField, matrix: np.ndarray, *, augmented_columns: int = 0
    ) -> "tuple[np.ndarray, list[int]]":
        _require_gf2(field)
        work = field.validate(matrix).copy()
        if work.ndim != 2:
            raise FieldError(f"row_reduce expects a 2-D matrix, got shape {work.shape}")
        rows, cols = work.shape
        pivot_limit = cols - augmented_columns
        if pivot_limit < 0:
            raise FieldError(
                f"augmented_columns={augmented_columns} exceeds column count {cols}"
            )
        if rows == 0 or cols == 0 or pivot_limit == 0:
            return work, []
        words = (cols + _WORD_BITS - 1) // _WORD_BITS
        packed = _pack_rows(work, words)
        pivot_columns = self._packed_rref(packed, pivot_limit)
        return _unpack_rows(packed, cols, field.dtype), pivot_columns

    @staticmethod
    def _packed_rref(packed: np.ndarray, pivot_limit: int) -> "list[int]":
        """In-place packed RREF; mirrors the reference sweep swap-for-swap.

        Dependent rows (zero in the pivot-eligible columns) keep exactly the
        residuals — and the row order — the dense reference produces, so the
        unpacked output is byte-identical to the numpy backend's.
        """
        rows = packed.shape[0]
        pivot_columns: "list[int]" = []
        pivot_row = 0
        for col in range(pivot_limit):
            if pivot_row >= rows:
                break
            word, bit = divmod(col, _WORD_BITS)
            column_bits = (packed[pivot_row:, word] >> np.uint64(bit)) & _ONE
            candidates = np.nonzero(column_bits)[0]
            if candidates.size == 0:
                continue
            source = pivot_row + int(candidates[0])
            if source != pivot_row:
                packed[[pivot_row, source]] = packed[[source, pivot_row]]
            # Eliminate the pivot bit from every other row in one XOR pass.
            has_bit = ((packed[:, word] >> np.uint64(bit)) & _ONE).astype(bool)
            has_bit[pivot_row] = False
            sel = np.nonzero(has_bit)[0]
            if sel.size:
                packed[sel] ^= packed[pivot_row]
            pivot_columns.append(col)
            pivot_row += 1
        return pivot_columns

    def rank(self, field: GaloisField, matrix: np.ndarray) -> int:
        _require_gf2(field)
        matrix = field.validate(matrix)
        if matrix.size == 0:
            return 0
        words = (matrix.shape[1] + _WORD_BITS - 1) // _WORD_BITS
        packed = _pack_rows(matrix, words)
        return len(self._packed_rref(packed, matrix.shape[1]))

    def is_in_row_space(
        self, field: GaloisField, matrix: np.ndarray, vector: np.ndarray
    ) -> bool:
        _require_gf2(field)
        matrix = field.validate(matrix)
        vector = field.validate(vector)
        if matrix.size == 0:
            return not np.any(vector)
        if vector.ndim != 1 or vector.shape[0] != matrix.shape[1]:
            raise FieldError(
                f"vector of length {vector.shape} does not match matrix with "
                f"{matrix.shape[1]} columns"
            )
        eliminator = PackedGf2Eliminator(field, 1, matrix.shape[1])
        target = np.zeros(1, dtype=np.int64)
        for row in matrix:
            eliminator.eliminate(row[np.newaxis, :], target)
        # Helpful ⇔ the vector increases the rank ⇔ it is NOT in the span.
        return not bool(eliminator.eliminate(vector[np.newaxis, :], target)[0])

    def make_eliminator(
        self,
        field: GaloisField,
        batch: int,
        columns: int,
        *,
        augmented_columns: int = 0,
    ) -> EliminatorState:
        _require_gf2(field)
        return PackedGf2Eliminator(
            field, batch, columns, augmented_columns=augmented_columns
        )
