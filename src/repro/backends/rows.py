"""Single-problem elimination on python-int rows: the event engine's eliminator.

The event-driven engine absorbs one packet into one node's subspace at a
time.  The dense :class:`~repro.gf.linalg.BatchEliminator` pays numpy
dispatch on every one of those tiny rows; :class:`RowEliminator` instead keeps
each stored row as **one python int** and does the row arithmetic with int
and ``bytes`` operations that run in C:

* ``GF(2)`` — one bit per column (column ``j`` is bit ``j``); adding rows is
  XOR and a pivot is always 1.
* every other field — one byte per column (column ``j`` is byte ``j``,
  little-endian).  Scaling a row by ``c`` is one ``bytes.translate`` through
  ``c``'s row of the multiplication table.  Adding rows is XOR in
  characteristic 2; an odd-characteristic field, which no registered
  workload uses, adds element by element through its addition table.

The pivot columns of a problem are kept as one mask int (bit ``j``, or byte
``j`` set to ``0xFF``), so the forward sweep visits only the pivots the
payload hits (``payload & pivots``) and back-substitution only the stored
rows left of the new pivot.  A full-rank problem's basis is the identity, so
it keeps no rows: it encodes by packing the coefficient vector and absorbs
nothing.

Like :class:`~repro.gf.linalg.BatchEliminator`, every problem holds the
canonical RREF basis of its row space — stored rows keyed by pivot column,
each normalised to a leading 1 — and that basis is unique, so every encoded
row and helpfulness flag is **bit-identical** to the dense reference.
``tests/test_backend_conformance.py`` checks this on generated traces over
prime, binary-extension and odd-extension fields.

>>> from repro.gf import GF
>>> rows = RowEliminator(GF(16), 2, 3)
>>> rows.eliminate_one(0, rows.pack([0, 5, 1])), rows.ranks
(True, [1, 0])
>>> rows.basis(0).tolist()
[[0, 1, 11]]
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from ..errors import BackendError, FieldError
from ..gf.field import GaloisField

__all__ = ["RowEliminator"]

#: ``bytes.translate`` table turning 0/1 bytes into the digits ``int(_, 2)``
#: parses.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class RowEliminator:
    """Canonical RREF bases of ``problems`` subspaces of ``GF(q)^columns``.

    One problem per event-engine node.  Rows come in and go out as packed
    python ints (:meth:`pack` turns a dense row into one), and the state is
    only ever touched one problem at a time.

    Attributes
    ----------
    ranks:
        Python list: the current rank of every problem (live).
    pivot_limit:
        The rank of a full problem (every column is a pivot column).
    """

    def __init__(self, field: GaloisField, problems: int, columns: int) -> None:
        if field.order > 256:
            raise BackendError(
                f"RowEliminator keeps one byte per element; GF({field.order}) "
                "does not fit"
            )
        if problems < 1:
            raise FieldError(f"problem count must be positive, got {problems}")
        if columns < 1:
            raise FieldError(f"column count must be positive, got {columns}")
        self.field = field
        self.columns = columns
        self.pivot_limit = columns
        self.ranks = [0] * problems
        #: ``_rows[index * columns + col]``: the stored row of problem
        #: ``index`` whose pivot is ``col`` — 0 when that pivot is absent, and
        #: in every column of a full-rank problem.
        self._rows = [0] * (problems * columns)
        self._no_rows = (0,) * columns
        #: Per problem, the mask of its pivot columns: bit ``col`` over GF(2),
        #: byte ``col`` set to 0xFF otherwise.
        self._pivots = [0] * problems
        self._bits = field.order == 2
        if self._bits:
            return
        q = field.order
        elements = np.arange(q)
        products = np.zeros((256, 256), dtype=np.uint8)
        products[:q, :q] = field.mul(elements[:, np.newaxis], elements[np.newaxis, :])
        #: ``_scale[c]``: translate table multiplying every byte by ``c``.
        self._scale = [bytes(row) for row in products]
        inverse = [0] * q
        inverse[1:] = field.inv(elements[1:]).tolist()
        self._inverse = inverse
        #: Additive inverses: subtracting ``c·row`` is adding ``(-c)·row``.
        self._negate = field.neg(elements).tolist()
        #: Row addition on packed ints: XOR in characteristic 2.
        self._add = operator.xor if field.characteristic == 2 else self._odd_adder(field)

    def _odd_adder(self, field: GaloisField):
        """Row addition in odd characteristic: element by element, by table."""
        nbytes, to_int = self.columns, int.from_bytes
        elements = np.arange(field.order)
        table = [bytes(row) for row in field.add(elements[:, np.newaxis], elements)]

        def add(a: int, b: int) -> int:
            pairs = zip(a.to_bytes(nbytes, "little"), b.to_bytes(nbytes, "little"))
            return to_int(bytes([table[x][y] for x, y in pairs]), "little")

        return add

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def pack(self, dense_row: "Sequence[int] | np.ndarray") -> int:
        """The packed int of a dense ``(columns,)`` row of field elements."""
        row = np.asarray(dense_row, dtype=np.uint8)
        if row.shape != (self.columns,):
            raise FieldError(f"expected a row of {self.columns} elements, got {row.shape}")
        if self._bits:
            row = np.packbits(row, bitorder="little")
        return int.from_bytes(row.tobytes(), "little")

    def unpack(self, row: int) -> np.ndarray:
        """Inverse of :meth:`pack`: the dense row of field elements."""
        if self._bits:
            raw = row.to_bytes((self.columns + 7) // 8, "little")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
            return bits[: self.columns].astype(self.field.dtype)
        raw = row.to_bytes(self.columns, "little")
        return np.frombuffer(raw, dtype=np.uint8).astype(self.field.dtype)

    def basis(self, index: int) -> np.ndarray:
        """Stored RREF rows of one problem in pivot order, unpacked."""
        if self.ranks[index] == self.columns:
            return np.eye(self.columns, dtype=self.field.dtype)
        base = index * self.columns
        rows = [self.unpack(row) for row in self._rows[base : base + self.columns] if row]
        if not rows:
            return self.field.zeros((0, self.columns))
        return np.stack(rows)

    # ------------------------------------------------------------------
    # Encode, absorb, reset
    # ------------------------------------------------------------------
    def combine_one(self, index: int, coefficients: "Sequence[int]") -> int:
        """The packed combination of one problem's stored rows (the encode step).

        ``coefficients`` holds one field element per stored row, in pivot
        order — exactly ``ranks[index]`` of them.
        """
        rank = self.ranks[index]
        if len(coefficients) != rank:
            raise FieldError(
                f"expected {rank} coefficients for problem {index}, "
                f"got {len(coefficients)}"
            )
        if rank == self.columns:
            # A full-rank RREF basis is the identity: the combination is the
            # coefficient vector itself.
            if self._bits:
                return int(bytes(reversed(coefficients)).translate(_BINARY_DIGITS), 2)
            return int.from_bytes(bytes(coefficients), "little")
        rows = self._rows
        base = index * self.columns
        if not self._bits:
            stored = rows[base : base + self.columns]
            # Empty slots hold 0, so the rest are the basis in pivot order.
            return self._combination(coefficients, [row for row in stored if row])
        pivots = self._pivots[index]
        combined = 0
        for coefficient in coefficients:
            low = pivots & -pivots
            pivots ^= low
            if coefficient:
                combined ^= rows[base + low.bit_length() - 1]
        return combined

    def _combination(self, coefficients: "Sequence[int]", rows: "Sequence[int]") -> int:
        """``sum(c * row)`` over byte rows.

        Rows that share a coefficient are added up first, so each distinct
        coefficient costs one ``translate`` however many rows carry it.
        """
        add, groups = self._add, {}
        for coefficient, row in zip(coefficients, rows):
            if coefficient:
                groups[coefficient] = add(groups.get(coefficient, 0), row)
        nbytes, scale, to_int = self.columns, self._scale, int.from_bytes
        total = 0
        for coefficient, group in groups.items():
            if coefficient != 1:
                group = group.to_bytes(nbytes, "little").translate(scale[coefficient])
                group = to_int(group, "little")
            total = add(total, group)
        return total

    def eliminate_one(self, index: int, payload: int) -> bool:
        """Absorb one packed row into one problem; return the helpfulness flag.

        ``True`` when the row was independent of the stored basis (the rank
        grew by one) — the reduced row then joins the basis as its new RREF
        row, and every stored row is cleared in its pivot column.
        """
        if self.ranks[index] == self.columns:
            return False
        if not self._bits:
            return self._eliminate_bytes(index, payload)
        rows = self._rows
        base = index * self.columns
        pivots = self._pivots[index]
        # Forward sweep: a stored row is zero in every *other* pivot column,
        # so clearing one hit pivot never changes whether another is hit.
        hit = payload & pivots
        while hit:
            low = hit & -hit
            hit ^= low
            payload ^= rows[base + low.bit_length() - 1]
        if not payload:
            return False
        low = payload & -payload
        # Back-substitute into the stored rows whose pivot lies left of the
        # new one; rows pivoting further right are zero in its column.
        left = pivots & (low - 1)
        while left:
            bit = left & -left
            left ^= bit
            slot = base + bit.bit_length() - 1
            if rows[slot] & low:
                rows[slot] ^= payload
        self._store(index, low.bit_length() - 1, payload, pivots | low)
        return True

    def _eliminate_bytes(self, index: int, payload: int) -> bool:
        """:meth:`eliminate_one` on byte rows (every field but GF(2))."""
        rows = self._rows
        nbytes = self.columns
        base = index * nbytes
        pivots = self._pivots[index]
        scale, negate, add, to_int = self._scale, self._negate, self._add, int.from_bytes
        hit = payload & pivots
        if hit:
            # Subtract entry·row for every pivot the payload hits.  A stored
            # row is zero in every other pivot column, so all the factors
            # can be read off the payload up front.
            factors = [negate[entry] for entry in hit.to_bytes(nbytes, "little")]
            payload = add(payload, self._combination(factors, rows[base : base + nbytes]))
        if not payload:
            return False
        shift = (payload & -payload).bit_length() - 1 & -8
        packed = payload.to_bytes(nbytes, "little")
        lead = payload >> shift & 0xFF
        if lead != 1:
            packed = packed.translate(scale[self._inverse[lead]])
            payload = to_int(packed, "little")
        # Back-substitute into the stored rows left of the new pivot (empty
        # slots are 0); rows sharing a factor share one scaled payload.
        column = shift >> 3
        scaled = {1: payload}
        for slot in range(base, base + column):
            factor = rows[slot] >> shift & 0xFF
            if factor:
                factor = negate[factor]
                if factor not in scaled:
                    scaled[factor] = to_int(packed.translate(scale[factor]), "little")
                rows[slot] = add(rows[slot], scaled[factor])
        self._store(index, column, payload, pivots | 0xFF << shift)
        return True

    def _store(self, index: int, column: int, row: int, pivots: int) -> None:
        """Add ``row`` (pivot ``column``) to a reduced basis; one rank up."""
        rank = self.ranks[index] + 1
        self.ranks[index] = rank
        self._pivots[index] = pivots
        base = index * self.columns
        if rank == self.columns:
            # A full-rank RREF basis is the identity: no rows need keeping.
            self._rows[base : base + self.columns] = self._no_rows
        else:
            self._rows[base + column] = row

    def reset(self, index: int) -> None:
        """Wipe one problem back to the empty (rank-zero) state."""
        base = index * self.columns
        self._rows[base : base + self.columns] = self._no_rows
        self._pivots[index] = 0
        self.ranks[index] = 0
