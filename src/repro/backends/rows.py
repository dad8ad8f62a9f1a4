"""Single-problem elimination on python-int rows: the event engine's eliminator.

The event-driven engine absorbs one packet into one node's subspace at a
time.  The dense :class:`~repro.gf.linalg.BatchEliminator` pays numpy
dispatch on every one of those tiny rows; :class:`RowEliminator` instead keeps
each stored row as **one python int** and does the row arithmetic with int
and ``bytes`` operations that run in C:

* ``GF(2)`` — one bit per column (column ``j`` is bit ``j``); adding rows is
  XOR and a pivot is always 1.
* every other field — one byte per column (column ``j`` is byte ``j``,
  little-endian).  Adding rows is XOR in characteristic 2; an
  odd-characteristic field, which no registered workload uses, adds element
  by element through its addition table.

Over ``GF(2^m)`` a linear combination ``sum(c_i * row_i)`` is computed **by
bit planes**, with no per-coefficient ``translate``.  An element ``c`` is a
polynomial ``sum(c_b x^b)`` over ``GF(2)``, so the combination is
``sum(x^b * P_b)``, where plane ``P_b`` is the XOR of the rows whose
coefficient has bit ``b`` set: each row is XORed into the planes of its
coefficient's set bits (one tuple of bit positions per field element), and
the ``m`` planes are folded by Horner's rule.  Multiplying a whole packed
row by ``x`` takes a few int operations: clear the top bit of every byte,
shift left by one, and XOR in ``x^m`` (``field.mul(2^(m-1), 2)``) wherever
a top bit was set.  So the encode step and the forward sweep of an
elimination cost about ``m/2`` XORs per row plus ``m - 1`` such
multiplications.  Scaling by one element (normalising a new pivot,
back-substitution) stays one ``bytes.translate`` through that element's row
of the multiplication table; odd characteristic combines rows that way too,
one ``translate`` per distinct coefficient.  These tables are built once per
field order and shared by every eliminator over that field.

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
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..errors import BackendError, FieldError
from ..gf.field import GaloisField

__all__ = ["RowEliminator"]

#: ``bytes.translate`` table turning 0/1 bytes into the digits ``int(_, 2)``
#: parses.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class _ByteTables(NamedTuple):
    """The lookup tables of byte rows over one field (see :func:`_byte_tables`)."""

    #: ``scale[c]``: translate table multiplying every byte by ``c``.
    scale: tuple[bytes, ...]
    #: ``inverse[c]``: the multiplicative inverse of ``c`` (``inverse[0] == 0``).
    inverse: tuple[int, ...]
    #: Translate table negating every byte: subtracting ``c·row`` is adding
    #: ``(-c)·row``.  The identity in characteristic 2.
    negate: bytes
    #: Characteristic 2: ``planes[c]``, the positions of ``c``'s set bits.
    #: ``None`` in odd characteristic.
    planes: tuple[tuple[int, ...], ...] | None
    #: Odd characteristic: ``sums[a][b] == a + b``.  ``None`` in
    #: characteristic 2, where adding is XOR.
    sums: tuple[bytes, ...] | None


#: Byte-row tables by field order, built once and shared by every
#: eliminator over that field, as ``gf.field`` shares its extension tables.
_BYTE_TABLES: dict[int, _ByteTables] = {}


def _byte_tables(field: GaloisField) -> _ByteTables:
    """The shared byte-row tables of ``field`` (any field but GF(2))."""
    tables = _BYTE_TABLES.get(field.order)
    if tables is not None:
        return tables
    q = field.order
    elements = np.arange(q)
    products = np.zeros((256, 256), dtype=np.uint8)
    products[:q, :q] = field.mul(elements[:, np.newaxis], elements[np.newaxis, :])
    inverse = (0, *field.inv(elements[1:]).tolist())
    negate = bytes(field.neg(elements).tolist() + list(range(q, 256)))
    planes = sums = None
    if field.characteristic == 2:
        planes = tuple(
            tuple(bit for bit in range(field.degree) if element >> bit & 1)
            for element in range(q)
        )
    else:
        sums = tuple(bytes(row) for row in field.add(elements[:, np.newaxis], elements))
    scale = tuple(bytes(row) for row in products)
    tables = _ByteTables(scale, inverse, negate, planes, sums)
    _BYTE_TABLES[q] = tables
    return tables


class RowEliminator:
    """Canonical RREF bases of ``problems`` subspaces of ``GF(q)^columns``.

    One problem per event-engine node.  Rows come in and go out as packed
    python ints (:meth:`pack` turns a dense row into one), and the state is
    only ever touched one problem at a time.

    Attributes
    ----------
    ranks:
        Python list: the current rank of every problem (live).
    pivots:
        Python list: per problem, the mask of its pivot columns — bit ``col``
        over GF(2), byte ``col`` set to 0xFF otherwise (live).  Equal masks
        mean equal ranks; see :meth:`same_subspace`.
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
        self.pivots = [0] * problems
        self._bits = field.order == 2
        if self._bits:
            return
        tables = _byte_tables(field)
        self._scale, self._inverse = tables.scale, tables.inverse
        self._negate, self._planes = tables.negate, tables.planes
        if tables.sums is not None:
            self._add = self._odd_adder(tables.sums)
            return
        #: Row addition on packed ints: XOR in characteristic 2.
        self._add = operator.xor
        #: Multiplying a packed row by ``x`` (see the module docstring): the
        #: top bit of every byte, its shift down to bit 0, and ``x^m``.
        top = 1 << (field.degree - 1)
        self._top_bits = int.from_bytes(bytes([top]) * columns, "little")
        self._top_shift = field.degree - 1
        self._x_to_the_m = int(field.mul(top, 2))

    def _odd_adder(self, sums: "tuple[bytes, ...]"):
        """Row addition in odd characteristic: element by element, by table."""
        nbytes, to_int = self.columns, int.from_bytes

        def add(a: int, b: int) -> int:
            pairs = zip(a.to_bytes(nbytes, "little"), b.to_bytes(nbytes, "little"))
            return to_int(bytes([sums[x][y] for x, y in pairs]), "little")

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
            # Empty slots hold 0, so the rest are the basis in pivot order.
            return self._combination(
                coefficients, filter(None, rows[base : base + self.columns])
            )
        pivots = self.pivots[index]
        combined = 0
        for coefficient in coefficients:
            low = pivots & -pivots
            pivots ^= low
            if coefficient:
                combined ^= rows[base + low.bit_length() - 1]
        return combined

    def _combination(self, coefficients: "Sequence[int]", rows: "Iterable[int]") -> int:
        """``sum(c * row)`` over byte rows.

        Characteristic 2 goes by bit planes (see the module docstring).  Odd
        characteristic adds up the rows that share a coefficient first, so
        each distinct coefficient costs one ``translate``.
        """
        planes_of = self._planes
        if planes_of is None:
            return self._table_combination(coefficients, rows)
        planes = [0] * self.field.degree
        for coefficient, row in zip(coefficients, rows):
            for plane in planes_of[coefficient]:
                planes[plane] ^= row
        # Horner: total = (...(P_{m-1}·x + P_{m-2})·x + ...)·x + P_0.
        top_bits, top_shift = self._top_bits, self._top_shift
        x_to_the_m = self._x_to_the_m
        total = 0
        for plane in reversed(planes):
            if total:
                top = total & top_bits
                total = ((total ^ top) << 1) ^ (top >> top_shift) * x_to_the_m
            total ^= plane
        return total

    def _table_combination(
        self, coefficients: "Sequence[int]", rows: "Iterable[int]"
    ) -> int:
        """:meth:`_combination` in odd characteristic, through the tables."""
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

    def same_subspace(self, a: int, b: int) -> bool:
        """Whether problems ``a`` and ``b`` span the same subspace.

        Each problem holds the canonical RREF basis of its subspace, so two
        subspaces are equal exactly when their pivot masks and stored rows
        are.  The masks are compared first, then the stored rows at the
        lowest pivot, and only then every slot.
        """
        pivots = self.pivots[a]
        if pivots != self.pivots[b]:
            return False
        if not pivots:
            return True
        rows, columns = self._rows, self.columns
        base_a, base_b = a * columns, b * columns
        lowest = (pivots & -pivots).bit_length() - 1
        if not self._bits:
            lowest >>= 3
        if rows[base_a + lowest] != rows[base_b + lowest]:
            return False
        return rows[base_a : base_a + columns] == rows[base_b : base_b + columns]

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
        pivots = self.pivots[index]
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
        pivots = self.pivots[index]
        scale, negate, add, to_int = self._scale, self._negate, self._add, int.from_bytes
        hit = payload & pivots
        if hit:
            # Subtract entry·row for every pivot the payload hits.  A stored
            # row is zero in every other pivot column, so all the factors
            # can be read off the payload up front.
            factors = hit.to_bytes(nbytes, "little").translate(negate)
            # Only the stored rows whose pivot the payload hits take part.
            hit_rows = compress(rows[base : base + nbytes], factors)
            hit_factors = factors.replace(b"\0", b"")
            payload = add(payload, self._combination(hit_factors, hit_rows))
        if not payload:
            return False
        shift = (payload & -payload).bit_length() - 1 & -8
        packed = payload.to_bytes(nbytes, "little")
        lead = payload >> shift & 0xFF
        if lead != 1:
            packed = packed.translate(scale[self._inverse[lead]])
            payload = to_int(packed, "little")
        # Back-substitute into the stored rows left of the new pivot (the
        # pivot slots); rows sharing a factor share one scaled payload.
        column = shift >> 3
        scaled = {1: payload}
        left = compress(range(base, base + column), pivots.to_bytes(nbytes, "little"))
        for slot in left:
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
        self.pivots[index] = pivots
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
        self.pivots[index] = 0
        self.ranks[index] = 0
