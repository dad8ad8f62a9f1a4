"""Incremental RLNC decoder based on on-line Gaussian elimination.

Each gossip node owns one :class:`RlncDecoder`.  The decoder stores the linear
equations (coded packets) the node has accumulated, kept permanently in
reduced row-echelon form so that

* checking whether a received packet is *helpful* (Definition 3 of the paper —
  it increases the rank) costs one row-reduction against the stored pivots,
* the node's rank is simply the number of stored rows, and
* once the rank reaches ``k`` the original messages fall out of the stored
  matrix directly (the coefficient part is the identity).

The decoder is the ground truth for the stopping-time measurements: a node has
"finished" exactly when its decoder reports :meth:`is_complete`.

The elimination itself is one problem of the
:class:`~repro.backends.rows.RowEliminator` the event engine runs on, over
``[coefficients | payload]`` rows (``augmented_columns = payload_length``, so
payload symbols ride along but never become pivots).  It keeps the canonical
RREF basis, the state the event engine holds for the coefficient part.  Like
the event engine, it keeps one byte per element: a field wider than
``GF(256)`` raises :class:`~repro.errors.BackendError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends.rows import RowEliminator
from ..errors import DecodingError
from ..gf.field import GaloisField
from ..gf.linalg import is_in_row_space
from .message import Generation
from .packet import CodedPacket

__all__ = ["RlncDecoder"]


class RlncDecoder:
    """On-line Gaussian elimination over ``GF(q)`` for one gossip node.

    Parameters
    ----------
    field:
        The finite field all packets are coded over.
    k:
        Generation size (number of source messages in the system).
    payload_length:
        Number of payload symbols per message (``r``).
    """

    def __init__(self, field: GaloisField, k: int, payload_length: int) -> None:
        if k < 1:
            raise DecodingError(f"generation size must be positive, got {k}")
        if payload_length < 1:
            raise DecodingError(f"payload length must be positive, got {payload_length}")
        self.field = field
        self.k = k
        self.payload_length = payload_length
        # One elimination problem over [coefficients | payload] rows; the
        # payload columns are augmented: carried through every row operation,
        # never pivoted on, never counted for helpfulness.
        self._rows = RowEliminator(
            field, 1, k + payload_length, augmented_columns=payload_length
        )
        self._received = 0
        self._helpful = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Current rank: number of linearly independent equations stored."""
        return self._rows.ranks[0]

    @property
    def is_complete(self) -> bool:
        """``True`` once the node can decode all ``k`` messages."""
        return self.rank == self.k

    @property
    def packets_received(self) -> int:
        """Total packets fed to :meth:`receive` (helpful or not)."""
        return self._received

    @property
    def helpful_received(self) -> int:
        """Number of received packets that increased the rank."""
        return self._helpful

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        """Pivot columns of the stored coefficient matrix, in row order."""
        # Every stored RREF row starts with its pivot's leading 1.
        return tuple(int(p) for p in np.argmax(self.coefficient_matrix() != 0, axis=1))

    def coefficient_matrix(self) -> np.ndarray:
        """The stored coefficient matrix (``rank x k``), a copy."""
        return self._rows.basis(0)[:, : self.k]

    def augmented_matrix(self) -> np.ndarray:
        """The stored ``[coefficients | payload]`` matrix (``rank x (k + r)``), a copy."""
        return self._rows.basis(0)

    def combine(self, coefficients: Sequence[int]) -> np.ndarray:
        """``sum(c_i * row_i)`` over the stored ``[coefficients | payload]``
        rows, one coefficient per row in pivot order (the encode step)."""
        return self._rows.unpack(self._rows.combine_one(0, coefficients))

    # ------------------------------------------------------------------
    # Seeding with source messages
    # ------------------------------------------------------------------
    def add_source_message(self, index: int, payload: np.ndarray) -> bool:
        """Seed the decoder with an original source message.

        Equivalent to receiving the trivial packet whose coefficient vector is
        the unit vector ``e_index``.  Returns whether it was helpful (it always
        is, unless the node already knows that message).
        """
        packet = CodedPacket.unit(self.field, self.k, index, payload)
        return self.receive(packet)

    # ------------------------------------------------------------------
    # Receiving coded packets
    # ------------------------------------------------------------------
    def receive(self, packet: CodedPacket) -> bool:
        """Process a received packet; return ``True`` if it increased the rank.

        Non-helpful packets (linearly dependent on what is already stored, or
        all-zero) are counted but otherwise ignored, exactly as in the paper.
        """
        if packet.k != self.k:
            raise DecodingError(
                f"packet encoded for generation size {packet.k}, decoder expects {self.k}"
            )
        if packet.payload_length != self.payload_length:
            raise DecodingError(
                f"packet payload length {packet.payload_length} does not match "
                f"decoder payload length {self.payload_length}"
            )
        self._received += 1
        row = self.field.validate(packet.coefficients + packet.payload)
        helpful = self._rows.eliminate_one(0, self._rows.pack(row))
        if helpful:
            self._helpful += 1
        return helpful

    def would_be_helpful(self, packet: CodedPacket) -> bool:
        """Check helpfulness without mutating the decoder."""
        if packet.k != self.k or packet.payload_length != self.payload_length:
            raise DecodingError("packet dimensions do not match the decoder")
        coefficients = packet.coefficient_array(self.field)
        # Helpful ⇔ the coefficient vector lies outside the stored row space
        # (Definition 3); the payload never decides helpfulness.
        return not is_in_row_space(
            self.field, self.coefficient_matrix(), coefficients
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self) -> np.ndarray:
        """Recover the ``(k, r)`` matrix of original payloads.

        Raises
        ------
        DecodingError:
            If the decoder has not yet reached full rank.
        """
        if not self.is_complete:
            raise DecodingError(
                f"cannot decode: rank {self.rank} < generation size {self.k}"
            )
        # At full rank the RREF coefficient part is the identity (row i has
        # pivot column i), so the payload columns are the decoded messages.
        return self._rows.basis(0)[:, self.k :]

    def matches_generation(self, generation: Generation) -> bool:
        """Convenience check used by tests: decoded payloads equal the ground truth."""
        if not self.is_complete:
            return False
        return bool(np.array_equal(self.decode(), generation.payload_matrix))

    def __repr__(self) -> str:
        return (
            f"RlncDecoder(rank={self.rank}/{self.k}, q={self.field.order}, "
            f"received={self._received}, helpful={self._helpful})"
        )
