"""Batched rank-only RLNC decoding.

Stopping-time experiments (Table 1, Table 2, the Theorem 2 reduction) only
ever ask *when* every node reaches full rank — the decoded payloads are never
inspected.  :class:`BatchDecoder` exploits that: it tracks the coefficient
row spaces of many independent decoders (trials x nodes) simultaneously on
top of a batched :class:`~repro.backends.EliminatorState` (packed words over
``GF(2)``, dense otherwise), dropping the payload columns entirely.

Because the stored state is the canonical RREF basis of each decoder's
coefficient space, the ranks — and the coefficient vectors of freshly encoded
packets — are **bit-identical** to what a grid of scalar
:class:`~repro.rlnc.decoder.RlncDecoder` objects fed the same packets would
produce.  ``tests/test_rlnc_batch.py`` asserts exactly that on random traces.
"""

from __future__ import annotations

import numpy as np

from ..errors import DecodingError
from ..gf.field import GaloisField

__all__ = ["BatchDecoder"]


class BatchDecoder:
    """Rank state of ``problems`` independent RLNC decoders over ``GF(q)``.

    Parameters
    ----------
    field:
        The finite field all packets are coded over.
    k:
        Generation size (number of source messages, = coefficient columns).
    problems:
        Number of independent decoders tracked (for gossip simulations this
        is ``trials * nodes``; the caller owns the flattening convention).
    """

    def __init__(self, field: GaloisField, k: int, problems: int) -> None:
        if k < 1:
            raise DecodingError(f"generation size must be positive, got {k}")
        if problems < 1:
            raise DecodingError(f"problem count must be positive, got {problems}")
        from ..backends import make_eliminator

        self.field = field
        self.k = k
        self.problems = problems
        self._eliminator = make_eliminator(field, problems, k)
        self._received = np.zeros(problems, dtype=np.int64)
        self._helpful = np.zeros(problems, dtype=np.int64)

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def ranks(self) -> np.ndarray:
        """Current rank of every decoder (a ``(problems,)`` int array, live view)."""
        return self._eliminator.ranks

    @property
    def complete(self) -> np.ndarray:
        """Boolean mask of decoders that reached full rank ``k``."""
        return self._eliminator.ranks == self.k

    @property
    def all_complete(self) -> bool:
        """``True`` once every tracked decoder reached full rank."""
        return bool(np.all(self._eliminator.ranks == self.k))

    def rank_of(self, index: int) -> int:
        """Rank of one decoder."""
        return self._eliminator.rank_of(index)

    def packets_received(self, index: int) -> int:
        """Packets fed to one decoder (helpful or not)."""
        return int(self._received[index])

    def helpful_received(self, index: int) -> int:
        """Packets that increased one decoder's rank."""
        return int(self._helpful[index])

    def coefficient_matrix(self, index: int) -> np.ndarray:
        """Stored RREF coefficient rows of one decoder, in pivot order."""
        return self._eliminator.basis(index)

    # ------------------------------------------------------------------
    # Receiving and encoding
    # ------------------------------------------------------------------
    def receive(
        self, rows: np.ndarray, indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Feed one coefficient vector per selected decoder, vectorised.

        ``rows`` is ``(m, k)``; row ``j`` goes to decoder ``indices[j]`` (the
        indices must be distinct — one row per decoder per sweep).  Returns
        the boolean helpfulness mask, exactly as
        :meth:`RlncDecoder.receive <repro.rlnc.decoder.RlncDecoder.receive>`
        would per packet.
        """
        rows = self.field.validate(rows)  # rejects booleans, non-integers, out-of-range
        if rows.ndim != 2 or rows.shape[1] != self.k:
            raise DecodingError(
                f"expected coefficient rows of shape (m, {self.k}), got {rows.shape}"
            )
        if indices is None:
            indices = np.arange(rows.shape[0])
        else:
            indices = np.asarray(indices, dtype=np.int64)
            if indices.size and (
                indices.min() < 0 or indices.max() >= self.problems
            ):
                raise DecodingError(
                    f"decoder index out of range for {self.problems} problems: "
                    f"min={indices.min()}, max={indices.max()}"
                )
        helpful = self._eliminator.eliminate(rows, np.asarray(indices, dtype=np.int64))
        np.add.at(self._received, indices, 1)
        np.add.at(self._helpful, np.asarray(indices)[helpful], 1)
        return helpful

    def seed_unit(self, index: int, message_index: int) -> bool:
        """Seed one decoder with the unit coefficient vector ``e_message_index``."""
        if not 0 <= message_index < self.k:
            raise DecodingError(
                f"message index {message_index} out of range for k={self.k}"
            )
        row = self.field.zeros((1, self.k))
        row[0, message_index] = 1
        return bool(self.receive(row, np.array([index]))[0])

    def encode(self, index: int, coefficients: np.ndarray) -> np.ndarray:
        """Combine one decoder's stored rows with the given coefficients.

        ``coefficients`` must have length equal to the decoder's current rank;
        the result equals the coefficient part of the packet the scalar
        :class:`~repro.rlnc.encoder.RlncEncoder` would emit for the same
        draws, because the stored basis and its ordering coincide.
        """
        return self._eliminator.combine(index, coefficients)

    def __repr__(self) -> str:
        done = int(np.count_nonzero(self.complete))
        return (
            f"BatchDecoder(problems={self.problems}, k={self.k}, "
            f"q={self.field.order}, complete={done}/{self.problems})"
        )
