"""Deterministic random-number management for simulations.

All stochastic components of the library (gossip partner selection,
asynchronous node activation, RLNC coefficient sampling, queueing service
times) draw from :class:`numpy.random.Generator` instances produced here so
that every experiment is reproducible from a single integer seed.

The central concept is a *stream*: a named, independent random generator
derived from a root seed.  Deriving the same stream name from the same root
seed always yields an identical sequence, while distinct stream names yield
statistically independent sequences.  This lets a simulation use separate
streams for, e.g., the activation schedule and the coding coefficients, so
changing one component does not perturb the randomness of another.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..errors import EngineError

__all__ = [
    "DEFAULT_SEED",
    "derive_seed",
    "derive_rng",
    "BlockDraws",
]

#: Seed used when the caller does not supply one.  Chosen arbitrarily but
#: fixed so that "no seed" still means "reproducible".
DEFAULT_SEED = 20110123  # the arXiv submission date of the paper (2011-01-23)


def derive_seed(root_seed: int, stream: str) -> int:
    """Derive a child seed from ``root_seed`` and a ``stream`` name.

    The derivation hashes the pair so that nearby root seeds and similar
    stream names still produce unrelated child seeds.  The result fits in
    63 bits and is therefore safe to pass to :func:`numpy.random.default_rng`.
    """
    digest = hashlib.sha256(f"{root_seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def derive_rng(root_seed: int, stream: str) -> np.random.Generator:
    """Return an independent generator for the named ``stream``."""
    return np.random.default_rng(derive_seed(root_seed, stream))


_MASK32 = 0xFFFF_FFFF
_TWO32 = 1 << 32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


class BlockDraws:
    """Replay a generator's small draws from blocks of raw 64-bit outputs.

    A per-call ``Generator.integers`` costs about a microsecond of numpy
    overhead, most of it before the one raw output it needs is drawn; the
    event engine makes several such draws per timeslot.  Inside a ``with``
    block this reader serves the same draws from raw outputs fetched in
    blocks with ``bit_generator.random_raw``, reproducing numpy's algorithms
    exactly:

    * a 32-bit draw (``next_uint32``) takes the low half of a fresh raw
      output and buffers the high half for the next 32-bit draw, the
      ``has_uint32`` / ``uinteger`` pair of the generator's state;
    * :meth:`integers` is numpy's bounded draw for a range of at most
      ``2**32``: Lemire's multiply-shift, ``(u·m) >> 32``, redrawn while
      ``(u·m) mod 2**32 < (2**32 − m) mod m``
      (https://arxiv.org/abs/1805.10941); a range of one draws nothing;
    * :meth:`elements` is ``integers(0, q, size=r, dtype=np.int64)``: ``r``
      such draws, a slice and a shift when ``q`` is a power of two (the
      rejection threshold is then zero); :meth:`skip_elements` consumes the
      same draws without building the list;
    * :meth:`random` is ``(next64 >> 11)·2**-53`` on a fresh raw output; it
      leaves a buffered half buffered.

    On exit, exceptions included, the generator is rewound to its state
    before the current block and advanced by exactly the raw outputs
    consumed from it, with the buffered half set as numpy would have left
    it: the bit generator's state then equals the one the equivalent
    ``Generator`` calls leave.  Nothing else may draw from the generator
    inside the block; the rewind would undo those draws.

    Any bit generator whose state carries ``has_uint32`` splits its raw
    outputs this way (PCG64, PCG64DXSM, Philox, SFC64); anything else, such
    as MT19937's native 32-bit stream, is refused with
    :class:`~repro.errors.EngineError` at construction.
    """

    #: Raw outputs fetched per block.
    BLOCK = 4096

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if "has_uint32" not in bitgen.state:
            raise EngineError(
                f"{type(bitgen).__name__} cannot be replayed from raw blocks: "
                "the event engine needs a bit generator that splits 64-bit "
                "outputs into buffered 32-bit halves (PCG64, PCG64DXSM, "
                "Philox or SFC64)"
            )
        self._bitgen = bitgen
        # The generator's state before the current block was fetched (at
        # entry, before any block): where the rewind on exit starts.
        self._block_start: dict | None = None
        # ``_halves`` holds the current block as 32-bit halves in draw order
        # (low, high, low, high, ...) behind a two-entry prefix whose second
        # slot carries the buffered half across blocks.  An odd ``_pos``
        # means ``_halves[_pos]`` is the buffered high half (numpy's
        # ``has_uint32``); an even one means nothing is buffered and
        # ``_halves[_pos - 1]`` is the last high half numpy buffered (its
        # ``uinteger``).
        self._halves: list[int] = []
        self._pos = 0

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def __enter__(self) -> "BlockDraws":
        state = self._bitgen.state
        self._block_start = state
        self._halves = [0, int(state["uinteger"])]
        self._pos = 1 if state["has_uint32"] else 2
        return self

    def __exit__(self, *exc_info) -> bool:
        pos, halves = self._pos, self._halves
        bitgen = self._bitgen
        bitgen.state = self._block_start
        # Halves from index 2 on are the block's raw outputs, low then high;
        # (pos - 1) // 2 of them are drawn, one with a buffered half included.
        bitgen.random_raw((pos - 1) // 2, output=False)
        state = bitgen.state
        if pos & 1:
            state["has_uint32"], state["uinteger"] = 1, halves[pos]
        else:
            state["has_uint32"], state["uinteger"] = 0, halves[pos - 1]
        bitgen.state = state
        self._block_start = None
        self._halves = []
        return False

    def _refill(self) -> None:
        """Fetch the next block; every raw output of the current one is drawn."""
        halves = self._halves
        bitgen = self._bitgen
        self._block_start = bitgen.state
        raw = bitgen.random_raw(self.BLOCK)
        fresh = raw.astype("<u8", copy=False).view("<u4").tolist()
        self._pos -= len(halves) - 2
        self._halves = [0, halves[-1]] + fresh

    # ------------------------------------------------------------------
    # Draws
    # ------------------------------------------------------------------
    def next_uint32(self) -> int:
        """numpy's ``next_uint32``: a buffered high half, else a fresh low half."""
        pos = self._pos
        if pos >= len(self._halves):
            self._refill()
            pos = self._pos
        self._pos = pos + 1
        return self._halves[pos]

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` for ``1 <= high - low <= 2**32``."""
        m = high - low
        if m == 1:
            return low
        if not 1 < m <= _TWO32:
            raise ValueError(f"BlockDraws draws ranges of 1 to 2**32 values, got {m}")
        pos = self._pos
        if pos >= len(self._halves):
            self._refill()
            pos = self._pos
        self._pos = pos + 1
        u = self._halves[pos]
        product = u * m
        if product & _MASK32 < m:
            threshold = (_TWO32 - m) % m
            while product & _MASK32 < threshold:
                product = self.next_uint32() * m
        return low + (product >> 32)

    def elements(self, order: int, size: int) -> list[int]:
        """``integers(0, order, size=size, dtype=np.int64)`` as a list.

        ``order`` is a field order (at least 2), so ``order - 1`` fits a
        32-bit draw.
        """
        pos = self._pos
        end = pos + size
        if order & (order - 1) == 0 and end <= len(self._halves):
            shift = 33 - order.bit_length()
            self._pos = end
            return [u >> shift for u in self._halves[pos:end]]
        return [self.integers(0, order) for _ in range(size)]

    def skip_elements(self, order: int, size: int) -> None:
        """Consume :meth:`elements`' draws; a power-of-two order builds no list."""
        end = self._pos + size
        if order & (order - 1) == 0 and end <= len(self._halves):
            self._pos = end
        else:
            self.elements(order, size)

    def random(self) -> float:
        """``Generator.random()``: a fresh raw output; a buffered half stays."""
        pos = self._pos
        if pos >= len(self._halves) - 1:
            self._refill()
            pos = self._pos
        halves = self._halves
        if pos & 1:
            # Draw the next raw output and move the buffered half into its
            # (already read) high slot, so it is still next in line.
            low, high = halves[pos + 1], halves[pos + 2]
            halves[pos + 2] = halves[pos]
        else:
            # Keep the last buffered half just behind the position.
            low, high = halves[pos], halves[pos + 1]
            halves[pos + 1] = halves[pos - 1]
        self._pos = pos + 2
        return ((high << 32 | low) >> 11) * _DOUBLE_UNIT
