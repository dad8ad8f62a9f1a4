"""``BlockDraws`` replays numpy's draws exactly, values and generator state.

The event engine serves its wakeup, partner, coefficient and loss draws from
a :class:`~repro.core.rng.BlockDraws` reader instead of per-call
``Generator`` methods.  Its results are bit-identical only while the reader
reproduces numpy's own algorithms: 32-bit draws as buffered halves of raw
64-bit outputs, bounded integers by Lemire's rejection rule, doubles from
the top 53 bits.  These tests interleave every draw kind on every supported
bit generator and compare against the ``Generator`` calls they replace —
values, and the complete ``bit_generator.state`` left behind.  numpy is not
pinned, so they are also the tripwire for a change to its bounded-integer
algorithm.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import BlockDraws
from repro.errors import EngineError

BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)

#: Ranges of ``integers(0, m)``: no draw (1), small, ~50% rejection
#: (2**31 + 1), a large non-power-of-two, the largest Lemire range, and the
#: full 32-bit range numpy serves without rejection.
RANGES = (1, 2, 3, 10**4, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)
#: Field orders of sized coefficient draws: powers of two and primes.
ORDERS = (2, 3, 4, 16, 256)


def assert_same_state(left, right, path="state"):
    """Recursive equality of two bit-generator states (SFC64/Philox hold arrays)."""
    if isinstance(left, dict):
        assert isinstance(right, dict) and left.keys() == right.keys(), path
        for key in left:
            assert_same_state(left[key], right[key], f"{path}[{key!r}]")
    elif isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray), path
        assert left.dtype == right.dtype and np.array_equal(left, right), path
    else:
        assert left == right, path


def numpy_draw(rng, op):
    kind = op[0]
    if kind == "integers":
        return int(rng.integers(0, op[1]))
    if kind in ("elements", "skip"):
        values = rng.integers(0, op[1], size=op[2], dtype=np.int64).tolist()
        return values if kind == "elements" else None
    return float(rng.random())


def reader_draw(draws, op):
    kind = op[0]
    if kind == "integers":
        return draws.integers(0, op[1])
    if kind == "elements":
        return draws.elements(op[1], op[2])
    if kind == "skip":
        return draws.skip_elements(op[1], op[2])
    return draws.random()


def replay(bit_generator, seed, ops, *, pending, block):
    """Run ``ops`` through numpy and through a reader; return both generators."""
    expected_rng = np.random.Generator(bit_generator(seed))
    reader_rng = np.random.Generator(bit_generator(seed))
    if pending:
        # One 32-bit draw leaves the high half of its raw output buffered.
        expected_rng.integers(0, 7)
        reader_rng.integers(0, 7)
    expected = [numpy_draw(expected_rng, op) for op in ops]
    draws = BlockDraws(reader_rng)
    draws.BLOCK = block
    with draws:
        got = [reader_draw(draws, op) for op in ops]
    assert got == expected
    assert_same_state(reader_rng.bit_generator.state, expected_rng.bit_generator.state)
    return reader_rng, expected_rng


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), st.sampled_from(RANGES)),
        st.tuples(
            st.sampled_from(("elements", "skip")),
            st.sampled_from(ORDERS),
            st.integers(min_value=0, max_value=12),
        ),
        st.tuples(st.just("random")),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    ops=OPS,
    pending=st.booleans(),
    block=st.sampled_from((1, 2, 3, 7, 4096)),
)
def test_interleaved_draws_match_numpy(bit_generator, seed, ops, pending, block):
    """Any interleaving, any start, any block size: same values, same state."""
    replay(bit_generator, seed, ops, pending=pending, block=block)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize(
    "ops",
    [
        # random() while the block's last half (its only high half) is pending
        [("integers", 10), ("random",), ("integers", 10), ("integers", 10)],
        # the buffered half survives several doubles across block boundaries
        [("integers", 3), ("random",), ("random",), ("random",), ("integers", 3)],
        # a sized draw straddling a block boundary, then a double
        [("elements", 2, 5), ("random",), ("elements", 3, 3), ("skip", 16, 4)],
        # nothing but doubles: no half is ever split
        [("random",)] * 5,
        # a range of one consumes nothing
        [("integers", 1)] * 3,
        # rejection-heavy ranges and prime-order coefficients
        [("integers", 2**31 + 1), ("integers", 3 * 2**30), ("elements", 3, 8)] * 20,
    ],
    ids=["random-at-pending-block-end", "pending-across-doubles", "straddle",
         "doubles-only", "range-of-one", "rejections"],
)
@pytest.mark.parametrize("pending", [False, True], ids=["fresh", "pending"])
def test_block_boundaries_match_numpy(bit_generator, ops, pending):
    """One raw output per block puts every draw kind on a boundary."""
    replay(bit_generator, 20110123, ops, pending=pending, block=1)


def test_nothing_drawn_leaves_the_state_untouched():
    rng = np.random.Generator(np.random.PCG64(5))
    rng.integers(0, 9)
    before = rng.bit_generator.state
    with BlockDraws(rng):
        pass
    assert_same_state(rng.bit_generator.state, before)


def test_an_exception_still_rewinds_to_the_consumed_draws():
    reader_rng, expected_rng = (np.random.Generator(np.random.PCG64(6)) for _ in range(2))
    expected = [int(expected_rng.integers(0, 100)) for _ in range(3)]
    got = []
    with pytest.raises(RuntimeError):
        with BlockDraws(reader_rng) as draws:
            got = [draws.integers(0, 100) for _ in range(3)]
            raise RuntimeError("mid-run failure")
    assert got == expected
    assert_same_state(reader_rng.bit_generator.state, expected_rng.bit_generator.state)


def test_ranges_beyond_32_bits_are_refused():
    with BlockDraws(np.random.default_rng(1)) as draws:
        with pytest.raises(ValueError, match="2\\*\\*32"):
            draws.integers(0, 2**32 + 1)


def test_mt19937_is_refused_with_engine_error():
    """MT19937 draws native 32-bit words: there are no halves to replay."""
    with pytest.raises(EngineError, match="MT19937"):
        BlockDraws(np.random.Generator(np.random.MT19937(1)))
