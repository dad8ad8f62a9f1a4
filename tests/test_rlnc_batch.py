"""Tests for the batched rank-only decoding stack.

The load-bearing property: a :class:`~repro.rlnc.batch.BatchDecoder` fed the
same coefficient vectors as a grid of scalar
:class:`~repro.rlnc.decoder.RlncDecoder` objects must agree with them packet
for packet — same helpfulness flags, same ranks, same stored RREF basis, and
(given the same coefficient draws) the same encoded packets.  That is what
makes the batch simulation fast path bit-identical to the sequential engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, FieldError
from repro.gf import GF, BatchEliminator, rank as matrix_rank
from repro.rlnc import BatchDecoder, RlncDecoder
from repro.rlnc.packet import CodedPacket


def _random_trace(field, k, problems, packets, rng):
    """Random coefficient vectors with an independent schedule per problem."""
    return [
        (int(rng.integers(0, problems)),
         field.random_elements(rng, k))
        for _ in range(packets)
    ]


class TestBatchDecoderMatchesScalar:
    @settings(max_examples=30, deadline=None)
    @given(
        order=st.sampled_from([2, 3, 16, 256]),
        k=st.integers(min_value=1, max_value=6),
        problems=st.integers(min_value=1, max_value=4),
        packets=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_ranks_and_helpfulness_match_scalar_decoder(
        self, order, k, problems, packets, seed
    ):
        field = GF(order)
        rng = np.random.default_rng(seed)
        batch = BatchDecoder(field, k, problems)
        scalars = [RlncDecoder(field, k, payload_length=1) for _ in range(problems)]
        for problem, row in _random_trace(field, k, problems, packets, rng):
            packet = CodedPacket.from_arrays(row, field.zeros(1))
            expected = scalars[problem].receive(packet)
            got = bool(batch.receive(row[np.newaxis, :], np.array([problem]))[0])
            assert got == expected
        for problem, scalar in enumerate(scalars):
            assert batch.rank_of(problem) == scalar.rank
            assert np.array_equal(
                batch.coefficient_matrix(problem), scalar.coefficient_matrix()
            )
            assert batch.packets_received(problem) == scalar.packets_received
            assert batch.helpful_received(problem) == scalar.helpful_received

    @settings(max_examples=20, deadline=None)
    @given(
        order=st.sampled_from([2, 16]),
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_encode_matches_scalar_encoder_coefficients(self, order, k, seed):
        field = GF(order)
        rng = np.random.default_rng(seed)
        batch = BatchDecoder(field, k, 1)
        scalar = RlncDecoder(field, k, payload_length=1)
        for _ in range(3 * k):
            row = field.random_elements(rng, k)
            scalar.receive(CodedPacket.from_arrays(row, field.zeros(1)))
            batch.receive(row[np.newaxis, :], np.array([0]))
        if scalar.rank == 0:
            return
        coefficients = field.random_elements(rng, scalar.rank)
        expected = field.dot(coefficients, scalar.coefficient_matrix())
        assert np.array_equal(batch.encode(0, coefficients), expected)

    def test_vectorised_sweep_equals_one_by_one(self, gf16):
        rng = np.random.default_rng(5)
        k, problems = 4, 8
        together = BatchDecoder(gf16, k, problems)
        one_by_one = BatchDecoder(gf16, k, problems)
        for _ in range(6):
            rows = gf16.random_elements(rng, (problems, k))
            mask = together.receive(rows)
            for problem in range(problems):
                single = one_by_one.receive(
                    rows[problem][np.newaxis, :], np.array([problem])
                )
                assert bool(single[0]) == bool(mask[problem])
        assert np.array_equal(together.ranks, one_by_one.ranks)


class TestBatchDecoderMatchesScalarOnBothEliminators:
    """The scalar/batch agreement of the class above, once per eliminator.

    ``eliminator_field`` is GF(2) (packed eliminator) or GF(16) (dense), and
    both decoders below are built on the eliminator the field picks.  The
    health check is suppressed because the fixture is deterministic per
    parametrisation — hypothesis re-drawing examples against the same
    fixture value is exactly what we want here.
    """

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        k=st.integers(min_value=1, max_value=6),
        problems=st.integers(min_value=1, max_value=4),
        packets=st.integers(min_value=0, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_trace_agrees_per_packet(
        self, eliminator_field, k, problems, packets, seed
    ):
        field = eliminator_field
        rng = np.random.default_rng(seed)
        batch = BatchDecoder(field, k, problems)
        scalars = [RlncDecoder(field, k, payload_length=1) for _ in range(problems)]
        for problem, row in _random_trace(field, k, problems, packets, rng):
            packet = CodedPacket.from_arrays(row, field.zeros(1))
            expected = scalars[problem].receive(packet)
            got = bool(batch.receive(row[np.newaxis, :], np.array([problem]))[0])
            assert got == expected
        for problem, scalar in enumerate(scalars):
            assert batch.rank_of(problem) == scalar.rank
            assert np.array_equal(
                batch.coefficient_matrix(problem), scalar.coefficient_matrix()
            )


class TestBatchEliminator:
    def test_rank_agrees_with_dense_rank(self, any_field):
        rng = np.random.default_rng(17)
        k = 5
        eliminator = BatchEliminator(any_field, batch=3, columns=k)
        stacked = [[] for _ in range(3)]
        for _ in range(8):
            rows = any_field.random_elements(rng, (3, k))
            eliminator.eliminate(rows)
            for b in range(3):
                stacked[b].append(rows[b])
        for b in range(3):
            dense = np.vstack(stacked[b])
            assert eliminator.rank_of(b) == matrix_rank(any_field, dense)

    def test_basis_is_rref_with_unit_pivots(self, gf16):
        rng = np.random.default_rng(3)
        eliminator = BatchEliminator(gf16, batch=1, columns=5)
        for _ in range(4):
            eliminator.eliminate(gf16.random_elements(rng, (1, 5)))
        basis = eliminator.basis(0)
        pivots = [int(np.nonzero(row)[0][0]) for row in basis]
        assert pivots == sorted(pivots)
        for i, row in enumerate(basis):
            assert int(row[pivots[i]]) == 1
            for j, other in enumerate(basis):
                if i != j:
                    assert int(other[pivots[i]]) == 0

    def test_shape_validation(self, gf16):
        eliminator = BatchEliminator(gf16, batch=2, columns=3)
        with pytest.raises(FieldError):
            eliminator.eliminate(gf16.zeros((2, 4)))
        with pytest.raises(FieldError):
            eliminator.eliminate(gf16.zeros((2, 3)), np.array([0]))
        with pytest.raises(FieldError):
            BatchEliminator(gf16, batch=0, columns=3)

    def test_duplicate_indices_rejected(self, gf16):
        # Regression: two rows for the same problem in one sweep would
        # silently drop one of them via fancy-indexed writes; it must raise.
        eliminator = BatchEliminator(gf16, batch=2, columns=3)
        rows = gf16.random_elements(np.random.default_rng(1), (2, 3))
        with pytest.raises(FieldError, match="distinct"):
            eliminator.eliminate(rows, np.array([0, 0]))


class TestBatchDecoderApi:
    def test_seed_unit_and_completion(self, gf16):
        batch = BatchDecoder(gf16, k=2, problems=2)
        assert batch.seed_unit(0, 0)
        assert batch.seed_unit(0, 1)
        assert not batch.seed_unit(0, 1)  # already known
        assert bool(batch.complete[0]) and not bool(batch.complete[1])
        assert not batch.all_complete
        with pytest.raises(DecodingError):
            batch.seed_unit(0, 5)

    def test_dimension_validation(self, gf16):
        with pytest.raises(DecodingError):
            BatchDecoder(gf16, k=0, problems=1)
        with pytest.raises(DecodingError):
            BatchDecoder(gf16, k=2, problems=0)
        batch = BatchDecoder(gf16, k=2, problems=1)
        with pytest.raises(DecodingError):
            batch.receive(gf16.zeros((1, 3)))

    def test_receive_validates_elements_and_indices(self, gf16):
        batch = BatchDecoder(gf16, k=2, problems=2)
        with pytest.raises(FieldError, match="boolean"):
            batch.receive(np.array([[True, False]]))
        with pytest.raises(FieldError):
            batch.receive(np.array([[0.9, 1.2]]))
        with pytest.raises(FieldError):
            batch.receive(np.array([[200, 3]]))
        with pytest.raises(DecodingError, match="out of range"):
            batch.receive(gf16.zeros((1, 2)), np.array([5]))
