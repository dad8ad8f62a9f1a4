"""Unit tests for the incremental RLNC decoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BackendError, DecodingError
from repro.gf import GF
from repro.rlnc import CodedPacket, Generation, RlncDecoder, encode_from_decoder


def make_decoder(field, k=4, r=2):
    return RlncDecoder(field, k, r)


class TestConstruction:
    def test_initial_state(self, gf16):
        decoder = make_decoder(gf16)
        assert decoder.rank == 0
        assert not decoder.is_complete
        assert decoder.packets_received == 0
        assert decoder.coefficient_matrix().shape == (0, 4)

    def test_invalid_parameters(self, gf16):
        with pytest.raises(DecodingError):
            RlncDecoder(gf16, 0, 2)
        with pytest.raises(DecodingError):
            RlncDecoder(gf16, 4, 0)

    def test_fields_wider_than_a_byte_refused(self):
        """The decoder keeps one byte per element, as the event engine does."""
        with pytest.raises(BackendError, match=r"GF\(257\) does not fit"):
            RlncDecoder(GF(257), 4, 2)


class TestReceive:
    def test_unit_packets_fill_rank(self, gf16, small_generation):
        decoder = make_decoder(gf16)
        for index in range(4):
            helpful = decoder.add_source_message(
                index, small_generation.payload_matrix[index]
            )
            assert helpful
            assert decoder.rank == index + 1
        assert decoder.is_complete

    def test_duplicate_packet_not_helpful(self, gf16, small_generation):
        decoder = make_decoder(gf16)
        payload = small_generation.payload_matrix[0]
        assert decoder.add_source_message(0, payload)
        assert not decoder.add_source_message(0, payload)
        assert decoder.rank == 1
        assert decoder.packets_received == 2
        assert decoder.helpful_received == 1

    def test_zero_packet_not_helpful(self, gf16):
        decoder = make_decoder(gf16)
        packet = CodedPacket(coefficients=(0, 0, 0, 0), payload=(0, 0))
        assert not decoder.receive(packet)
        assert decoder.rank == 0

    def test_linearly_dependent_combination_rejected(self, gf16, small_generation):
        decoder = make_decoder(gf16)
        decoder.add_source_message(0, small_generation.payload_matrix[0])
        decoder.add_source_message(1, small_generation.payload_matrix[1])
        # 3*x0 + 5*x1 is in the span of what the decoder already has.
        coeffs = gf16.zeros(4)
        coeffs[0], coeffs[1] = 3, 5
        payload = gf16.add(
            gf16.scalar_mul(3, small_generation.payload_matrix[0]),
            gf16.scalar_mul(5, small_generation.payload_matrix[1]),
        )
        packet = CodedPacket.from_arrays(coeffs, payload)
        assert not decoder.receive(packet)
        assert decoder.rank == 2

    def test_payload_never_makes_a_packet_helpful(self, any_field, rng):
        """Helpfulness is the coefficient part's alone (Definition 3): a
        stored coefficient vector with another payload changes nothing."""
        decoder = make_decoder(any_field)
        payload = any_field.random_elements(rng, 2)
        decoder.add_source_message(0, payload)
        before = decoder.augmented_matrix()
        other = any_field.add(payload, any_field.ones(2))
        assert not decoder.receive(CodedPacket.unit(any_field, 4, 0, other))
        assert np.array_equal(decoder.augmented_matrix(), before)

    def test_would_be_helpful_does_not_mutate(self, gf16, small_generation):
        decoder = make_decoder(gf16)
        packet = CodedPacket.unit(gf16, 4, 2, small_generation.payload_matrix[2])
        assert decoder.would_be_helpful(packet)
        assert decoder.rank == 0
        assert decoder.packets_received == 0

    def test_dimension_mismatch_raises(self, gf16):
        decoder = make_decoder(gf16, k=4, r=2)
        wrong_k = CodedPacket(coefficients=(1, 0, 0), payload=(0, 0))
        with pytest.raises(DecodingError):
            decoder.receive(wrong_k)
        wrong_r = CodedPacket(coefficients=(1, 0, 0, 0), payload=(0, 0, 0))
        with pytest.raises(DecodingError):
            decoder.receive(wrong_r)

    def test_rref_invariant_after_random_packets(self, gf16, small_generation, rng):
        """Stored rows stay in reduced row-echelon form after arbitrary traffic."""
        source = make_decoder(gf16)
        for index in range(4):
            source.add_source_message(index, small_generation.payload_matrix[index])
        sink = make_decoder(gf16)
        for _ in range(20):
            packet = encode_from_decoder(source, rng)
            sink.receive(packet)
        matrix = sink.coefficient_matrix()
        pivots = sink.pivot_columns
        assert list(pivots) == sorted(pivots)
        for row_index, pivot in enumerate(pivots):
            assert matrix[row_index, pivot] == 1
            assert int(np.count_nonzero(matrix[:, pivot])) == 1
            assert np.all(matrix[row_index, :pivot] == 0)


class TestEncode:
    def test_packet_is_the_dot_of_the_stored_rows(self, any_field, rng):
        """One coefficient draw per stored row, combined in pivot order: the
        packet ``field.dot`` builds from the same draws."""
        generation = Generation.random(any_field, k=5, payload_length=3, rng=rng)
        decoder = RlncDecoder(any_field, 5, 3)
        for index in (0, 2, 3):
            decoder.add_source_message(index, generation.payload_matrix[index])
        for seed in range(5):
            packet = encode_from_decoder(decoder, np.random.default_rng(seed))
            draws = any_field.random_elements(np.random.default_rng(seed), decoder.rank)
            expected = any_field.dot(draws, decoder.augmented_matrix())
            assert packet == CodedPacket.from_arrays(expected[:5], expected[5:])
            decoder.receive(packet)


class TestDecode:
    def test_decode_before_complete_raises(self, gf16):
        decoder = make_decoder(gf16)
        with pytest.raises(DecodingError):
            decoder.decode()

    def test_decode_from_unit_packets(self, gf16, small_generation):
        decoder = make_decoder(gf16)
        for index in range(4):
            decoder.add_source_message(index, small_generation.payload_matrix[index])
        assert np.array_equal(decoder.decode(), small_generation.payload_matrix)
        assert decoder.matches_generation(small_generation)

    def test_decode_from_random_combinations(self, gf16, small_generation, rng):
        """End-to-end: a sink decoding only coded packets recovers the originals."""
        source = make_decoder(gf16)
        for index in range(4):
            source.add_source_message(index, small_generation.payload_matrix[index])
        sink = make_decoder(gf16)
        attempts = 0
        while not sink.is_complete:
            packet = encode_from_decoder(source, rng)
            sink.receive(packet)
            attempts += 1
            assert attempts < 200, "decoder failed to converge"
        assert np.array_equal(sink.decode(), small_generation.payload_matrix)

    def test_matches_generation_false_when_incomplete(self, gf16, small_generation):
        decoder = make_decoder(gf16)
        assert not decoder.matches_generation(small_generation)

    @pytest.mark.parametrize("order", [2, 3, 256])
    def test_round_trip_across_fields(self, order, rng):
        field = GF(order)
        generation = Generation.random(field, k=5, payload_length=3, rng=rng)
        source = RlncDecoder(field, 5, 3)
        for index in range(5):
            source.add_source_message(index, generation.payload_matrix[index])
        sink = RlncDecoder(field, 5, 3)
        attempts = 0
        while not sink.is_complete and attempts < 500:
            sink.receive(encode_from_decoder(source, rng))
            attempts += 1
        assert sink.is_complete
        assert np.array_equal(sink.decode(), generation.payload_matrix)

    def test_round_trip_on_both_eliminators(self, eliminator_field, rng):
        """Full encode → gossip → decode payload recovery over GF(2) and GF(16)."""
        field = eliminator_field
        generation = Generation.random(field, k=5, payload_length=3, rng=rng)
        source = RlncDecoder(field, 5, 3)
        for index in range(5):
            source.add_source_message(index, generation.payload_matrix[index])
        sink = RlncDecoder(field, 5, 3)
        attempts = 0
        while not sink.is_complete and attempts < 500:
            sink.receive(encode_from_decoder(source, rng))
            attempts += 1
        assert sink.is_complete
        assert np.array_equal(sink.decode(), generation.payload_matrix)
        assert sink.matches_generation(generation)
