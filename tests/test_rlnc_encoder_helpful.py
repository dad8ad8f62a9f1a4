"""Unit tests for the RLNC encoder and the helpfulness predicates (Definition 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gf import GF
from repro.rlnc import (
    Generation,
    RlncDecoder,
    encode_from_decoder,
    helpful_message_probability_lower_bound,
    is_helpful_node,
    subspace_dimension_gain,
)


def seeded_decoder(field, generation, indices):
    decoder = RlncDecoder(field, generation.k, generation.payload_length)
    for index in indices:
        decoder.add_source_message(index, generation.payload_matrix[index])
    return decoder


class TestEncoder:
    def test_empty_decoder_emits_nothing(self, gf16, rng):
        decoder = RlncDecoder(gf16, 4, 2)
        assert encode_from_decoder(decoder, rng) is None

    def test_emitted_packet_lies_in_senders_span(self, gf16, small_generation, rng):
        decoder = seeded_decoder(gf16, small_generation, [0, 2])
        for _ in range(10):
            packet = encode_from_decoder(decoder, rng)
            # Coefficients of messages the sender does not know must be zero.
            assert packet.coefficients[1] == 0
            assert packet.coefficients[3] == 0

    def test_emitted_packet_is_consistent_equation(self, gf16, small_generation, rng):
        """The packet payload equals the same combination applied to the true messages."""
        decoder = seeded_decoder(gf16, small_generation, [0, 1, 2, 3])
        for _ in range(10):
            packet = encode_from_decoder(decoder, rng)
            coeffs = packet.coefficient_array(gf16)
            expected = gf16.dot(coeffs, small_generation.payload_matrix)
            assert np.array_equal(packet.payload_array(gf16), expected)


class TestHelpfulness:
    def test_probability_lower_bound(self):
        assert helpful_message_probability_lower_bound(2) == pytest.approx(0.5)
        assert helpful_message_probability_lower_bound(16) == pytest.approx(15 / 16)
        with pytest.raises(ValueError):
            helpful_message_probability_lower_bound(1)

    def test_node_with_nothing_is_not_helpful(self, gf16, small_generation):
        empty = RlncDecoder(gf16, 4, 2)
        receiver = seeded_decoder(gf16, small_generation, [0])
        assert not is_helpful_node(empty, receiver)

    def test_node_with_new_information_is_helpful(self, gf16, small_generation):
        sender = seeded_decoder(gf16, small_generation, [0, 1])
        receiver = seeded_decoder(gf16, small_generation, [0])
        assert is_helpful_node(sender, receiver)
        assert subspace_dimension_gain(sender, receiver) == 1

    def test_subset_knowledge_is_not_helpful(self, gf16, small_generation):
        sender = seeded_decoder(gf16, small_generation, [0])
        receiver = seeded_decoder(gf16, small_generation, [0, 1])
        assert not is_helpful_node(sender, receiver)
        assert subspace_dimension_gain(sender, receiver) == 0

    def test_complete_receiver_never_needs_help(self, gf16, small_generation):
        sender = seeded_decoder(gf16, small_generation, [0, 1, 2, 3])
        receiver = seeded_decoder(gf16, small_generation, [0, 1, 2, 3])
        assert not is_helpful_node(sender, receiver)

    def test_helpful_message_rate_matches_lower_bound(self, rng):
        """Empirical check of Lemma 2.1 of Deb et al.: packets from a helpful
        node are helpful with probability at least 1 - 1/q."""
        for order in (2, 16):
            field = GF(order)
            generation = Generation.random(field, k=6, payload_length=1, rng=rng)
            sender = seeded_decoder(field, generation, range(6))
            trials = 300
            helpful = 0
            for _ in range(trials):
                receiver = seeded_decoder(field, generation, [0, 1, 2])
                packet = encode_from_decoder(sender, rng)
                if receiver.receive(packet):
                    helpful += 1
            rate = helpful / trials
            bound = helpful_message_probability_lower_bound(order)
            # Allow a small sampling slack below the theoretical lower bound.
            assert rate >= bound - 0.08, f"GF({order}): rate {rate} below bound {bound}"
