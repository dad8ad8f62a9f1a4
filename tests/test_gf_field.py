"""Unit tests for finite-field arithmetic (prime and extension fields)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FieldError
from repro.gf import GF, ExtensionField, PrimeField


class TestFactory:
    def test_prime_orders_build_prime_fields(self):
        assert isinstance(GF(2), PrimeField)
        assert isinstance(GF(13), PrimeField)

    def test_prime_power_orders_build_extension_fields(self):
        assert isinstance(GF(4), ExtensionField)
        assert isinstance(GF(256), ExtensionField)
        assert isinstance(GF(9), ExtensionField)

    def test_factory_caches_instances(self):
        assert GF(16) is GF(16)

    def test_invalid_order_rejected(self):
        with pytest.raises(FieldError):
            GF(6)

    def test_equality_is_by_order(self):
        assert GF(16) == GF(16)
        assert GF(16) != GF(17)


class TestBasicArithmetic:
    def test_gf2_is_xor_and_and(self, gf2):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert list(gf2.add(a, b)) == [0, 1, 1, 0]
        assert list(gf2.mul(a, b)) == [0, 0, 0, 1]

    def test_gf256_known_aes_product(self):
        gf = GF(256)
        # A classic AES MixColumns fact: 0x53 * 0xCA = 0x01 in GF(256).
        assert int(gf.mul(0x53, 0xCA)) == 0x01

    def test_prime_field_matches_modular_arithmetic(self):
        gf = GF(7)
        for a in range(7):
            for b in range(7):
                assert int(gf.add(a, b)) == (a + b) % 7
                assert int(gf.mul(a, b)) == (a * b) % 7

    def test_add_neg_cancels(self, any_field):
        values = np.arange(min(any_field.order, 64)) % any_field.order
        assert np.all(any_field.add(values, any_field.neg(values)) == 0)

    def test_mul_inv_gives_one(self, any_field):
        values = (np.arange(1, min(any_field.order, 64))) % any_field.order
        values = values[values != 0]
        assert np.all(any_field.mul(values, any_field.inv(values)) == 1)

    def test_sub_is_add_of_negative(self, any_field):
        rng = np.random.default_rng(0)
        a = any_field.random_elements(rng, 32)
        b = any_field.random_elements(rng, 32)
        assert np.array_equal(any_field.sub(a, b), any_field.add(a, any_field.neg(b)))

    @pytest.mark.parametrize("order", [4, 8, 16, 256])
    def test_characteristic_two_addition_is_xor(self, order):
        """Adding and subtracting are XOR in characteristic 2 (the row
        eliminator adds byte rows that way): check every pair."""
        field = GF(order)
        a, b = (
            grid.ravel() for grid in np.meshgrid(np.arange(order), np.arange(order))
        )
        added, subtracted = field.add(a, b), field.sub(a, b)
        assert added.dtype == subtracted.dtype == field.dtype
        assert np.array_equal(added, a ^ b)
        assert np.array_equal(subtracted, a ^ b)

    def test_div_by_zero_raises(self, any_field):
        with pytest.raises(FieldError):
            any_field.div(1, 0)

    def test_invert_zero_raises(self, any_field):
        with pytest.raises(FieldError):
            any_field.inv(np.array([1, 0, 3]) % any_field.order)

    def test_out_of_range_elements_rejected(self, gf16):
        with pytest.raises(FieldError):
            gf16.validate(np.array([0, 16]))
        with pytest.raises(FieldError):
            gf16.validate(np.array([-1]))

    def test_non_integer_elements_rejected(self, gf16):
        with pytest.raises(FieldError):
            gf16.validate(np.array([0.5, 1.0]))

    def test_boolean_arrays_rejected_explicitly(self, gf16):
        # Regression: dtype kind 'b' must hit the dedicated boolean branch,
        # not be silently promoted to 0/1 nor fall through the integer check.
        with pytest.raises(FieldError, match="boolean"):
            gf16.validate(np.array([True, False]))
        with pytest.raises(FieldError, match="boolean"):
            gf16.validate(True)
        with pytest.raises(FieldError, match="boolean"):
            gf16.add(np.array([1, 2]) != 0, 3)

    def test_float_integers_accepted(self, gf16):
        validated = gf16.validate(np.array([1.0, 5.0]))
        assert list(validated) == [1, 5]


class TestDerivedOperations:
    def test_power_matches_repeated_multiplication(self, any_field):
        base = 1 if any_field.order == 2 else 2
        expected = 1
        for exponent in range(6):
            assert int(any_field.power(base, exponent)) == expected
            expected = int(any_field.mul(expected, base))

    def test_power_negative_exponent(self, gf16):
        value = 7
        inv = int(gf16.inv(value))
        assert int(gf16.power(value, -1)) == inv

    def test_fermat_little_theorem_multiplicative_order(self, any_field):
        # a^(q-1) == 1 for every non-zero a.
        q = any_field.order
        sample = range(1, min(q, 32))
        for a in sample:
            assert int(any_field.power(a, q - 1)) == 1

    def test_dot_linear_combination(self, gf16):
        coefficients = np.array([1, 2, 0])
        vectors = np.array([[1, 2], [3, 4], [5, 6]])
        expected = gf16.add(vectors[0], gf16.scalar_mul(2, vectors[1]))
        assert np.array_equal(gf16.dot(coefficients, vectors), expected)

    def test_dot_shape_mismatch_raises(self, gf16):
        with pytest.raises(FieldError):
            gf16.dot(np.array([1, 2]), np.array([[1, 2, 3]]))

    def test_scalar_mul_zero_annihilates(self, any_field):
        vector = any_field.random_elements(np.random.default_rng(3), 10)
        assert np.all(any_field.scalar_mul(0, vector) == 0)

    def test_random_elements_nonzero(self, any_field):
        rng = np.random.default_rng(5)
        values = any_field.random_elements(rng, 200, nonzero=True)
        assert np.all(values != 0)
        assert np.all(values < any_field.order)

    def test_zeros_and_ones(self, gf16):
        assert np.all(gf16.zeros((2, 3)) == 0)
        assert np.all(gf16.ones(4) == 1)


class TestExtensionFieldConstruction:
    def test_gf9_has_characteristic_three(self):
        gf9 = GF(9)
        assert gf9.characteristic == 3
        assert gf9.degree == 2
        # Characteristic p: adding an element to itself p times gives zero.
        for a in range(9):
            total = 0
            for _ in range(3):
                total = int(gf9.add(total, a))
            assert total == 0

    def test_prime_field_rejects_prime_power(self):
        with pytest.raises(FieldError):
            PrimeField(4)

    def test_extension_field_rejects_prime(self):
        with pytest.raises(FieldError):
            ExtensionField(7)


class TestExtensionTableCache:
    """Extension-field lookup tables are memoised per order (module cache)."""

    def test_tables_are_shared_between_instances(self):
        first = ExtensionField(16)
        second = ExtensionField(16)
        assert first is not second
        assert first._add_table is second._add_table
        assert first._mul_table is second._mul_table
        assert first._neg_table is second._neg_table
        assert first._inverse_table is second._inverse_table

    def test_shared_tables_are_immutable(self):
        field = ExtensionField(16)
        with pytest.raises(ValueError):
            field._mul_table[0, 0] = 1

    def test_cached_instance_still_computes_correctly(self):
        ExtensionField(16)  # ensure the cache is warm
        field = ExtensionField(16)
        assert int(field.mul(7, 9)) == 10
        assert int(field.add(5, 5)) == 0  # characteristic 2
        assert int(field.mul(3, field.inv(3))) == 1

    def test_pickle_roundtrip_shares_cached_tables(self):
        import pickle

        field = ExtensionField(16)
        clone = pickle.loads(pickle.dumps(field))
        assert clone == field
        assert clone._mul_table is field._mul_table  # via __reduce__ + cache
        prime = pickle.loads(pickle.dumps(PrimeField(7)))
        assert int(prime.mul(3, 5)) == 1
