"""Unit tests for linear algebra over finite fields."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import RowEliminator
from repro.errors import FieldError
from repro.gf import GF
from repro.gf.linalg import (
    identity,
    invert_matrix,
    is_in_row_space,
    matmul,
    rank,
    row_reduce,
    solve,
)


class TestRowReduce:
    def test_identity_is_already_reduced(self, gf16):
        eye = identity(gf16, 4)
        reduced, pivots = row_reduce(gf16, eye)
        assert np.array_equal(reduced, eye)
        assert pivots == [0, 1, 2, 3]

    def test_dependent_rows_produce_zero_row(self, gf16):
        matrix = np.array([[1, 2, 3], [2, 4, 6]])  # row2 = 2 * row1 over GF(16)
        reduced, pivots = row_reduce(gf16, matrix)
        assert len(pivots) == 1
        assert np.all(reduced[1] == 0)

    def test_pivots_are_one_and_columns_cleared(self, gf16):
        rng = np.random.default_rng(1)
        matrix = gf16.random_elements(rng, (4, 6))
        reduced, pivots = row_reduce(gf16, matrix)
        for row_index, col in enumerate(pivots):
            assert reduced[row_index, col] == 1
            column = reduced[:, col]
            assert int(np.count_nonzero(column)) == 1

    def test_augmented_columns_never_pivot(self, gf16):
        matrix = np.array([[0, 0, 5], [0, 0, 7]])
        reduced, pivots = row_reduce(gf16, matrix, augmented_columns=1)
        assert pivots == []

    def test_rejects_bad_shapes(self, gf16):
        with pytest.raises(FieldError):
            row_reduce(gf16, np.array([1, 2, 3]))
        with pytest.raises(FieldError):
            row_reduce(gf16, np.array([[1, 2]]), augmented_columns=3)

    def test_input_not_modified(self, gf16):
        matrix = np.array([[3, 1], [1, 2]], dtype=np.uint8)
        original = matrix.copy()
        row_reduce(gf16, matrix)
        assert np.array_equal(matrix, original)


class TestRank:
    def test_rank_of_empty_matrix_is_zero(self, gf16):
        assert rank(gf16, gf16.zeros((0, 5))) == 0

    def test_rank_of_identity(self, any_field):
        assert rank(any_field, identity(any_field, 5)) == 5

    def test_rank_of_random_square_matrix_usually_full(self, gf16):
        rng = np.random.default_rng(2)
        matrix = gf16.random_elements(rng, (6, 6))
        assert 0 < rank(gf16, matrix) <= 6

    def test_rank_bounded_by_min_dimension(self, gf2):
        rng = np.random.default_rng(3)
        matrix = gf2.random_elements(rng, (3, 10))
        assert rank(gf2, matrix) <= 3


class TestRowSpace:
    def test_vector_in_span(self, gf16):
        matrix = np.array([[1, 0, 2], [0, 1, 3]])
        vector = gf16.add(matrix[0], gf16.scalar_mul(5, matrix[1]))
        assert is_in_row_space(gf16, matrix, vector)

    def test_vector_not_in_span(self, gf16):
        matrix = np.array([[1, 0, 0], [0, 1, 0]])
        assert not is_in_row_space(gf16, matrix, np.array([0, 0, 1]))

    def test_zero_vector_always_in_span(self, gf16):
        matrix = np.array([[1, 2, 3]])
        assert is_in_row_space(gf16, matrix, np.zeros(3, dtype=int))

    def test_empty_matrix_only_contains_zero(self, gf16):
        empty = gf16.zeros((0, 3))
        assert is_in_row_space(gf16, empty, np.zeros(3, dtype=int))
        assert not is_in_row_space(gf16, empty, np.array([1, 0, 0]))

    def test_dimension_mismatch_raises(self, gf16):
        with pytest.raises(FieldError):
            is_in_row_space(gf16, np.array([[1, 2]]), np.array([1, 2, 3]))


class TestSolveAndInvert:
    def test_solve_recovers_known_solution(self, any_field):
        rng = np.random.default_rng(4)
        size = 4
        # Build an invertible matrix by perturbing the identity with a random
        # upper-triangular part (always full rank).
        matrix = identity(any_field, size)
        noise = any_field.random_elements(rng, (size, size))
        matrix = any_field.add(matrix, np.triu(noise, k=1).astype(matrix.dtype))
        x_true = any_field.random_elements(rng, (size, 2))
        rhs = matmul(any_field, matrix, x_true)
        x_solved = solve(any_field, matrix, rhs)
        assert np.array_equal(x_solved, x_true)

    def test_solve_vector_rhs(self, gf16):
        matrix = identity(gf16, 3)
        rhs = np.array([5, 6, 7])
        assert np.array_equal(solve(gf16, matrix, rhs), rhs)

    def test_underdetermined_raises(self, gf16):
        matrix = np.array([[1, 2, 3]])
        with pytest.raises(FieldError):
            solve(gf16, matrix, np.array([1]))

    def test_inconsistent_raises(self, gf16):
        matrix = np.array([[1, 0], [1, 0]])  # second row duplicates the first
        rhs = np.array([1, 2])  # ...but asks for different values
        with pytest.raises(FieldError):
            solve(gf16, matrix, rhs)

    def test_invert_matrix_roundtrip(self, gf16):
        rng = np.random.default_rng(6)
        size = 4
        matrix = identity(gf16, size)
        noise = gf16.random_elements(rng, (size, size))
        matrix = gf16.add(matrix, np.triu(noise, k=1).astype(matrix.dtype))
        inverse = invert_matrix(gf16, matrix)
        assert np.array_equal(matmul(gf16, matrix, inverse), identity(gf16, size))

    def test_invert_non_square_raises(self, gf16):
        with pytest.raises(FieldError):
            invert_matrix(gf16, np.array([[1, 2, 3], [4, 5, 6]]))

    def test_matmul_shape_check(self, gf16):
        with pytest.raises(FieldError):
            matmul(gf16, np.array([[1, 2]]), np.array([[1, 2]]))


class TestRowEliminator:
    """The incremental eliminator both engines run on, against ``rank``."""

    def test_rank_agrees_with_dense_rank(self, any_field):
        rng = np.random.default_rng(17)
        k = 5
        eliminator = RowEliminator(any_field, 3, k)
        stacked = [[] for _ in range(3)]
        for _ in range(8):
            rows = any_field.random_elements(rng, (3, k))
            for b in range(3):
                eliminator.eliminate_one(b, eliminator.pack(rows[b]))
                stacked[b].append(rows[b])
        for b in range(3):
            dense = np.vstack(stacked[b])
            assert eliminator.ranks[b] == rank(any_field, dense)

    def test_basis_is_rref_with_unit_pivots(self, gf16):
        rng = np.random.default_rng(3)
        eliminator = RowEliminator(gf16, 1, 5)
        for _ in range(4):
            eliminator.eliminate_one(0, eliminator.pack(gf16.random_elements(rng, 5)))
        basis = eliminator.basis(0)
        pivots = [int(np.nonzero(row)[0][0]) for row in basis]
        assert pivots == sorted(pivots)
        for i, row in enumerate(basis):
            assert int(row[pivots[i]]) == 1
            for j, other in enumerate(basis):
                if i != j:
                    assert int(other[pivots[i]]) == 0

    def test_shape_validation(self, gf16):
        eliminator = RowEliminator(gf16, 2, 3)
        with pytest.raises(FieldError):
            eliminator.pack(gf16.zeros(4))
        with pytest.raises(FieldError):
            eliminator.combine_one(0, [1])
        with pytest.raises(FieldError):
            RowEliminator(gf16, 0, 3)
