"""Property-based tests (hypothesis) for the field axioms and linear algebra.

These exercise the algebraic invariants RLNC correctness rests on: the field
axioms (associativity, commutativity, distributivity, inverses) and the
consistency of rank under row operations.  The final block checks the
incremental eliminator both engines run on over GF(2) and GF(16).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import RowEliminator
from repro.gf import GF, rank, row_reduce

FIELD_ORDERS = [2, 3, 5, 4, 16, 9]


def elements(order: int):
    return st.integers(min_value=0, max_value=order - 1)


@st.composite
def field_and_elements(draw, count: int = 3):
    order = draw(st.sampled_from(FIELD_ORDERS))
    values = [draw(elements(order)) for _ in range(count)]
    return GF(order), values


@given(field_and_elements())
@settings(max_examples=150, deadline=None)
def test_addition_commutative_and_associative(data):
    field, (a, b, c) = data
    assert int(field.add(a, b)) == int(field.add(b, a))
    left = int(field.add(field.add(a, b), c))
    right = int(field.add(a, field.add(b, c)))
    assert left == right


@given(field_and_elements())
@settings(max_examples=150, deadline=None)
def test_multiplication_commutative_and_associative(data):
    field, (a, b, c) = data
    assert int(field.mul(a, b)) == int(field.mul(b, a))
    left = int(field.mul(field.mul(a, b), c))
    right = int(field.mul(a, field.mul(b, c)))
    assert left == right


@given(field_and_elements())
@settings(max_examples=150, deadline=None)
def test_distributivity(data):
    field, (a, b, c) = data
    left = int(field.mul(a, field.add(b, c)))
    right = int(field.add(field.mul(a, b), field.mul(a, c)))
    assert left == right


@given(field_and_elements(count=1))
@settings(max_examples=100, deadline=None)
def test_additive_and_multiplicative_identities(data):
    field, (a,) = data
    assert int(field.add(a, 0)) == a
    assert int(field.mul(a, 1)) == a
    assert int(field.mul(a, 0)) == 0


@given(field_and_elements(count=1))
@settings(max_examples=100, deadline=None)
def test_inverses(data):
    field, (a,) = data
    assert int(field.add(a, field.neg(a))) == 0
    if a != 0:
        assert int(field.mul(a, field.inv(a))) == 1


@st.composite
def small_matrix(draw):
    order = draw(st.sampled_from([2, 16]))
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    entries = draw(
        st.lists(
            st.lists(elements(order), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return GF(order), np.array(entries, dtype=np.int64)


@given(small_matrix())
@settings(max_examples=80, deadline=None)
def test_row_reduction_preserves_rank(data):
    field, matrix = data
    reduced, pivots = row_reduce(field, matrix)
    assert rank(field, matrix) == len(pivots)
    assert rank(field, reduced) == len(pivots)


@given(small_matrix())
@settings(max_examples=80, deadline=None)
def test_rank_invariant_under_row_permutation(data):
    field, matrix = data
    permuted = matrix[::-1].copy()
    assert rank(field, matrix) == rank(field, permuted)


@given(small_matrix(), st.integers(min_value=0, max_value=4))
@settings(max_examples=80, deadline=None)
def test_duplicating_a_row_never_changes_rank(data, row_index):
    field, matrix = data
    row = matrix[row_index % matrix.shape[0]]
    augmented = np.vstack([matrix, row[np.newaxis, :]])
    assert rank(field, augmented) == rank(field, matrix)


# ----------------------------------------------------------------------
# Properties of the incremental eliminator over GF(2) and GF(16)
# ----------------------------------------------------------------------


#: A prime and an extension field of characteristic 2.
ELIMINATOR_FIELDS = pytest.mark.parametrize("order", [2, 16], ids=["GF(2)", "GF(16)"])


@st.composite
def eliminator_matrices(draw, order: int):
    """A random matrix over ``GF(order)``."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=7))
    entries = draw(
        st.lists(
            st.lists(elements(order), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return GF(order), np.array(entries, dtype=np.int64)


def _row(data, field, columns: int) -> np.ndarray:
    """One drawn row of field elements."""
    entries = data.draw(
        st.lists(elements(field.order), min_size=columns, max_size=columns)
    )
    return field.validate(np.array(entries, dtype=np.int64))


def _absorbed(field, matrix):
    """A one-problem eliminator fed ``matrix`` row by row."""
    eliminator = RowEliminator(field, 1, matrix.shape[1])
    for row in field.validate(matrix):
        eliminator.eliminate_one(0, eliminator.pack(row))
    return eliminator


@ELIMINATOR_FIELDS
class TestEliminatorFieldInvariants:
    """Rank monotonicity, idempotent re-elimination, helpfulness ⇔ rank."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_monotone_under_row_append(self, order, data):
        field, matrix = data.draw(eliminator_matrices(order))
        extra = _row(data, field, matrix.shape[1])
        eliminator = _absorbed(field, matrix)
        base = eliminator.ranks[0]
        eliminator.eliminate_one(0, eliminator.pack(extra))
        grown = eliminator.ranks[0]
        assert base <= grown <= base + 1
        assert base == rank(field, matrix)
        assert grown == rank(field, np.vstack([matrix, extra]))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_reduce_is_idempotent(self, order, data):
        """Re-reducing a reduced basis changes nothing, one-shot or incremental."""
        field, matrix = data.draw(eliminator_matrices(order))
        reduced, pivots = row_reduce(field, matrix)
        again, pivots_again = row_reduce(field, reduced)
        assert pivots_again == pivots
        assert np.array_equal(again, reduced)
        eliminator = _absorbed(field, matrix)
        basis = eliminator.basis(0)
        for row in basis:
            assert not eliminator.eliminate_one(0, eliminator.pack(row))
        assert np.array_equal(eliminator.basis(0), basis)
        assert np.array_equal(_absorbed(field, basis).basis(0), basis)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_helpful_iff_rank_increases(self, order, data):
        field, matrix = data.draw(eliminator_matrices(order))
        candidate = _row(data, field, matrix.shape[1])
        eliminator = _absorbed(field, matrix)
        before = eliminator.ranks[0]
        helpful = eliminator.eliminate_one(0, eliminator.pack(candidate))
        after = eliminator.ranks[0]
        assert helpful == (after == before + 1)
        assert (not helpful) == (after == before)
