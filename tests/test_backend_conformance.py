"""The eliminator conformance suite: the row eliminator against the dense one.

Each engine has one eliminator: the scalar decoder runs on the dense
:class:`~repro.gf.linalg.BatchEliminator` over every field, the event engine
on :class:`~repro.backends.rows.RowEliminator`.  Both are **bit-identical by
contract**, which is what lets results, fingerprints and stored records
ignore the engine.  This module holds them to it:

* **kernel conformance** — the one-shot ``gf.linalg`` kernels
  (``row_reduce`` / ``rank`` / ``is_in_row_space``) and the dense
  incremental eliminator describe the same row spaces, over GF(2), GF(3),
  GF(16) and GF(256);
* **eliminator conformance** — generated single-problem traces with resets
  and encodes hold ``RowEliminator`` to the dense reference over prime,
  binary-extension and odd-extension fields;
* **typed refusal** — ``RowEliminator`` rejects fields wider than a byte,
  the dense eliminator's retired single-problem entry points raise, and
  so does its constructor on invalid shapes, each with a typed error.

The engines themselves are held to each other end to end in
``tests/test_event_engine.py`` and ``tests/test_tag_event_engine.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import RowEliminator
from repro.errors import BackendError, FieldError
from repro.gf import GF
from repro.gf.linalg import (
    BatchEliminator,
    is_in_row_space,
    matmul,
    rank,
    row_reduce,
)


@pytest.mark.parametrize("order", [2, 16])
def test_batch_eliminators_refuse_single_problem_calls(order):
    """Single-problem elimination moved to RowEliminator: the dense
    eliminator keeps the names (a benchmark tracer patches them), each a
    typed refusal."""
    eliminator = BatchEliminator(GF(order), 2, 4)
    with pytest.raises(BackendError, match="moved to RowEliminator"):
        eliminator.combine_one(0, [])
    with pytest.raises(BackendError, match="moved to RowEliminator"):
        eliminator.eliminate_one(0, 0)


def test_eliminator_validation_matches(eliminator_field):
    """Constructor validation is part of the contract (typed errors)."""
    with pytest.raises(FieldError, match="batch size must be positive"):
        BatchEliminator(eliminator_field, 0, 4)
    with pytest.raises(FieldError, match="column count must be positive"):
        BatchEliminator(eliminator_field, 2, 0)
    with pytest.raises(FieldError, match="augmented_columns"):
        BatchEliminator(eliminator_field, 2, 4, augmented_columns=4)


# ----------------------------------------------------------------------
# Kernel conformance: the one-shot kernels vs the eliminator
# ----------------------------------------------------------------------

#: Field orders of the kernel cross-check.
FIELD_ORDERS = (2, 3, 16, 256)

_PROBLEM_0 = np.zeros(1, np.int64)


def _random_matrix(rng: np.random.Generator, field, rows: int, cols: int):
    matrix = rng.integers(0, field.order, size=(rows, cols))
    # Duplicate a row half the time so dependent-row handling is hit.
    if rows >= 2 and rng.random() < 0.5:
        matrix[rows - 1] = matrix[0]
    return field.validate(matrix)


def _absorb(field, matrix, *, augmented_columns: int = 0):
    """A one-problem dense eliminator fed ``matrix`` row by row."""
    eliminator = BatchEliminator(
        field, 1, matrix.shape[1], augmented_columns=augmented_columns
    )
    for row in matrix:
        eliminator.eliminate(row[np.newaxis, :], _PROBLEM_0)
    return eliminator


@pytest.mark.parametrize("order", FIELD_ORDERS)
class TestKernelConformance:
    """Seeded random matrices: one-shot kernels and eliminator agree."""

    def test_row_reduce_matches_eliminator_basis(self, order):
        field = GF(order)
        rng = np.random.default_rng(2024 + order)
        for rows, cols in [(1, 1), (3, 5), (5, 3), (8, 8), (6, 70), (17, 130)]:
            matrix = _random_matrix(rng, field, rows, cols)
            reduced, pivots = row_reduce(field, matrix)
            eliminator = _absorb(field, matrix)
            assert np.nonzero(eliminator.pivot_mask[0])[0].tolist() == pivots
            assert np.array_equal(eliminator.basis(0), reduced[: len(pivots)])
            assert not reduced[len(pivots):].any(), (rows, cols)

    def test_row_reduce_augmented_matches_eliminator_basis(self, order):
        """Coded packets ``[C | C·X]``: pivots only in ``C``, payloads carried."""
        field = GF(order)
        rng = np.random.default_rng(77 + order)
        for rows, cols, aug in [(4, 6, 2), (5, 9, 4), (9, 80, 16)]:
            coefficients = _random_matrix(rng, field, rows, cols - aug)
            messages = field.validate(rng.integers(0, order, size=(cols - aug, aug)))
            packets = np.hstack([coefficients, matmul(field, coefficients, messages)])
            reduced, pivots = row_reduce(field, packets, augmented_columns=aug)
            eliminator = _absorb(field, packets, augmented_columns=aug)
            assert np.nonzero(eliminator.pivot_mask[0])[0].tolist() == pivots
            assert np.array_equal(eliminator.basis(0), reduced[: len(pivots)])
            assert not reduced[len(pivots):].any(), (rows, cols, aug)

    def test_rank_matches_eliminator_rank(self, order):
        field = GF(order)
        rng = np.random.default_rng(11 + order)
        for rows, cols in [(1, 4), (6, 6), (10, 4), (4, 100)]:
            matrix = _random_matrix(rng, field, rows, cols)
            assert rank(field, matrix) == _absorb(field, matrix).rank_of(0)

    def test_rank_of_empty_matrix(self, order):
        field = GF(order)
        empty = field.zeros((0, 5))
        unit = field.zeros(5)
        unit[0] = 1
        assert rank(field, empty) == 0
        assert is_in_row_space(field, empty, field.zeros(5))
        assert not is_in_row_space(field, empty, unit)
        eliminator = BatchEliminator(field, 2, 5)
        assert eliminator.ranks.tolist() == [0, 0]
        assert eliminator.eliminate(np.stack([field.zeros(5), unit])).tolist() == [
            False,
            True,
        ]

    def test_is_in_row_space_matches_eliminator(self, order):
        """One problem per probe, each holding the matrix: a probe is helpful
        exactly when it lies outside the row space."""
        field = GF(order)
        rng = np.random.default_rng(5150 + order)
        matrix = _random_matrix(rng, field, 4, 9)
        # Mix guaranteed members (random combinations of the rows) with
        # random probes that are usually outside the span.
        probes = [field.zeros(9)]
        for _ in range(6):
            coefficients = field.validate(rng.integers(0, order, size=(1, 4)))
            probes.append(matmul(field, coefficients, matrix)[0])
            probes.append(field.validate(rng.integers(0, order, size=9)))
        problems = np.arange(len(probes))
        eliminator = BatchEliminator(field, len(probes), 9)
        for row in matrix:
            eliminator.eliminate(np.tile(row, (len(probes), 1)), problems)
        helpful = eliminator.eliminate(np.stack(probes), problems)
        assert helpful.tolist() == [
            not is_in_row_space(field, matrix, probe) for probe in probes
        ]


# ----------------------------------------------------------------------
# Row eliminator: generated single-problem traces against the dense one
# ----------------------------------------------------------------------

#: GF(2) bit rows; XOR byte rows (4, 16, 256); table-added byte rows
#: (the primes 3, 5, 251 and the odd extension field 9).
ROW_FIELD_ORDERS = (2, 3, 4, 5, 9, 16, 251, 256)


@st.composite
def row_traces(draw):
    """A field, a width and a trace of rows, encodes and resets on 1–3 problems."""
    problems = draw(st.integers(1, 3))
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, problems - 1),
            st.sampled_from(["row", "sparse-row", "combine", "reset"]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=40,
    ))
    return draw(st.sampled_from(ROW_FIELD_ORDERS)), draw(st.integers(1, 70)), problems, steps


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=row_traces())
def test_row_eliminator_matches_dense(trace):
    """After every row: same helpfulness flag, ranks, pivots and RREF rows as
    a dense ``BatchEliminator`` per problem fed the same row; every encode
    equals ``BatchEliminator.combine``."""
    order, columns, problems, steps = trace
    field = GF(order)
    rows = RowEliminator(field, problems, columns)
    dense = [BatchEliminator(field, 1, columns) for _ in range(problems)]
    for index, action, seed in steps:
        rng = np.random.default_rng(seed)
        if action == "reset":
            rows.reset(index)
            dense[index] = BatchEliminator(field, 1, columns)
            continue
        if action == "combine":
            coefficients = field.random_elements(rng, rows.ranks[index])
            row = dense[index].combine(0, coefficients)
            payload = rows.combine_one(index, coefficients.tolist())
            assert np.array_equal(rows.unpack(payload), row)
        else:
            row = field.random_elements(rng, columns)
            if action == "sparse-row":
                row[rng.random(columns) < 0.8] = 0
            payload = rows.pack(row)
        helpful = rows.eliminate_one(index, payload)
        assert helpful == bool(dense[index].eliminate(row[np.newaxis, :], _PROBLEM_0)[0])
        assert rows.ranks == [int(problem.ranks[0]) for problem in dense]
        for problem, reference in zip(range(problems), dense):
            basis = rows.basis(problem)
            assert np.array_equal(basis, reference.basis(0))
            assert [int(np.flatnonzero(stored)[0]) for stored in basis] == (
                np.flatnonzero(reference.pivot_mask[0]).tolist()
            )


def test_row_eliminator_refuses_fields_wider_than_a_byte():
    with pytest.raises(BackendError, match=r"GF\(257\) does not fit"):
        RowEliminator(GF(257), 1, 4)
