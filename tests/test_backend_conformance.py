"""The eliminator conformance suite: ``RowEliminator`` against ``row_reduce``.

Both engines run on :class:`~repro.backends.rows.RowEliminator`: the event
engine with one problem per node, the scalar decoder with one problem over
``[coefficients | payload]`` rows whose payload columns are augmented.  Its
oracle is :func:`~repro.gf.linalg.row_reduce`, textbook numpy code that
shares nothing with it.  The canonical RREF basis of a row space is unique,
so after any rows the eliminator's stored basis must equal the pivot rows
``row_reduce`` makes of the rows it absorbed.  This module holds it to that:

* **kernel conformance** — seeded random matrices, coded packets ``[C | C·X]``
  among them: the eliminator fed them row by row and the one-shot kernels
  (``row_reduce`` / ``rank`` / ``is_in_row_space``) describe the same row
  spaces, over GF(2), GF(3), GF(16) and GF(256);
* **eliminator conformance** — generated traces with resets, encodes and
  one problem's basis fed into another, with and without augmented columns:
  after every step the ranks, pivots, bases and helpfulness flags match
  ``row_reduce``, every encode matches ``field.dot`` of the basis, and
  ``same_subspace`` holds exactly when the two canonical bases are equal,
  over prime, binary-extension and odd-extension fields;
* **augmented rows** — a row whose coefficient part reduces to zero is not
  helpful, whatever its payload holds;
* **shared tables** — eliminators over one field share its lookup tables;
* **typed refusal** — fields wider than a byte and invalid shapes raise
  typed errors.

The engines themselves are held to each other end to end in
``tests/test_event_engine.py`` and ``tests/test_tag_event_engine.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backends import RowEliminator
from repro.errors import BackendError, FieldError
from repro.gf import GF
from repro.gf.linalg import is_in_row_space, matmul, rank, row_reduce


def _pivots_of(basis: np.ndarray) -> list[int]:
    """The leading column of every row of an RREF basis."""
    return [int(np.flatnonzero(row)[0]) for row in basis]


def _mask_columns(rows: RowEliminator, index: int) -> list[int]:
    """The columns set in one problem's pivot mask (a bit, or a byte, each)."""
    step = 1 if rows.field.order == 2 else 8
    return [col for col in range(rows.columns) if rows.pivots[index] >> col * step & 1]


def test_eliminator_validation(eliminator_field):
    """Constructor validation is part of the contract (typed errors)."""
    with pytest.raises(FieldError, match="problem count must be positive"):
        RowEliminator(eliminator_field, 0, 4)
    with pytest.raises(FieldError, match="column count must be positive"):
        RowEliminator(eliminator_field, 2, 0)
    for augmented in (-1, 4, 5):
        with pytest.raises(FieldError, match=r"augmented_columns must lie in \[0, 4\)"):
            RowEliminator(eliminator_field, 2, 4, augmented_columns=augmented)
    with pytest.raises(FieldError, match="expected a row of 4 elements"):
        RowEliminator(eliminator_field, 2, 4).pack([1, 0, 1])


def test_row_eliminator_refuses_fields_wider_than_a_byte():
    with pytest.raises(BackendError, match=r"GF\(257\) does not fit"):
        RowEliminator(GF(257), 1, 4)


# ----------------------------------------------------------------------
# Kernel conformance: the one-shot kernels vs the eliminator
# ----------------------------------------------------------------------

#: Field orders of the kernel cross-check.
FIELD_ORDERS = (2, 3, 16, 256)


def _random_matrix(rng: np.random.Generator, field, rows: int, cols: int):
    matrix = rng.integers(0, field.order, size=(rows, cols))
    # Duplicate a row half the time so dependent-row handling is hit.
    if rows >= 2 and rng.random() < 0.5:
        matrix[rows - 1] = matrix[0]
    return field.validate(matrix)


def _absorb(field, matrix, *, augmented_columns: int = 0) -> RowEliminator:
    """A one-problem eliminator fed ``matrix`` row by row."""
    eliminator = RowEliminator(
        field, 1, matrix.shape[1], augmented_columns=augmented_columns
    )
    for row in matrix:
        eliminator.eliminate_one(0, eliminator.pack(row))
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
            basis = _absorb(field, matrix).basis(0)
            assert _pivots_of(basis) == pivots
            assert np.array_equal(basis, reduced[: len(pivots)])
            assert not reduced[len(pivots):].any(), (rows, cols)

    def test_row_reduce_augmented_matches_eliminator_basis(self, order):
        """Coded packets ``[C | C·X]``: pivots only in ``C``, payloads carried."""
        field = GF(order)
        rng = np.random.default_rng(77 + order)
        for rows, cols, aug in [(4, 6, 2), (5, 9, 4), (9, 80, 16), (12, 10, 2)]:
            coefficients = _random_matrix(rng, field, rows, cols - aug)
            messages = field.validate(rng.integers(0, order, size=(cols - aug, aug)))
            packets = np.hstack([coefficients, matmul(field, coefficients, messages)])
            reduced, pivots = row_reduce(field, packets, augmented_columns=aug)
            eliminator = _absorb(field, packets, augmented_columns=aug)
            basis = eliminator.basis(0)
            assert eliminator.ranks == [len(pivots)]
            assert _pivots_of(basis) == pivots
            assert np.array_equal(basis, reduced[: len(pivots)])
            assert not reduced[len(pivots):].any(), (rows, cols, aug)

    def test_rank_matches_eliminator_rank(self, order):
        field = GF(order)
        rng = np.random.default_rng(11 + order)
        for rows, cols in [(1, 4), (6, 6), (10, 4), (4, 100)]:
            matrix = _random_matrix(rng, field, rows, cols)
            assert _absorb(field, matrix).ranks == [rank(field, matrix)]

    def test_rank_of_empty_matrix(self, order):
        field = GF(order)
        empty = field.zeros((0, 5))
        unit = field.zeros(5)
        unit[0] = 1
        assert rank(field, empty) == 0
        assert is_in_row_space(field, empty, field.zeros(5))
        assert not is_in_row_space(field, empty, unit)
        eliminator = RowEliminator(field, 2, 5)
        assert eliminator.ranks == [0, 0]
        assert eliminator.basis(0).shape == (0, 5)
        assert not eliminator.eliminate_one(0, eliminator.pack(field.zeros(5)))
        assert eliminator.eliminate_one(1, eliminator.pack(unit))
        assert eliminator.ranks == [0, 1]

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
        eliminator = RowEliminator(field, len(probes), 9)
        for problem in range(len(probes)):
            for row in matrix:
                eliminator.eliminate_one(problem, eliminator.pack(row))
        helpful = [
            eliminator.eliminate_one(problem, eliminator.pack(probe))
            for problem, probe in enumerate(probes)
        ]
        assert helpful == [not is_in_row_space(field, matrix, probe) for probe in probes]


# ----------------------------------------------------------------------
# Row eliminator: generated traces against row_reduce
# ----------------------------------------------------------------------

#: GF(2) bit rows; XOR byte rows (4, 16, 256); table-added byte rows
#: (the primes 3, 5, 251 and the odd extension field 9).
ROW_FIELD_ORDERS = (2, 3, 4, 5, 9, 16, 251, 256)


@st.composite
def row_traces(draw):
    """A width, an augmented-column count, and a trace on 1–3 problems.

    Steps absorb rows, encodes, another problem's basis (``feed``, into the
    problem its seed names, so problems often come to span equal subspaces)
    or reset.  With augmented columns every row is a consistent coded
    packet ``[c | c·X]`` for one message matrix ``X`` per trace.
    """
    columns = draw(st.integers(1, 70))
    augmented = min(draw(st.one_of(st.just(0), st.integers(1, 8))), columns - 1)
    problems = draw(st.integers(1, 3))
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, problems - 1),
            st.sampled_from(["row", "sparse-row", "combine", "feed", "reset"]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=40,
    ))
    return columns, augmented, problems, steps


@pytest.mark.parametrize("order", ROW_FIELD_ORDERS)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=row_traces())
# On every field, seeds 0 and 2 draw width-2 rows with equal pivot masks but
# different subspaces; the feed then makes the two subspaces equal.
@example(trace=(2, 0, 2, [(0, "row", 0), (1, "row", 2), (1, "reset", 0), (0, "feed", 1)]))
# Coded packets up to full rank, then more: the decoder's shape.
@example(trace=(5, 2, 1, [(0, "row", seed) for seed in range(8)] + [(0, "combine", 1)]))
def test_row_eliminator_matches_row_reduce(order, trace):
    """After every step: the helpfulness flag is whether ``row_reduce`` of
    the problem's rows gains rank, and the ranks, pivots and stored rows are
    ``row_reduce``'s canonical basis; every encode (coefficients as a list
    or an array) equals ``field.dot`` of that basis; and
    ``same_subspace(a, b)`` holds exactly when the two bases are equal."""
    columns, augmented, problems, steps = trace
    field = GF(order)
    width = columns - augmented
    messages = field.random_elements(
        np.random.default_rng([columns, augmented]), (width, augmented)
    )
    rows = RowEliminator(field, problems, columns, augmented_columns=augmented)
    # Per problem, row_reduce's canonical basis of everything it absorbed.
    oracle = [field.zeros((0, columns)) for _ in range(problems)]

    def absorb(index: int, row: np.ndarray) -> None:
        reduced, pivots = row_reduce(
            field, np.vstack([oracle[index], row]), augmented_columns=augmented
        )
        helpful = len(pivots) > len(oracle[index])
        assert rows.eliminate_one(index, rows.pack(row)) == helpful
        oracle[index] = reduced[: len(pivots)]

    for index, action, seed in steps:
        rng = np.random.default_rng(seed)
        if action == "reset":
            rows.reset(index)
            oracle[index] = field.zeros((0, columns))
        elif action == "feed":
            for row in oracle[index].copy():
                absorb(seed % problems, row)
        elif action == "combine":
            coefficients = field.random_elements(rng, rows.ranks[index])
            # combine_one takes a plain list (the event engine's form) or an array.
            packed = rows.combine_one(
                index, coefficients.tolist() if seed % 2 else coefficients
            )
            row = field.dot(coefficients, oracle[index])
            assert np.array_equal(rows.unpack(packed), row)
            absorb(index, row)
        else:
            coefficients = field.random_elements(rng, width)
            if action == "sparse-row":
                coefficients[rng.random(width) < 0.8] = 0
            absorb(index, np.concatenate([coefficients, field.dot(coefficients, messages)]))
        assert rows.ranks == [len(basis) for basis in oracle]
        for problem, basis in enumerate(oracle):
            assert np.array_equal(rows.basis(problem), basis)
            assert _mask_columns(rows, problem) == _pivots_of(basis)
        for a in range(problems):
            for b in range(problems):
                equal = oracle[a].shape == oracle[b].shape and np.array_equal(
                    oracle[a], oracle[b]
                )
                assert rows.same_subspace(a, b) == equal


@pytest.mark.parametrize("order", [2, 3, 16])
def test_augmented_row_with_zero_coefficient_part_is_not_helpful(order):
    """Helpfulness is decided on the coefficient part only (Definition 3):
    a row that reduces to ``[0 | p]`` with ``p != 0`` leaves the problem
    untouched, at any rank and at full rank."""
    field = GF(order)
    rows = RowEliminator(field, 1, 5, augmented_columns=2)
    assert not rows.eliminate_one(0, rows.pack([0, 0, 0, 1, 1]))
    assert rows.eliminate_one(0, rows.pack([1, 1, 0, 1, 0]))
    # Same coefficient part, different payload: reduces to [0 0 0 | 0 1].
    assert not rows.eliminate_one(0, rows.pack([1, 1, 0, 1, 1]))
    assert rows.ranks == [1]
    assert rows.basis(0).tolist() == [[1, 1, 0, 1, 0]]
    for row in ([0, 1, 0, 0, 0], [0, 0, 1, 1, 1]):
        assert rows.eliminate_one(0, rows.pack(row))
    # Full rank: the payload rows are kept (no identity shortcut).
    assert rows.ranks == [3]
    assert not rows.eliminate_one(0, rows.pack([1, 0, 0, 1, 1]))
    assert rows.basis(0).tolist() == [[1, 0, 0, 1, 0], [0, 1, 0, 0, 0], [0, 0, 1, 1, 1]]


def test_eliminators_share_their_field_tables():
    """The byte-row tables are built once per field order, not per instance."""
    first, second = RowEliminator(GF(16), 2, 8), RowEliminator(GF(16), 5, 3)
    for name in ("_scale", "_inverse", "_negate", "_planes"):
        assert getattr(first, name) is getattr(second, name), name
    assert RowEliminator(GF(4), 1, 8)._scale is not first._scale
