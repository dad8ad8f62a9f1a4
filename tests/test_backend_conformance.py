"""The eliminator conformance suite: packed and row eliminators, one contract.

:func:`repro.backends.make_eliminator` lets the field pick the eliminator —
:class:`~repro.backends.gf2bit.PackedGf2Eliminator` over ``GF(2)``, the dense
:class:`~repro.gf.linalg.BatchEliminator` over every other field — and the
event engine runs on :class:`~repro.backends.rows.RowEliminator`.  All three
are **bit-identical by contract**, which is what lets results, fingerprints
and stored records ignore the choice.  This module holds the packed and the
row eliminators to the dense reference:

* **selection** — the field decides, and patching
  ``repro.backends.make_eliminator`` reaches every decoder, while the event
  engine always runs on python-int rows;
* **kernel conformance** — the one-shot ``gf.linalg`` kernels
  (``row_reduce`` / ``rank`` / ``is_in_row_space``) and the incremental
  eliminator the field picks describe the same row spaces, over GF(2),
  GF(3), GF(16) and GF(256);
* **eliminator conformance** — long random incremental traces produce
  identical helpful masks, ranks, pivot masks, bases and ``combine``
  outputs, scalar (batch=1) and batched alike; generated single-problem
  traces with resets hold ``RowEliminator`` to the dense reference over
  prime, binary-extension and odd-extension fields;
* **end-to-end equivalence** — generated GF(2) scenarios give the same
  ``RunResult`` on the scalar engine with the packed eliminator and on the
  event engine as on the scalar engine with the dense one forced;
* **typed refusal** — the packed eliminator, constructed directly, rejects
  ``q != 2`` with :class:`~repro.errors.BackendError`, and so do the batch
  eliminators' retired single-problem entry points;
* **store invariance** — records computed on the dense eliminator are pure
  cache hits for a packed run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import (
    EliminatorState,
    PackedGf2Eliminator,
    RowEliminator,
    make_eliminator,
)
from repro.core import GossipAction, TimeModel
from repro.errors import BackendError, FieldError
from repro.gf import GF
from repro.gf.linalg import (
    BatchEliminator,
    is_in_row_space,
    matmul,
    rank,
    row_reduce,
)
from repro.gossip import EventGossipEngine
from repro.rlnc import RlncDecoder
from repro.scenarios import ScenarioSpec, default_scenario_config, get_scenario
from repro.store import ResultStore

# ----------------------------------------------------------------------
# Selection: the field picks the eliminator
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "order,expected",
    [(2, PackedGf2Eliminator), (3, BatchEliminator), (16, BatchEliminator),
     (256, BatchEliminator)],
)
def test_field_picks_the_eliminator(order, expected):
    eliminator = make_eliminator(GF(order), 3, 10, augmented_columns=2)
    assert type(eliminator) is expected
    assert isinstance(eliminator, EliminatorState)
    assert eliminator.pivot_mask.shape == (3, 8)


def test_decoders_and_engines_build_through_make_eliminator(force_dense):
    """Forcing dense reaches every decoder, each looks it up per call; the
    event engine runs on python-int rows whatever the patch says."""
    gf2 = GF(2)
    assert type(RlncDecoder(gf2, 3, 1)._eliminator) is PackedGf2Eliminator
    scenario = get_scenario("event/er-logn").replace(n=32, trials=1).materialize()
    rng = np.random.default_rng(0)
    process = scenario.build_process(rng)
    event = EventGossipEngine(scenario.graph, process, scenario.config, rng)
    assert type(event._eliminator) is RowEliminator
    with force_dense():
        assert type(RlncDecoder(gf2, 3, 1)._eliminator) is BatchEliminator
        event = EventGossipEngine(scenario.graph, process, scenario.config, rng)
        assert type(event._eliminator) is RowEliminator


def test_eliminator_state_requires_every_hot_path_method():
    """The contract has no default bodies: a partial eliminator cannot exist."""

    class Partial(EliminatorState):
        def eliminate(self, incoming, indices=None):  # pragma: no cover
            raise NotImplementedError

        def rank_of(self, index):  # pragma: no cover
            raise NotImplementedError

    with pytest.raises(TypeError, match="basis.*combine"):
        Partial()


@pytest.mark.parametrize("order", [2, 16])
def test_batch_eliminators_refuse_single_problem_calls(order):
    """Single-problem elimination moved to RowEliminator: the batch
    eliminators keep the names (a benchmark tracer patches them), each a
    typed refusal."""
    eliminator = make_eliminator(GF(order), 2, 4)
    with pytest.raises(BackendError, match="moved to RowEliminator"):
        eliminator.combine_one(0, [])
    with pytest.raises(BackendError, match="moved to RowEliminator"):
        eliminator.eliminate_one(0, 0)


# ----------------------------------------------------------------------
# Kernel conformance: the one-shot kernels vs the eliminator
# ----------------------------------------------------------------------

#: Field orders of the kernel cross-check: GF(2) picks the packed
#: eliminator, the others the dense one.
FIELD_ORDERS = (2, 3, 16, 256)

_PROBLEM_0 = np.zeros(1, np.int64)


def _random_matrix(rng: np.random.Generator, field, rows: int, cols: int):
    matrix = rng.integers(0, field.order, size=(rows, cols))
    # Duplicate a row half the time so dependent-row handling is hit.
    if rows >= 2 and rng.random() < 0.5:
        matrix[rows - 1] = matrix[0]
    return field.validate(matrix)


def _absorb(field, matrix, *, augmented_columns: int = 0):
    """A one-problem eliminator (picked by the field) fed ``matrix`` row by row."""
    eliminator = make_eliminator(
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
        eliminator = make_eliminator(field, 2, 5)
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
        eliminator = make_eliminator(field, len(probes), 9)
        for row in matrix:
            eliminator.eliminate(np.tile(row, (len(probes), 1)), problems)
        helpful = eliminator.eliminate(np.stack(probes), problems)
        assert helpful.tolist() == [
            not is_in_row_space(field, matrix, probe) for probe in probes
        ]


# ----------------------------------------------------------------------
# Eliminator conformance: incremental traces, scalar and batched
# ----------------------------------------------------------------------


def _trace_eliminator(
    eliminator_cls,
    *,
    batch: int,
    columns: int,
    augmented_columns: int,
    sweeps: int,
    seed: int,
) -> list[tuple]:
    """Drive one GF(2) eliminator through a seeded random trace; log everything."""
    field = GF(2)
    rng = np.random.default_rng(seed)
    eliminator = eliminator_cls(
        field, batch, columns, augmented_columns=augmented_columns
    )
    log: list[tuple] = []
    for _ in range(sweeps):
        m = int(rng.integers(1, batch + 1))
        indices = rng.choice(batch, size=m, replace=False).astype(np.int64)
        rows = field.validate(rng.integers(0, field.order, size=(m, columns)))
        helpful = eliminator.eliminate(rows, indices)
        probe = int(rng.integers(0, batch))
        basis = eliminator.basis(probe)
        coefficients = field.validate(
            rng.integers(0, field.order, size=basis.shape[0])
        )
        log.append(
            (
                helpful.tolist(),
                eliminator.ranks.tolist(),
                eliminator.pivot_mask.tolist(),
                basis.tolist(),
                eliminator.combine(probe, coefficients).tolist(),
            )
        )
    return log


@pytest.mark.parametrize(
    "batch,columns,augmented_columns",
    [(1, 12, 0), (1, 18, 6), (4, 20, 0), (4, 20, 4), (3, 130, 64)],
    ids=["scalar", "scalar-augmented", "batched", "batched-augmented", "multiword"],
)
def test_packed_trace_matches_dense(batch, columns, augmented_columns):
    kwargs = dict(
        batch=batch,
        columns=columns,
        augmented_columns=augmented_columns,
        sweeps=40,
        seed=1236,
    )
    assert _trace_eliminator(PackedGf2Eliminator, **kwargs) == (
        _trace_eliminator(BatchEliminator, **kwargs)
    )


def test_eliminator_validation_matches(eliminator_field):
    """Constructor validation is part of the contract (same typed errors)."""
    with pytest.raises(FieldError, match="batch size must be positive"):
        make_eliminator(eliminator_field, 0, 4)
    with pytest.raises(FieldError, match="column count must be positive"):
        make_eliminator(eliminator_field, 2, 0)
    with pytest.raises(FieldError, match="augmented_columns"):
        make_eliminator(eliminator_field, 2, 4, augmented_columns=4)


@pytest.mark.parametrize("order", [3, 16, 256])
def test_packed_eliminator_refuses_other_fields(order):
    """No silent fallback: ``q != 2`` is a typed, loud error naming the field."""
    with pytest.raises(BackendError, match=rf"only supports GF\(2\), got GF\({order}\)"):
        PackedGf2Eliminator(GF(order), 1, 4)


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


# ----------------------------------------------------------------------
# End-to-end: generated GF(2) scenarios, every eligible engine
# ----------------------------------------------------------------------

TRIALS = 2


@st.composite
def gf2_specs(draw) -> ScenarioSpec:
    """A valid GF(2) scenario over the protocol, time and churn axes."""
    protocol = draw(st.sampled_from(["uniform", "tag", "spanning_tree"]))
    time_model = draw(st.sampled_from(list(TimeModel)))
    churn = draw(st.sampled_from(
        ["none", "pause"] if protocol == "spanning_tree" else ["none", "pause", "reset"]
    ))
    schedule = ()
    if churn != "none":
        down = draw(st.integers(1, 4))
        schedule = ((draw(st.integers(0, 3)), down, down + draw(st.integers(1, 6))),)
    activation = {}
    if time_model is TimeModel.ASYNCHRONOUS and draw(st.booleans()):
        activation = {
            "kind": "two_speed",
            "ratio": draw(st.sampled_from([2.0, 4.0])),
            "fast_fraction": draw(st.sampled_from([0.25, 0.5])),
        }
    n = draw(st.integers(4, 24))
    return ScenarioSpec(
        topology=draw(
            st.sampled_from(["ring", "grid", "complete", "barbell", "binary_tree"])
        ),
        n=n,
        k=draw(st.integers(1, min(n, 8))),
        protocol=protocol,
        spanning_tree=draw(st.sampled_from(["brr", "is", "uniform_broadcast"])),
        activation=activation,
        config=default_scenario_config(time_model=time_model, field_size=2).replace(
            action=draw(st.sampled_from(list(GossipAction))),
            loss_probability=draw(st.sampled_from([0.0, 0.1])),
            churn=schedule,
            churn_reset=churn == "reset",
        ),
        trials=TRIALS,
        seed=draw(st.integers(0, 2**31 - 1)),
    )


def _measure(spec: ScenarioSpec, engine: str):
    return spec.replace(engine=engine).materialize().measure()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=gf2_specs())
def test_packed_engines_match_dense_scalar(force_dense, spec):
    """The scalar engine on the packed eliminator and the event engine on
    python-int rows (or, for a standalone tree, on the tree object alone)
    reproduce the dense scalar reference trial-for-trial."""
    with force_dense():
        reference = _measure(spec, "scalar")
    for engine in ("scalar", "event"):
        assert _measure(spec, engine) == reference, engine


# ----------------------------------------------------------------------
# Store invariance: the cache is eliminator-blind
# ----------------------------------------------------------------------


def test_dense_records_serve_a_packed_run(tmp_path, force_dense):
    """Same fingerprint, same shard, zero recomputation across eliminators."""
    # Pinned to the scalar engine: the event engine has its own eliminator.
    spec = get_scenario("uniform/complete").with_config(field_size=2).replace(
        trials=3, engine="scalar"
    )
    with force_dense():
        first = spec.materialize().measure(store=ResultStore(tmp_path))
    store = ResultStore(tmp_path)
    assert store.fingerprints() == [spec.fingerprint()]
    assert store.trial_keys(spec.fingerprint()) == [
        (spec.seed, trial) for trial in range(3)
    ]
    second = spec.materialize().measure(store=store)
    assert store.hits == 3 and store.puts == 0
    assert second == first
