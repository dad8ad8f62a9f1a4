"""The backend conformance suite: every registered backend, one contract.

The :mod:`repro.backends` seam promises that compute backends are
**bit-identical by contract** — same inputs, same seeds, same observable
state — which is what lets ``ScenarioSpec.fingerprint()`` ignore the backend
and the result store treat records from any backend as interchangeable.
This module is where that promise is enforced, for every backend
``all_backends()`` reports (a future numba/cupy backend lands in this matrix
automatically):

* **kernel conformance** — ``row_reduce`` / ``rank`` / ``is_in_row_space``
  agree with the dense numpy reference on seeded random matrices, including
  augmented columns, dependent rows and degenerate shapes;
* **eliminator conformance** — long random incremental traces through
  ``make_eliminator`` produce identical helpful masks, ranks, pivot masks,
  bases and ``combine`` outputs, scalar (batch=1) and batched alike;
* **end-to-end equivalence** — on a matrix of registry scenarios flipped to
  GF(2), the sequential scalar engine and the vectorised batch engine under
  every backend reproduce the numpy reference signatures trial-for-trial;
* **typed refusal** — the ``gf2bit`` backend rejects every ``q != 2`` entry
  point with :class:`~repro.errors.BackendError` instead of silently
  falling back;
* **store invariance** — a scenario measured under one backend is a full
  cache hit (``puts == 0``) when re-measured under another.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    BACKEND_ENV,
    ComputeBackend,
    EliminatorState,
    all_backends,
    current_backend,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    use_backend,
)
from repro.errors import BackendError, ConfigurationError
from repro.gf import GF
from repro.scenarios import ScenarioSpec, get_scenario
from repro.store import ResultStore

NUMPY = get_backend("numpy")

#: Field orders each backend is conformance-tested on (the ones it supports).
FIELD_ORDERS = (2, 3, 16, 256)


def _supported_orders(backend: ComputeBackend) -> list[int]:
    return [q for q in FIELD_ORDERS if backend.supports_field(GF(q))]


def _random_matrix(rng: np.random.Generator, field, rows: int, cols: int):
    matrix = rng.integers(0, field.order, size=(rows, cols))
    # Mix in duplicated and scaled rows so dependent-row handling is hit.
    if rows >= 2 and rng.random() < 0.5:
        matrix[rows - 1] = matrix[0]
    return field.validate(matrix)


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------


class TestRegistry:
    def test_both_shipped_backends_registered(self):
        assert {"numpy", "gf2bit"} <= set(all_backends())

    def test_get_backend_unknown_name(self):
        with pytest.raises(BackendError, match="unknown compute backend"):
            get_backend("definitely-not-a-backend")

    def test_use_backend_unknown_name_fails_on_entry(self):
        with pytest.raises(BackendError, match="unknown compute backend"):
            with use_backend("definitely-not-a-backend"):
                pragma = "never reached"  # pragma: no cover
                assert pragma

    def test_use_backend_nests_and_restores(self):
        before = current_backend().name
        with use_backend("gf2bit"):
            assert current_backend().name == "gf2bit"
            with use_backend("numpy"):
                assert current_backend().name == "numpy"
            assert current_backend().name == "gf2bit"
        assert current_backend().name == before

    def test_use_backend_falsy_name_is_passthrough(self):
        with use_backend("gf2bit"):
            with use_backend("") as backend:
                assert backend.name == "gf2bit"
            with use_backend(None) as backend:
                assert backend.name == "gf2bit"

    def test_resolve_backend_accepts_instance_name_and_none(self):
        assert resolve_backend(NUMPY) is NUMPY
        assert resolve_backend("gf2bit").name == "gf2bit"
        with use_backend("gf2bit"):
            assert resolve_backend(None).name == "gf2bit"
            assert resolve_backend("").name == "gf2bit"

    def test_env_variable_sets_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "gf2bit")
        assert default_backend_name() == "gf2bit"
        assert current_backend().name == "gf2bit"
        monkeypatch.setenv(BACKEND_ENV, "  ")
        assert default_backend_name() == "numpy"

    def test_register_backend_requires_name(self):
        class Anonymous(ComputeBackend):
            name = ""

            def supports_field(self, field):  # pragma: no cover
                return False

            def row_reduce(self, field, matrix, *, augmented_columns=0):
                raise NotImplementedError  # pragma: no cover

            def rank(self, field, matrix):
                raise NotImplementedError  # pragma: no cover

            def is_in_row_space(self, field, matrix, vector):
                raise NotImplementedError  # pragma: no cover

            def make_eliminator(self, field, batch, columns, *, augmented_columns=0):
                raise NotImplementedError  # pragma: no cover

        with pytest.raises(BackendError, match="no registry name"):
            register_backend(Anonymous())

    def test_every_backend_supports_gf2(self):
        # GF(2) is the shared floor of the conformance matrix: every backend
        # must support it so the cross-backend scenarios below always run.
        for name in all_backends():
            assert get_backend(name).supports_field(GF(2)), name


# ----------------------------------------------------------------------
# Kernel conformance: row_reduce / rank / is_in_row_space
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", all_backends())
class TestKernelConformance:
    """Seeded random matrices: every kernel agrees with the numpy reference."""

    def test_row_reduce_matches_reference(self, backend_name):
        backend = get_backend(backend_name)
        rng = np.random.default_rng(2024)
        for order in _supported_orders(backend):
            field = GF(order)
            for rows, cols in [(1, 1), (3, 5), (5, 3), (8, 8), (6, 70), (17, 130)]:
                matrix = _random_matrix(rng, field, rows, cols)
                want, want_pivots = NUMPY.row_reduce(field, matrix)
                got, got_pivots = backend.row_reduce(field, matrix)
                assert got_pivots == want_pivots, (order, rows, cols)
                assert np.array_equal(got, want), (order, rows, cols)

    def test_row_reduce_augmented_matches_reference(self, backend_name):
        backend = get_backend(backend_name)
        rng = np.random.default_rng(77)
        for order in _supported_orders(backend):
            field = GF(order)
            for rows, cols, aug in [(4, 6, 2), (5, 9, 4), (9, 80, 16)]:
                matrix = _random_matrix(rng, field, rows, cols)
                want, want_pivots = NUMPY.row_reduce(
                    field, matrix, augmented_columns=aug
                )
                got, got_pivots = backend.row_reduce(
                    field, matrix, augmented_columns=aug
                )
                assert got_pivots == want_pivots
                assert np.array_equal(got, want)

    def test_rank_matches_reference(self, backend_name):
        backend = get_backend(backend_name)
        rng = np.random.default_rng(11)
        for order in _supported_orders(backend):
            field = GF(order)
            for rows, cols in [(1, 4), (6, 6), (10, 4), (4, 100)]:
                matrix = _random_matrix(rng, field, rows, cols)
                assert backend.rank(field, matrix) == NUMPY.rank(field, matrix)

    def test_rank_of_empty_matrix(self, backend_name):
        backend = get_backend(backend_name)
        for order in _supported_orders(backend):
            field = GF(order)
            empty = field.zeros((0, 5))
            assert backend.rank(field, empty) == 0

    def test_is_in_row_space_matches_reference(self, backend_name):
        backend = get_backend(backend_name)
        rng = np.random.default_rng(5150)
        for order in _supported_orders(backend):
            field = GF(order)
            matrix = _random_matrix(rng, field, 4, 9)
            # Mix guaranteed members (random combinations of the rows) with
            # random probes that are usually outside the span.
            probes = [field.zeros(9)]
            for _ in range(6):
                coefficients = field.validate(rng.integers(0, field.order, size=4))
                member = field.zeros(9)
                for coefficient, row in zip(coefficients, matrix):
                    member = field.add(member, field.scalar_mul(int(coefficient), row))
                probes.append(member)
                probes.append(field.validate(rng.integers(0, field.order, size=9)))
            for probe in probes:
                assert backend.is_in_row_space(field, matrix, probe) == (
                    NUMPY.is_in_row_space(field, matrix, probe)
                )


# ----------------------------------------------------------------------
# Eliminator conformance: incremental traces, scalar and batched
# ----------------------------------------------------------------------


def _trace_eliminators(
    backend: ComputeBackend,
    field,
    *,
    batch: int,
    columns: int,
    augmented_columns: int,
    sweeps: int,
    seed: int,
) -> list[tuple]:
    """Drive one eliminator through a seeded random trace; log everything."""
    rng = np.random.default_rng(seed)
    eliminator = backend.make_eliminator(
        field, batch, columns, augmented_columns=augmented_columns
    )
    assert isinstance(eliminator, EliminatorState)
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


@pytest.mark.parametrize("backend_name", all_backends())
@pytest.mark.parametrize(
    "batch,columns,augmented_columns",
    [(1, 12, 0), (1, 18, 6), (4, 20, 0), (4, 20, 4), (3, 130, 64)],
    ids=["scalar", "scalar-augmented", "batched", "batched-augmented", "multiword"],
)
def test_eliminator_trace_matches_reference(
    backend_name, batch, columns, augmented_columns
):
    backend = get_backend(backend_name)
    for order in _supported_orders(backend):
        field = GF(order)
        kwargs = dict(
            batch=batch,
            columns=columns,
            augmented_columns=augmented_columns,
            sweeps=40,
            seed=1234 + order,
        )
        assert _trace_eliminators(backend, field, **kwargs) == (
            _trace_eliminators(NUMPY, field, **kwargs)
        ), f"GF({order})"


@pytest.mark.parametrize("backend_name", all_backends())
def test_eliminator_validation_matches_reference(backend_name):
    """Constructor validation is part of the contract (same typed errors)."""
    from repro.errors import FieldError

    backend = get_backend(backend_name)
    field = GF(_supported_orders(backend)[0])
    with pytest.raises(FieldError, match="batch size must be positive"):
        backend.make_eliminator(field, 0, 4)
    with pytest.raises(FieldError, match="column count must be positive"):
        backend.make_eliminator(field, 2, 0)
    with pytest.raises(FieldError, match="augmented_columns"):
        backend.make_eliminator(field, 2, 4, augmented_columns=4)


# ----------------------------------------------------------------------
# gf2bit refuses non-binary fields (no silent fallback)
# ----------------------------------------------------------------------


class TestGf2BitRejectsOtherFields:
    """Satellite: ``q != 2`` must be a typed, loud :class:`BackendError`."""

    BACKEND = get_backend("gf2bit")

    @pytest.mark.parametrize("order", [3, 16, 256])
    def test_every_entry_point_refuses(self, order):
        field = GF(order)
        matrix = field.zeros((2, 4))
        with pytest.raises(BackendError, match=r"only supports GF\(2\)"):
            self.BACKEND.row_reduce(field, matrix)
        with pytest.raises(BackendError, match=r"only supports GF\(2\)"):
            self.BACKEND.rank(field, matrix)
        with pytest.raises(BackendError, match=r"only supports GF\(2\)"):
            self.BACKEND.is_in_row_space(field, matrix, field.zeros(4))
        with pytest.raises(BackendError, match=r"only supports GF\(2\)"):
            self.BACKEND.make_eliminator(field, 1, 4)

    def test_error_names_the_offending_field(self):
        with pytest.raises(BackendError, match=r"got GF\(16\)"):
            self.BACKEND.rank(GF(16), GF(16).zeros((1, 1)))

    def test_supports_field_reports_without_raising(self):
        assert self.BACKEND.supports_field(GF(2))
        assert not self.BACKEND.supports_field(GF(16))

    def test_scenario_spec_rejects_incompatible_backend_eagerly(self):
        with pytest.raises(ConfigurationError, match="does not support GF\\(16\\)"):
            ScenarioSpec(topology="ring", n=8, backend="gf2bit").with_config(
                field_size=2
            )  # the base spec (field_size=16) already fails

    def test_scenario_spec_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            ScenarioSpec(topology="ring", n=8, backend="not-a-backend")


# ----------------------------------------------------------------------
# End-to-end: scalar vs batch vs backend on registry scenarios
# ----------------------------------------------------------------------

#: Registry scenarios for the stopping-time equivalence matrix — a spread of
#: protocols (uniform AG, TAG over two tree protocols, standalone tree),
#: topologies, time models, churn and heterogeneous activation.  Each is
#: flipped to GF(2) so the matrix exercises every backend.
EQUIVALENCE_SCENARIOS = (
    "uniform/complete",
    "uniform/ring",
    "uniform/barbell",
    "tag/brr-barbell",
    "tag/is-barbell",
    "tree/brr-broadcast-barbell",
    "churn/ring-crash-restart",
    "hetero/two-speed-ring",
)

EQUIVALENCE_TRIALS = 2


def _signature(results):
    return [
        (
            result.rounds,
            result.timeslots,
            result.completed,
            result.messages_sent,
            result.helpful_messages,
            tuple(sorted(result.completion_rounds.items())),
            tuple(sorted(result.metadata.items())),
        )
        for result in results
    ]


def _gf2_spec(name: str) -> ScenarioSpec:
    return get_scenario(name).with_config(field_size=2).replace(
        trials=EQUIVALENCE_TRIALS
    )


@pytest.fixture(scope="module")
def reference_signatures():
    """Numpy sequential-engine signatures, computed once per scenario."""
    from repro.analysis.stopping_time import measure_protocol

    signatures = {}
    for name in EQUIVALENCE_SCENARIOS:
        scenario = _gf2_spec(name).materialize()
        with use_backend("numpy"):
            results = measure_protocol(
                scenario.graph,
                scenario.protocol_factory,
                scenario.config,
                trials=EQUIVALENCE_TRIALS,
                seed=scenario.spec.seed,
            )
        signatures[name] = _signature(results)
    return signatures


@pytest.mark.parametrize("backend_name", all_backends())
@pytest.mark.parametrize("scenario_name", EQUIVALENCE_SCENARIOS)
class TestScenarioEquivalence:
    """Scalar and batch engines reproduce the reference under every backend."""

    def test_sequential_scalar_engine_matches(
        self, backend_name, scenario_name, reference_signatures
    ):
        from repro.analysis.stopping_time import measure_protocol

        scenario = _gf2_spec(scenario_name).materialize()
        with use_backend(backend_name):
            results = measure_protocol(
                scenario.graph,
                scenario.protocol_factory,
                scenario.config,
                trials=EQUIVALENCE_TRIALS,
                seed=scenario.spec.seed,
            )
        assert _signature(results) == reference_signatures[scenario_name]

    def test_batch_engine_matches(
        self, backend_name, scenario_name, reference_signatures
    ):
        from repro.experiments.parallel import measure_protocol_parallel

        spec = _gf2_spec(scenario_name).replace(backend=backend_name)
        results = measure_protocol_parallel(spec, jobs=1)
        assert _signature(results) == reference_signatures[scenario_name]


# ----------------------------------------------------------------------
# Store invariance: the cache is backend-blind
# ----------------------------------------------------------------------


class TestStoreBackendInvariance:
    """Satellite: same fingerprint, same records, zero recomputation."""

    def _spec(self, backend: str) -> ScenarioSpec:
        return (
            get_scenario("uniform/complete")
            .with_config(field_size=2)
            .replace(trials=3, backend=backend)
        )

    def test_fingerprint_ignores_backend(self):
        fingerprints = {self._spec(name).fingerprint() for name in all_backends()}
        fingerprints.add(self._spec("").fingerprint())
        assert len(fingerprints) == 1

    def test_backend_excluded_from_fingerprint_payload(self):
        assert "backend" not in self._spec("gf2bit").fingerprint_payload()

    def test_cross_backend_rerun_is_pure_cache_hit(self, tmp_path):
        from repro.experiments.parallel import measure_protocol_parallel

        store = ResultStore(tmp_path)
        first = measure_protocol_parallel(self._spec("numpy"), store=store, jobs=1)
        assert store.puts == 3 and store.hits == 0

        rerun_store = ResultStore(tmp_path)
        second = measure_protocol_parallel(
            self._spec("gf2bit"), store=rerun_store, jobs=1
        )
        assert rerun_store.hits == 3
        assert rerun_store.puts == 0
        assert _signature(second) == _signature(first)

    def test_records_land_in_the_same_shard(self, tmp_path):
        from repro.experiments.parallel import measure_protocol_parallel

        store = ResultStore(tmp_path)
        measure_protocol_parallel(self._spec("gf2bit"), store=store, jobs=1)
        assert store.fingerprints() == [self._spec("numpy").fingerprint()]
        assert store.trial_keys(self._spec("numpy").fingerprint()) == [
            (self._spec("numpy").seed, trial) for trial in range(3)
        ]
