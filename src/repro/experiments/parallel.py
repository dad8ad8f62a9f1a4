"""Batched and multi-process Monte Carlo trial runners.

The stopping-time statistics everywhere in this repository are Monte Carlo
estimates over independent seeded trials.  This module provides three
increasingly aggressive — but **bit-identical** — ways of running them:

* :func:`~repro.analysis.stopping_time.measure_protocol` (sequential, in
  :mod:`repro.analysis.stopping_time`): one
  :class:`~repro.gossip.engine.GossipEngine` per trial, scalar decoders.
* :func:`measure_protocol_batched` / :func:`run_trials_batched`: all trials
  in one vectorised batch engine when the protocol declares one through
  :meth:`~repro.gossip.engine.GossipProcess.batch_strategy` (uniform
  algebraic gossip, TAG with every built-in spanning-tree protocol, and
  standalone spanning-tree broadcasts all do), falling back to the
  sequential engine otherwise.
* :func:`measure_protocol_parallel` / :func:`run_trials_parallel`: the trial
  set split across worker processes with a ``ProcessPoolExecutor``, each
  worker running the batched engine on its chunk.

Reproducibility is anchored in :mod:`repro.core.rng`: trial ``i`` always uses
the generator ``derive_rng(seed, f"trial-{i}")`` regardless of which runner
executes it, which worker process it lands on, or how trials are chunked — so
all three runners return the same results trial-for-trial.

Every runner also accepts a :class:`~repro.scenarios.ScenarioSpec` (or an
already-materialised :class:`~repro.scenarios.MaterializedScenario`) in place
of the ``(graph, protocol_factory, config)`` triple; the spec's trial/seed
plan fills in ``trials``/``seed`` when those are not given explicitly::

    run_trials_batched(get_scenario("tag/brr-barbell"))
"""

from __future__ import annotations

import contextlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Iterator, Sequence

import networkx as nx

from ..core.config import SimulationConfig
from ..core.results import RunResult, StoppingTimeStats, aggregate_results
from ..core.rng import derive_rng
from ..errors import AnalysisError
from ..analysis.stopping_time import ProtocolFactory
from ..gossip.batch import batch_supports_config
from ..gossip.engine import BatchRunner, GossipEngine

__all__ = [
    "measure_protocol_batched",
    "run_trials_batched",
    "measure_protocol_parallel",
    "run_trials_parallel",
    "scenario_batch_strategy",
    "shared_process_pool",
    "default_jobs",
]


def default_jobs() -> int:
    """Worker-process count used when ``jobs`` is not given: the CPU count."""
    return max(1, os.cpu_count() or 1)


#: The process pool installed by :func:`shared_process_pool`, if any.
_SHARED_POOL: "ProcessPoolExecutor | None" = None


@contextlib.contextmanager
def shared_process_pool(jobs: int | None = None) -> Iterator[ProcessPoolExecutor]:
    """Share one worker pool across every parallel runner call in the block.

    By default each :func:`measure_protocol_parallel` call creates (and tears
    down) its own ``ProcessPoolExecutor`` — fine for a single sweep, wasteful
    for a campaign of many sweeps, where worker startup (process fork plus
    per-worker GF table priming) would be paid once per unit.  Inside this
    context every chunked run reuses the same executor::

        with shared_process_pool(jobs=4):
            for spec in specs:
                run_trials_parallel(spec, jobs=4, store=store)

    Results are unchanged — trial generators depend only on the root seed and
    trial index, never on the executing process.  The pool is process-wide
    (one campaign at a time drives it); nesting is rejected.
    """
    global _SHARED_POOL
    if _SHARED_POOL is not None:
        raise AnalysisError("shared_process_pool does not nest")
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise AnalysisError(f"jobs must be positive, got {jobs}")
    pool = ProcessPoolExecutor(max_workers=jobs)
    _SHARED_POOL = pool
    try:
        yield pool
    finally:
        _SHARED_POOL = None
        pool.shutdown()


def _resolve_workload(
    graph: Any,
    protocol_factory: ProtocolFactory | None,
    config: SimulationConfig | None,
    trials: int | None,
    seed: int | None,
    spec: Any = None,
) -> tuple[nx.Graph, ProtocolFactory, SimulationConfig, int, int, Any]:
    """Normalise the ``(graph | spec | materialized, ...)`` calling conventions.

    The returned sixth element is the :class:`~repro.scenarios.ScenarioSpec`
    identifying the workload for content addressing: the one the scenario
    argument carried, or the explicit ``spec`` keyword (used by callers like
    :func:`repro.analysis.sweep.run_sweep` that hold a materialised case's
    graph/factory/config alongside the spec they came from), or ``None``.
    """
    # Imported lazily: the scenario layer imports repro.analysis, which is a
    # sibling of this package in the stack.
    from ..scenarios.spec import MaterializedScenario, ScenarioSpec

    if isinstance(graph, ScenarioSpec):
        graph = graph.materialize()
    if isinstance(graph, MaterializedScenario):
        if protocol_factory is not None or config is not None:
            raise AnalysisError(
                "pass either a scenario or an explicit "
                "(graph, protocol_factory, config) triple, not both — a "
                "scenario always runs its own factory and config"
            )
        scenario = graph
        graph = scenario.graph
        protocol_factory = scenario.protocol_factory
        config = scenario.config
        trials = scenario.spec.trials if trials is None else trials
        seed = scenario.spec.seed if seed is None else seed
        spec = scenario.spec
    if protocol_factory is None or config is None:
        raise AnalysisError(
            "protocol_factory and config are required unless a ScenarioSpec "
            "(or MaterializedScenario) is passed in place of the graph"
        )
    return (
        graph,
        protocol_factory,
        config,
        5 if trials is None else trials,
        0 if seed is None else seed,
        spec,
    )


def _run_through_store(
    store: Any,
    spec: Any,
    seed: int,
    trial_indices: Sequence[int],
    fresh: bool,
    compute: "Any",
) -> list[RunResult]:
    """Serve trials from the store, compute the rest, persist, merge in order.

    The one cache-aware code path shared by the batched and the parallel
    runner: ``compute(missing_indices)`` runs only the trial streams the
    store does not hold, the fresh results are persisted, and the merged
    list comes back in ``trial_indices`` order — bit-identical to computing
    everything, because trial ``i`` derives its generator from the root seed
    alone.

    ``fresh`` bypasses the read side (every trial recomputes) without
    touching the write side: :meth:`~repro.store.ResultStore.put_many` skips
    keys whose recomputed payload matches the archive and raises
    ``StoreError`` on divergence, so a fresh run is an actual
    re-verification of the stored records.
    """
    if spec is None:
        raise AnalysisError(
            "a result store needs a content address: pass the workload as a "
            "ScenarioSpec/MaterializedScenario, or supply spec=... alongside "
            "the explicit (graph, protocol_factory, config) triple"
        )
    cached: dict[int, RunResult] = {}
    if not fresh:
        for index in trial_indices:
            result = store.get(spec, index, seed=seed)
            if result is not None:
                cached[index] = result
    to_run = [index for index in trial_indices if index not in cached]
    computed: dict[int, RunResult] = {}
    if to_run:
        computed = dict(zip(to_run, compute(to_run)))
        store.put_many(spec, computed, seed=seed)
    return [
        cached[index] if index in cached else computed[index]
        for index in trial_indices
    ]


def scenario_batch_strategy(scenario: Any) -> BatchRunner | None:
    """The batch executor a materialised scenario's trials would use, or ``None``.

    Combines the protocol's own declaration
    (:meth:`~repro.gossip.engine.GossipProcess.batch_strategy`, probed on a
    throwaway process) with the config support matrix
    (:func:`~repro.gossip.batch.batch_supports_config`): ``None`` means the
    trial runners will use the sequential engine.
    """
    if not batch_supports_config(scenario.config):
        return None
    from ..gossip.batch import run_rank_only_batch
    from ..gossip.batch_tag import run_spanning_tree_batch, run_tag_batch
    from ..scenarios.spec import SpanningTreeFactory, TagFactory, UniformGossipFactory

    # The scenario factories produce exactly the protocols these runners
    # support (every TREE_PROTOCOLS entry has a batch tree state), so the
    # strategy is known from the factory type without building a process.
    factory = scenario.protocol_factory
    if isinstance(factory, UniformGossipFactory):
        return run_rank_only_batch
    if isinstance(factory, TagFactory):
        return run_tag_batch
    if isinstance(factory, SpanningTreeFactory):
        return run_spanning_tree_batch
    # Unknown factory (user-supplied): probe a throwaway process.
    probe = scenario.build_process(derive_rng(scenario.spec.seed, "strategy-probe"))
    return probe.batch_strategy()


def _measure_trial_indices(
    graph: nx.Graph,
    protocol_factory: ProtocolFactory,
    config: SimulationConfig,
    seed: int,
    trial_indices: Sequence[int],
    backend: str = "",
    engine: str = "",
) -> list[RunResult]:
    """Run the selected trial streams, batched when possible.

    The sequential fallback builds each trial's process lazily, one at a
    time, so a long non-batchable run never holds more than one set of
    scalar decoders in memory.  Only the batch engine — which needs every
    trial's state simultaneously by design — constructs all processes.

    ``backend`` installs a compute backend for the duration of the runs
    (``""`` keeps the ambient one); since backends are bit-identical by
    contract, it affects wall-clock only, never the results.

    ``engine`` pins the engine family: ``""`` (default) auto-selects as
    described above, ``"scalar"`` forces the sequential engine, ``"batch"``
    requires the batch fast path and ``"event"`` requires the event-driven
    sparse engine.  Engines are bit-identical per trial stream, so pinning
    affects wall-clock only; a pinned engine that cannot run the workload
    raises :class:`~repro.errors.EngineError` — never a silent fallback.
    """
    from ..backends import use_backend
    from ..errors import EngineError

    rngs = [derive_rng(seed, f"trial-{index}") for index in trial_indices]
    if engine == "event":
        from ..gossip.event import build_event_process, run_event_trials

        with use_backend(backend):
            processes = [
                build_event_process(graph, protocol_factory, rng) for rng in rngs
            ]
            return run_event_trials(graph, processes, config, rngs)
    from ..graphs.csr import CSRGraph

    if isinstance(graph, CSRGraph):
        raise EngineError(
            "a CSR-materialised scenario runs on the event-driven engine "
            "only; pin engine='event' (or materialise through the networkx "
            "pipeline for the scalar/batch engines)"
        )
    require_batch = engine == "batch"
    if require_batch and not batch_supports_config(config):
        raise EngineError(
            "the batch engines do not support this configuration "
            "(reset-mode churn); drop engine='batch' or pick "
            "'scalar'/'event'"
        )
    # Reset-mode churn is outside the batch support matrix: fall back to the
    # scalar engine explicitly rather than letting a strategy fail mid-run.
    batch = engine != "scalar" and batch_supports_config(config)
    results: list[RunResult] = []
    remaining = list(rngs)
    with use_backend(backend):
        if batch and remaining:
            first = protocol_factory(graph, remaining[0])
            strategy = first.batch_strategy()
            if strategy is not None:
                processes = [first] + [
                    protocol_factory(graph, rng) for rng in remaining[1:]
                ]
                return strategy(graph, processes, config, rngs)
            if require_batch:
                raise EngineError(
                    f"{type(first).__name__} declares no batch strategy; "
                    "drop engine='batch' or pick 'scalar'"
                )
            results.append(GossipEngine(graph, first, config, remaining[0]).run())
            remaining = remaining[1:]
        for rng in remaining:
            process = protocol_factory(graph, rng)
            results.append(GossipEngine(graph, process, config, rng).run())
    return results


def measure_protocol_batched(
    graph: "nx.Graph | Any",
    protocol_factory: ProtocolFactory | None = None,
    config: SimulationConfig | None = None,
    *,
    trials: int | None = None,
    seed: int | None = None,
    trial_indices: Sequence[int] | None = None,
    store: Any = None,
    fresh: bool = False,
    spec: Any = None,
) -> list[RunResult]:
    """Run seeded trials through the vectorised batch engine when possible.

    Each trial's process is built with its own derived generator (so
    setup-time draws are consumed exactly as in the sequential runner); if
    the protocol opts in to the rank-only fast path the whole set runs in
    one :class:`~repro.gossip.batch.BatchGossipEngine`, otherwise the trials
    run sequentially with the same generators.  Either way the returned
    results are identical to :func:`~repro.analysis.stopping_time.measure_protocol`.

    ``graph`` may also be a :class:`~repro.scenarios.ScenarioSpec` or
    :class:`~repro.scenarios.MaterializedScenario`, in which case the
    factory/config (and, when not given, the trial/seed plan) come from it.

    ``trial_indices`` selects which trial streams to run (default
    ``0 .. trials-1``); the parallel runner uses it to assign disjoint chunks
    to workers without perturbing any trial's randomness.

    ``store`` (a :class:`~repro.store.ResultStore`) makes the call
    cache-aware: only the ``(fingerprint, seed, trial)`` keys not already
    present are computed, and newly computed results are persisted.  Because
    trial ``i`` derives its generator from the root seed alone, running just
    the missing indices is bit-identical to running them all — so a resumed
    or fully-cached call returns exactly what a cold call would.  Caching
    needs a content address: when the workload arrives as a bare
    ``(graph, protocol_factory, config)`` triple, pass the ``spec`` it came
    from (``fresh=True`` bypasses cache reads but still persists).
    """
    graph, protocol_factory, config, trials, seed, spec = _resolve_workload(
        graph, protocol_factory, config, trials, seed, spec
    )
    backend = getattr(spec, "backend", "") or ""
    engine = getattr(spec, "engine", "") or ""
    if trial_indices is None:
        if trials < 1:
            raise AnalysisError(f"trials must be positive, got {trials}")
        trial_indices = range(trials)
    if store is None:
        return _measure_trial_indices(
            graph, protocol_factory, config, seed, trial_indices, backend, engine
        )
    return _run_through_store(
        store, spec, seed, trial_indices, fresh,
        lambda missing: _measure_trial_indices(
            graph, protocol_factory, config, seed, missing, backend, engine
        ),
    )


def run_trials_batched(
    graph: "nx.Graph | Any",
    protocol_factory: ProtocolFactory | None = None,
    config: SimulationConfig | None = None,
    *,
    trials: int | None = None,
    seed: int | None = None,
    store: Any = None,
    fresh: bool = False,
    spec: Any = None,
) -> StoppingTimeStats:
    """Like :func:`~repro.analysis.stopping_time.run_trials`, batched.

    Also accepts a :class:`~repro.scenarios.ScenarioSpec` in place of the
    ``(graph, protocol_factory, config)`` triple, and a
    :class:`~repro.store.ResultStore` through which cached trials are reused
    (see :func:`measure_protocol_batched`).
    """
    return aggregate_results(
        measure_protocol_batched(
            graph, protocol_factory, config, trials=trials, seed=seed,
            store=store, fresh=fresh, spec=spec,
        )
    )


def _run_chunk(payload: bytes) -> list[RunResult]:
    """Worker entry point: unpickle one chunk description and run it."""
    (
        graph, protocol_factory, config, seed, indices, backend, engine,
    ) = pickle.loads(payload)
    return _measure_trial_indices(
        graph, protocol_factory, config, seed, indices, backend, engine
    )


def _chunks(indices: Sequence[int], jobs: int) -> list[list[int]]:
    """Split trial indices into at most ``jobs`` contiguous, balanced chunks."""
    jobs = max(1, min(jobs, len(indices)))
    size, remainder = divmod(len(indices), jobs)
    chunks: list[list[int]] = []
    start = 0
    for j in range(jobs):
        stop = start + size + (1 if j < remainder else 0)
        chunks.append(list(indices[start:stop]))
        start = stop
    return chunks


def _measure_indices_chunked(
    graph: nx.Graph,
    protocol_factory: ProtocolFactory,
    config: SimulationConfig,
    seed: int,
    trial_indices: Sequence[int],
    jobs: int,
    backend: str = "",
    engine: str = "",
) -> list[RunResult]:
    """Run the given trial streams over up to ``jobs`` worker processes.

    The backend and engine names travel inside each pickled chunk so worker
    processes install the same compute backend and run the same engine family
    the parent would use.
    """
    if not trial_indices:
        return []
    jobs = min(jobs, len(trial_indices))
    if jobs == 1:
        return _measure_trial_indices(
            graph, protocol_factory, config, seed, trial_indices, backend, engine
        )
    chunks = _chunks(trial_indices, jobs)
    try:
        payloads = [
            pickle.dumps(
                (graph, protocol_factory, config, seed, chunk, backend, engine)
            )
            for chunk in chunks
        ]
    except Exception:
        # Unpicklable factories (lambdas, local closures) cannot cross a
        # process boundary; run them in-process instead — the results are
        # identical, only the wall-clock differs.
        return _measure_trial_indices(
            graph, protocol_factory, config, seed, trial_indices, backend, engine
        )
    if _SHARED_POOL is not None:
        # Inside a shared_process_pool() block: reuse the long-lived workers
        # (the executor queues chunks beyond its worker count).
        chunk_results = list(_SHARED_POOL.map(_run_chunk, payloads))
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            chunk_results = list(pool.map(_run_chunk, payloads))
    results: list[RunResult] = []
    for chunk_result in chunk_results:
        results.extend(chunk_result)
    return results


def measure_protocol_parallel(
    graph: "nx.Graph | Any",
    protocol_factory: ProtocolFactory | None = None,
    config: SimulationConfig | None = None,
    *,
    trials: int | None = None,
    seed: int | None = None,
    jobs: int | None = None,
    store: Any = None,
    fresh: bool = False,
    spec: Any = None,
) -> list[RunResult]:
    """Run seeded trials across worker processes; results stay in trial order.

    ``graph`` may also be a :class:`~repro.scenarios.ScenarioSpec` or
    :class:`~repro.scenarios.MaterializedScenario`.

    The trial set is split into contiguous chunks, one worker process per
    chunk, and every worker runs its indices through the engine the spec pins
    (auto-selected as in :func:`measure_protocol_batched` when it pins none).
    Because trial ``i`` derives its generator from the root seed alone
    (``derive_rng(seed, f"trial-{i}")`` — the spawned-child-seed scheme of
    :mod:`repro.core.rng`), the partitioning has no effect on any trial's
    randomness and the concatenated results equal the sequential runner's
    trial-for-trial.

    ``store`` makes the call cache-aware exactly as in
    :func:`measure_protocol_batched`: cached trials are read back, only the
    missing indices are chunked over workers, and the freshly computed
    results are persisted (in the parent process — workers never touch the
    store).

    Falls back to in-process execution when only one job is needed or when
    the factory cannot be pickled (e.g. a locally defined closure).
    """
    graph, protocol_factory, config, trials, seed, spec = _resolve_workload(
        graph, protocol_factory, config, trials, seed, spec
    )
    backend = getattr(spec, "backend", "") or ""
    engine = getattr(spec, "engine", "") or ""
    if trials < 1:
        raise AnalysisError(f"trials must be positive, got {trials}")
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise AnalysisError(f"jobs must be positive, got {jobs}")
    if store is None:
        return _measure_indices_chunked(
            graph, protocol_factory, config, seed, range(trials), jobs, backend,
            engine,
        )
    return _run_through_store(
        store, spec, seed, range(trials), fresh,
        lambda missing: _measure_indices_chunked(
            graph, protocol_factory, config, seed, missing, jobs, backend, engine
        ),
    )


def run_trials_parallel(
    graph: "nx.Graph | Any",
    protocol_factory: ProtocolFactory | None = None,
    config: SimulationConfig | None = None,
    *,
    trials: int | None = None,
    seed: int | None = None,
    jobs: int | None = None,
    store: Any = None,
    fresh: bool = False,
    spec: Any = None,
) -> StoppingTimeStats:
    """Like :func:`~repro.analysis.stopping_time.run_trials`, multi-process.

    Also accepts a :class:`~repro.scenarios.ScenarioSpec` in place of the
    ``(graph, protocol_factory, config)`` triple, and a
    :class:`~repro.store.ResultStore` through which cached trials are reused
    (see :func:`measure_protocol_parallel`).
    """
    return aggregate_results(
        measure_protocol_parallel(
            graph, protocol_factory, config,
            trials=trials, seed=seed, jobs=jobs,
            store=store, fresh=fresh, spec=spec,
        )
    )
