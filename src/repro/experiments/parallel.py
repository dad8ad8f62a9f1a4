"""Multi-process Monte Carlo trial runners and the engine rule.

The stopping-time statistics everywhere in this repository are Monte Carlo
estimates over independent seeded trials.  This module provides the
**bit-identical** fast way of running them next to the sequential
:func:`~repro.analysis.stopping_time.measure_protocol` (one
:class:`~repro.gossip.engine.GossipEngine` per trial, scalar decoders):
:func:`measure_protocol_parallel` / :func:`run_trials_parallel` split the
trial set across ``jobs`` worker processes (``jobs=1`` runs in-process), and
each chunk runs on the engine :func:`select_engine` picks: uniform algebraic
gossip, TAG and the standalone spanning trees on the event-driven engine,
trial by trial; user protocols on the scalar engine.

Reproducibility is anchored in :mod:`repro.core.rng`: trial ``i`` always uses
the generator ``derive_rng(seed, f"trial-{i}")`` regardless of which runner
executes it, which worker process it lands on, or how trials are chunked — so
every runner returns the same results trial-for-trial.

Every runner also accepts a :class:`~repro.scenarios.ScenarioSpec` (or an
already-materialised :class:`~repro.scenarios.MaterializedScenario`) in place
of the ``(graph, protocol_factory, config)`` triple; the spec's trial/seed
plan fills in ``trials``/``seed`` when those are not given explicitly::

    run_trials_parallel(get_scenario("tag/brr-barbell"), jobs=1)
"""

from __future__ import annotations

import contextlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Iterator, Sequence

from ..core.config import SimulationConfig
from ..core.results import RunResult, StoppingTimeStats, aggregate_results
from ..core.rng import derive_rng
from ..errors import AnalysisError, EngineError
from ..analysis.stopping_time import ProtocolFactory
from ..gossip.engine import GossipEngine
from ..graphs.csr import CSRGraph

__all__ = [
    "measure_protocol_parallel",
    "run_trials_parallel",
    "select_engine",
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
) -> tuple[CSRGraph, ProtocolFactory, SimulationConfig, int, int, Any]:
    """Normalise the ``(graph | spec | materialized, ...)`` calling conventions.

    The returned sixth element is the :class:`~repro.scenarios.ScenarioSpec`
    identifying the workload for content addressing: the one the scenario
    argument carried, or ``None`` for a bare ``(graph, protocol_factory,
    config)`` triple.
    """
    # Imported lazily: the scenario layer imports repro.analysis, which is a
    # sibling of this package in the stack.
    from ..scenarios.spec import MaterializedScenario, ScenarioSpec

    spec = None
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

    The parallel runner's cache-aware code path: ``compute(missing_indices)`` runs only the trial streams the
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
            "ScenarioSpec/MaterializedScenario, not as a bare (graph, "
            "protocol_factory, config) triple"
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


def select_engine(protocol_factory: Any, engine: str = "") -> tuple[str, str]:
    """The engine that runs a trial plan, and why: ``(name, reason)``.

    A pinned ``engine`` (``"scalar"`` or ``"event"``; anything else raises
    :class:`~repro.errors.EngineError`) is kept.  ``""`` applies the rule,
    by protocol factory alone — under every config (loss, pause and reset
    churn, activation rates):

    * uniform algebraic gossip (a factory with a ``rank_only_process``
      method, i.e. :class:`~repro.scenarios.spec.UniformGossipFactory`),
      TAG (:class:`~repro.scenarios.spec.TagFactory`) and the standalone
      spanning trees (:class:`~repro.scenarios.spec.SpanningTreeFactory`)
      run on the event engine;
    * everything else — user protocols — runs on the scalar engine.

    The trial runners, ``run_single``, the CLI and ``repro scenario show``
    all ask this function, so the engine a plan is reported to run on is
    the one it runs on.
    """
    if engine:
        if engine not in ("scalar", "event"):
            raise EngineError(f"unknown engine {engine!r}; known: ['event', 'scalar']")
        return engine, "pinned"
    if hasattr(protocol_factory, "rank_only_process"):
        return "event", "auto: uniform AG"
    from ..scenarios.spec import SpanningTreeFactory, TagFactory

    if isinstance(protocol_factory, TagFactory):
        return "event", "auto: TAG"
    if isinstance(protocol_factory, SpanningTreeFactory):
        return "event", "auto: spanning tree"
    return "scalar", "auto: no event-engine support"


def _measure_trial_indices(
    graph: CSRGraph,
    protocol_factory: ProtocolFactory,
    config: SimulationConfig,
    seed: int,
    trial_indices: Sequence[int],
    engine: str = "",
) -> list[RunResult]:
    """Run the selected trial streams on the engine :func:`select_engine` picks.

    ``engine`` pins the engine: ``""`` (default) applies the rule,
    ``"scalar"`` forces the sequential engine and ``"event"`` requires the
    event-driven engine.  Engines are bit-identical per trial stream, so the
    choice affects wall-clock only; a pinned engine that cannot run the
    workload raises :class:`~repro.errors.EngineError` — never a silent
    fallback.  Each trial's process is built lazily, one at a time, so a
    long run never holds more than one trial's state in memory.
    """
    from ..gossip.event import EventGossipEngine, build_event_process

    event = select_engine(protocol_factory, engine)[0] == "event"
    results: list[RunResult] = []
    for index in trial_indices:
        rng = derive_rng(seed, f"trial-{index}")
        if event:
            process = build_event_process(graph, protocol_factory, rng)
            results.append(EventGossipEngine(graph, process, config, rng).run())
        else:
            process = protocol_factory(graph, rng)
            results.append(GossipEngine(graph, process, config, rng).run())
    return results


def _run_chunk(payload: bytes) -> list[RunResult]:
    """Worker entry point: unpickle one chunk description and run it."""
    graph, protocol_factory, config, seed, indices, engine = pickle.loads(payload)
    return _measure_trial_indices(
        graph, protocol_factory, config, seed, indices, engine
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
    graph: CSRGraph,
    protocol_factory: ProtocolFactory,
    config: SimulationConfig,
    seed: int,
    trial_indices: Sequence[int],
    jobs: int,
    engine: str = "",
) -> list[RunResult]:
    """Run the given trial streams over up to ``jobs`` worker processes.

    The engine name travels inside each pickled chunk so worker processes
    run the same engine the parent would use.
    """
    if not trial_indices:
        return []
    jobs = min(jobs, len(trial_indices))
    if jobs == 1:
        return _measure_trial_indices(
            graph, protocol_factory, config, seed, trial_indices, engine
        )
    chunks = _chunks(trial_indices, jobs)
    try:
        payloads = [
            pickle.dumps((graph, protocol_factory, config, seed, chunk, engine))
            for chunk in chunks
        ]
    except Exception:
        # Unpicklable factories (lambdas, local closures) cannot cross a
        # process boundary; run them in-process instead — the results are
        # identical, only the wall-clock differs.
        return _measure_trial_indices(
            graph, protocol_factory, config, seed, trial_indices, engine
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
    graph: "CSRGraph | Any",
    protocol_factory: ProtocolFactory | None = None,
    config: SimulationConfig | None = None,
    *,
    trials: int | None = None,
    seed: int | None = None,
    jobs: int | None = None,
    store: Any = None,
    fresh: bool = False,
) -> list[RunResult]:
    """Run seeded trials across worker processes; results stay in trial order.

    ``graph`` may also be a :class:`~repro.scenarios.ScenarioSpec` or
    :class:`~repro.scenarios.MaterializedScenario`.

    The trial set is split into contiguous chunks, one worker process per
    chunk, and every worker runs its indices through the engine
    :func:`select_engine` picks (or the one the spec pins).
    Because trial ``i`` derives its generator from the root seed alone
    (``derive_rng(seed, f"trial-{i}")`` — the spawned-child-seed scheme of
    :mod:`repro.core.rng`), the partitioning has no effect on any trial's
    randomness and the concatenated results equal the sequential runner's
    trial-for-trial.

    ``store`` (a :class:`~repro.store.ResultStore`) makes the call
    cache-aware: cached ``(fingerprint, seed, trial)`` records are read back,
    only the missing indices are chunked over workers, and the freshly
    computed results are persisted (in the parent process — workers never
    touch the store), which is bit-identical to running them all.  Caching
    needs a content address, so a store requires the workload as a scenario
    rather than a bare ``(graph, protocol_factory, config)`` triple
    (``fresh=True`` bypasses cache reads but still persists).

    Falls back to in-process execution when only one job is needed or when
    the factory cannot be pickled (e.g. a locally defined closure).
    """
    graph, protocol_factory, config, trials, seed, spec = _resolve_workload(
        graph, protocol_factory, config, trials, seed
    )
    engine = getattr(spec, "engine", "") or ""
    if trials < 1:
        raise AnalysisError(f"trials must be positive, got {trials}")
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise AnalysisError(f"jobs must be positive, got {jobs}")
    if store is None:
        return _measure_indices_chunked(
            graph, protocol_factory, config, seed, range(trials), jobs, engine
        )
    return _run_through_store(
        store, spec, seed, range(trials), fresh,
        lambda missing: _measure_indices_chunked(
            graph, protocol_factory, config, seed, missing, jobs, engine
        ),
    )


def run_trials_parallel(
    graph: "CSRGraph | Any",
    protocol_factory: ProtocolFactory | None = None,
    config: SimulationConfig | None = None,
    *,
    trials: int | None = None,
    seed: int | None = None,
    jobs: int | None = None,
    store: Any = None,
    fresh: bool = False,
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
            store=store, fresh=fresh,
        )
    )
