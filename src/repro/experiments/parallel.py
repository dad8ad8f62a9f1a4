"""The Monte Carlo trial runners and the engine rule.

The stopping-time statistics everywhere in this repository are Monte Carlo
estimates over independent seeded trials.  :func:`measure_protocol` runs a
bare ``(graph, protocol_factory, config)`` triple's trials and returns every
result; :func:`run_trials` aggregates them.  ``jobs`` worker processes split
the trial set (``jobs=1``, the default, runs in-process), and each chunk runs
on the engine :func:`select_engine` picks: uniform algebraic gossip, TAG and
the standalone spanning trees on the event-driven engine, trial by trial;
user protocols on the scalar engine.  ``engine="scalar"`` pins the
sequential reference engine (one :class:`~repro.gossip.engine.GossipEngine`
per trial, scalar decoders).

Reproducibility is anchored in :mod:`repro.core.rng`: trial ``i`` always uses
the generator ``derive_rng(seed, f"trial-{i}")`` regardless of which engine
runs it, which worker process it lands on, or how trials are chunked — so
every engine and every ``jobs`` returns the same results trial-for-trial.

A :class:`~repro.scenarios.ScenarioSpec`'s trial plan runs through
:meth:`~repro.scenarios.MaterializedScenario.measure` instead — the one
runner that reads and writes a result store — which calls this module's
chunked runner too::

    get_scenario("tag/brr-barbell").materialize().run(jobs=2)
"""

from __future__ import annotations

import contextlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..core.config import SimulationConfig
from ..core.results import RunResult, StoppingTimeStats, aggregate_results
from ..core.rng import derive_rng
from ..errors import AnalysisError, EngineError
from ..gossip.engine import GossipEngine, GossipProcess
from ..graphs.csr import CSRGraph

__all__ = [
    "ProtocolFactory",
    "measure_protocol",
    "run_trials",
    "select_engine",
    "shared_process_pool",
    "default_jobs",
]

#: A factory building a fresh protocol instance for one trial.  It receives
#: the trial's random generator so that message contents, coding coefficients
#: and any protocol-internal randomness are independent across trials.
ProtocolFactory = Callable[[CSRGraph, np.random.Generator], GossipProcess]


def default_jobs() -> int:
    """The CPU count: the worker pool size of a :func:`shared_process_pool`
    opened without ``jobs``."""
    return max(1, os.cpu_count() or 1)


#: The process pool installed by :func:`shared_process_pool`, if any.
_SHARED_POOL: "ProcessPoolExecutor | None" = None


@contextlib.contextmanager
def shared_process_pool(jobs: int | None = None) -> Iterator[ProcessPoolExecutor]:
    """Share one worker pool across every parallel runner call in the block.

    By default each chunked run creates (and tears down) its own
    ``ProcessPoolExecutor`` — fine for a single sweep, wasteful for a
    campaign of many sweeps, where worker startup (process fork plus
    per-worker GF table priming) would be paid once per unit.  Inside this
    context every chunked run reuses the same executor::

        with shared_process_pool(jobs=4):
            for spec in specs:
                spec.materialize().run(jobs=4, store=store)

    Results are unchanged — trial generators depend only on the root seed and
    trial index, never on the executing process.  The pool is process-wide
    (one campaign at a time drives it); nesting is rejected.
    """
    global _SHARED_POOL
    if _SHARED_POOL is not None:
        raise AnalysisError("shared_process_pool does not nest")
    jobs = default_jobs() if jobs is None else jobs
    _check_jobs(jobs)
    pool = ProcessPoolExecutor(max_workers=jobs)
    _SHARED_POOL = pool
    try:
        yield pool
    finally:
        _SHARED_POOL = None
        pool.shutdown()


def _check_jobs(jobs: int) -> None:
    """Refuse a run with no workers."""
    if jobs < 1:
        raise AnalysisError(f"jobs must be positive, got {jobs}")


def _check_plan(trials: int, jobs: int) -> None:
    """Refuse a trial plan with no trials or no workers."""
    if trials < 1:
        raise AnalysisError(f"trials must be positive, got {trials}")
    _check_jobs(jobs)


def _run_through_store(
    store: Any,
    spec: Any,
    seed: int,
    trial_indices: Sequence[int],
    fresh: bool,
    compute: "Any",
) -> list[RunResult]:
    """Serve trials from the store, compute the rest, persist, merge in order.

    The cache-aware path of :meth:`~repro.scenarios.MaterializedScenario.measure`:
    ``compute(missing_indices)`` runs only the trial streams the store does
    not hold, the fresh results are persisted, and the merged list comes back
    in ``trial_indices`` order — bit-identical to computing everything,
    because trial ``i`` derives its generator from the root seed alone.

    ``fresh`` bypasses the read side (every trial recomputes) without
    touching the write side: :meth:`~repro.store.ResultStore.put_many` skips
    keys whose recomputed payload matches the archive and raises
    ``StoreError`` on divergence, so a fresh run is an actual
    re-verification of the stored records.
    """
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

    * uniform algebraic gossip
      (:class:`~repro.scenarios.spec.UniformGossipFactory`), TAG
      (:class:`~repro.scenarios.spec.TagFactory`) and the standalone
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
    from ..scenarios.spec import SpanningTreeFactory, TagFactory, UniformGossipFactory

    if isinstance(protocol_factory, UniformGossipFactory):
        return "event", "auto: uniform AG"
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
    fallback.  Each trial's process is built by ``protocol_factory`` whichever
    engine runs, one trial at a time, so a long run never holds more than
    one trial's state in memory.
    """
    from ..gossip.event import EventGossipEngine

    if select_engine(protocol_factory, engine)[0] == "event":
        engine_class = EventGossipEngine
    else:
        engine_class = GossipEngine
    results: list[RunResult] = []
    for index in trial_indices:
        rng = derive_rng(seed, f"trial-{index}")
        process = protocol_factory(graph, rng)
        results.append(engine_class(graph, process, config, rng).run())
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

    The engine is picked here, once (an unknown name raises
    :class:`~repro.errors.EngineError` before any trial runs), and its name
    travels inside each pickled chunk so worker processes run that engine.
    """
    engine = select_engine(protocol_factory, engine)[0]
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


def measure_protocol(
    graph: CSRGraph,
    protocol_factory: ProtocolFactory,
    config: SimulationConfig,
    *,
    trials: int = 5,
    seed: int = 0,
    jobs: int = 1,
    engine: str = "",
) -> list[RunResult]:
    """Run ``trials`` seeded simulations and return every :class:`RunResult`.

    Trial ``i`` draws from ``derive_rng(seed, f"trial-{i}")`` on the engine
    :func:`select_engine` picks for ``engine`` (``""`` applies the rule,
    ``"scalar"`` pins the sequential reference, ``"event"`` the event-driven
    engine).  ``jobs`` worker processes split the trials into contiguous
    chunks; the results come back in trial order and do not depend on
    ``jobs`` or on the engine.  The run stays in-process when one job is
    needed or when the factory cannot be pickled (e.g. a locally defined
    closure).  A scenario's plan, read through a result store, runs through
    :meth:`~repro.scenarios.MaterializedScenario.measure` instead.
    """
    _check_plan(trials, jobs)
    return _measure_indices_chunked(
        graph, protocol_factory, config, seed, range(trials), jobs, engine
    )


def run_trials(
    graph: CSRGraph,
    protocol_factory: ProtocolFactory,
    config: SimulationConfig,
    *,
    trials: int = 5,
    seed: int = 0,
    jobs: int = 1,
    engine: str = "",
) -> StoppingTimeStats:
    """Like :func:`measure_protocol` but collapse the results into statistics."""
    return aggregate_results(
        measure_protocol(
            graph, protocol_factory, config,
            trials=trials, seed=seed, jobs=jobs, engine=engine,
        )
    )
