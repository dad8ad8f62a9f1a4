"""Incremental campaign execution through the persistent result store.

:func:`run_campaign` is the execution engine of the campaign layer: it takes
a :class:`~repro.campaigns.CampaignSpec`, compiles the units into their DAG
order, and runs each unit's Monte Carlo plan **through** a
:class:`~repro.store.ResultStore` — per unit, only the
``(fingerprint, seed, trial)`` records the store does not already hold are
simulated, so

* an interrupted campaign resumes where it stopped (completed units are
  served from cache, the interrupted unit finishes its missing trials),
* a repeated campaign simulates nothing (``store.puts == 0``), and
* a campaign extended with new units computes only those.

Execution reuses one worker pool across all units
(:func:`~repro.experiments.parallel.shared_process_pool`) when ``jobs > 1``,
instead of forking a fresh pool per sweep.  The outcome —
:class:`CampaignResult` with per-unit cached/computed counts, timings,
store counters and evaluated artifacts — is what
:mod:`repro.campaigns.report` renders.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..analysis.tables import table1_rows, table2_rows
from ..core.results import RunResult, StoppingTimeStats, aggregate_results
from ..core.rng import derive_rng
from ..errors import AnalysisError, CampaignError
from ..experiments.parallel import (
    _measure_trial_indices,
    measure_protocol_parallel,
    shared_process_pool,
)
from ..graphs.topologies import build_topology
from ..scenarios.spec import ScenarioSpec
from .spec import ArtifactSpec, CampaignSpec, CampaignUnit

__all__ = ["UnitOutcome", "ArtifactResult", "CampaignResult", "run_campaign"]


def _peak_rss_mib() -> "float | None":
    """This process's lifetime peak RSS in MiB, or ``None`` where unavailable.

    Mirrors ``benchmarks/_utils.peak_rss_mib``: ``ru_maxrss`` is KiB on
    Linux, bytes on macOS.  The high-water mark only grows, so per-unit
    values in a campaign are cumulative — useful as a budget check for the
    largest decade, not as a per-unit delta.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        return peak / (1024 * 1024)
    return peak / 1024


@dataclass(frozen=True)
class UnitOutcome:
    """What happened to one campaign unit: plan, cache split, statistics.

    ``cached_trials`` / ``computed_trials`` partition the unit's trial plan:
    a fully warm unit is *cached* (nothing simulated), a cold one *computed*,
    an interrupted-and-resumed one *partial*.  ``seconds`` and
    ``peak_rss_mib`` are wall-clock/rusage observations and therefore
    excluded from the deterministic report body.  Units executed through
    the streaming-summary path (``record == "summary"``) carry no full
    ``results`` tuple — only ``stats``.
    """

    unit: CampaignUnit
    spec: ScenarioSpec
    fingerprint: str
    trials: int
    seed: int
    cached_trials: int
    computed_trials: int
    stats: StoppingTimeStats
    results: tuple[RunResult, ...]
    n: int
    k: int
    seconds: float
    peak_rss_mib: "float | None" = None
    #: ``(name, reason)`` from :meth:`~repro.scenarios.MaterializedScenario.select_engine`;
    #: printed in the progress line, never rendered into the report body.
    engine: tuple[str, str] = ("", "")

    @property
    def status(self) -> str:
        """``cached`` | ``computed`` | ``partial`` — the unit's cache verdict."""
        if self.computed_trials == 0:
            return "cached"
        if self.cached_trials == 0:
            return "computed"
        return "partial"


@dataclass(frozen=True)
class ArtifactResult:
    """One evaluated report artifact: table rows, CSV text and/or curves."""

    artifact: ArtifactSpec
    rows: tuple[Mapping[str, Any], ...] = ()
    csv: str = ""
    #: ``rank-evolution``: unit name → (round, min, median, max) tuples.
    #: ``asymptotic-fit``: annotated family label →
    #: (log10 n, log10 mean, log10 fitted, log10 p95) tuples.
    curves: tuple[tuple[str, tuple[tuple[float, float, float, float], ...]], ...] = ()


@dataclass(frozen=True)
class CampaignResult:
    """The full outcome of :func:`run_campaign`, ready for report rendering."""

    campaign: CampaignSpec
    outcomes: tuple[UnitOutcome, ...]
    artifacts: tuple[ArtifactResult, ...]
    store_root: str
    store_hits: int
    store_puts: int
    trials_override: "int | None"
    seed_override: "int | None"
    jobs: "int | None"
    seconds: float

    @property
    def total_trials(self) -> int:
        return sum(outcome.trials for outcome in self.outcomes)

    @property
    def cached_trials(self) -> int:
        return sum(outcome.cached_trials for outcome in self.outcomes)

    @property
    def computed_trials(self) -> int:
        return sum(outcome.computed_trials for outcome in self.outcomes)

    def outcome(self, unit_name: str) -> UnitOutcome:
        """Look one unit's outcome up by name."""
        for outcome in self.outcomes:
            if outcome.unit.name == unit_name:
                return outcome
        raise CampaignError(
            f"campaign {self.campaign.name!r} has no outcome for unit {unit_name!r}"
        )


def _run_unit(
    unit: CampaignUnit,
    spec: ScenarioSpec,
    *,
    store: Any,
    jobs: "int | None",
    fresh: bool,
    offline: bool,
) -> UnitOutcome:
    """Execute one unit's Monte Carlo plan through the store."""
    if unit.record == "summary":
        return _run_summary_unit(unit, spec, store=store, fresh=fresh, offline=offline)
    scenario = spec.materialize()
    missing_before = store.missing_trials(spec)
    if offline and missing_before:
        raise CampaignError(
            f"unit {unit.name!r} is not fully cached in {store.root}: "
            f"{len(missing_before)}/{spec.trials} trial(s) missing "
            f"(indices {missing_before[:8]}"
            f"{'...' if len(missing_before) > 8 else ''}) — execute it first "
            "('campaign run'), then render the report"
        )
    started = time.perf_counter()
    results = measure_protocol_parallel(
        scenario,
        trials=spec.trials,
        seed=spec.seed,
        jobs=1 if jobs is None else jobs,
        store=store,
        fresh=fresh,
    )
    seconds = time.perf_counter() - started
    computed = spec.trials if fresh else len(missing_before)
    return UnitOutcome(
        unit=unit,
        spec=spec,
        fingerprint=spec.fingerprint(),
        trials=spec.trials,
        seed=spec.seed,
        cached_trials=spec.trials - computed,
        computed_trials=computed,
        stats=aggregate_results(results),
        results=tuple(results),
        n=scenario.n,
        k=scenario.k,
        seconds=seconds,
        peak_rss_mib=_peak_rss_mib(),
        engine=scenario.select_engine(),
    )


def _run_summary_unit(
    unit: CampaignUnit,
    spec: ScenarioSpec,
    *,
    store: Any,
    fresh: bool,
    offline: bool,
) -> UnitOutcome:
    """Execute one unit through the streaming-summary store path.

    The asymptotic campaigns run decades up to ``n = 10^6``, where archiving
    full :class:`~repro.core.results.RunResult` payloads (per-node completion
    rounds included) would dwarf the statistics they exist to support.  This
    path differs from :func:`_run_unit` in two deliberate ways:

    * missing trials are computed **in-process** with
      :func:`~repro.experiments.parallel._measure_trial_indices` — the trial
      results stream straight into :meth:`~repro.store.ResultStore.put_summaries`
      without the parallel runner's full-record archival; and
    * statistics come from :meth:`~repro.store.ResultStore.aggregate`, which
      consumes summary and full records interchangeably — so a summary unit
      over a store already holding full records is served from cache,
      bit-identically.
    """
    scenario = spec.materialize()
    missing_before = store.missing_summary_trials(spec)
    if offline and missing_before:
        raise CampaignError(
            f"unit {unit.name!r} is not fully cached in {store.root}: "
            f"{len(missing_before)}/{spec.trials} trial(s) missing "
            f"(indices {missing_before[:8]}"
            f"{'...' if len(missing_before) > 8 else ''}) — execute it first "
            "('campaign run'), then render the report"
        )
    started = time.perf_counter()
    to_compute = list(range(spec.trials)) if fresh else list(missing_before)
    if to_compute:
        results = _measure_trial_indices(
            scenario.graph,
            scenario.protocol_factory,
            scenario.config,
            spec.seed,
            to_compute,
            spec.engine,
        )
        store.put_summaries(spec, dict(zip(to_compute, results)))
    stats = store.aggregate(spec)
    seconds = time.perf_counter() - started
    computed = len(to_compute)
    return UnitOutcome(
        unit=unit,
        spec=spec,
        fingerprint=spec.fingerprint(),
        trials=spec.trials,
        seed=spec.seed,
        cached_trials=spec.trials - computed,
        computed_trials=computed,
        stats=stats,
        results=(),
        n=scenario.n,
        k=scenario.k,
        seconds=seconds,
        peak_rss_mib=_peak_rss_mib(),
        engine=scenario.select_engine(),
    )


# ----------------------------------------------------------------------
# Artifact evaluation
# ----------------------------------------------------------------------
def _selected(
    artifact: ArtifactSpec, outcomes: Sequence[UnitOutcome]
) -> list[UnitOutcome]:
    """The outcomes an artifact covers (its unit list, or every unit)."""
    if not artifact.units:
        return list(outcomes)
    by_name = {outcome.unit.name: outcome for outcome in outcomes}
    return [by_name[name] for name in artifact.units]


def _bound_cells(outcome: UnitOutcome, names: Sequence[str]) -> dict[str, float]:
    """The ``<bound>`` and ``ratio(<bound>)`` cells of one measured-table row.

    Bounds come from :attr:`~repro.scenarios.MaterializedScenario.bounds` of
    the very spec the unit measured; the ratio is ``p95 / bound``, which
    stays O(1) across a table when the bound holds.
    """
    bounds = outcome.spec.materialize().bounds
    missing = [name for name in names if name not in bounds]
    if missing:
        raise CampaignError(
            f"unit {outcome.unit.name!r} defines no bound {missing} for its "
            f"{outcome.spec.protocol!r} workload; it has {sorted(bounds)}"
        )
    cells: dict[str, float] = {}
    for name in names:
        cells[name] = round(bounds[name], 2)
        cells[f"ratio({name})"] = round(outcome.stats.whp / bounds[name], 3)
    return cells


def _measured_table(
    artifact: ArtifactSpec, outcomes: Sequence[UnitOutcome]
) -> ArtifactResult:
    """One row of measured statistics per selected unit.

    ``params={"bounds": [...]}`` appends each named analytic bound and the
    unit's ratio to it (see :func:`_bound_cells`).
    """
    bound_names = dict(artifact.params).get("bounds", ())
    if isinstance(bound_names, str):
        raise CampaignError(
            f"artifact {artifact.label!r}: the bounds param is a list of "
            f"bound names, got the string {bound_names!r}"
        )
    rows = []
    for outcome in _selected(artifact, outcomes):
        scenario_label = outcome.unit.scenario or outcome.spec.name or "(inline)"
        row = {
            "unit": outcome.unit.name,
            "scenario": scenario_label,
            "topology": outcome.spec.topology,
            "n": outcome.n,
            "k": outcome.k,
            "trials": outcome.trials,
            "mean_rounds": round(outcome.stats.mean, 2),
            "p95_rounds": round(outcome.stats.whp, 2),
        }
        if bound_names:
            row.update(_bound_cells(outcome, bound_names))
        rows.append(row)
    return ArtifactResult(artifact=artifact, rows=tuple(rows))


def _table1_analytic(artifact: ArtifactSpec, _: Sequence[UnitOutcome]) -> ArtifactResult:
    params = dict(artifact.params)
    n = int(params.get("n", 16))
    k = int(params.get("k", 8))
    topologies = params.get("topologies", ("ring", "grid", "barbell"))
    graphs = {name: build_topology(name, n) for name in topologies}
    return ArtifactResult(artifact=artifact, rows=tuple(table1_rows(n, k, graphs=graphs)))


def _table2_analytic(artifact: ArtifactSpec, _: Sequence[UnitOutcome]) -> ArtifactResult:
    params = dict(artifact.params)
    n = int(params.get("n", 32))
    k = int(params.get("k", n))
    return ArtifactResult(artifact=artifact, rows=tuple(table2_rows(n, k)))


def _csv_extract(
    artifact: ArtifactSpec, outcomes: Sequence[UnitOutcome]
) -> ArtifactResult:
    from ..analysis.tables import rows_to_csv

    rows = []
    for outcome in _selected(artifact, outcomes):
        for trial, result in enumerate(outcome.results):
            rows.append(
                {
                    "unit": outcome.unit.name,
                    "fingerprint": outcome.fingerprint[:12],
                    "seed": outcome.seed,
                    "trial": trial,
                    "rounds": result.rounds,
                    "timeslots": result.timeslots,
                    "completed": result.completed,
                    "messages_sent": result.messages_sent,
                    "helpful_messages": result.helpful_messages,
                }
            )
    return ArtifactResult(artifact=artifact, csv=rows_to_csv(rows))


def _rank_evolution(
    artifact: ArtifactSpec, outcomes: Sequence[UnitOutcome]
) -> ArtifactResult:
    """Per-round rank curve of each selected unit's trial 0.

    Replayed on the event engine with a round-end hook that records one
    :class:`~repro.analysis.RoundSnapshot` per round (the store archives
    stopping times, not per-round ranks); one trial per unit, derived from
    the same ``trial-0`` stream as
    :meth:`~repro.scenarios.MaterializedScenario.run_single`, so the curve's
    endpoint matches the stored trial-0 stopping time.
    """
    from ..analysis.progress import RoundSnapshot
    from ..gossip.event import EventGossipEngine

    curves = []
    for outcome in _selected(artifact, outcomes):
        if outcome.spec.protocol not in ("uniform", "tag"):
            raise CampaignError(
                f"rank-evolution artifact {artifact.label!r}: unit "
                f"{outcome.unit.name!r} runs protocol "
                f"{outcome.spec.protocol!r}, which reports no decoder ranks "
                "(uniform/tag only)"
            )
        scenario = outcome.spec.materialize()
        rng = derive_rng(outcome.seed, "trial-0")
        snapshots: list[RoundSnapshot] = []

        def record(round_index: int, ranks: list[int]) -> None:
            snapshots.append(RoundSnapshot.from_ranks(round_index, ranks, scenario.k))

        process = scenario.protocol_factory(scenario.graph, rng)
        EventGossipEngine(
            scenario.graph, process, scenario.config, rng, on_round_end=record
        ).run()
        points = tuple(
            (
                float(snap.round_index),
                float(snap.min_rank),
                float(snap.median_rank),
                float(snap.max_rank),
            )
            for snap in snapshots
        )
        curves.append((outcome.unit.name, points))
    rows = [
        {
            "unit": name,
            "round": int(point[0]),
            "min_rank": point[1],
            "median_rank": point[2],
            "max_rank": point[3],
        }
        for name, points in curves
        for point in points
    ]
    from ..analysis.tables import rows_to_csv

    return ArtifactResult(
        artifact=artifact,
        csv=rows_to_csv(rows) if rows else "",
        curves=tuple(curves),
    )


def _asymptotic_fit(
    artifact: ArtifactSpec, outcomes: Sequence[UnitOutcome]
) -> ArtifactResult:
    """Exponent fits over the selected units' decade sweeps.

    Units are grouped into families by their ``group`` label (a group-less
    unit forms its own family).  Per family the artifact yields one fit
    row, per-decade CSV rows (measured mean/p95 next to the fitted
    prediction), and one log-log curve whose points are
    ``(log10 n, log10 mean, log10 fitted, log10 p95)`` — the shape
    :func:`repro.campaigns.report._svg_loglog` plots.

    A family whose data cannot identify an exponent (one size only, zero
    variance across sizes — degenerate cases :func:`fit_decades` rejects
    with a typed error) degrades to a row carrying the error text in its
    ``note`` column instead of failing the whole campaign: the trials are
    already archived and the report must still document them.  The strict
    behaviour lives in ``python -m repro analyze fit``.

    ``params`` tunes the fit: ``bootstrap`` (default 200), ``confidence``
    (default 0.95) and ``seed`` (default 0) pass straight through to
    :func:`~repro.analysis.fit_decades`.
    """
    from ..analysis.asymptotics import fit_decades
    from ..analysis.tables import rows_to_csv

    params = dict(artifact.params)
    bootstrap = int(params.get("bootstrap", 200))
    confidence = float(params.get("confidence", 0.95))
    fit_seed = int(params.get("seed", 0))
    families: dict[str, list[UnitOutcome]] = {}
    for outcome in _selected(artifact, outcomes):
        families.setdefault(outcome.unit.group or outcome.unit.name, []).append(
            outcome
        )
    rows: list[dict[str, Any]] = []
    csv_rows: list[dict[str, Any]] = []
    curves: list[tuple[str, tuple[tuple[float, float, float, float], ...]]] = []
    for family in sorted(families):
        members = sorted(families[family], key=lambda member: member.n)
        samples_by_n = {member.n: member.stats.samples for member in members}
        try:
            fit = fit_decades(
                samples_by_n,
                bootstrap=bootstrap,
                seed=fit_seed,
                confidence=confidence,
            )
        except AnalysisError as error:
            fit = None
            note = str(error)
        else:
            note = ""
        rows.append(
            {
                "family": family,
                "sizes": len(samples_by_n),
                "n_min": members[0].n,
                "n_max": members[-1].n,
                "exponent": round(fit.exponent, 4) if fit else "-",
                "ci_low": round(fit.ci_low, 4) if fit else "-",
                "ci_high": round(fit.ci_high, 4) if fit else "-",
                "r_squared": round(fit.r_squared, 4) if fit else "-",
                "coefficient": round(fit.coefficient, 4) if fit else "-",
                "note": note,
            }
        )
        points = []
        for member in members:
            csv_rows.append(
                {
                    "family": family,
                    "unit": member.unit.name,
                    "n": member.n,
                    "trials": member.trials,
                    "mean_rounds": member.stats.mean,
                    "p95_rounds": member.stats.whp,
                    "fitted_rounds": fit.predict(member.n) if fit else "",
                }
            )
            if fit is not None:
                points.append(
                    (
                        math.log10(member.n),
                        math.log10(member.stats.mean),
                        math.log10(fit.predict(member.n)),
                        math.log10(member.stats.whp),
                    )
                )
        if fit is not None:
            curves.append((f"{family} — {fit.summary()}", tuple(points)))
    return ArtifactResult(
        artifact=artifact,
        rows=tuple(rows),
        csv=rows_to_csv(csv_rows) if csv_rows else "",
        curves=tuple(curves),
    )


_ARTIFACT_BUILDERS: dict[
    str, Callable[[ArtifactSpec, Sequence[UnitOutcome]], ArtifactResult]
] = {
    "measured-table": _measured_table,
    "table1-analytic": _table1_analytic,
    "table2-analytic": _table2_analytic,
    "csv": _csv_extract,
    "rank-evolution": _rank_evolution,
    "asymptotic-fit": _asymptotic_fit,
}


def run_campaign(
    campaign: CampaignSpec,
    *,
    store: Any,
    trials: "int | None" = None,
    seed: "int | None" = None,
    jobs: "int | None" = None,
    fresh: bool = False,
    offline: bool = False,
    progress: "Callable[[str], None] | None" = None,
) -> CampaignResult:
    """Execute a campaign incrementally through ``store`` and evaluate artifacts.

    Parameters
    ----------
    campaign:
        The :class:`~repro.campaigns.CampaignSpec` to execute.
    store:
        A :class:`~repro.store.ResultStore`; required, because incremental
        execution *is* the campaign contract (pass a throwaway directory to
        run cold).
    trials, seed:
        Campaign-wide plan overrides applied to every unit (e.g. the CLI's
        smoke-scale ``--trials 2``); ``None`` keeps each unit's own plan.
    jobs:
        Worker processes.  With ``jobs > 1`` one process pool is shared by
        every unit (:func:`~repro.experiments.parallel.shared_process_pool`)
        rather than forked per sweep.
    fresh:
        Recompute every trial, bypassing cache reads; recomputed results are
        verified against the archive (see
        :meth:`~repro.store.ResultStore.put_many`).
    offline:
        Report-only mode: raise :class:`~repro.errors.CampaignError` instead
        of simulating when any unit has missing Monte Carlo trials.
        ``python -m repro campaign report`` uses this to render reports
        without executing any unit's trial plan.  Rank-evolution artifacts
        are the one exception in either mode: they replay trial 0 of each
        named unit on the event engine (the store archives stopping times,
        not per-round rank snapshots) — a few hundredths of a second for
        ``full-paper``'s two barbell units.
    progress:
        Optional callback receiving one human-readable line per unit as it
        completes (the CLI passes ``print``).
    """
    if store is None:
        raise CampaignError(
            "run_campaign requires a ResultStore: incremental, resumable "
            "execution is the campaign contract (point it at a fresh "
            "directory for a cold run)"
        )
    ordered = campaign.execution_order()
    specs = campaign.resolved_specs(trials=trials, seed=seed)
    started = time.perf_counter()
    outcomes: list[UnitOutcome] = []
    pool_context = (
        shared_process_pool(jobs)
        if jobs is not None and jobs > 1
        else contextlib.nullcontext()
    )
    with pool_context:
        for index, unit in enumerate(ordered):
            outcome = _run_unit(
                unit,
                specs[unit.name],
                store=store,
                jobs=jobs,
                fresh=fresh,
                offline=offline,
            )
            outcomes.append(outcome)
            if progress is not None:
                progress(
                    f"[{index + 1}/{len(ordered)}] {unit.name}: "
                    f"{outcome.status} ({outcome.cached_trials} cached, "
                    f"{outcome.computed_trials} computed) — "
                    f"mean {outcome.stats.mean:.1f} rounds — "
                    f"engine {outcome.engine[0]} ({outcome.engine[1]})"
                )
    artifacts = tuple(
        _ARTIFACT_BUILDERS[artifact.kind](artifact, outcomes)
        for artifact in campaign.artifacts
    )
    return CampaignResult(
        campaign=campaign,
        outcomes=tuple(outcomes),
        artifacts=artifacts,
        store_root=str(store.root),
        store_hits=store.hits,
        store_puts=store.puts,
        trials_override=trials,
        seed_override=seed,
        jobs=jobs,
        seconds=time.perf_counter() - started,
    )
