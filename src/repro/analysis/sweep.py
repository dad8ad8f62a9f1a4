"""Parameter sweeps: measure how the stopping time scales with ``n`` or ``k``.

A sweep is a list of *cases*.  Each case carries its graph, its protocol
factory and its configuration; the sweep runner executes every case for a
number of independent trials and returns one :class:`SweepPoint` per case,
carrying the stopping-time statistics plus whatever bound values the case
attaches.  The benchmark harness prints sweeps as the rows/series of the
paper's tables.

Cases are built from the scenario layer: a
:class:`~repro.scenarios.ScenarioSpec` materialises into a :class:`SweepCase`
(via :func:`repro.scenarios.scenario_case` or
:meth:`~repro.scenarios.MaterializedScenario.sweep_case`), and
:func:`run_sweep` also accepts bare specs and materialises them itself.  A
case built that way keeps a reference to its spec, so sweep results stay
traceable to a declarative, serialisable description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core.config import SimulationConfig
from ..core.results import StoppingTimeStats
from ..errors import AnalysisError
from ..graphs.csr import CSRGraph
from .stopping_time import ProtocolFactory

__all__ = ["SweepCase", "SweepPoint", "run_sweep", "scaling_table"]


@dataclass(frozen=True)
class SweepCase:
    """One point of a parameter sweep.

    Attributes
    ----------
    label:
        Human-readable identifier (e.g. ``"n=64"`` or ``"k=32"``).
    value:
        The swept parameter's numeric value (used for scaling fits).
    graph:
        The communication graph for this case.
    protocol_factory:
        Builds a fresh protocol per trial.
    config:
        Simulation configuration for this case.
    bounds:
        Named bound values evaluated for this case (e.g.
        ``{"theorem1": 412.0, "lower": 36.0}``); copied into the sweep point.
    spec:
        The :class:`~repro.scenarios.ScenarioSpec` this case was materialised
        from, when it came through the scenario layer (``None`` for
        hand-assembled cases).  Typed loosely because the scenario layer
        sits above this module in the dependency stack.
    """

    label: str
    value: float
    graph: CSRGraph
    protocol_factory: ProtocolFactory
    config: SimulationConfig
    bounds: dict[str, float] = field(default_factory=dict)
    spec: Any = None


@dataclass(frozen=True)
class SweepPoint:
    """Result of one sweep case: the measured statistics plus the attached bounds."""

    label: str
    value: float
    stats: StoppingTimeStats
    bounds: dict[str, float]

    @property
    def mean(self) -> float:
        return self.stats.mean

    @property
    def whp(self) -> float:
        return self.stats.whp

    def ratio_to(self, bound_name: str) -> float:
        """``measured (p95) / bound`` — should stay O(1) across the sweep if the bound holds."""
        try:
            bound = self.bounds[bound_name]
        except KeyError:
            raise AnalysisError(
                f"no bound named {bound_name!r}; available: {sorted(self.bounds)}"
            ) from None
        if bound <= 0:
            raise AnalysisError(f"bound {bound_name!r} must be positive, got {bound}")
        return self.stats.whp / bound


def run_sweep(
    cases: Sequence[Any],
    *,
    trials: int = 5,
    seed: int = 0,
    jobs: int | None = None,
    store: Any = None,
    fresh: bool = False,
) -> list[SweepPoint]:
    """Execute every case of a sweep and return one point per case.

    Parameters
    ----------
    cases:
        :class:`SweepCase` values, or bare
        :class:`~repro.scenarios.ScenarioSpec` values (materialised here
        with their default label/value/bounds) — mixing both is fine.
        A sweep is a *comparative* experiment, so the sweep-level ``trials``
        and ``seed`` below apply uniformly to every case; a bare spec's own
        trial/seed plan is deliberately not consulted here (it drives the
        single-scenario runners:
        :meth:`~repro.scenarios.MaterializedScenario.run`,
        :func:`~repro.experiments.parallel.run_trials_parallel`, the CLI).
    trials, seed:
        Monte Carlo repetitions per case and the root seed; case ``i`` uses
        ``seed + i * 10_007`` so cases stay independent.
    jobs:
        When set (> 1), each case's trials are spread over that many worker
        processes.  Every case runs through
        :func:`repro.experiments.parallel.run_trials_parallel` on the engine
        family its spec names (auto-selected for hand-assembled cases);
        engines are bit-identical, so the choice never changes a result.
    store, fresh:
        A :class:`~repro.store.ResultStore` makes the sweep cache-aware and
        resumable: for every case that carries a scenario spec (all cases
        built through the scenario layer do) only the
        ``(fingerprint, case seed, trial)`` records not already stored are
        simulated; the rest are read back, bit-identical.  An interrupted
        sweep rerun against the same store finishes only the remaining
        trials; a fully cached rerun computes nothing.  Hand-assembled cases
        without a spec have no content address and always compute.
        ``fresh=True`` bypasses the cache reads (results are still
        persisted).  Note that each case's root seed derives from its
        *position* (``seed + index * 10_007``), so extending a cached sweep
        keeps existing cases cached only when new cases are **appended**;
        inserting or reordering shifts the later cases' seeds and they
        recompute (correctly, just not from cache).
    """
    if not cases:
        raise AnalysisError("run_sweep requires at least one case")
    if jobs is not None and jobs < 1:
        raise AnalysisError(f"jobs must be positive, got {jobs}")
    # Imported lazily: these modules sit above repro.analysis in the
    # dependency stack, so top-level imports would be circular.
    from ..experiments.parallel import run_trials_parallel
    from ..scenarios.spec import ScenarioSpec

    cases = [
        case.materialize().sweep_case() if isinstance(case, ScenarioSpec) else case
        for case in cases
    ]

    points: list[SweepPoint] = []
    for index, case in enumerate(cases):
        case_seed = seed + index * 10_007
        stats = run_trials_parallel(
            case.graph, case.protocol_factory, case.config,
            trials=trials, seed=case_seed, jobs=jobs or 1,
            store=store if case.spec is not None else None, fresh=fresh,
            spec=case.spec,
        )
        points.append(
            SweepPoint(
                label=case.label,
                value=case.value,
                stats=stats,
                bounds=dict(case.bounds),
            )
        )
    return points


def scaling_table(
    points: Sequence[SweepPoint],
    *,
    bound_names: Sequence[str] = (),
    value_header: str = "value",
) -> list[dict[str, Any]]:
    """Turn sweep points into table rows (list of dicts) for reporting.

    Each row carries the swept value, the mean / p95 stopping times, and one
    ``<bound>`` plus ``ratio(<bound>)`` column per requested bound name.
    """
    rows: list[dict[str, Any]] = []
    for point in points:
        row: dict[str, Any] = {
            value_header: point.value,
            "label": point.label,
            "mean_rounds": round(point.mean, 2),
            "p95_rounds": round(point.whp, 2),
            "trials": point.stats.trials,
        }
        for name in bound_names:
            row[name] = round(point.bounds.get(name, float("nan")), 2)
            if name in point.bounds:
                row[f"ratio({name})"] = round(point.ratio_to(name), 3)
        rows.append(row)
    return rows
