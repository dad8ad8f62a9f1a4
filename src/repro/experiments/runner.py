"""Named, reproducible experiment definitions.

Every table/figure reproduction in DESIGN.md has an experiment id (E1–E10).
This module gives each a *named, parameterised, reproducible* definition that
both the benchmark harness and EXPERIMENTS.md generation call into, so the
numbers reported in documentation and the numbers produced by
``pytest benchmarks/`` come from the same code path.

An :class:`Experiment` bundles a builder function returning the list of
:class:`~repro.analysis.sweep.SweepCase` objects to run; :func:`run_experiment`
executes it and returns the sweep points plus the scaling table rows.

Case construction is entirely delegated to the scenario layer
(:mod:`repro.scenarios`): :func:`uniform_ag_case` and :func:`tag_case` are
thin wrappers that assemble a :class:`~repro.scenarios.ScenarioSpec` and
materialise it, so every experiment case is traceable to a declarative,
JSON-serialisable spec (``case.spec``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..analysis.sweep import SweepCase, SweepPoint, run_sweep, scaling_table
from ..core.config import SimulationConfig, TimeModel
from ..errors import AnalysisError
from ..scenarios.spec import (
    ScenarioSpec,
    SpanningTreeFactory,
    TagFactory,
    UniformGossipFactory,
    default_scenario_config,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "EXPERIMENTS",
    "register_experiment",
    "run_experiment",
    "uniform_ag_case",
    "tag_case",
    "default_config",
    "UniformGossipFactory",
    "TagFactory",
    "SpanningTreeFactory",
]


def default_config(
    *,
    time_model: TimeModel = TimeModel.SYNCHRONOUS,
    field_size: int = 16,
    max_rounds: int = 50_000,
    allow_incomplete: bool = False,
) -> SimulationConfig:
    """The configuration experiments share unless they say otherwise."""
    return default_scenario_config(
        time_model=time_model,
        field_size=field_size,
        max_rounds=max_rounds,
        allow_incomplete=allow_incomplete,
    )


def uniform_ag_case(
    topology: str,
    n: int,
    k: int,
    *,
    config: SimulationConfig | None = None,
    label: str | None = None,
    value: float | None = None,
    **topology_kwargs: Any,
) -> SweepCase:
    """Build a sweep case running uniform algebraic gossip on a named topology."""
    spec = ScenarioSpec(
        topology=topology,
        n=n,
        k=k,
        protocol="uniform",
        topology_params=topology_kwargs,
        config=config if config is not None else default_config(),
    )
    scenario = spec.materialize()
    return scenario.sweep_case(
        label=label or f"{topology}(n={scenario.n}, k={scenario.k})",
        value=value if value is not None else scenario.n,
    )


def tag_case(
    topology: str,
    n: int,
    k: int,
    *,
    spanning_tree: str = "brr",
    config: SimulationConfig | None = None,
    label: str | None = None,
    value: float | None = None,
    **topology_kwargs: Any,
) -> SweepCase:
    """Build a sweep case running TAG with the named spanning-tree protocol."""
    from ..scenarios.spec import TREE_PROTOCOLS

    if spanning_tree not in TREE_PROTOCOLS:
        raise AnalysisError(
            f"unknown spanning tree protocol {spanning_tree!r}; "
            f"known: {sorted(TREE_PROTOCOLS)}"
        )
    spec = ScenarioSpec(
        topology=topology,
        n=n,
        k=k,
        protocol="tag",
        spanning_tree=spanning_tree,
        topology_params=topology_kwargs,
        config=config if config is not None else default_config(),
    )
    scenario = spec.materialize()
    return scenario.sweep_case(
        label=label or f"TAG+{spanning_tree} {topology}(n={scenario.n}, k={scenario.k})",
        value=value if value is not None else scenario.n,
    )


@dataclass(frozen=True)
class Experiment:
    """A named experiment: an id, a description and a case builder."""

    experiment_id: str
    description: str
    build_cases: Callable[[], Sequence[SweepCase]]
    bound_names: tuple[str, ...] = ()
    trials: int = 3
    value_header: str = "value"


@dataclass(frozen=True)
class ExperimentResult:
    """The outcome of running a named experiment."""

    experiment: Experiment
    points: list[SweepPoint]
    rows: list[dict[str, Any]] = field(default_factory=list)


#: Registry of named experiments (populated below and extendable by users).
EXPERIMENTS: dict[str, Experiment] = {}


def register_experiment(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry (overwriting an existing id)."""
    EXPERIMENTS[experiment.experiment_id] = experiment
    return experiment


def run_experiment(
    experiment_id: str,
    *,
    trials: int | None = None,
    seed: int = 0,
    jobs: int | None = None,
    store: Any = None,
    fresh: bool = False,
) -> ExperimentResult:
    """Run a registered experiment and return its sweep points and table rows.

    ``jobs`` is forwarded to :func:`~repro.analysis.sweep.run_sweep`, which
    spreads the trials of each case over that many worker processes without
    changing the results — same seeds, same stopping times.  ``store`` (a
    :class:`~repro.store.ResultStore`) reuses every already-cached trial and
    persists the rest, so repeating an experiment — or extending it with
    cases *appended* to its list — only simulates what the store does not
    yet hold (case seeds are position-derived; see
    :func:`~repro.analysis.sweep.run_sweep`).
    """
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        raise AnalysisError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    cases = list(experiment.build_cases())
    points = run_sweep(
        cases, trials=trials or experiment.trials, seed=seed, jobs=jobs,
        store=store, fresh=fresh,
    )
    rows = scaling_table(
        points, bound_names=experiment.bound_names, value_header=experiment.value_header
    )
    return ExperimentResult(experiment=experiment, points=points, rows=rows)


# ----------------------------------------------------------------------
# Built-in experiment definitions (small sizes: they must run in CI time).
# ----------------------------------------------------------------------
register_experiment(
    Experiment(
        experiment_id="E1-uniform-ag",
        description="Theorem 1: uniform AG vs O((k + log n + D)Δ) on several topologies",
        build_cases=lambda: [
            uniform_ag_case("line", 16, 8),
            uniform_ag_case("grid", 16, 8),
            uniform_ag_case("complete", 16, 8),
            uniform_ag_case("binary_tree", 16, 8),
        ],
        bound_names=("theorem1", "lower"),
        value_header="n",
    )
)

register_experiment(
    Experiment(
        experiment_id="E2-constant-degree",
        description="Theorem 3: Θ(k + D) scaling on constant-degree graphs (k sweep)",
        build_cases=lambda: [
            uniform_ag_case("ring", 16, k, label=f"ring k={k}", value=k) for k in (2, 4, 8, 16)
        ],
        bound_names=("theorem3", "lower"),
        value_header="k",
    )
)

register_experiment(
    Experiment(
        experiment_id="E3-tag",
        description="Theorem 4: TAG with broadcast spanning trees on bottleneck graphs",
        build_cases=lambda: [
            tag_case("barbell", 16, 16, spanning_tree="brr"),
            tag_case("barbell", 16, 16, spanning_tree="uniform_broadcast"),
            tag_case("grid", 16, 16, spanning_tree="brr"),
        ],
        bound_names=("theorem4", "lower"),
        value_header="n",
    )
)

register_experiment(
    Experiment(
        experiment_id="E4-tag-omega-n",
        description="Section 5: TAG + B_RR is Θ(n) for k = n on any graph",
        build_cases=lambda: [
            tag_case("barbell", n, n, spanning_tree="brr", value=n) for n in (8, 16, 24)
        ],
        bound_names=("tag_brr", "lower"),
        value_header="n",
    )
)

register_experiment(
    Experiment(
        experiment_id="E5-tag-is",
        description="Theorems 7/8: TAG + IS on large-weak-conductance graphs",
        build_cases=lambda: [
            tag_case("barbell", 16, 16, spanning_tree="is"),
            tag_case("clique_chain", 16, 16, spanning_tree="is", cliques=4),
        ],
        bound_names=("lower",),
        value_header="n",
    )
)

register_experiment(
    Experiment(
        experiment_id="E8-barbell",
        description="Barbell worst case: uniform AG (slow) vs TAG + B_RR (Θ(n))",
        build_cases=lambda: [
            uniform_ag_case(
                "barbell",
                12,
                12,
                label="uniform AG barbell",
                config=default_config(max_rounds=200_000),
            ),
            tag_case("barbell", 12, 12, spanning_tree="brr", label="TAG+BRR barbell"),
        ],
        bound_names=("lower",),
        value_header="n",
    )
)
