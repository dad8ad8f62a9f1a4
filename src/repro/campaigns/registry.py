"""Built-in campaign registry: the paper's evaluation as named campaigns.

Each entry reproduces one coordinated piece of the paper's evidence —
``table1`` and ``table2`` for the two tables, ``theorem2`` and ``theorem5``
for the queueing-reduction and broadcast-tree experiments, ``bounds`` for
the measured-vs-bound tables E1-E5 and E8 — and ``full-paper`` strings the
first four together into the one-command reproduction behind
``docs/reproducing_results.md``::

    python -m repro campaign list
    python -m repro campaign run table1 --trials 2
    python -m repro campaign run bounds
    python -m repro campaign run full-paper

The benchmark scripts that render the same tables
(``benchmarks/bench_table2_comparison.py``,
``benchmarks/bench_theorem5_brr.py``) pull their workload specs *from this
registry*, so a campaign run, a benchmark run and a CLI scenario run of the
same unit are the same seeded trials — and share store records.

Registering is open: :func:`register_campaign` makes a user-built
:class:`~repro.campaigns.CampaignSpec` addressable by name, exactly like
:func:`repro.scenarios.register_scenario` does for scenarios.
"""

from __future__ import annotations

from ..core.config import SimulationConfig, TimeModel
from ..errors import CampaignError
from ..scenarios.registry import get_scenario, suggest_names
from ..scenarios.spec import ScenarioSpec, default_scenario_config
from ..scenarios.sweeps import decade_sweep, log_sized_cliques
from .spec import ArtifactSpec, CampaignSpec, CampaignUnit

__all__ = [
    "CAMPAIGNS",
    "register_campaign",
    "get_campaign",
    "campaign_names",
    "asymptotics_campaign",
]

#: Name → campaign.  Populated below; extendable through :func:`register_campaign`.
CAMPAIGNS: dict[str, CampaignSpec] = {}


def register_campaign(campaign: CampaignSpec, *, overwrite: bool = False) -> CampaignSpec:
    """Add a campaign to the registry and return it."""
    if campaign.name in CAMPAIGNS and not overwrite:
        raise CampaignError(
            f"campaign {campaign.name!r} is already registered (pass overwrite=True)"
        )
    CAMPAIGNS[campaign.name] = campaign
    return campaign


def get_campaign(name: str) -> CampaignSpec:
    """Look a campaign up by name.

    An unknown name raises :class:`~repro.errors.CampaignError` with a
    close-match suggestion (mirroring
    :func:`repro.scenarios.get_scenario`), so CLI typos exit cleanly.

    >>> get_campaign("table1").units[0].scenario
    'uniform/line'
    """
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise CampaignError(
            f"unknown campaign {name!r}{suggest_names(name, CAMPAIGNS)} "
            f"(known: {sorted(CAMPAIGNS)})"
        ) from None


def campaign_names() -> list[str]:
    """Sorted names of every registered campaign."""
    return sorted(CAMPAIGNS)


# ----------------------------------------------------------------------
# Built-in campaigns.
#
# Unit sizes follow the sources they reproduce: the table1 units are the
# registered CI-sized scenarios; the table2 / theorem2 / theorem5 units are
# the exact workloads (topology, n, config, trials, seed) of the benchmark
# scripts, so campaign runs and benchmark runs share store records.
# ----------------------------------------------------------------------

_TABLE1_UNIFORM = ("line", "ring", "grid", "complete", "binary_tree", "barbell")
_TABLE1_TAG = (
    "tag/brr-barbell",
    "tag/uniform-broadcast-barbell",
    "tag/brr-grid",
    "tag/brr-barbell-async",
    "tag/is-barbell",
    "tag/is-clique-chain",
)

register_campaign(
    CampaignSpec(
        name="table1",
        title="Table 1 — protocol comparison (Theorems 1, 3, 4, 7-8)",
        description=(
            "The paper's headline table: uniform algebraic gossip on every "
            "topology family next to TAG composed with each spanning-tree "
            "protocol, with the analytic bounds alongside the measured "
            "stopping times."
        ),
        units=tuple(
            CampaignUnit(
                name=f"uniform-{topology}",
                scenario=f"uniform/{topology}",
                group="uniform",
            )
            for topology in _TABLE1_UNIFORM
        )
        + (
            CampaignUnit(
                name="uniform-ring-all-to-all",
                scenario="uniform/ring-all-to-all",
                group="uniform",
            ),
        )
        + tuple(
            CampaignUnit(
                name=scenario.split("/", 1)[1],
                scenario=scenario,
                group="tag",
            )
            for scenario in _TABLE1_TAG
        ),
        artifacts=(
            ArtifactSpec(
                kind="table1-analytic",
                title="Table 1 (analytic bounds)",
                params={"n": 16, "k": 8, "topologies": ["ring", "grid", "barbell"]},
            ),
            ArtifactSpec(
                kind="measured-table",
                title="Table 1 rows — measured stopping times (uniform AG)",
                units=tuple(f"uniform-{t}" for t in _TABLE1_UNIFORM)
                + ("uniform-ring-all-to-all",),
            ),
            ArtifactSpec(
                kind="measured-table",
                title="Table 1 rows — measured stopping times (TAG)",
                units=tuple(s.split("/", 1)[1] for s in _TABLE1_TAG),
            ),
            ArtifactSpec(
                kind="rank-evolution",
                title="Rank evolution on the barbell (uniform vs TAG)",
                units=("uniform-barbell", "brr-barbell"),
            ),
        ),
    )
)


def _variant(scenario: str, **changes) -> ScenarioSpec:
    """A registered scenario with some axes changed, as an unnamed inline spec."""
    return get_scenario(scenario).replace(name="", description="", **changes)


#: The measured-vs-bound tables: (table id, title, bounds, units).  Each unit
#: is (name, registered scenario or inline spec); a unit that another table
#: already declares is referenced by name alone.  Units naming a registered
#: scenario run its own plan, so they share store records with ``table1``.
_BOUNDS_TABLES = (
    (
        "E1-uniform-ag",
        "Theorem 1: uniform AG vs O((k + log n + D)Δ) on several topologies",
        ("theorem1", "lower"),
        tuple(
            (f"uniform-{topology}", f"uniform/{topology}")
            for topology in ("line", "grid", "complete", "binary_tree")
        ),
    ),
    (
        "E2-constant-degree",
        "Theorem 3: Θ(k + D) scaling on constant-degree graphs (k sweep)",
        ("theorem3", "lower"),
        (
            ("ring-k2", _variant("uniform/ring", k=2)),
            ("ring-k4", _variant("uniform/ring", k=4)),
            ("ring-k8", "uniform/ring"),
            ("ring-k16", "uniform/ring-all-to-all"),
        ),
    ),
    (
        "E3-tag",
        "Theorem 4: TAG with broadcast spanning trees on bottleneck graphs",
        ("theorem4", "lower"),
        tuple(
            (name, f"tag/{name}")
            for name in ("brr-barbell", "uniform-broadcast-barbell", "brr-grid")
        ),
    ),
    (
        "E4-tag-omega-n",
        "Section 5: TAG + B_RR is Θ(n) for k = n on any graph",
        ("tag_brr", "lower"),
        (
            ("brr-barbell-n8", _variant("tag/brr-barbell", n=8)),
            ("brr-barbell", None),
            ("brr-barbell-n24", _variant("tag/brr-barbell", n=24)),
        ),
    ),
    (
        "E5-tag-is",
        "Theorems 7/8: TAG + IS on large-weak-conductance graphs",
        ("lower",),
        tuple((name, f"tag/{name}") for name in ("is-barbell", "is-clique-chain")),
    ),
    (
        "E8-barbell",
        "Barbell worst case: uniform AG (slow) vs TAG + B_RR (Θ(n))",
        ("lower",),
        (
            ("uniform-barbell-n12", "uniform/barbell-worst-case"),
            ("brr-barbell-n12", _variant("tag/brr-barbell", n=12)),
        ),
    ),
)


def _bounds_unit(
    name: str, workload: "str | ScenarioSpec", table: str
) -> CampaignUnit:
    """One ``bounds`` unit: a registered scenario name or an inline spec."""
    if isinstance(workload, str):
        return CampaignUnit(name=name, scenario=workload, group=table)
    return CampaignUnit(name=name, spec=workload, group=table)


register_campaign(
    CampaignSpec(
        name="bounds",
        title="Measured stopping times against the paper's bounds (E1-E5, E8)",
        description=(
            "Each table sets one claim's measured p95 stopping times next to "
            "its analytic bounds, evaluated on the same materialised "
            "workload; ratio(<bound>) = p95 / bound stays O(1) when the "
            "bound holds."
        ),
        units=tuple(
            _bounds_unit(name, workload, table)
            for table, _, _, units in _BOUNDS_TABLES
            for name, workload in units
            if workload is not None
        ),
        artifacts=tuple(
            ArtifactSpec(
                kind="measured-table",
                title=f"{table} — {title}",
                units=tuple(name for name, _ in units),
                params={"bounds": list(bounds)},
            )
            for table, title, bounds, units in _BOUNDS_TABLES
        ),
    )
)

# The measured column of Table 2 — the same specs
# benchmarks/bench_table2_comparison.py runs (n=32, trials=3, seed=606).
_TABLE2_N = 32
_TABLE2_TRIALS = 3
_TABLE2_SEED = 606
_TABLE2_FAMILIES = ("line", "grid", "binary_tree")

register_campaign(
    CampaignSpec(
        name="table2",
        title="Table 2 — this paper's bound vs Haeupler's, with measured times",
        description=(
            "Both bound expressions evaluated on real constructed graphs "
            "(gamma and lambda measured), plus the measured uniform-AG "
            "stopping time per family — the same seeded workloads as "
            "benchmarks/bench_table2_comparison.py."
        ),
        units=tuple(
            CampaignUnit(
                name=f"uniform-{topology}",
                spec=ScenarioSpec(
                    topology=topology,
                    n=_TABLE2_N,
                    config=default_scenario_config(max_rounds=500_000),
                    trials=_TABLE2_TRIALS,
                    seed=_TABLE2_SEED,
                ),
                group="measured",
            )
            for topology in _TABLE2_FAMILIES
        ),
        artifacts=(
            ArtifactSpec(
                kind="table2-analytic",
                title="Table 2 (analytic, measured graph parameters)",
                params={"n": _TABLE2_N, "k": _TABLE2_N},
            ),
            ArtifactSpec(
                kind="measured-table",
                title="Table 2 measured stopping times",
            ),
            ArtifactSpec(kind="csv", title="Per-trial stopping times"),
        ),
    )
)

# The gossip side of the Theorem 2 reduction — the same specs
# benchmarks/bench_theorem2_queueing.py measures (n=16, GF(2), seed=708).
_THEOREM2_TRIALS = 3
_THEOREM2_SEED = 708

register_campaign(
    CampaignSpec(
        name="theorem2",
        title="Theorem 2 — gossip side of the queueing reduction",
        description=(
            "The measured uniform-AG stopping times the queueing-network "
            "prediction must upper-bound (the dominance chain itself is "
            "analytic; see benchmarks/bench_theorem2_queueing.py), plus the "
            "Theorem 3 all-to-all regime on the ring."
        ),
        units=tuple(
            CampaignUnit(
                name=f"uniform-{topology}-gf2",
                spec=ScenarioSpec(
                    topology=topology,
                    n=16,
                    config=SimulationConfig(
                        field_size=2,
                        payload_length=2,
                        time_model=TimeModel.SYNCHRONOUS,
                        max_rounds=500_000,
                    ),
                    trials=_THEOREM2_TRIALS,
                    seed=_THEOREM2_SEED,
                ),
                group="reduction",
            )
            for topology in ("ring", "grid")
        )
        + (
            CampaignUnit(
                name="ring-all-to-all",
                scenario="uniform/ring-all-to-all",
                group="reduction",
            ),
        ),
        artifacts=(
            ArtifactSpec(
                kind="measured-table",
                title="Measured gossip stopping times (queueing bound must sit above)",
            ),
            ArtifactSpec(kind="csv", title="Per-trial stopping times"),
        ),
    )
)

# Theorem 5 — standalone B_RR broadcast, one unit per (topology, time model);
# the same specs benchmarks/bench_theorem5_brr.py sweeps (n=32, seed=0).
_THEOREM5_N = 32
_THEOREM5_TRIALS = 3
_THEOREM5_TOPOLOGIES = ("line", "grid", "barbell", "complete", "binary_tree")


def _theorem5_spec(topology: str, time_model: TimeModel) -> ScenarioSpec:
    """One standalone-B_RR broadcast workload of the Theorem 5 sweep."""
    return ScenarioSpec(
        topology=topology,
        n=_THEOREM5_N,
        protocol="spanning_tree",
        spanning_tree="brr",
        config=SimulationConfig(
            time_model=time_model, max_rounds=100 * _THEOREM5_N
        ),
        trials=_THEOREM5_TRIALS,
        seed=0,
    )


register_campaign(
    CampaignSpec(
        name="theorem5",
        title="Theorem 5 — round-robin broadcast B_RR finishes in O(n) rounds",
        description=(
            "Standalone B_RR spanning-tree broadcast on five topologies in "
            "both time models (the 3n bound), plus the Section 6 IS tree "
            "construction — the same seeded workloads as "
            "benchmarks/bench_theorem5_brr.py."
        ),
        units=tuple(
            CampaignUnit(
                name=f"brr-{topology}-{time_model.value}",
                spec=_theorem5_spec(topology, time_model),
                group=time_model.value,
            )
            for time_model in (TimeModel.SYNCHRONOUS, TimeModel.ASYNCHRONOUS)
            for topology in _THEOREM5_TOPOLOGIES
        )
        + (
            CampaignUnit(
                name="is-clique-chain",
                scenario="tree/is-clique-chain",
                group="is",
            ),
        ),
        artifacts=(
            ArtifactSpec(
                kind="measured-table",
                title="B_RR broadcast rounds, synchronous (bound: 3n)",
                units=tuple(
                    f"brr-{t}-synchronous" for t in _THEOREM5_TOPOLOGIES
                ),
            ),
            ArtifactSpec(
                kind="measured-table",
                title="B_RR broadcast rounds, asynchronous (bound: O(n) w.h.p.)",
                units=tuple(
                    f"brr-{t}-asynchronous" for t in _THEOREM5_TOPOLOGIES
                ),
            ),
        ),
    )
)


# ----------------------------------------------------------------------
# Asymptotics — the order-of-growth campaign behind docs/reproducing_results.md
# chapter "Measuring the asymptotic stopping-time exponent".
# ----------------------------------------------------------------------

#: Family label → (base scenario name, topology_params policy, scale
#: divisor).  Both bases run uniform AG over GF(2) through the event
#: engine, on the packed GF(2) eliminator.
#:
#: The divisor equalises *event cost* across families rather than node
#: count: per trial the event engine pays ``T(n)·n`` timeslots, which grows
#: ~``n^1.15`` on the expanders (near-constant stopping time at fixed
#: ``k``) but ~``n^1.9`` on the conductance-limited ring of cliques
#: (``T(n) ≈ n^0.93``).  Walking the ring family one decade lower
#: (``n / 10``) makes its decades cost roughly what the expander decades
#: cost (``10^0.9 ≈ 8×``), which is what keeps the CI-sized campaign in
#: minutes and the full-scale one in hours instead of weeks.
_ASYMPTOTICS_FAMILIES = (
    ("er-logn", "event/er-logn", None, 1),
    ("ring-of-cliques", "event/ring-of-cliques", log_sized_cliques, 10),
)


def asymptotics_campaign(
    *,
    min_n: int = 1_000,
    max_n: int = 10_000,
    points_per_decade: int = 1,
    trials: "int | None" = None,
) -> CampaignSpec:
    """The decade-sweep stopping-time campaign, at a configurable scale.

    Two families walk ``n`` up the decades: the ``c·log n / n``
    Erdős–Rényi expanders (Theorem 2's O(n) regime) from ``min_n`` to
    ``max_n``, and the ring of log-sized cliques (conductance-limited;
    clique count scales as ``Θ(n / log n)`` via
    :func:`~repro.scenarios.log_sized_cliques`) one decade lower
    (``min_n/10 .. max_n/10`` — see ``_ASYMPTOTICS_FAMILIES`` for why that
    equalises per-decade event cost).  Every unit records through the
    streaming-summary store path (``record="summary"``) and each family's
    decades chain ``after`` one another small-to-large, so an interrupted
    run resumes exactly at the decade it stopped in.  One
    ``asymptotic-fit`` artifact fits both families' exponents with
    bootstrap CIs.

    The registered ``asymptotics`` campaign is this builder at its CI-sized
    defaults (``10^3..10^4``).  The CLI rebuilds it on demand:
    ``python -m repro campaign run asymptotics --max-n 1000000`` is the
    full-scale (n = 10^6) measurement — see docs/reproducing_results.md for
    the runtime/RSS budget.
    """
    units: list[CampaignUnit] = []
    for family, scenario_name, params, divisor in _ASYMPTOTICS_FAMILIES:
        base = get_scenario(scenario_name)
        if min_n // divisor < 2 * base.k:
            raise CampaignError(
                f"family {family!r} walks decades from n = min_n/{divisor} "
                f"= {min_n // divisor}, too small to place its k = {base.k} "
                f"messages comfortably — raise --min-n to at least "
                f"{2 * base.k * divisor}"
            )
        previous = ""
        for spec in decade_sweep(
            base,
            min_n=min_n // divisor,
            max_n=max_n // divisor,
            points_per_decade=points_per_decade,
            trials=trials,
            topology_params=params,
        ):
            name = f"{family}-n{spec.n}"
            units.append(
                CampaignUnit(
                    name=name,
                    spec=spec,
                    group=family,
                    after=(previous,) if previous else (),
                    record="summary",
                )
            )
            previous = name
    return CampaignSpec(
        name="asymptotics",
        title="Asymptotic stopping-time exponents over decade sweeps",
        description=(
            "Uniform algebraic gossip swept over decades of n on two "
            "families — c·log n/n Erdős–Rényi expanders (the Theorem 2 "
            "O(n) regime) and rings of log-sized cliques, the latter one "
            "decade lower to equalise per-decade event cost — through the "
            "event-driven CSR pipeline with streaming summary records, "
            "then fitted to T(n) = c·n^a with bootstrap confidence "
            "intervals.  Rebuild at full scale with --min-n/--max-n "
            "(e.g. --max-n 1000000)."
        ),
        units=tuple(units),
        artifacts=(
            ArtifactSpec(
                kind="measured-table",
                title="Per-decade stopping times",
            ),
            ArtifactSpec(
                kind="asymptotic-fit",
                title="Stopping-time exponent fits",
            ),
        ),
    )


register_campaign(asymptotics_campaign())


def _prefixed(campaign: CampaignSpec, prefix: str) -> tuple[CampaignUnit, ...]:
    """The campaign's units renamed ``<prefix>/<unit>`` (deps rewritten too)."""
    return tuple(
        CampaignUnit(
            name=f"{prefix}/{unit.name}",
            scenario=unit.scenario,
            spec=unit.spec,
            trials=unit.trials,
            seed=unit.seed,
            group=unit.group or prefix,
            after=tuple(f"{prefix}/{dep}" for dep in unit.after),
            record=unit.record,
        )
        for unit in campaign.units
    )


def _prefixed_artifacts(
    campaign: CampaignSpec, prefix: str
) -> tuple[ArtifactSpec, ...]:
    """The campaign's artifacts with unit references rewritten to the prefix.

    An empty ``units`` selection means "every unit of *this* campaign", so in
    the combined campaign it must become the explicit prefixed list.
    """
    return tuple(
        ArtifactSpec(
            kind=artifact.kind,
            # Titles are prefixed too: CSV-producing artifact labels must stay
            # unique across the union (they name the report's side files).
            title=f"{prefix}: {artifact.label}",
            units=tuple(
                f"{prefix}/{ref}"
                for ref in (artifact.units or tuple(u.name for u in campaign.units))
            ),
            params=artifact.params,
        )
        for artifact in campaign.artifacts
    )


def _full_paper() -> CampaignSpec:
    """Every built-in campaign in one DAG: the whole-paper reproduction."""
    parts = [CAMPAIGNS[name] for name in ("table1", "table2", "theorem2", "theorem5")]
    units: tuple[CampaignUnit, ...] = ()
    artifacts: tuple[ArtifactSpec, ...] = ()
    for part in parts:
        units += _prefixed(part, part.name)
        artifacts += _prefixed_artifacts(part, part.name)
    return CampaignSpec(
        name="full-paper",
        title="Full paper reproduction (Tables 1-2, Theorems 2 and 5)",
        description=(
            "The union of the table1, table2, theorem2 and theorem5 "
            "campaigns: every simulated number behind the paper's evaluation "
            "in one resumable, store-backed run.  Unit names are prefixed "
            "with their source campaign."
        ),
        units=units,
        artifacts=artifacts,
    )


register_campaign(_full_paper())
