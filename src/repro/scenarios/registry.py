"""Named-scenario registry: the workloads this repository ships with.

Every entry is a small, CI-sized :class:`~repro.scenarios.ScenarioSpec` that
materialises and runs in seconds.  The names are hierarchical
(``family/variant``) and drive the CLI::

    python -m repro scenario list
    python -m repro scenario show tag/brr-barbell --json
    python -m repro scenario run churn/ring-crash-restart --trials 8

The registry is the single source of truth consumed by the campaign
units, the benchmarks and ``make scenarios-check`` (which materialises
and smoke-runs every entry).  Registering is open: library users call
:func:`register_scenario` with their own spec to make it addressable by name.
"""

from __future__ import annotations

import difflib
from typing import Iterable

from ..core.config import SimulationConfig, TimeModel
from ..errors import ConfigurationError
from .spec import ScenarioSpec, default_scenario_config

__all__ = [
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "suggest_names",
]


def suggest_names(name: str, known: Iterable[str]) -> str:
    """A ``"; did you mean 'x'?"`` suffix for unknown-name errors (or ``""``).

    Shared by every registry lookup (scenarios, campaigns, store prefixes)
    so a typo'd CLI name always fails with a close-match suggestion instead
    of a bare list dump.

    >>> suggest_names("tag/brr-barbel", ["tag/brr-barbell", "uniform/grid"])
    "; did you mean 'tag/brr-barbell'?"
    >>> suggest_names("zzz", ["uniform/line"])
    ''
    """
    matches = difflib.get_close_matches(name, list(known), n=3, cutoff=0.5)
    if not matches:
        return ""
    if len(matches) == 1:
        return f"; did you mean {matches[0]!r}?"
    alternatives = " or ".join(repr(match) for match in matches)
    return f"; did you mean {alternatives}?"

#: Name → spec.  Populated below; extendable through :func:`register_scenario`.
SCENARIOS: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, overwrite: bool = False) -> ScenarioSpec:
    """Add a named spec to the registry and return it."""
    if not spec.name:
        raise ConfigurationError("a registered scenario needs a non-empty name")
    if spec.name in SCENARIOS and not overwrite:
        raise ConfigurationError(
            f"scenario {spec.name!r} is already registered (pass overwrite=True)"
        )
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name.

    An unknown name raises :class:`~repro.errors.ConfigurationError` (never a
    raw ``KeyError``) with a close-match suggestion, so CLI typos exit with
    ``error: unknown scenario ...; did you mean ...?`` instead of a traceback.
    """
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}{suggest_names(name, SCENARIOS)} "
            f"(run 'python -m repro scenario list' for all "
            f"{len(SCENARIOS)} registered names)"
        ) from None


def scenario_names() -> list[str]:
    """Sorted names of every registered scenario."""
    return sorted(SCENARIOS)


# ----------------------------------------------------------------------
# Built-in scenarios.  Sizes are CI-friendly; benchmarks scale them up with
# ScenarioSpec.replace(...).
# ----------------------------------------------------------------------
_CONFIG = default_scenario_config()
_ASYNC = default_scenario_config(time_model=TimeModel.ASYNCHRONOUS)

# --- Theorem 1 (Table 1, row "Uniform AG, any graph") -------------------
for _topology in ("line", "ring", "grid", "complete", "binary_tree", "barbell"):
    register_scenario(
        ScenarioSpec(
            name=f"uniform/{_topology}",
            description=f"Theorem 1: uniform algebraic gossip on {_topology}(16), k=8",
            topology=_topology,
            n=16,
            k=8,
            config=_CONFIG,
        )
    )

# --- Theorem 3 (constant-degree Θ(k + D)) -------------------------------
register_scenario(
    ScenarioSpec(
        name="uniform/ring-all-to-all",
        description="Theorem 3: uniform AG on the ring, k = n (the Θ(k + D) regime)",
        topology="ring",
        n=16,
        config=_CONFIG,
    )
)

# --- Section 1.1 (barbell worst case) -----------------------------------
register_scenario(
    ScenarioSpec(
        name="uniform/barbell-worst-case",
        description="Section 1.1: uniform AG on the barbell, k = n (the Ω(n²) regime)",
        topology="barbell",
        n=12,
        config=default_scenario_config(max_rounds=200_000),
    )
)

# --- Theorem 4 / Section 5 / Theorems 7-8 (TAG rows) --------------------
register_scenario(
    ScenarioSpec(
        name="tag/brr-barbell",
        description="Theorem 4 / Section 5: TAG + B_RR on the barbell, k = n",
        topology="barbell",
        n=16,
        protocol="tag",
        spanning_tree="brr",
        config=_CONFIG,
    )
)
register_scenario(
    ScenarioSpec(
        name="tag/uniform-broadcast-barbell",
        description="Theorem 4: TAG + uniform broadcast tree on the barbell, k = n",
        topology="barbell",
        n=16,
        protocol="tag",
        spanning_tree="uniform_broadcast",
        config=_CONFIG,
    )
)
register_scenario(
    ScenarioSpec(
        name="tag/brr-grid",
        description="Theorem 4: TAG + B_RR on the grid, k = n",
        topology="grid",
        n=16,
        protocol="tag",
        spanning_tree="brr",
        config=_CONFIG,
    )
)
register_scenario(
    ScenarioSpec(
        name="tag/brr-barbell-async",
        description="Theorem 4 under asynchronous timeslots: TAG + B_RR on the barbell",
        topology="barbell",
        n=16,
        protocol="tag",
        spanning_tree="brr",
        config=_ASYNC,
    )
)
register_scenario(
    ScenarioSpec(
        name="tag/is-barbell",
        description="Theorems 7-8: TAG + IS on the barbell (large weak conductance)",
        topology="barbell",
        n=16,
        protocol="tag",
        spanning_tree="is",
        config=_CONFIG,
    )
)
register_scenario(
    ScenarioSpec(
        name="tag/is-clique-chain",
        description="Theorems 7-8: TAG + IS on the 4-clique chain",
        topology="clique_chain",
        n=16,
        protocol="tag",
        spanning_tree="is",
        topology_params={"cliques": 4},
        config=_CONFIG,
    )
)

# --- Theorem 5 (standalone B_RR broadcast) ------------------------------
register_scenario(
    ScenarioSpec(
        name="tree/brr-broadcast-barbell",
        description="Theorem 5: standalone B_RR broadcast tree on the barbell (≤ 3n rounds)",
        topology="barbell",
        n=16,
        protocol="spanning_tree",
        spanning_tree="brr",
        config=SimulationConfig(max_rounds=10_000),
    )
)
register_scenario(
    ScenarioSpec(
        name="tree/is-clique-chain",
        description="Section 6: standalone IS spanning-tree construction on the clique chain",
        topology="clique_chain",
        n=16,
        protocol="spanning_tree",
        spanning_tree="is",
        topology_params={"cliques": 4},
        config=SimulationConfig(max_rounds=10_000),
    )
)

# --- Churn scenarios (crash/restart schedules) --------------------------
register_scenario(
    ScenarioSpec(
        name="churn/ring-crash-restart",
        description=(
            "Uniform AG on the ring with two staggered crash/restart windows "
            "(pause semantics: state survives the crash)"
        ),
        topology="ring",
        n=16,
        config=_CONFIG.replace(churn=((3, 2, 10), (11, 6, 14))),
    )
)
register_scenario(
    ScenarioSpec(
        name="churn/async-complete-blackout",
        description=(
            "Uniform AG on the complete graph, asynchronous, with a quarter "
            "of the nodes down for an early window"
        ),
        topology="complete",
        n=16,
        config=_ASYNC.replace(churn=tuple((node, 2, 12) for node in range(4))),
    )
)
register_scenario(
    ScenarioSpec(
        name="churn/tag-brr-barbell",
        description="TAG + B_RR on the barbell with a mid-run crash of a clique node",
        topology="barbell",
        n=16,
        protocol="tag",
        spanning_tree="brr",
        config=_CONFIG.replace(churn=((5, 4, 20),)),
    )
)
register_scenario(
    ScenarioSpec(
        name="churn/ring-reset",
        description=(
            "Reset-mode churn: a crashing node loses its decoder state and "
            "rejoins with only its initial messages (event-driven engine)"
        ),
        topology="ring",
        n=12,
        config=_CONFIG.replace(churn=((4, 3, 9),), churn_reset=True),
    )
)

# --- Heterogeneous activation rates (asynchronous clocks) ---------------
register_scenario(
    ScenarioSpec(
        name="hetero/two-speed-ring",
        description=(
            "Uniform AG on the ring, asynchronous, with half the nodes "
            "activating 4x faster than the rest"
        ),
        topology="ring",
        n=16,
        activation={"kind": "two_speed", "ratio": 4.0, "fast_fraction": 0.5},
        config=_ASYNC,
    )
)
register_scenario(
    ScenarioSpec(
        name="hetero/degree-star",
        description=(
            "Uniform AG on the star, asynchronous, activation rate "
            "proportional to degree (the hub dominates the clock)"
        ),
        topology="star",
        n=16,
        activation={"kind": "degree"},
        config=_ASYNC,
    )
)
register_scenario(
    ScenarioSpec(
        name="hetero/churned-two-speed-complete",
        description=(
            "Both new axes at once: two-speed asynchronous clocks plus a "
            "crash/restart window on the complete graph"
        ),
        topology="complete",
        n=16,
        activation={"kind": "two_speed", "ratio": 3.0, "fast_fraction": 0.25},
        config=_ASYNC.replace(churn=((2, 3, 9),)),
    )
)

# --- Robustness (packet loss, kept from the paper-adjacent extensions) --
register_scenario(
    ScenarioSpec(
        name="robustness/lossy-grid",
        description="Uniform AG on the grid under 25% independent packet loss",
        topology="grid",
        n=16,
        config=default_scenario_config(max_rounds=500_000).replace(loss_probability=0.25),
    )
)

# --- Large-n sparse workloads (the event-driven engine's home turf) -----
# Registry entries stay CI-sized (a couple of thousand nodes, seconds per
# trial); docs/reproducing_results.md shows the same specs scaled to 10^4+
# via replace(n=...).  Over GF(2) each stored rank-only row is one k-bit int.
register_scenario(
    ScenarioSpec(
        name="event/er-logn",
        description=(
            "Uniform AG over GF(2) on connected G(n, 2·log n/n), asynchronous, "
            "run by the event-driven sparse engine"
        ),
        topology="erdos_renyi_logn",
        n=2048,
        k=8,
        engine="event",
        config=default_scenario_config(
            time_model=TimeModel.ASYNCHRONOUS, field_size=2
        ),
        trials=3,
    )
)
register_scenario(
    ScenarioSpec(
        name="event/ring-of-cliques",
        description=(
            "Uniform AG over GF(2) on a ring of 8 cliques (dense pockets, "
            "sparse bridges — a conductance-limited, slow-mixing workload), "
            "asynchronous, event-driven engine"
        ),
        topology="ring_of_cliques",
        n=256,
        k=8,
        engine="event",
        topology_params={"cliques": 8},
        config=default_scenario_config(
            time_model=TimeModel.ASYNCHRONOUS, field_size=2
        ),
        trials=3,
    )
)
