"""The declarative scenario layer: one object from CLI to engines.

Every experiment in this repository — the paper's tables, the CLI commands,
the campaign units, the benchmark workloads — is an instance of one shape:

    (topology, size, message placement, protocol, simulation config,
     trial/seed plan)

:class:`ScenarioSpec` captures that shape as a single immutable,
JSON-round-trippable value.  A spec does **not** hold a graph or any live
object; :meth:`ScenarioSpec.materialize` builds the concrete pieces — the
graph, the picklable protocol factory, the analytic bounds, the resolved
:class:`~repro.core.config.SimulationConfig` — as a
:class:`MaterializedScenario`, which can then run its Monte Carlo plan or
execute a single seeded run.

The same spec therefore drives the same workload through

* the CLI (``python -m repro scenario run <name>`` /
  ``python -m repro run ...``),
* the campaigns (:func:`repro.campaigns.run_campaign`, one spec per unit),
* :func:`repro.experiments.parallel.run_trials_parallel`, and
* every benchmark script,

with identical seeded results everywhere — see
``tests/test_scenarios.py::TestSingleSpecDrivesEveryConsumer``.

Scenario axes beyond the paper's model — node churn and heterogeneous
activation rates — are part of the config / spec: churn schedules live in
:attr:`SimulationConfig.churn`, and the :attr:`ScenarioSpec.activation`
recipe is resolved into per-node rates when the graph is known.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from ..analysis.bounds import (
    brr_broadcast_upper_bound,
    constant_degree_upper_bound,
    k_dissemination_lower_bound,
    lemma1_tree_gossip_bound,
    tag_upper_bound,
    tag_with_brr_upper_bound,
    uniform_ag_upper_bound,
)
from ..core.config import GossipAction, SimulationConfig, TimeModel
from ..core.results import RunResult, StoppingTimeStats
from ..core.rng import derive_rng
from ..errors import ConfigurationError
from ..gf import GF
from ..gossip.engine import GossipProcess
from ..graphs.csr import CSRGraph
from ..graphs.properties import diameter as graph_diameter
from ..graphs.properties import max_degree as graph_max_degree
from ..graphs.topologies import TOPOLOGY_BUILDERS, build_topology
from ..protocols.algebraic_gossip import AlgebraicGossip
from ..protocols.is_protocol import ISSpanningTree
from ..protocols.spanning_tree_protocols import (
    BfsOracleTree,
    RoundRobinBroadcastTree,
    UniformBroadcastTree,
)
from ..protocols.tag import TagProtocol
from ..rlnc.message import Generation
from .placements import (
    Placement,
    adversarial_far_placement,
    all_to_all_placement,
    random_placement,
    single_source_placement,
    spread_placement,
)

__all__ = [
    "PROTOCOLS",
    "TREE_PROTOCOLS",
    "PLACEMENTS",
    "ACTIVATION_KINDS",
    "ScenarioSpec",
    "MaterializedScenario",
    "UniformGossipFactory",
    "TagFactory",
    "SpanningTreeFactory",
    "default_scenario_config",
]

# Kept as a second name for build_topology: the repository benchmark's tracer
# patches both names on this module.
build_csr_topology = build_topology

#: Spanning-tree protocol registry (the protocol ``S`` plugged into TAG, or
#: run standalone by ``protocol="spanning_tree"`` scenarios).
TREE_PROTOCOLS: dict[str, type] = {
    "brr": RoundRobinBroadcastTree,
    "uniform_broadcast": UniformBroadcastTree,
    "bfs_oracle": BfsOracleTree,
    "is": ISSpanningTree,
}

#: Protocols a scenario can name.
PROTOCOLS = ("uniform", "tag", "spanning_tree")

#: Placement strategies a scenario can name.  ``auto`` resolves to
#: ``all_to_all`` when ``k >= n`` and ``spread`` otherwise — the default the
#: experiments have always used.
PLACEMENTS = (
    "auto",
    "all_to_all",
    "spread",
    "single_source",
    "random",
    "adversarial_far",
)

#: Heterogeneous-activation recipe kinds (see :meth:`ScenarioSpec.activation`).
ACTIVATION_KINDS = ("uniform", "two_speed", "degree", "explicit")


def default_scenario_config(
    *,
    time_model: TimeModel = TimeModel.SYNCHRONOUS,
    field_size: int = 16,
    max_rounds: int = 50_000,
    allow_incomplete: bool = False,
) -> SimulationConfig:
    """The configuration experiments share unless they say otherwise."""
    return SimulationConfig(
        field_size=field_size,
        payload_length=2,
        time_model=time_model,
        action=GossipAction.EXCHANGE,
        max_rounds=max_rounds,
        allow_incomplete=allow_incomplete,
    )


# ----------------------------------------------------------------------
# Picklable protocol factories (shipped to worker processes by the
# parallel trial runner; formerly defined in repro.experiments.runner).
# ----------------------------------------------------------------------
@dataclass
class UniformGossipFactory:
    """Picklable protocol factory for uniform algebraic gossip workloads.

    A plain dataclass with ``__call__`` (rather than a closure) so
    :func:`repro.experiments.parallel.run_trials_parallel` can ship it to
    worker processes.  The field object itself is not stored — only its
    order — so pickles stay small and each worker reuses its own cached
    :func:`~repro.gf.GF` tables.  Both engines run the process ``__call__``
    builds, which builds a node's decoder only when the scalar engine first
    uses it.
    """

    field_order: int
    k: int
    payload_length: int
    placement: Placement
    config: SimulationConfig

    def __call__(self, graph: CSRGraph, rng: np.random.Generator) -> AlgebraicGossip:
        generation = Generation.random(
            GF(self.field_order), self.k, self.payload_length, rng
        )
        return AlgebraicGossip(graph, generation, self.placement, self.config, rng)


@dataclass
class SpanningTreeFactory:
    """Picklable factory for spanning-tree protocols (inside TAG or standalone)."""

    protocol: str
    root: int

    def __call__(self, graph: CSRGraph, rng: np.random.Generator):
        if self.protocol == "is":
            return ISSpanningTree(graph, rng)
        return TREE_PROTOCOLS[self.protocol](graph, self.root, rng)


@dataclass
class TagFactory:
    """Picklable protocol factory for TAG workloads.

    Both engines run the process ``__call__`` builds, as for
    :class:`UniformGossipFactory`.
    """

    field_order: int
    k: int
    payload_length: int
    placement: Placement
    config: SimulationConfig
    spanning_tree: SpanningTreeFactory
    keep_phase1_after_tree: bool = True

    def __call__(self, graph: CSRGraph, rng: np.random.Generator) -> TagProtocol:
        generation = Generation.random(
            GF(self.field_order), self.k, self.payload_length, rng
        )
        return TagProtocol(
            graph,
            generation,
            self.placement,
            self.config,
            rng,
            self.spanning_tree,
            keep_phase1_after_tree=self.keep_phase1_after_tree,
        )


def _as_params(value: Any) -> tuple[tuple[str, Any], ...]:
    """Normalise a params mapping/sequence to a sorted hashable tuple."""
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = [tuple(pair) for pair in value]
    normalised = []
    for key, item in sorted(items):
        if isinstance(item, list):
            item = tuple(item)
        normalised.append((str(key), item))
    return tuple(normalised)


@dataclass(frozen=True)
class ScenarioSpec:
    """Immutable, JSON-round-trippable description of one simulation scenario.

    Parameters
    ----------
    topology:
        A name from :data:`repro.graphs.TOPOLOGY_BUILDERS`; extra builder
        arguments go into ``topology_params``.
    n:
        Requested node count (some families round it; the materialised
        scenario reports the actual count).
    k:
        Number of source messages; ``None`` means ``k = n`` (all-to-all)
        after topology rounding.
    protocol:
        ``"uniform"`` (uniform algebraic gossip), ``"tag"`` (TAG composed
        with ``spanning_tree``), or ``"spanning_tree"`` (the tree protocol
        run standalone, as in the Theorem 5 broadcast measurements).
    spanning_tree:
        Which tree protocol TAG composes with / runs standalone: a name from
        :data:`TREE_PROTOCOLS`.
    placement:
        A name from :data:`PLACEMENTS`; extra arguments (e.g. the
        ``single_source`` node) go into ``placement_params``.
    activation:
        Heterogeneous-activation recipe, resolved against the materialised
        graph: ``()`` / ``kind="uniform"`` for the paper's uniform clocks,
        ``kind="two_speed"`` (``ratio``, ``fast_fraction``) makes the first
        ``fast_fraction`` of node positions ``ratio``-times faster,
        ``kind="degree"`` makes each node's rate proportional to its degree,
        ``kind="explicit"`` takes ``rates`` verbatim.  Asynchronous time
        model only.
    config:
        The :class:`~repro.core.config.SimulationConfig` (time model, field
        size, loss, churn schedule, ...).
    trials, seed:
        The Monte Carlo plan: how many independent trials, and the root seed
        every trial generator derives from.
    name, description:
        Registry identity and one-line purpose (empty for ad-hoc specs).
    engine:
        Which engine runs the trials: ``""`` (default) applies the rule of
        :func:`~repro.experiments.parallel.select_engine` (every protocol a
        spec can name runs on the event-driven engine), ``"scalar"`` forces
        the sequential :class:`~repro.gossip.GossipEngine` and ``"event"``
        requires the event-driven :class:`~repro.gossip.EventGossipEngine`.
        Engines are bit-identical by contract (asserted by
        ``tests/test_event_engine.py`` and ``tests/test_tag_event_engine.py``),
        so the choice never affects results and is excluded from
        :meth:`fingerprint`; a pinned engine that cannot run the workload
        raises :class:`~repro.errors.EngineError` instead of falling back
        silently.

    Examples
    --------
    Specs are plain JSON values with an exact round trip:

    >>> spec = ScenarioSpec(topology="ring", n=8, k=4, trials=3, seed=7)
    >>> ScenarioSpec.from_json(spec.to_json()) == spec
    True

    The fingerprint addresses the *workload*: the Monte Carlo plan and the
    registry identity do not change it, any result-affecting field does
    (this is the shard key of :class:`repro.store.ResultStore`):

    >>> spec.fingerprint() == spec.replace(trials=100, name="renamed").fingerprint()
    True
    >>> spec.fingerprint() == spec.replace(n=16).fingerprint()
    False

    Materialisation resolves the concrete graph and message counts:

    >>> scenario = spec.materialize()
    >>> scenario.n, scenario.k
    (8, 4)
    """

    topology: str = "ring"
    n: int = 16
    k: int | None = None
    protocol: str = "uniform"
    spanning_tree: str = "brr"
    placement: str = "auto"
    topology_params: tuple[tuple[str, Any], ...] = ()
    placement_params: tuple[tuple[str, Any], ...] = ()
    activation: tuple[tuple[str, Any], ...] = ()
    keep_phase1_after_tree: bool = True
    config: SimulationConfig = field(default_factory=SimulationConfig)
    trials: int = 5
    seed: int = 0
    name: str = ""
    description: str = ""
    engine: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "topology_params", _as_params(self.topology_params))
        object.__setattr__(self, "placement_params", _as_params(self.placement_params))
        object.__setattr__(self, "activation", _as_params(self.activation))
        if isinstance(self.config, Mapping):
            object.__setattr__(self, "config", SimulationConfig.from_dict(dict(self.config)))
        if not isinstance(self.config, SimulationConfig):
            raise ConfigurationError(
                f"config must be a SimulationConfig or a mapping, "
                f"got {type(self.config).__name__}"
            )
        if self.topology not in TOPOLOGY_BUILDERS:
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; known: {sorted(TOPOLOGY_BUILDERS)}"
            )
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; known: {sorted(PROTOCOLS)}"
            )
        if self.spanning_tree not in TREE_PROTOCOLS:
            raise ConfigurationError(
                f"unknown spanning tree protocol {self.spanning_tree!r}; "
                f"known: {sorted(TREE_PROTOCOLS)}"
            )
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(
                f"unknown placement {self.placement!r}; known: {sorted(PLACEMENTS)}"
            )
        if self.n < 2:
            raise ConfigurationError(f"scenario needs n >= 2, got {self.n}")
        if self.k is not None and self.k < 1:
            raise ConfigurationError(f"scenario k must be positive, got {self.k}")
        if self.trials < 1:
            raise ConfigurationError(f"scenario trials must be positive, got {self.trials}")
        activation = dict(self.activation)
        kind = activation.pop("kind", "uniform")
        if kind not in ACTIVATION_KINDS:
            raise ConfigurationError(
                f"unknown activation kind {kind!r}; known: {sorted(ACTIVATION_KINDS)}"
            )
        if kind == "uniform" and activation:
            raise ConfigurationError(
                f"activation parameters {sorted(activation)} require an "
                "explicit non-uniform 'kind' (did you forget it?)"
            )
        if kind != "uniform" and self.config.time_model is TimeModel.SYNCHRONOUS:
            raise ConfigurationError(
                "heterogeneous activation requires the asynchronous time model"
            )
        if self.config.churn_reset and self.protocol == "spanning_tree":
            raise ConfigurationError(
                "spanning-tree protocols do not support churn_reset (they "
                "have no resettable per-node knowledge); use pause-mode churn"
            )
        if self.engine not in ("", "scalar", "event"):
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: ['', 'event', 'scalar']"
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "ScenarioSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def with_config(self, **changes: Any) -> "ScenarioSpec":
        """Return a copy with ``changes`` applied to the nested config."""
        return replace(self, config=self.config.replace(**changes))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`.

        Defaulted fields are omitted; the nested config serialises through
        :meth:`SimulationConfig.to_dict`; params tuples become objects.
        """
        defaults = ScenarioSpec()
        data: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value == getattr(defaults, spec_field.name):
                continue
            if spec_field.name == "config":
                value = value.to_dict()
            elif spec_field.name in ("topology_params", "placement_params", "activation"):
                value = {
                    key: list(item) if isinstance(item, tuple) else item
                    for key, item in value
                }
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        known = {spec_field.name for spec_field in fields(cls)}
        kwargs = dict(data)
        # Shard headers and campaign files from before the field picked the
        # eliminator name a compute backend, which never changed a result.
        kwargs.pop("backend", None)
        # ... and from before TAG moved to the event engine could pin the
        # deleted lockstep engine; the rule now picks the fast engine.
        if kwargs.get("engine") == "batch":
            kwargs["engine"] = ""
        unknown = set(kwargs) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ScenarioSpec fields {sorted(unknown)}; known: {sorted(known)}"
            )
        if "config" in kwargs and isinstance(kwargs["config"], Mapping):
            kwargs["config"] = SimulationConfig.from_dict(dict(kwargs["config"]))
        return cls(**kwargs)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialise to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError("a scenario JSON document must be an object")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Content addressing (the result store's key)
    # ------------------------------------------------------------------
    def fingerprint_payload(self) -> dict[str, Any]:
        """The canonical dictionary :meth:`fingerprint` hashes.

        Identity fields (``name``, ``description``) and the Monte Carlo plan
        (``trials``, ``seed``) are excluded: the fingerprint addresses the
        *workload* — what one seeded trial computes — so a re-run with more
        trials, a different root seed, or under a different registry name
        still hits the same cached trial records (records are keyed by
        fingerprint **plus** the trial's root seed and index; see
        :mod:`repro.store`).

        The one exception is the ``random`` placement, whose message
        placement is drawn at materialisation time from the spec's own seed:
        there the seed genuinely changes the workload, so it is folded back
        in as ``materialize_seed``.

        ``engine`` is likewise excluded: both engines produce bit-identical
        per-seed results (asserted by the equivalence suites), so scalar and
        event-driven runs are interchangeable cache entries.
        """
        payload = self.to_dict()
        for excluded in ("trials", "seed", "name", "description", "engine"):
            payload.pop(excluded, None)
        if self.placement == "random":
            payload["materialize_seed"] = self.seed
        return payload

    def fingerprint(self) -> str:
        """Stable content address of this workload: sha256 of canonical JSON.

        Two specs that describe the same workload — regardless of trial
        count, root seed (except ``random`` placements), name or construction
        order of their params — share a fingerprint; any change to a field
        that affects results (topology, n, k, protocol, config knobs, ...)
        changes it.  This is the shard key of
        :class:`repro.store.ResultStore`.

        Memoised per instance (the spec is immutable and store-aware runners
        address it once per trial); ``replace()`` returns a new instance, so
        the cache can never go stale.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            canonical = json.dumps(
                self.fingerprint_payload(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            # Frozen dataclass: write the memo through __dict__ (not setattr).
            self.__dict__["_fingerprint"] = cached
        return cached

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def materialize(self) -> "MaterializedScenario":
        """Build the graph, protocol factory and bounds this spec describes.

        Materialisation is deterministic: every stochastic ingredient (e.g. a
        ``random`` placement) derives from :attr:`seed`, so the same spec
        always yields the same workload.
        """
        graph = build_topology(self.topology, self.n, **dict(self.topology_params))
        actual_n = graph.number_of_nodes()
        if self.k is None:
            actual_k = actual_n
        elif self.placement == "auto":
            # The convenience placement caps k at the (possibly rounded)
            # node count — the semantics the case builders always had.
            actual_k = min(self.k, actual_n)
        elif self.placement == "all_to_all":
            if self.k != actual_n:
                raise ConfigurationError(
                    f"all_to_all places exactly one message per node, so k "
                    f"must equal n: omit k or set k={actual_n} (got k={self.k})"
                )
            actual_k = actual_n
        elif self.placement == "spread":
            if self.k > actual_n:
                raise ConfigurationError(
                    f"spread places at most one message per node; "
                    f"k={self.k} exceeds n={actual_n}"
                )
            actual_k = self.k
        else:
            # single_source / random / adversarial_far place multiple
            # messages per node; k > n is a legitimate workload.
            actual_k = self.k
        config = self._resolve_activation(graph)
        placement = self._resolve_placement(graph, actual_k)
        root = 0
        if self.protocol == "uniform":
            factory: Any = UniformGossipFactory(
                field_order=config.field_size,
                k=actual_k,
                payload_length=config.payload_length,
                placement=placement,
                config=config,
            )
        elif self.protocol == "tag":
            factory = TagFactory(
                field_order=config.field_size,
                k=actual_k,
                payload_length=config.payload_length,
                placement=placement,
                config=config,
                spanning_tree=SpanningTreeFactory(
                    protocol=self.spanning_tree, root=root
                ),
                keep_phase1_after_tree=self.keep_phase1_after_tree,
            )
        else:
            factory = SpanningTreeFactory(protocol=self.spanning_tree, root=root)
        return MaterializedScenario(
            spec=self,
            graph=graph,
            n=actual_n,
            k=actual_k,
            placement=placement,
            config=config,
            protocol_factory=factory,
            root=root,
        )

    # Kept as a second name for materialize: the repository benchmark calls it.
    materialize_preferred = materialize

    _PLACEMENT_PARAMS = {"single_source": {"source"}, "adversarial_far": {"target"}}

    def _resolve_placement(self, graph: CSRGraph, k: int) -> Placement:
        params = dict(self.placement_params)
        name = self.placement
        if name == "auto":
            name = "all_to_all" if k >= graph.number_of_nodes() else "spread"
        unknown = set(params) - self._PLACEMENT_PARAMS.get(name, set())
        if unknown:
            raise ConfigurationError(
                f"unknown placement parameters {sorted(unknown)} for "
                f"placement {self.placement!r}"
            )
        if name == "all_to_all":
            return all_to_all_placement(graph)
        if name == "spread":
            return spread_placement(graph, k)
        if name == "single_source":
            return single_source_placement(graph, k, **params)
        if name == "adversarial_far":
            params.setdefault("target", 0)
            return adversarial_far_placement(graph, k, **params)
        return random_placement(graph, k, derive_rng(self.seed, "placement"))

    def _resolve_activation(self, graph: CSRGraph) -> SimulationConfig:
        """Resolve the activation recipe into concrete per-node rates."""
        params = dict(self.activation)
        kind = params.pop("kind", "uniform")
        if kind == "uniform":
            return self.config
        if self.config.activation_rates:
            raise ConfigurationError(
                "give either an activation recipe or explicit "
                "config.activation_rates, not both"
            )
        n = graph.number_of_nodes()
        if kind == "two_speed":
            ratio = float(params.pop("ratio", 4.0))
            fast_fraction = float(params.pop("fast_fraction", 0.5))
            if ratio <= 0:
                raise ConfigurationError(f"two_speed ratio must be positive, got {ratio}")
            if not 0.0 < fast_fraction < 1.0:
                raise ConfigurationError(
                    f"two_speed fast_fraction must lie in (0, 1), got {fast_fraction}"
                )
            fast = max(1, int(round(n * fast_fraction)))
            rates = tuple(ratio if pos < fast else 1.0 for pos in range(n))
        elif kind == "degree":
            rates = tuple(float(degree) for degree in graph.degrees().tolist())
        else:  # explicit
            rates = tuple(float(r) for r in params.pop("rates", ()))
            if len(rates) != n:
                raise ConfigurationError(
                    f"explicit activation rates have {len(rates)} entries but "
                    f"the materialised graph has {n} nodes"
                )
        if params:
            raise ConfigurationError(
                f"unknown activation parameters {sorted(params)} for kind {kind!r}"
            )
        return self.config.replace(activation_rates=rates)

    def _bounds(
        self, graph: CSRGraph, n: int, k: int, config: SimulationConfig
    ) -> dict[str, float]:
        """The analytic bounds of this protocol (see :attr:`MaterializedScenario.bounds`)."""
        diameter_value = graph_diameter(graph)
        if self.protocol == "uniform":
            delta = graph_max_degree(graph)
            bounds = {
                "theorem1": uniform_ag_upper_bound(n, k, diameter_value, delta),
                "lower": k_dissemination_lower_bound(
                    k, diameter_value, synchronous=config.is_synchronous
                ),
            }
            if delta <= 8:
                bounds["theorem3"] = constant_degree_upper_bound(k, diameter_value)
            return bounds
        if self.protocol == "tag":
            return {
                "theorem4": tag_upper_bound(
                    n, k, 2 * diameter_value, brr_broadcast_upper_bound(n)
                ),
                "lower": k_dissemination_lower_bound(
                    k, diameter_value, synchronous=config.is_synchronous
                ),
                "tag_brr": tag_with_brr_upper_bound(n, k),
                "lemma1": lemma1_tree_gossip_bound(n, k, diameter_value),
            }
        return {"broadcast_3n": brr_broadcast_upper_bound(n)}


@dataclass(frozen=True, eq=False)  # eq=False: dict/graph fields → identity hash/eq
class MaterializedScenario:
    """A :class:`ScenarioSpec` resolved into live objects, ready to run.

    Carries the concrete graph (with the topology family's rounding applied),
    the resolved config (activation recipe → per-node rates), the initial
    placement and the picklable protocol factory; the analytic
    :attr:`bounds` are computed lazily (they need graph diameter — an
    all-pairs BFS that plain trial runs should not pay for).  The engine
    is *not* chosen here: the trial runners apply
    :func:`~repro.experiments.parallel.select_engine`, which
    :meth:`select_engine` reports.
    """

    spec: ScenarioSpec
    graph: CSRGraph
    n: int
    k: int
    placement: Placement
    config: SimulationConfig
    protocol_factory: Any
    root: int

    @cached_property
    def bounds(self) -> dict[str, float]:
        """The analytic bounds for this protocol (computed on first access)."""
        return self.spec._bounds(self.graph, self.n, self.k, self.config)

    @property
    def label(self) -> str:
        """Human-readable label built from the *materialised* sizes.

        Uses the actual node/message counts (after topology rounding and k
        resolution), so labels always name the workload that really runs.
        """
        spec = self.spec
        if spec.name:
            return spec.name
        if spec.protocol == "uniform":
            return f"{spec.topology}(n={self.n}, k={self.k})"
        if spec.protocol == "tag":
            return f"TAG+{spec.spanning_tree} {spec.topology}(n={self.n}, k={self.k})"
        return f"{spec.spanning_tree} tree {spec.topology}(n={self.n})"

    def build_process(self, rng: np.random.Generator) -> GossipProcess:
        """One fresh protocol instance drawing its setup from ``rng``."""
        return self.protocol_factory(self.graph, rng)

    def select_engine(self) -> tuple[str, str]:
        """The engine this scenario's trial plan runs on, and why.

        ``(name, reason)`` from :func:`repro.experiments.parallel.select_engine`:
        the spec's pinned engine, or the auto-selection rule's pick.
        """
        from ..experiments.parallel import select_engine

        return select_engine(self.protocol_factory, self.spec.engine)

    def measure(
        self,
        *,
        trials: int | None = None,
        seed: int | None = None,
        jobs: int | None = None,
        store: Any = None,
        fresh: bool = False,
    ) -> list[RunResult]:
        """Run the Monte Carlo plan and return every per-trial result.

        ``seed`` overrides the trial streams only: materialisation-time
        ingredients (a ``random`` placement, activation rates) were already
        fixed from the spec's seed.  To re-derive those too, materialise
        ``spec.replace(seed=...)`` instead — the CLI's ``--seed`` does that.

        ``store`` (a :class:`~repro.store.ResultStore`) reads cached
        ``(fingerprint, seed, trial)`` records back instead of recomputing
        them and persists whatever had to be computed; ``fresh=True``
        bypasses the reads.
        """
        from ..experiments.parallel import measure_protocol_parallel

        return measure_protocol_parallel(
            self,
            trials=trials,
            seed=seed,
            jobs=1 if jobs is None else jobs,
            store=store,
            fresh=fresh,
        )

    def run(
        self,
        *,
        trials: int | None = None,
        seed: int | None = None,
        jobs: int | None = None,
        store: Any = None,
        fresh: bool = False,
    ) -> StoppingTimeStats:
        """Run the Monte Carlo plan and aggregate the stopping-time statistics."""
        from ..core.results import aggregate_results

        return aggregate_results(
            self.measure(
                trials=trials, seed=seed, jobs=jobs, store=store, fresh=fresh
            )
        )

    def run_single(
        self, *, seed: int | None = None, store: Any = None, fresh: bool = False
    ) -> RunResult:
        """One single-trial run — exactly trial 0 of the Monte Carlo plan.

        Runs on the engine :meth:`select_engine` reports, as the Monte Carlo
        runners do (engines are bit-identical per seed, so the choice never
        changes the result).  With a ``store``, trial 0 is served from (and
        persisted to) the same ``(fingerprint, seed, trial)`` records the
        Monte Carlo runners use — engine-invariantly, like the cache itself.
        """
        from ..experiments.parallel import _measure_trial_indices

        effective_seed = self.spec.seed if seed is None else seed
        if store is not None and not fresh:
            cached = store.get(self.spec, 0, seed=effective_seed)
            if cached is not None:
                return cached
        [result] = _measure_trial_indices(
            self.graph,
            self.protocol_factory,
            self.config,
            effective_seed,
            [0],
            self.spec.engine,
        )
        if store is not None:
            store.put(self.spec, 0, result, seed=effective_seed)
        return result

