"""The event-driven engine's contract: bit-identical, sparse, typed refusals.

Three layers of guarantees:

* **Equivalence matrix** — on small graphs the event engine reproduces the
  scalar engine's :class:`~repro.core.results.RunResult` *exactly* (every
  field, every trial) and leaves its generator in the same state, across
  both time models, PUSH/PULL/EXCHANGE, packet loss, pause- and reset-mode
  churn, heterogeneous activation rates, degree-one leaves, GF(2), GF(3),
  GF(5), GF(9), GF(16) and GF(256) — so on the bit rows, the XOR byte rows
  and the table-added odd-field byte rows of
  :class:`~repro.backends.rows.RowEliminator` — while never building or
  eliminating a packet that cannot help: one for a full-rank receiver, or
  between two nodes that span the same subspace.
* **Reset** — ``RowEliminator.reset`` returns a problem to a
  freshly-constructed state (its generated traces are held to
  ``row_reduce`` in ``tests/test_backend_conformance.py``).
* **Typed refusals and dispatch** — unsupported protocol/engine pairings
  fail eagerly with :class:`~repro.errors.EngineError` /
  :class:`~repro.errors.ConfigurationError` (never a silent fallback), the
  ``engine`` axis never enters the result-store fingerprint, and every
  dispatch layer (``run_single``, ``measure``, chunked parallel workers)
  routes to the same bit-identical results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import RowEliminator
from repro.core import GossipAction, SimulationConfig, TimeModel
from repro.core.rng import derive_rng
from repro.errors import ConfigurationError, EngineError
from repro.gf import GF
from repro.gossip import EventGossipEngine
from repro.protocols import RoundRobinBroadcastTree
from repro.scenarios import ScenarioSpec, get_scenario
from repro.scenarios.spec import default_scenario_config

ASYNC = default_scenario_config(time_model=TimeModel.ASYNCHRONOUS)
SYNC = default_scenario_config()

#: name → ScenarioSpec kwargs: one entry per behavioural axis the event
#: engine claims to replay bit-identically.
EQUIVALENCE_CASES = {
    "sync-ring": dict(topology="ring", n=16, k=8, config=SYNC),
    "async-grid": dict(topology="grid", n=16, k=8, config=ASYNC),
    # Leaves have degree one: their partner draw is a range of one, which
    # consumes no randomness.
    "async-binary-tree": dict(topology="binary_tree", n=16, k=8, config=ASYNC),
    "async-loss": dict(
        topology="complete", n=16, k=8, config=ASYNC.replace(loss_probability=0.25)
    ),
    "sync-churn-pause": dict(
        topology="ring", n=16, k=8, config=SYNC.replace(churn=((3, 2, 10), (11, 6, 14)))
    ),
    "async-churn-pause": dict(
        topology="complete",
        n=16,
        k=8,
        config=ASYNC.replace(churn=tuple((node, 2, 12) for node in range(4))),
    ),
    "sync-churn-reset": dict(
        topology="ring", n=12, k=6, config=SYNC.replace(churn=((4, 3, 9),), churn_reset=True)
    ),
    "async-churn-reset": dict(
        topology="ring", n=12, k=6, config=ASYNC.replace(churn=((4, 3, 9),), churn_reset=True)
    ),
    "async-two-speed": dict(
        topology="ring",
        n=16,
        k=8,
        config=ASYNC,
        activation={"kind": "two_speed", "ratio": 4.0, "fast_fraction": 0.5},
    ),
    "async-push": dict(
        topology="grid", n=16, k=8, config=ASYNC.replace(action=GossipAction.PUSH)
    ),
    "async-pull": dict(
        topology="grid", n=16, k=8, config=ASYNC.replace(action=GossipAction.PULL)
    ),
    "gf2bit-er-logn": dict(
        topology="erdos_renyi_logn",
        n=32,
        k=8,
        config=ASYNC.replace(field_size=2),
    ),
    "gf2bit-churn-reset": dict(
        topology="ring",
        n=12,
        k=6,
        config=ASYNC.replace(field_size=2, churn=((4, 3, 9),), churn_reset=True),
    ),
    # Prime fields: coefficient draws go through the rejection path of the
    # bounded-integer rule, not the power-of-two shift.
    "async-gf3": dict(
        topology="grid",
        n=16,
        k=8,
        config=ASYNC.replace(field_size=3, loss_probability=0.1),
    ),
    "sync-gf5": dict(topology="ring", n=16, k=8, config=SYNC.replace(field_size=5)),
    # Odd extension field: byte rows added element by element.
    "async-gf9-churn-reset": dict(
        topology="ring",
        n=12,
        k=6,
        config=ASYNC.replace(field_size=9, churn=((4, 3, 9),), churn_reset=True),
    ),
    # k = n on the barbell (the Ω(n²) regime): neighbours in a clique often
    # span equal subspaces, and their packets are skipped.
    "sync-barbell-k-n": dict(topology="barbell", n=16, k=16, config=SYNC),
    # The widest byte rows: every byte value is a field element.
    "sync-gf256-loss": dict(
        topology="complete",
        n=16,
        k=8,
        config=SYNC.replace(field_size=256, loss_probability=0.2),
    ),
}

#: Registered scenarios the event engine can run (uniform protocol only).
EVENT_CAPABLE_SCENARIOS = (
    "uniform/line",
    "uniform/ring",
    "uniform/grid",
    "uniform/complete",
    "uniform/binary_tree",
    "uniform/barbell",
    "churn/ring-crash-restart",
    "churn/async-complete-blackout",
    "churn/ring-reset",
    "hetero/two-speed-ring",
    "hetero/degree-star",
    "hetero/churned-two-speed-complete",
    "robustness/lossy-grid",
)


def _spec(**kwargs) -> ScenarioSpec:
    return ScenarioSpec(name="event-test", description="event-test", **kwargs)


def _measure(spec: ScenarioSpec, engine: str, trials: int = 3, **kwargs):
    return list(
        spec.replace(engine=engine).materialize().measure(trials=trials, **kwargs)
    )


# ----------------------------------------------------------------------
# Equivalence matrix: event == scalar, field for field
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES), ids=str)
def test_event_engine_matches_scalar_bit_identically(case):
    spec = _spec(trials=3, seed=20260808, **EQUIVALENCE_CASES[case])
    assert _measure(spec, "scalar") == _measure(spec, "event")


def test_event_engine_matches_scalar_on_both_eliminators(eliminator_field):
    """Bit rows (GF(2)) or byte rows (GF(16)), the event engine matches the
    scalar engine on its dense eliminator."""
    spec = _spec(
        topology="grid",
        n=16,
        k=8,
        trials=2,
        seed=7,
        config=ASYNC.replace(field_size=eliminator_field.order),
    )
    assert _measure(spec, "scalar") == _measure(spec, "event")


@settings(
    max_examples=24,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(EVENT_CAPABLE_SCENARIOS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_event_engine_stopping_times_match_on_registry_scenarios(name, seed):
    """Trial-for-trial RunResult equality on registered scenarios ⇒ the
    stopping-time distributions of the engine families coincide exactly."""
    spec = get_scenario(name).replace(seed=seed)
    assert _measure(spec, "scalar", trials=2) == _measure(spec, "event", trials=2)


def _direct_run(engine_cls, materialized, seed):
    """One engine-level trial; returns its result and the generator after it."""
    rng = derive_rng(seed, "trial-0")
    process = materialized.build_process(rng)
    result = engine_cls(materialized.graph, process, materialized.config, rng).run()
    return result, rng


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES), ids=str)
def test_event_engine_direct_construction_matches_scalar(case):
    """Engine-level equivalence: same RunResult *and* same generator state.

    The event engine serves its draws from raw blocks and rewinds the
    generator on exit; the state it leaves must be the one the scalar
    engine's numpy calls leave, buffered 32-bit half included.
    """
    from repro.gossip import GossipEngine

    materialized = _spec(trials=1, **EQUIVALENCE_CASES[case]).materialize()
    for seed in (3, 11, 20260808, 2**40 + 1):
        scalar, scalar_rng = _direct_run(GossipEngine, materialized, seed)
        event, event_rng = _direct_run(EventGossipEngine, materialized, seed)
        assert scalar == event, seed
        assert scalar_rng.bit_generator.state == event_rng.bit_generator.state, seed


@pytest.mark.parametrize("case", ["gf2bit-er-logn", "sync-ring", "sync-barbell-k-n"])
def test_event_engine_builds_and_eliminates_only_what_can_help(case, monkeypatch):
    """The skip rule: every encode from a sender that knows something is
    built, or skipped for a full-rank receiver, or skipped because the two
    nodes span the same subspace; no elimination into a full-rank problem;
    and the results unchanged."""
    calls = dict.fromkeys(
        ["encodes", "combine_one", "full_rank_skips", "equal_subspace_skips",
         "eliminate_one", "full_rank_targets"],
        0,
    )
    encode = EventGossipEngine._encode
    combine_one, eliminate_one = RowEliminator.combine_one, RowEliminator.eliminate_one
    same_subspace = RowEliminator.same_subspace

    def spy_encode(self, sender, receiver):
        ranks = self._eliminator.ranks
        if ranks[sender]:
            calls["encodes"] += 1
            calls["full_rank_skips"] += ranks[receiver] == self._eliminator.pivot_limit
        return encode(self, sender, receiver)

    def spy_combine(self, index, coefficients):
        calls["combine_one"] += 1
        return combine_one(self, index, coefficients)

    def spy_same_subspace(self, a, b):
        same = same_subspace(self, a, b)
        calls["equal_subspace_skips"] += same
        return same

    def spy_eliminate(self, index, payload):
        calls["eliminate_one"] += 1
        calls["full_rank_targets"] += int(self.ranks[index] == self.pivot_limit)
        return eliminate_one(self, index, payload)

    monkeypatch.setattr(EventGossipEngine, "_encode", spy_encode)
    monkeypatch.setattr(RowEliminator, "combine_one", spy_combine)
    monkeypatch.setattr(RowEliminator, "same_subspace", spy_same_subspace)
    monkeypatch.setattr(RowEliminator, "eliminate_one", spy_eliminate)
    spec = _spec(trials=2, seed=20260808, **EQUIVALENCE_CASES[case])
    event = _measure(spec, "event", trials=2)
    sent = sum(result.messages_sent for result in event)
    assert calls["eliminate_one"] > 0
    assert calls["full_rank_targets"] == 0
    assert calls["combine_one"] < sent
    assert calls["encodes"] == (
        calls["combine_one"] + calls["full_rank_skips"] + calls["equal_subspace_skips"]
    )
    if case == "sync-barbell-k-n":
        assert calls["equal_subspace_skips"] > 0
    monkeypatch.undo()
    assert event == _measure(spec, "scalar", trials=2)


def test_only_the_scalar_path_asks_every_node_its_rank(monkeypatch):
    """Uniform AG reports ``min_rank`` on both engines; the event engine
    passes its own rank list's minimum and never calls ``rank_of``."""
    from repro.gossip import GossipEngine
    from repro.protocols import AlgebraicGossip

    asked = []
    rank_of = AlgebraicGossip.rank_of

    def spy_rank_of(self, node):
        asked.append(node)
        return rank_of(self, node)

    monkeypatch.setattr(AlgebraicGossip, "rank_of", spy_rank_of)
    materialized = _spec(trials=1, **EQUIVALENCE_CASES["async-grid"]).materialize()
    event, _ = _direct_run(EventGossipEngine, materialized, 5)
    assert asked == []
    scalar, _ = _direct_run(GossipEngine, materialized, 5)
    assert asked
    assert event == scalar
    assert event.metadata["min_rank"] == 8


def test_event_engine_timeout_matches_scalar():
    """Hitting max_rounds reports the same incomplete result as the scalar."""
    config = ASYNC.replace(max_rounds=3, allow_incomplete=True)
    spec = _spec(topology="ring", n=16, k=8, trials=2, seed=11, config=config)
    scalar, event = _measure(spec, "scalar"), _measure(spec, "event")
    assert scalar == event
    assert not scalar[0].completed


# ----------------------------------------------------------------------
# Typed refusals: no silent fallback anywhere
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_engine():
    with pytest.raises(ConfigurationError, match="unknown engine"):
        _spec(topology="ring", n=8, k=4, engine="warp")


def test_spec_rejects_the_deleted_batch_engine():
    with pytest.raises(
        ConfigurationError, match=r"known: \['', 'event', 'scalar'\]"
    ):
        _spec(topology="ring", n=12, k=6, engine="batch", config=SYNC)


def test_spec_accepts_event_engine_for_standalone_trees():
    """A standalone tree may pin the event engine; it replays the scalar one."""
    spec = _spec(
        topology="barbell",
        n=16,
        protocol="spanning_tree",
        spanning_tree="brr",
        engine="event",
        trials=2,
        config=SYNC,
    )
    assert spec.materialize().select_engine() == ("event", "pinned")
    assert _measure(spec, "event", trials=2) == _measure(spec, "scalar", trials=2)


def test_event_engine_rejects_a_custom_standalone_tree():
    """Direct construction with a tree subclass is a typed error: only the
    four built-in tree types run on the event engine."""
    class CustomTree(RoundRobinBroadcastTree):
        pass

    materialized = _spec(
        topology="barbell", n=16, protocol="spanning_tree", spanning_tree="brr",
        config=SYNC,
    ).materialize()
    rng = derive_rng(0, "trial-0")
    process = CustomTree(materialized.graph, 0, rng)
    assert not process.supports_event_engine()
    with pytest.raises(EngineError, match="event-driven"):
        EventGossipEngine(materialized.graph, process, SYNC, rng)


def test_event_engine_refuses_a_bit_generator_without_halves():
    """MT19937 has no buffered 32-bit halves to replay: typed error, no fallback."""
    spec = _spec(topology="ring", n=8, k=4, trials=1, seed=5, config=ASYNC)
    materialized = spec.materialize()
    rng = np.random.Generator(np.random.MT19937(5))
    process = materialized.build_process(rng)
    with pytest.raises(EngineError, match="MT19937"):
        EventGossipEngine(materialized.graph, process, materialized.config, rng)


# ----------------------------------------------------------------------
# Fingerprint and dispatch plumbing
# ----------------------------------------------------------------------
def test_engine_axis_never_enters_the_fingerprint():
    base = _spec(topology="grid", n=16, k=8, config=ASYNC)
    prints = {base.replace(engine=e).fingerprint() for e in ("", "scalar", "event")}
    assert len(prints) == 1


def test_run_single_dispatches_to_event_engine():
    spec = _spec(topology="grid", n=16, k=8, trials=1, seed=21, config=ASYNC)
    scalar = spec.replace(engine="scalar").materialize().run_single()
    event = spec.replace(engine="event").materialize().run_single()
    assert scalar == event


def test_parallel_chunked_dispatch_matches_inline():
    """Worker processes pick the event engine up from the pickled spec."""
    spec = _spec(topology="grid", n=16, k=8, trials=4, seed=13, config=ASYNC)
    inline = _measure(spec, "event", trials=4, jobs=1)
    chunked = _measure(spec, "event", trials=4, jobs=2)
    assert inline == chunked


def test_store_records_are_engine_invariant(tmp_path):
    """A store filled by the scalar engine fully serves an event-engine rerun."""
    from repro.store import ResultStore

    spec = _spec(topology="ring", n=16, k=8, trials=3, seed=17, config=ASYNC)
    store = ResultStore(tmp_path / "store")
    scalar = _measure(spec, "scalar", store=store)
    before = store.puts
    event = _measure(spec, "event", store=store)
    assert scalar == event
    assert store.puts == before  # full cache hit: nothing recomputed


def test_reset_problems_restores_fresh_state(eliminator_field):
    """A reset problem is indistinguishable from a freshly constructed one."""
    field = eliminator_field
    eliminator = RowEliminator(field, 3, 8)
    fresh = RowEliminator(field, 3, 8)
    history = field.random_elements(np.random.default_rng(5), (6, 3, 8))
    for rows in history:
        for problem, row in enumerate(rows):
            eliminator.eliminate_one(problem, eliminator.pack(row))
        fresh.eliminate_one(1, fresh.pack(rows[1]))
    eliminator.reset(0)
    eliminator.reset(2)
    assert eliminator.ranks == [0, fresh.ranks[1], 0]
    assert eliminator.basis(0).shape == (0, 8)
    assert np.array_equal(eliminator.basis(1), fresh.basis(1))
    # A wiped problem accepts the same rows a fresh eliminator would.
    for rows in history:
        assert eliminator.eliminate_one(0, eliminator.pack(rows[0])) == (
            fresh.eliminate_one(0, fresh.pack(rows[0]))
        )
    assert np.array_equal(eliminator.basis(0), fresh.basis(0))
