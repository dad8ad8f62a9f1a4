"""The event-driven sparse engine: algebraic gossip at large ``n``.

Both existing engine families are *dense in nodes*: the scalar
:class:`~repro.gossip.engine.GossipEngine` re-scans every node's decoder to
answer ``is_complete()`` / ``finished_nodes()`` after every timeslot, and the
lockstep :class:`~repro.gossip.batch.BatchEngineCore` family sweeps full
``trials × n`` grids per tick.  Both are excellent at ``n ≤ a few hundred``
and hopeless at ``n = 10^5`` — which is exactly where the paper's asymptotic
claims (``Θ(n log n)`` for uniform algebraic gossip, ``O(n)`` for TAG) live.

:class:`EventGossipEngine` runs **one trial** with per-event O(1)
bookkeeping:

* **Sparse adjacency** — the engine walks the memoized CSR neighbour
  structure from :func:`repro.graphs.topologies.csr_adjacency` (built once
  per graph, shared across trials); no ``n × n`` matrix is ever formed.
* **Rank-only decoder state** — all ``n`` node subspaces live in a single
  batched :class:`~repro.backends.EliminatorState` built by the ambient
  compute backend (``gf2bit`` packs GF(2) rows into machine words), and a
  node's state is touched only when an event actually reaches it — a node
  that receives nothing does no work.
* **Early settling** — completion is a counter: a delivery that lifts a
  node's rank to ``k`` increments ``finished`` and records the completion
  round right there, so neither ``finished_nodes()`` nor any per-tick
  ``O(n)`` scan exists.  The asynchronous loop costs O(1) bookkeeping plus
  two O(k) encode/eliminate steps per timeslot; the synchronous loop buckets
  one round's transmissions into a queue and drains it at the round boundary,
  as the paper's synchronous semantics require.
* **Only state-changing work** — a packet addressed to a full-rank receiver
  is never built or eliminated (see below), and every draw is served by a
  :class:`~repro.core.rng.BlockDraws` reader instead of a numpy call.

Bit-identical by construction
-----------------------------
Like the batch engines, this engine is a *pure optimisation*: given the same
per-trial generator it emits exactly the
:class:`~repro.core.results.RunResult` the scalar engine would, and leaves
the generator in the same state.  The
asynchronous wakeup draw is delegated to the very same
:class:`~repro.gossip.dynamics.NodeDynamics` methods (for uniform clocks,
``rng.integers(0, n)`` *is* the embedded jump chain of ``n`` i.i.d.
exponential node clocks, so the per-node-clock view and the paper's
one-uniform-node-per-slot view are the same process draw for draw); partner
selection indexes the same sorted neighbour tuples; coefficients are drawn
against the canonical RREF basis, whose uniqueness makes every encoded packet
and helpfulness flag coincide with the scalar decoder's; churn kills a
transmission before the loss draw, consuming no randomness.

* **Skip rule** — when the receiver's rank is already ``k`` as a packet is
  encoded, its coefficients are still drawn (the stream must advance), but
  no payload is built; at delivery the packet still counts in
  ``messages_sent`` and still meets the churn check and the loss coin, and
  ``eliminate_one`` is never called on a full-rank receiver (it could not
  help).  Ranks only grow between encode and delivery, because crashes are
  processed at the start of the slot (asynchronous) or round (synchronous),
  so a receiver full at encode is still full at delivery.
* **Block reader** — the wakeup, partner, coefficient and loss draws go
  through one :class:`~repro.core.rng.BlockDraws` per run, which serves
  them from blocks of raw 64-bit outputs with numpy's own algorithms and,
  on exit (exceptions included), leaves ``rng.bit_generator.state`` exactly
  where the numpy calls would have.  ``NodeDynamics.choose_wakeup`` takes
  the reader as its ``rng``.
* **Bit-generator requirement** — the reader needs a bit generator that
  splits raw outputs into buffered 32-bit halves (PCG64, which
  :mod:`repro.core.rng` always builds, PCG64DXSM, Philox, SFC64); any other
  (MT19937) raises :class:`~repro.errors.EngineError` at engine
  construction.  There is no fallback to per-call numpy draws.

``tests/test_event_engine.py`` asserts the equivalence per seed — results
and final generator state — over both time models, GF(2), GF(3), GF(5) and
GF(16), churn (pause *and* reset), heterogeneous rates and packet loss;
``tests/test_rng_draws.py`` checks the reader against numpy draw for draw.

Unlike the lockstep fast path, reset-mode churn **is** supported: each trial
owns its eliminator, so a crash wipes one problem
(:meth:`~repro.backends.EliminatorState.reset_problems`) and re-seeds it from
the node's initial placement — exactly ``AlgebraicGossip.on_crash``.

The engine refuses anything it cannot replay exactly with a typed
:class:`~repro.errors.EngineError` (protocols outside rank-only uniform
algebraic gossip, e.g. TAG or non-uniform selectors) — never a silent
fallback to another engine.
"""

from __future__ import annotations

from typing import List

import networkx as nx
import numpy as np

from ..core.config import GossipAction, SimulationConfig, TimeModel
from ..core.results import RunResult
from ..core.rng import BlockDraws
from ..errors import EngineError, SimulationError
from ..graphs.csr import CSRGraph
from ..graphs.topologies import csr_adjacency
from .dynamics import NodeDynamics
from .engine import GossipProcess

__all__ = [
    "EventGossipEngine",
    "run_event_trials",
    "build_event_process",
    "event_supports_process",
    "event_supports_config",
]


def build_event_process(graph, protocol_factory, rng) -> GossipProcess:
    """Build one trial's process for the event engine, honouring the graph type.

    For a networkx graph this is exactly ``protocol_factory(graph, rng)`` —
    the full process with scalar decoders, as the event runners always built.
    For a graph-free :class:`~repro.graphs.csr.CSRGraph` the factory must
    provide a ``rank_only_process`` method (``UniformGossipFactory`` does)
    building a decoder-less process from the *same* ``rng`` stream position;
    factories without one (TAG, spanning trees) raise a typed
    :class:`~repro.errors.EngineError`, never a silent fallback.
    """
    if isinstance(graph, CSRGraph):
        rank_only = getattr(protocol_factory, "rank_only_process", None)
        if rank_only is None:
            raise EngineError(
                f"{type(protocol_factory).__name__} cannot run on a CSRGraph: "
                "the graph-free pipeline supports rank-only uniform algebraic "
                "gossip only; materialise through the networkx path instead"
            )
        return rank_only(graph, rng)
    return protocol_factory(graph, rng)


def event_supports_process(process: GossipProcess) -> bool:
    """Can the event-driven engine replay ``process`` bit-identically?

    The engine tracks rank-only state against the canonical RREF basis, so it
    covers exactly the protocols whose observable behaviour is a function of
    ranks and the random stream: uniform algebraic gossip with the uniform
    selector — the same opt-in
    :meth:`~repro.gossip.engine.GossipProcess.supports_rank_only_batch`
    declares.
    """
    return bool(process.supports_rank_only_batch())


def event_supports_config(config: SimulationConfig) -> bool:
    """Can the event-driven engine honour every knob of ``config``?

    Always ``True``: packet loss, pause-mode churn, reset-mode churn (each
    trial owns its eliminator, so single problems can be wiped and re-seeded)
    and heterogeneous activation rates are all replayed bit-identically.
    The unsupported axis is the *protocol*, checked by
    :func:`event_supports_process`.
    """
    return True


class EventGossipEngine:
    """Run one trial of rank-only uniform algebraic gossip, event by event.

    Parameters
    ----------
    graph:
        The communication graph; its CSR adjacency is memoized per instance.
    process:
        The already-constructed protocol of this trial (setup draws consumed
        exactly as in the sequential path).  Must pass
        :func:`event_supports_process`, else :class:`EngineError`.
    config:
        The simulation configuration.
    rng:
        This trial's generator; every draw is issued in the scalar engine's
        exact order.  Its bit generator must split raw outputs into buffered
        32-bit halves (see :class:`~repro.core.rng.BlockDraws`), else
        :class:`EngineError`.
    """

    def __init__(
        self,
        graph: nx.Graph,
        process: GossipProcess,
        config: SimulationConfig,
        rng: np.random.Generator,
    ) -> None:
        if graph.number_of_nodes() < 2:
            raise SimulationError("gossip requires at least two nodes")
        connected = (
            graph.is_connected()
            if isinstance(graph, CSRGraph)
            else nx.is_connected(graph)
        )
        if not connected:
            raise SimulationError("gossip requires a connected graph")
        if not event_supports_process(process):
            raise EngineError(
                f"{type(process).__name__} is not supported by the event-driven "
                "engine: it replays rank-only uniform algebraic gossip only "
                "(AlgebraicGossip with a UniformSelector); run the scalar or "
                "batch engine instead"
            )
        from ..backends import resolve_backend

        self.graph = graph
        self.process = process
        self.config = config
        self.rng = rng
        self._draws = BlockDraws(rng)
        # A CSRGraph's nodes are exactly 0..n-1, so its node view (a range)
        # serves directly — position == node id and no O(n) list is built.
        if isinstance(graph, CSRGraph):
            self._nodes = graph.nodes()
        else:
            self._nodes = sorted(graph.nodes())
        self._n = len(self._nodes)
        self._indptr, self._indices = csr_adjacency(graph)
        self._field = process.generation.field
        self._order = self._field.order
        self._k = process.generation.k
        if self._field.order != config.field_size:
            raise SimulationError(
                f"generation field GF({self._field.order}) does not match "
                f"config field_size {config.field_size}"
            )
        self._eliminator = resolve_backend(None).make_eliminator(
            self._field, self._n, self._k
        )
        self._ranks = self._eliminator.ranks  # live view
        self._one_index = np.zeros(1, dtype=np.int64)
        self._messages_sent = 0
        self._helpful_messages = 0
        self._dropped_messages = 0
        self._churn_dropped = 0
        self._timeslot = 0
        self._loss_probability = config.loss_probability
        self._dynamics = NodeDynamics(config, self._nodes)
        self._last_crash_round = 0
        self._completion_rounds: dict[int, int] = {}
        self._noted = np.zeros(self._n, dtype=bool)
        self._finished = 0
        self._seed_from_process()

    # ------------------------------------------------------------------
    # Initial state
    # ------------------------------------------------------------------
    def _seed_from_process(self) -> None:
        """Absorb every node's initial knowledge, grouped into depth waves."""
        initial = getattr(self.process, "initial_coefficient_rows", None)
        if initial is not None:
            # Decoder-less processes (RankOnlyUniformGossip) report their
            # initial RREF rows directly; nothing per-node is built.
            node_rows = initial()
        else:
            node_rows = {
                node: decoder.coefficient_matrix()
                for node, decoder in self.process.decoders.items()
            }
        if isinstance(self._nodes, range):
            pos = None  # position == node id on the CSR pipeline
        else:
            pos = {node: index for index, node in enumerate(self._nodes)}
        initial_rows: dict[int, np.ndarray] = {}
        max_depth = 0
        for node, matrix in node_rows.items():
            if matrix.shape[0]:
                initial_rows[node if pos is None else pos[node]] = matrix
                max_depth = max(max_depth, matrix.shape[0])
        for depth in range(max_depth):
            indices = [
                problem
                for problem, matrix in initial_rows.items()
                if matrix.shape[0] > depth
            ]
            rows = np.stack([initial_rows[problem][depth] for problem in indices])
            self._eliminator.eliminate(rows, np.asarray(indices, dtype=np.int64))
        for position in np.nonzero(self._ranks == self._k)[0]:
            self._note_completion(int(position), 0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Run the trial to completion (or to the ``max_rounds`` limit)."""
        with self._draws as draws:
            if self.config.time_model is TimeModel.SYNCHRONOUS:
                rounds = self._run_synchronous(draws)
            else:
                rounds = self._run_asynchronous(draws)
        completed = self._finished == self._n
        if not completed and not self.config.allow_incomplete:
            raise SimulationError(
                f"protocol did not complete within {self.config.max_rounds} rounds"
            )
        metadata = dict(self.process.metadata())
        metadata["min_rank"] = int(self._ranks.min())
        if self._loss_probability > 0:
            metadata.setdefault("dropped_messages", self._dropped_messages)
        if self._dynamics.has_churn:
            metadata.setdefault("churn_dropped_messages", self._churn_dropped)
        return RunResult(
            rounds=rounds,
            timeslots=self._timeslot,
            completed=completed,
            n=self._n,
            k=int(metadata.pop("k", 0)),
            completion_rounds=dict(self._completion_rounds),
            messages_sent=self._messages_sent,
            helpful_messages=self._helpful_messages,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # Time models
    # ------------------------------------------------------------------
    def _run_asynchronous(self, draws: BlockDraws) -> int:
        round_index = 0
        n = self._n
        max_timeslots = self.config.max_rounds * n
        dynamics = self._dynamics
        choose_wakeup = dynamics.choose_wakeup
        integers = draws.integers
        encode, deliver = self._encode, self._deliver
        start_of, neighbour = self._indptr.item, self._indices.item
        action = self.process.action
        do_push = action in (GossipAction.PUSH, GossipAction.EXCHANGE)
        do_pull = action in (GossipAction.PULL, GossipAction.EXCHANGE)
        has_churn = dynamics.has_churn
        reset_on_crash = dynamics.reset_on_crash
        timeslot = self._timeslot
        down = None
        while self._finished < n:
            if timeslot >= max_timeslots:
                break
            round_now = timeslot // n + 1
            if reset_on_crash:
                self._process_crashes(round_now)
            if has_churn:
                down = dynamics.down_mask(round_now)
            pos = choose_wakeup(draws, round_now, down)
            timeslot += 1
            round_index = round_now
            if pos is None:
                continue
            start = start_of(pos)
            partner = neighbour(start + integers(0, start_of(pos + 1) - start))
            # Both packets are encoded before either is delivered, matching
            # the scalar on_wakeup (PUSH draws first, then PULL).
            push = encode(pos, partner) if do_push else None
            pull = encode(partner, pos) if do_pull else None
            if push is not None:
                deliver(pos, partner, push, round_now, down)
            if pull is not None:
                deliver(partner, pos, pull, round_now, down)
        self._timeslot = timeslot
        return round_index

    def _run_synchronous(self, draws: BlockDraws) -> int:
        round_index = 0
        n = self._n
        dynamics = self._dynamics
        integers = draws.integers
        encode, deliver = self._encode, self._deliver
        start_of, neighbour = self._indptr.item, self._indices.item
        action = self.process.action
        do_push = action in (GossipAction.PUSH, GossipAction.EXCHANGE)
        do_pull = action in (GossipAction.PULL, GossipAction.EXCHANGE)
        has_churn = dynamics.has_churn
        reset_on_crash = dynamics.reset_on_crash
        down = None
        while self._finished < n:
            if round_index >= self.config.max_rounds:
                return round_index
            round_index += 1
            if reset_on_crash:
                self._process_crashes(round_index)
            if has_churn:
                down = dynamics.down_mask(round_index)
            # Wakeup phase: all partner/coefficient draws against committed
            # state, transmissions bucketed for the round boundary.
            bucket: list[tuple[int, int, object]] = []
            for pos in range(n):
                if down is not None and down[pos]:
                    continue
                start = start_of(pos)
                partner = neighbour(start + integers(0, start_of(pos + 1) - start))
                push = encode(pos, partner) if do_push else None
                pull = encode(partner, pos) if do_pull else None
                if push is not None:
                    bucket.append((pos, partner, push))
                if pull is not None:
                    bucket.append((partner, pos, pull))
            self._timeslot += n
            # Deliveries become visible only now: end of the round.
            for sender, receiver, payload in bucket:
                deliver(sender, receiver, payload, round_index, down)
        return round_index

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _encode(self, sender: int, receiver: int):
        """One coded packet from ``sender`` to ``receiver``, or ``None``.

        ``None`` means the sender knows nothing and sends nothing.  A packet
        for a full-rank receiver draws its coefficients but is not built
        (the skip rule): it returns ``False``, which :meth:`_deliver` never
        feeds to the eliminator.  Otherwise the payload is whatever the
        backend's ``combine_one`` hands back — a packed python int for
        gf2bit, a dense row elsewhere.
        """
        ranks = self._ranks
        rank = ranks.item(sender)
        if not rank:
            return None
        if ranks.item(receiver) == self._k:
            self._draws.skip_elements(self._order, rank)
            return False
        return self._eliminator.combine_one(
            sender, self._draws.elements(self._order, rank)
        )

    def _deliver(
        self,
        sender_pos: int,
        receiver_pos: int,
        payload: object,
        round_index: int,
        down: np.ndarray | None,
    ) -> None:
        self._messages_sent += 1
        # A down endpoint kills the transmission before it enters the lossy
        # channel, so churn consumes no loss-randomness.
        if down is not None and (down[sender_pos] or down[receiver_pos]):
            self._churn_dropped += 1
            return
        loss = self._loss_probability
        if loss > 0 and self._draws.random() < loss:
            self._dropped_messages += 1
            return
        ranks = self._ranks
        # A full-rank receiver cannot be helped: nothing to eliminate.
        if ranks.item(receiver_pos) == self._k:
            return
        if self._eliminator.eliminate_one(receiver_pos, payload):
            self._helpful_messages += 1
            if ranks.item(receiver_pos) == self._k and not self._noted[receiver_pos]:
                self._note_completion(receiver_pos, round_index)

    def _note_completion(self, pos: int, round_index: int) -> None:
        self._noted[pos] = True
        self._finished += 1
        self._completion_rounds[self._nodes[pos]] = round_index

    def _process_crashes(self, round_index: int) -> None:
        """Reset-mode churn: wipe crashing nodes back to initial knowledge.

        Both loops call this only when ``dynamics.reset_on_crash`` is set.
        """
        while self._last_crash_round < round_index:
            self._last_crash_round += 1
            for pos in self._dynamics.crashes_at(self._last_crash_round):
                self._reset_node(pos, round_index)

    def _reset_node(self, pos: int, round_index: int) -> None:
        """One problem's ``on_crash``: wipe, re-seed placement, re-note.

        Mirrors ``reset_node_to_initial_knowledge`` (which consumes no
        randomness); the completion round must be re-earned, not inherited
        from before the crash — unless the initial placement alone is already
        full rank, in which case the scalar engine re-notes the node at the
        end of the crash round, as we do here.
        """
        node = self._nodes[pos]
        if self._noted[pos]:
            self._noted[pos] = False
            self._finished -= 1
        self._completion_rounds.pop(node, None)
        self._one_index[0] = pos
        self._eliminator.reset_problems(self._one_index)
        for message_index in getattr(self.process, "_placement", {}).get(node, ()):
            unit = self._field.zeros((1, self._k))
            unit[0, int(message_index)] = 1
            self._eliminator.eliminate(unit, self._one_index)
        if self._ranks[pos] == self._k:
            self._note_completion(pos, round_index)


def run_event_trials(
    graph: nx.Graph,
    processes: List[GossipProcess],
    config: SimulationConfig,
    rngs: List[np.random.Generator],
) -> List[RunResult]:
    """Event-driven trial executor matching the ``BatchRunner`` signature.

    Runs each trial through its own :class:`EventGossipEngine` (the CSR
    adjacency is shared via the per-graph memo).  Raises
    :class:`~repro.errors.EngineError` if any trial's protocol is outside the
    engine's support — explicitly, never by falling back.
    """
    if len(processes) != len(rngs):
        raise SimulationError(
            f"{len(processes)} processes but {len(rngs)} generators"
        )
    return [
        EventGossipEngine(graph, process, config, rng).run()
        for process, rng in zip(processes, rngs)
    ]
