"""The event-driven engine: the fast engine for uniform algebraic gossip and TAG.

The scalar :class:`~repro.gossip.engine.GossipEngine` is the reference: it
drives any :class:`~repro.gossip.engine.GossipProcess` through per-node
decoders and re-scans every node to answer ``is_complete()`` /
``finished_nodes()`` after every timeslot.  That is fine at ``n ≤ a few
hundred`` and hopeless at ``n = 10^5`` — which is exactly where the paper's
asymptotic claims (``Θ(n log n)`` for uniform algebraic gossip, ``O(n)`` for
TAG) live.

:class:`EventGossipEngine` runs **one trial** with per-event O(1)
bookkeeping:

* **Sparse adjacency** — the engine walks the graph's own CSR arrays
  (:class:`~repro.graphs.csr.CSRGraph`, shared across trials); no ``n × n``
  matrix is ever formed.
* **Rank-only decoder state** — all ``n`` node subspaces live in one
  :class:`~repro.backends.rows.RowEliminator`, which keeps every stored row
  as one python int (a bit per column over GF(2), a byte per column
  otherwise), and a node's state is touched only when an event actually
  reaches it — a node that receives nothing does no work.  The process is
  the one the scalar engine runs (``AlgebraicGossip`` or ``TagProtocol``,
  from the same factory call); it builds a node's decoder only on first
  use, and the engine reads its placement, never a decoder, so a trial here
  builds none.
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

TAG and standalone spanning trees
---------------------------------
:class:`~repro.protocols.tag.TagProtocol` with one of the four built-in
spanning trees runs here too.  Phase 1 (odd wakeups) drives the process's
own scalar tree object — ``choose_partner`` with the block reader as its
generator, ``tree_payload`` for both ends at wakeup and
``handle_tree_payload`` at delivery — so the tree protocols are their own
reference and nothing is replicated.  Phase 2 (even wakeups) is the parent
EXCHANGE on the eliminator, with the same encode/deliver steps as uniform
gossip.  The wakeup and tree-delivery bookkeeping go through
``TagProtocol.count_wakeup`` / ``count_tree_delivery``, the methods the
scalar path calls, so the metadata comes from the same code; tree
completion is a counter of unparented nodes.  The loop is picked once per
run, so uniform gossip's per-slot code has no TAG branch.

The same four tree types also run *standalone* (the Theorem 5 stopping
time ``t(S)``): every wakeup is TAG's phase-1 step, a node completes when
it gets its parent (the root, and every node of the BFS oracle, at round
0), and the metadata comes from the tree object.  There is no eliminator;
a reset-churn crash goes to the tree's own ``on_crash``, which refuses
with the scalar engine's :class:`~repro.errors.SimulationError`.

Round-end hook
--------------
``on_round_end(round_index, ranks)`` fires exactly where the scalar engine
calls ``GossipProcess.on_round_end``: after each synchronous round's
deliveries, and after an asynchronous slot that completes a round (so a
final partial round gets no call).  ``ranks`` is the engine's live list of
per-node decoder ranks — read it, do not keep or change it.  The hook
consumes no randomness, and a run without one does no per-slot work for
it: the asynchronous loops step round by round and play the slots of a
round in an inner loop.  Standalone trees have no decoder ranks, so the
engine refuses a hook there with :class:`~repro.errors.EngineError`.

Bit-identical by construction
-----------------------------
The engine is a *pure optimisation*: given the same per-trial generator it
emits exactly the :class:`~repro.core.results.RunResult` the scalar engine
would, and leaves the generator in the same state.  The
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
  where the numpy calls would have.  ``NodeDynamics.choose_wakeup`` and the
  tree protocols' ``choose_partner`` take the reader as their ``rng``.
* **Bit-generator requirement** — the reader needs a bit generator that
  splits raw outputs into buffered 32-bit halves (PCG64, which
  :mod:`repro.core.rng` always builds, PCG64DXSM, Philox, SFC64); any other
  (MT19937) raises :class:`~repro.errors.EngineError` at engine
  construction.  There is no fallback to per-call numpy draws.

``tests/test_event_engine.py`` asserts the equivalence per seed — results
and final generator state — over both time models, GF(2), GF(3), GF(5),
GF(9), GF(16) and GF(256), churn (pause *and* reset), heterogeneous rates
and packet loss; ``tests/test_tag_event_engine.py`` does the same for TAG
and the standalone trees over a generated spec space, and checks the
round-end hook against :class:`~repro.analysis.progress.ProgressRecorder`
on the scalar engine; ``tests/test_rng_draws.py`` checks the reader
against numpy draw for draw.

Reset-mode churn is supported for both protocols: each trial owns its
eliminator, so a crash wipes one problem
(:meth:`~repro.backends.rows.RowEliminator.reset`) and re-seeds it from
the node's initial placement — exactly ``on_crash`` of
``AlgebraicGossip`` and ``TagProtocol`` (TAG's tree survives the crash).

The engine refuses anything it cannot replay exactly with a typed
:class:`~repro.errors.EngineError` (a process whose
:meth:`~repro.gossip.engine.GossipProcess.supports_event_engine` is
``False``: non-uniform selectors, subclasses, TAG or a standalone run with
a custom tree) — never a silent fallback to another engine.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..backends.rows import RowEliminator
from ..core.config import GossipAction, SimulationConfig, TimeModel
from ..core.results import RunResult
from ..core.rng import BlockDraws
from ..errors import EngineError, SimulationError
from ..graphs.csr import CSRGraph
from ..protocols.spanning_tree_protocols import SpanningTreeProtocol
from .dynamics import NodeDynamics
from .engine import GossipProcess

__all__ = ["EventGossipEngine"]


class EventGossipEngine:
    """Run one trial of uniform AG, TAG or a spanning tree, event by event.

    Parameters
    ----------
    graph:
        The communication graph; the engine walks its CSR arrays directly.
    process:
        The already-constructed protocol of this trial (setup draws consumed
        exactly as in the sequential path).  Its
        :meth:`~repro.gossip.engine.GossipProcess.supports_event_engine`
        must return ``True``, else :class:`EngineError`.
    config:
        The simulation configuration.
    rng:
        This trial's generator; every draw is issued in the scalar engine's
        exact order.  Its bit generator must split raw outputs into buffered
        32-bit halves (see :class:`~repro.core.rng.BlockDraws`), else
        :class:`EngineError`.
    on_round_end:
        Optional ``(round_index, ranks)`` callback, called where the scalar
        engine calls ``GossipProcess.on_round_end`` (see the module
        docstring); refused for a standalone spanning tree.
    """

    def __init__(
        self,
        graph: CSRGraph,
        process: GossipProcess,
        config: SimulationConfig,
        rng: np.random.Generator,
        *,
        on_round_end: Callable[[int, list[int]], None] | None = None,
    ) -> None:
        if graph.number_of_nodes() < 2:
            raise SimulationError("gossip requires at least two nodes")
        if not graph.is_connected():
            raise SimulationError("gossip requires a connected graph")
        if not process.supports_event_engine():
            raise EngineError(
                f"{type(process).__name__} is not supported by the event-driven "
                "engine: it replays uniform algebraic gossip (AlgebraicGossip "
                "with a UniformSelector), TagProtocol with a built-in spanning "
                "tree and the built-in spanning trees standalone only; run the "
                "scalar engine instead"
            )
        self.graph = graph
        self.process = process
        self.config = config
        self.rng = rng
        self._draws = BlockDraws(rng)
        # Nodes are exactly 0..n-1, so position == node id throughout.
        self._nodes = graph.nodes()
        self._n = len(self._nodes)
        self._indptr, self._indices = graph.indptr, graph.indices
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
        self._on_round_end = on_round_end
        # The spanning-tree object phase 1 drives: TAG's, or the process
        # itself when a tree runs standalone.
        self._standalone = isinstance(process, SpanningTreeProtocol)
        self._stp = process if self._standalone else getattr(process, "stp", None)
        if self._stp is not None:
            self._unparented = sum(
                1
                for node in self._nodes
                if node != self._stp.root and self._stp.parent_of(node) is None
            )
        if self._standalone:
            if on_round_end is not None:
                raise EngineError(
                    "a standalone spanning tree has no decoder ranks to report "
                    "at the round end"
                )
            for node in self._nodes:
                if node == self._stp.root or self._stp.parent_of(node) is not None:
                    self._note_completion(node, 0)
            return
        self._field = process.generation.field
        self._order = self._field.order
        self._k = process.generation.k
        if self._field.order != config.field_size:
            raise SimulationError(
                f"generation field GF({self._field.order}) does not match "
                f"config field_size {config.field_size}"
            )
        self._eliminator = RowEliminator(self._field, self._n, self._k)
        self._ranks = self._eliminator.ranks  # live list
        for pos in process.placement:
            self._seed_node(pos, 0)

    # ------------------------------------------------------------------
    # Initial state
    # ------------------------------------------------------------------
    def _seed_node(self, pos: int, round_index: int) -> None:
        """Absorb the unit rows of the messages the placement puts at ``pos``.

        Every coded process the engine runs carries its validated
        ``placement``; the resulting RREF state is what a freshly seeded
        :class:`~repro.rlnc.decoder.RlncDecoder` holds.  A node those rows
        alone bring to rank ``k`` completes at ``round_index``.
        """
        eliminator = self._eliminator
        for message_index in self.process.placement.get(self._nodes[pos], ()):
            unit = self._field.zeros(self._k)
            unit[message_index] = 1
            eliminator.eliminate_one(pos, eliminator.pack(unit))
        if self._ranks[pos] == self._k:
            self._note_completion(pos, round_index)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Run the trial to completion (or to the ``max_rounds`` limit)."""
        synchronous = self.config.time_model is TimeModel.SYNCHRONOUS
        with self._draws as draws:
            if self._stp is not None:
                rounds = (
                    self._run_tree_synchronous(draws)
                    if synchronous
                    else self._run_tree_asynchronous(draws)
                )
            elif synchronous:
                rounds = self._run_synchronous(draws)
            else:
                rounds = self._run_asynchronous(draws)
        completed = self._finished == self._n
        if not completed and not self.config.allow_incomplete:
            raise SimulationError(
                f"protocol did not complete within {self.config.max_rounds} rounds"
            )
        metadata = dict(self.process.metadata())
        if self._stp is None:
            metadata["min_rank"] = min(self._ranks)
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
        on_round_end = self._on_round_end
        timeslot = self._timeslot
        down = None
        # One pass per round; the inner loop plays the round's slots.
        while self._finished < n and timeslot < max_timeslots:
            round_index = timeslot // n + 1
            round_end = round_index * n
            if reset_on_crash:
                self._process_crashes(round_index)
            if has_churn:
                down = dynamics.down_mask(round_index)
            while timeslot < round_end and self._finished < n:
                pos = choose_wakeup(draws, round_index, down)
                timeslot += 1
                if pos is None:
                    continue
                start = start_of(pos)
                partner = neighbour(start + integers(0, start_of(pos + 1) - start))
                # Both packets are encoded before either is delivered, matching
                # the scalar on_wakeup (PUSH draws first, then PULL).
                push = encode(pos, partner) if do_push else None
                pull = encode(partner, pos) if do_pull else None
                if push is not None:
                    deliver(pos, partner, push, round_index, down)
                if pull is not None:
                    deliver(partner, pos, pull, round_index, down)
            if on_round_end is not None and timeslot == round_end:
                on_round_end(round_index, self._ranks)
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
        on_round_end = self._on_round_end
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
            if on_round_end is not None:
                on_round_end(round_index, self._ranks)
        return round_index

    # ------------------------------------------------------------------
    # Spanning trees: phase 1 on the tree object (TAG and standalone),
    # TAG's phase 2 on the eliminator
    # ------------------------------------------------------------------
    def _run_tree_asynchronous(self, draws: BlockDraws) -> int:
        round_index = 0
        n = self._n
        max_timeslots = self.config.max_rounds * n
        dynamics = self._dynamics
        choose_wakeup = dynamics.choose_wakeup
        wakeup = self._tree_wakeup if self._standalone else self._tag_wakeup
        has_churn = dynamics.has_churn
        reset_on_crash = dynamics.reset_on_crash
        on_round_end = self._on_round_end
        timeslot = self._timeslot
        down = None
        while self._finished < n and timeslot < max_timeslots:
            round_index = timeslot // n + 1
            round_end = round_index * n
            if reset_on_crash:
                self._process_crashes(round_index)
            if has_churn:
                down = dynamics.down_mask(round_index)
            while timeslot < round_end and self._finished < n:
                pos = choose_wakeup(draws, round_index, down)
                timeslot += 1
                if pos is None:
                    continue
                for deliver, sender, receiver, payload in wakeup(pos, draws):
                    deliver(sender, receiver, payload, round_index, down)
            if on_round_end is not None and timeslot == round_end:
                on_round_end(round_index, self._ranks)
        self._timeslot = timeslot
        return round_index

    def _run_tree_synchronous(self, draws: BlockDraws) -> int:
        round_index = 0
        n = self._n
        dynamics = self._dynamics
        wakeup = self._tree_wakeup if self._standalone else self._tag_wakeup
        has_churn = dynamics.has_churn
        reset_on_crash = dynamics.reset_on_crash
        on_round_end = self._on_round_end
        down = None
        while self._finished < n:
            if round_index >= self.config.max_rounds:
                return round_index
            round_index += 1
            if reset_on_crash:
                self._process_crashes(round_index)
            if has_churn:
                down = dynamics.down_mask(round_index)
            # Tree payloads and coded rows share one bucket, delivered at the
            # round boundary in wakeup order, as the scalar engine does.
            bucket: list[tuple] = []
            for pos in range(n):
                if down is None or not down[pos]:
                    bucket.extend(wakeup(pos, draws))
            self._timeslot += n
            for deliver, sender, receiver, payload in bucket:
                deliver(sender, receiver, payload, round_index, down)
            if on_round_end is not None:
                on_round_end(round_index, self._ranks)
        return round_index

    def _tree_wakeup(self, pos: int, draws: BlockDraws) -> list[tuple]:
        """One phase-1 step as ``(deliver, sender, receiver, payload)`` entries.

        The tree object picks the partner (with the block reader as its
        generator) and both payloads are taken at wakeup: the scalar
        ``SpanningTreeProtocol.on_wakeup`` and TAG's ``_phase1_step``.
        """
        stp = self._stp
        partner = stp.choose_partner(pos, draws)
        deliver = self._deliver_tree
        return [
            (deliver, pos, partner, stp.tree_payload(pos)),
            (deliver, partner, pos, stp.tree_payload(partner)),
        ]

    def _tag_wakeup(self, pos: int, draws: BlockDraws) -> list[tuple]:
        """``TagProtocol.on_wakeup`` as ``(deliver, sender, receiver, payload)``.

        Phase 1 is :meth:`_tree_wakeup`; phase 2 is an EXCHANGE with the
        parent, both directions encoded before either is delivered.  TAG
        always exchanges, whatever ``config.action`` says.
        """
        if self.process.count_wakeup(pos, self._tree_complete):
            return self._tree_wakeup(pos, draws)
        parent = self._stp.parent_of(pos)
        if parent is None:
            return []
        push = self._encode(pos, parent)
        pull = self._encode(parent, pos)
        deliver = self._deliver
        entries = []
        if push is not None:
            entries.append((deliver, pos, parent, push))
        if pull is not None:
            entries.append((deliver, parent, pos, pull))
        return entries

    def _tree_complete(self) -> bool:
        return self._unparented == 0

    def _deliver_tree(
        self,
        sender_pos: int,
        receiver_pos: int,
        payload: object,
        round_index: int,
        down: np.ndarray | None,
    ) -> None:
        """A tree payload's ``on_deliver`` (TAG's or the tree's), under churn and loss."""
        self._messages_sent += 1
        if down is not None and (down[sender_pos] or down[receiver_pos]):
            self._churn_dropped += 1
            return
        loss = self._loss_probability
        if loss > 0 and self._draws.random() < loss:
            self._dropped_messages += 1
            return
        stp = self._stp
        # Parents are only ever assigned, never moved, and only to the
        # receiver of a tree payload: one comparison keeps the count exact.
        unparented = stp.parent_of(receiver_pos) is None
        if stp.handle_tree_payload(receiver_pos, sender_pos, payload):
            self._helpful_messages += 1
        if unparented and stp.parent_of(receiver_pos) is not None:
            self._unparented -= 1
            if self._standalone:
                # A standalone tree's node is done once it has its parent.
                self._note_completion(receiver_pos, round_index)
        if not self._standalone:
            self.process.count_tree_delivery(self._tree_complete)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _encode(self, sender: int, receiver: int):
        """One coded packet from ``sender`` to ``receiver``, or ``None``.

        ``None`` means the sender knows nothing and sends nothing.  A packet
        for a full-rank receiver draws its coefficients but is not built
        (the skip rule): it returns ``False``, which :meth:`_deliver` never
        feeds to the eliminator.  Otherwise the payload is the packed python
        int ``combine_one`` hands back.
        """
        ranks = self._ranks
        rank = ranks[sender]
        if not rank:
            return None
        if ranks[receiver] == self._k:
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
        if ranks[receiver_pos] == self._k:
            return
        if self._eliminator.eliminate_one(receiver_pos, payload):
            self._helpful_messages += 1
            if ranks[receiver_pos] == self._k and not self._noted[receiver_pos]:
                self._note_completion(receiver_pos, round_index)

    def _note_completion(self, pos: int, round_index: int) -> None:
        self._noted[pos] = True
        self._finished += 1
        self._completion_rounds[self._nodes[pos]] = round_index

    def _process_crashes(self, round_index: int) -> None:
        """Reset-mode churn: wipe crashing nodes back to initial knowledge.

        The loops call this only when ``dynamics.reset_on_crash`` is set.
        """
        while self._last_crash_round < round_index:
            self._last_crash_round += 1
            for pos in self._dynamics.crashes_at(self._last_crash_round):
                self._reset_node(pos, round_index)

    def _reset_node(self, pos: int, round_index: int) -> None:
        """One problem's ``on_crash``: wipe, re-seed placement, re-note.

        Mirrors ``CodedGossipProcess.on_crash`` (which consumes no
        randomness); the completion round must be re-earned, not inherited
        from before the crash — unless the initial placement alone is already
        full rank, in which case the scalar engine re-notes the node at the
        end of the crash round, as we do here.
        """
        node = self._nodes[pos]
        if self._standalone:
            # No knowledge to wipe: the tree's own on_crash decides, and the
            # built-in trees refuse exactly as on the scalar engine.
            self.process.on_crash(node)
            return
        if self._noted[pos]:
            self._noted[pos] = False
            self._finished -= 1
        self._completion_rounds.pop(node, None)
        self._eliminator.reset(pos)
        self._seed_node(pos, round_index)
