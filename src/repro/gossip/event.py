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
  ``O(n)`` scan exists.  An asynchronous timeslot costs O(1) bookkeeping
  plus at most two O(k) encode/eliminate steps.
* **Only state-changing work** — a packet that cannot help its receiver
  is never built or eliminated, a timeslot that cannot change any state
  makes no encode or delivery call in the uniform-gossip case described
  below, and every draw is served by a
  :class:`~repro.core.rng.BlockDraws` reader instead of a numpy call.

One round loop
--------------
:meth:`EventGossipEngine.run` is the one loop over rounds, for both time
models and every protocol: it owns the ``max_rounds`` limit, reset-churn
crashes (at the start of a round), the round's down mask and the round-end
hook.  A player picked once per run plays each round.  The synchronous
player (every protocol) buckets each alive node's ``(deliver, sender,
receiver, payload)`` wakeup entries and delivers them at the round end in
wakeup order, as the paper's synchronous semantics require.  The
asynchronous players play ``n`` timeslots of one waking node each and stop
once every node is complete.  One delivers each waking node's wakeup
entries; the other, for uniform gossip under EXCHANGE at loss 0 without
churn or rates (the ``sparse-event`` hot path), has the exchange written
inline and plays dead slots without it (see "Dead slots" below).  Uniform
gossip's wakeup and TAG's phase 2 are one exchange step on the eliminator.

TAG and standalone spanning trees
---------------------------------
:class:`~repro.protocols.tag.TagProtocol` with one of the four built-in
spanning trees runs here too.  Phase 1 (odd wakeups) drives the process's
own scalar tree object — ``choose_partner`` with the block reader as its
generator, ``tree_payload`` for both ends at wakeup and
``handle_tree_payload`` at delivery — so the tree protocols are their own
reference and nothing is replicated.  Phase 2 (even wakeups) is the parent
EXCHANGE on the eliminator, through uniform gossip's exchange step.  The
wakeup and tree-delivery bookkeeping go through
``TagProtocol.count_wakeup`` / ``count_tree_delivery``, the methods the
scalar path calls, so the metadata comes from the same code; tree
completion is a counter of unparented nodes.  The player is picked once per
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
consumes no randomness, and :meth:`EventGossipEngine.run` calls it
between rounds, so a run without one does no per-slot work for it.
Standalone trees have no decoder ranks, so the engine refuses a hook there
with :class:`~repro.errors.EngineError`.

Bit-identical by construction
-----------------------------
The engine is a *pure optimisation*: given the same per-trial generator it
emits exactly the :class:`~repro.core.results.RunResult` the scalar engine
would, and leaves the generator in the same state.  The asynchronous
wakeup is drawn by :meth:`~repro.gossip.dynamics.NodeDynamics.choose_wakeup`,
the very method the scalar engine calls.  The one exception is uniform
gossip's player under EXCHANGE at loss 0 without churn or rates, which
makes that method's one draw for such a run, ``rng.integers(0, n)``,
itself.  For uniform clocks that draw *is* the embedded jump chain of ``n``
i.i.d. exponential node clocks, so the per-node-clock view and the paper's
one-uniform-node-per-slot view are the same process draw for draw.  Partner
selection indexes the same sorted neighbour tuples; coefficients are drawn
against the canonical RREF basis, whose uniqueness makes every encoded packet
and helpfulness flag coincide with the scalar decoder's; churn kills a
transmission before the loss draw, consuming no randomness.

* **Skip rule** — a packet helps only if it raises its receiver's rank
  (Definition 3 of the paper), and a coded packet lies in its sender's
  subspace.  So when, as a packet is encoded, its receiver's rank is
  already ``k``, or its receiver spans the same subspace as its sender
  (equal ranks, equal pivot masks, then
  :meth:`~repro.backends.rows.RowEliminator.same_subspace`), the packet
  cannot help.  Its coefficients are still drawn (the stream must
  advance), but no payload is built; at delivery the packet still counts
  in ``messages_sent`` and still meets the churn check and the loss coin,
  and ``eliminate_one`` is never called on it, nor on any packet for a
  full-rank receiver.  A receiver's subspace only grows between encode and
  delivery, because crashes are processed only at the start of a round, so
  a packet that could not help at encode cannot help at delivery.
* **Dead slots** — under EXCHANGE at loss 0 with no churn and no rates, a
  timeslot whose two ends both have rank 0 (neither sends) or both rank
  ``k`` (both packets are skipped, and no loss coin is drawn) changes no
  state, so that case's asynchronous player makes no encode or delivery
  for it.  At rank ``k`` it consumes the ``2k`` coefficient draws and
  counts the two messages those calls would have.  Any other run plays
  every slot through them.
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

``tests/test_tag_event_engine.py`` asserts the equivalence per seed —
results and final generator state — for uniform AG, TAG and the standalone
trees over a generated spec space (both time models, GF(2), GF(3), GF(4),
GF(5), GF(9), GF(16) and GF(256), churn in pause *and* reset mode,
heterogeneous rates, packet loss, every action), and checks the round-end
hook against :class:`~repro.analysis.progress.ProgressRecorder` on the
scalar engine; ``tests/test_rng_draws.py`` checks the reader against numpy
draw for draw.

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
        # Subscripting a memoryview reads one int without a copy, in about
        # half the time of ``ndarray.item``.
        self._indptr = memoryview(graph.indptr)
        self._indices = memoryview(graph.indices)
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
        # Live lists: the eliminator updates them in place.
        self._ranks = self._eliminator.ranks
        self._pivots = self._eliminator.pivots
        if self._stp is None:
            self._push = process.action in (GossipAction.PUSH, GossipAction.EXCHANGE)
            self._pull = process.action in (GossipAction.PULL, GossipAction.EXCHANGE)
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
        """Run the trial to completion (or to the ``max_rounds`` limit).

        The one round loop (see the module docstring).
        """
        if self._standalone:
            wakeup = self._tree_wakeup
        elif self._stp is not None:
            wakeup = self._tag_wakeup
        else:
            wakeup = self._uniform_wakeup
        if self.config.time_model is TimeModel.SYNCHRONOUS:
            play = self._play_synchronous_round
        elif (
            self._stp is None
            and self._push
            and self._pull
            and not self._loss_probability
            and not self._dynamics.active
        ):
            play = self._play_uniform_slots
        else:
            play = self._play_wakeup_slots
        n, dynamics, on_round_end = self._n, self._dynamics, self._on_round_end
        round_index = 0
        with self._draws:
            while self._finished < n and round_index < self.config.max_rounds:
                round_index += 1
                if dynamics.reset_on_crash:
                    self._process_crashes(round_index)
                down = dynamics.down_mask(round_index) if dynamics.has_churn else None
                play(round_index, down, wakeup)
                # An asynchronous round cut short by completion gets no call.
                if on_round_end is not None and self._timeslot == round_index * n:
                    on_round_end(round_index, self._ranks)
        completed = self._finished == n
        if not completed and not self.config.allow_incomplete:
            raise SimulationError(
                f"protocol did not complete within {self.config.max_rounds} rounds"
            )
        if self._stp is None:
            metadata = dict(self.process.metadata(min_rank=min(self._ranks)))
        else:
            metadata = dict(self.process.metadata())
        if self._loss_probability > 0:
            metadata.setdefault("dropped_messages", self._dropped_messages)
        if self._dynamics.has_churn:
            metadata.setdefault("churn_dropped_messages", self._churn_dropped)
        return RunResult(
            rounds=round_index,
            timeslots=self._timeslot,
            completed=completed,
            n=n,
            k=int(metadata.pop("k", 0)),
            completion_rounds=dict(self._completion_rounds),
            messages_sent=self._messages_sent,
            helpful_messages=self._helpful_messages,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # Round players: one round each, picked once per run by ``run``
    # ------------------------------------------------------------------
    def _play_synchronous_round(
        self, round_index: int, down: np.ndarray | None, wakeup: Callable
    ) -> None:
        """One synchronous round: every alive node wakes against the state
        committed at the round start, and its entries are delivered at the
        round end in wakeup order."""
        draws = self._draws
        bucket: list[tuple] = []
        for pos in range(self._n):
            if down is None or not down[pos]:
                bucket.extend(wakeup(pos, draws))
        self._timeslot += self._n
        for deliver, sender, receiver, payload in bucket:
            deliver(sender, receiver, payload, round_index, down)

    def _play_wakeup_slots(
        self, round_index: int, down: np.ndarray | None, wakeup: Callable
    ) -> None:
        """One asynchronous round, slot by slot, through ``wakeup``'s entries."""
        n, draws = self._n, self._draws
        choose_wakeup = self._dynamics.choose_wakeup
        timeslot, round_end = self._timeslot, round_index * n
        while timeslot < round_end and self._finished < n:
            pos = choose_wakeup(draws, round_index, down)
            timeslot += 1
            if pos is not None:
                for deliver, sender, receiver, payload in wakeup(pos, draws):
                    deliver(sender, receiver, payload, round_index, down)
        self._timeslot = timeslot

    def _play_uniform_slots(
        self, round_index: int, down: np.ndarray | None, wakeup: Callable
    ) -> None:
        """:meth:`_play_wakeup_slots` for uniform gossip under EXCHANGE at
        loss 0 with inactive dynamics (``sparse-event``'s case), with
        :meth:`_uniform_wakeup` inline (``wakeup`` is not called): a dead
        slot makes no :meth:`_encode` or :meth:`_deliver` call (see "Dead
        slots" in the module docstring).

        The wakeup is ``choose_wakeup``'s one draw for inactive dynamics,
        ``integers(0, n)``, made here: through the method call,
        ``sparse-event``'s ``timeslot_us`` measured 7% higher (10 of 10
        alternating pairs, 2-core host).
        """
        n, draws = self._n, self._draws
        integers = draws.integers
        skip_elements = draws.skip_elements
        encode, deliver = self._encode, self._deliver
        indptr, indices = self._indptr, self._indices
        ranks, k, order = self._ranks, self._k, self._order
        timeslot, round_end = self._timeslot, round_index * n
        while timeslot < round_end and self._finished < n:
            pos = integers(0, n)
            timeslot += 1
            start = indptr[pos]
            partner = indices[start + integers(0, indptr[pos + 1] - start)]
            rank = ranks[pos]
            if rank == ranks[partner] and (not rank or rank == k):
                # Dead: at rank k, the two skipped packets' draws and messages.
                if rank:
                    skip_elements(order, 2 * k)
                    self._messages_sent += 2
                continue
            # As in _exchange: both packets are encoded before either is
            # delivered, matching the scalar on_wakeup (PUSH draws first).
            push, pull = encode(pos, partner), encode(partner, pos)
            if push is not None:
                deliver(pos, partner, push, round_index, down)
            if pull is not None:
                deliver(partner, pos, pull, round_index, down)
        self._timeslot = timeslot

    # ------------------------------------------------------------------
    # Wakeups as ``(deliver, sender, receiver, payload)`` entries: uniform
    # gossip and TAG's phase 2 on the eliminator, phase 1 on the tree
    # object (TAG and standalone)
    # ------------------------------------------------------------------
    def _uniform_wakeup(self, pos: int, draws: BlockDraws) -> list[tuple]:
        """``AlgebraicGossip.on_wakeup``: a uniform neighbour, then an
        :meth:`_exchange` in the configured action's directions."""
        indptr = self._indptr
        start = indptr[pos]
        partner = self._indices[start + draws.integers(0, indptr[pos + 1] - start)]
        return self._exchange(pos, partner, self._push, self._pull)

    def _exchange(self, pos: int, partner: int, push: bool, pull: bool) -> list[tuple]:
        """The coded packets of one contact: ``pos`` to ``partner`` and back.

        ``push`` and ``pull`` pick the directions.  Both packets are encoded
        before either is delivered, PUSH first, as the scalar ``on_wakeup``
        draws them; a sender that knows nothing sends nothing.
        """
        entries = []
        if push:
            payload = self._encode(pos, partner)
            if payload is not None:
                entries.append((self._deliver, pos, partner, payload))
        if pull:
            payload = self._encode(partner, pos)
            if payload is not None:
                entries.append((self._deliver, partner, pos, payload))
        return entries

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
        """``TagProtocol.on_wakeup``: phase 1 is :meth:`_tree_wakeup`, phase 2
        an :meth:`_exchange` with the parent.  TAG always exchanges, whatever
        ``config.action`` says."""
        if self.process.count_wakeup(pos, self._tree_complete):
            return self._tree_wakeup(pos, draws)
        parent = self._stp.parent_of(pos)
        return [] if parent is None else self._exchange(pos, parent, True, True)

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
        that cannot help draws its coefficients but is not built (the skip
        rule): its receiver is full rank, or spans the sender's subspace
        (equal ranks, equal pivot masks, then
        :meth:`~repro.backends.rows.RowEliminator.same_subspace`), which the
        packet lies in.  It returns ``False``, which :meth:`_deliver` never
        feeds to the eliminator.  Otherwise the payload is the packed python
        int ``combine_one`` hands back.
        """
        ranks = self._ranks
        rank = ranks[sender]
        if not rank:
            return None
        receiver_rank = ranks[receiver]
        if receiver_rank == self._k or (
            receiver_rank == rank
            and self._pivots[sender] == self._pivots[receiver]
            and self._eliminator.same_subspace(sender, receiver)
        ):
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
        # A packet skipped at encode cannot help, and neither can a packet
        # for a receiver that is full rank by now: nothing to eliminate.
        ranks = self._ranks
        if payload is False or ranks[receiver_pos] == self._k:
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

        :meth:`run` calls this only when ``dynamics.reset_on_crash`` is set.
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
