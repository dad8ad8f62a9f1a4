"""The discrete-event gossip engine.

The engine is protocol-agnostic: it owns only the *time model* of Section 2
(synchronous rounds versus asynchronous timeslots) while the protocol object —
uniform algebraic gossip, TAG, a broadcast, the IS protocol, a user
protocol — decides what a waking node does by implementing
:class:`GossipProcess`.

Time-model semantics
--------------------
* **Synchronous**: in every round every node wakes up exactly once.  The paper
  stipulates that "information received in the current round will be available
  to a node for sending only at the beginning of the next round"; the engine
  enforces this by buffering all deliveries of a round and applying them only
  after every node has produced its transmissions for that round.
* **Asynchronous**: at every timeslot one node chosen uniformly at random
  wakes up and its transmissions are delivered immediately.  ``n`` consecutive
  timeslots count as one round, matching the paper's accounting.

The engine reports a :class:`~repro.core.results.RunResult` with stopping time
in both rounds and timeslots, per-node completion rounds, and message /
helpful-message counters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.config import SimulationConfig, TimeModel
from ..core.results import RunResult
from ..errors import SimulationError
from ..graphs.csr import CSRGraph
from .dynamics import NodeDynamics
from .trace import EventTrace, GossipEvent

__all__ = [
    "Transmission",
    "GossipProcess",
    "GossipEngine",
]

@dataclass(frozen=True)
class Transmission:
    """One directed message produced by a waking node.

    ``kind`` is a protocol-assigned label recorded in traces; it has no effect
    on the engine's behaviour.
    """

    sender: int
    receiver: int
    payload: Any
    kind: str = "message"


class GossipProcess(ABC):
    """Protocol interface driven by :class:`GossipEngine`.

    A protocol is a stateful object living for one run.  The engine calls
    :meth:`on_wakeup` whenever a node activates and :meth:`on_deliver` when a
    transmission reaches its receiver (immediately in the asynchronous model,
    at the end of the round in the synchronous model).
    """

    @abstractmethod
    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        """Called when ``node`` wakes up; returns the transmissions it initiates.

        For an EXCHANGE the initiating node returns both directions (its own
        packet to the partner and the partner's packet back to it); both are
        built from committed state, so the synchronous buffering semantics are
        preserved automatically.
        """

    @abstractmethod
    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool | None:
        """Apply a delivered payload; return whether it was *helpful* (or ``None``)."""

    @abstractmethod
    def is_complete(self) -> bool:
        """``True`` once the protocol's dissemination task is finished."""

    @abstractmethod
    def finished_nodes(self) -> set[int]:
        """The set of nodes that have individually completed (for statistics)."""

    def metadata(self) -> dict[str, Any]:
        """Protocol-specific extras copied into the result (default: empty)."""
        return {}

    def on_round_end(self, round_index: int) -> None:
        """Hook invoked by the engine at the end of every round.

        The default does nothing.  Observers such as
        :class:`~repro.analysis.progress.ProgressRecorder` override it (via
        wrapping) to sample per-round state — e.g. the minimum decoder rank —
        without slowing down runs that do not need it.
        """

    def on_crash(self, node: int) -> None:
        """Reset ``node``'s state at the start of a reset-churn crash.

        Only called when the configuration sets ``churn_reset``; pause-mode
        churn (the default) never touches protocol state, so the base
        implementation refuses — protocols must opt in explicitly by
        overriding (``AlgebraicGossip`` and ``TagProtocol`` reset the node's
        decoder to its initial knowledge).
        """
        raise SimulationError(
            f"{type(self).__name__} does not support churn_reset"
        )

    def supports_event_engine(self) -> bool:
        """Opt in to :class:`~repro.gossip.event.EventGossipEngine`.

        The event engine keeps decoder *ranks* only (no payloads) and drives
        the protocol's draws itself, so a protocol may return ``True`` only
        when its entire observable behaviour (transmissions, helpfulness,
        completion) is a function of coefficient ranks, its own tree state
        and the random stream.  Uniform algebraic gossip and TAG with a
        built-in spanning tree do; the default is ``False``, and the event
        engine refuses such a process with
        :class:`~repro.errors.EngineError`.
        """
        return False


class GossipEngine:
    """Drives a :class:`GossipProcess` under a time model until completion."""

    def __init__(
        self,
        graph: CSRGraph,
        process: GossipProcess,
        config: SimulationConfig,
        rng: np.random.Generator,
        trace: EventTrace | None = None,
    ) -> None:
        if graph.number_of_nodes() < 2:
            raise SimulationError("gossip requires at least two nodes")
        if not graph.is_connected():
            raise SimulationError("gossip requires a connected graph")
        self.graph = graph
        self.process = process
        self.config = config
        self.rng = rng
        self.trace = trace
        self._nodes = sorted(graph.nodes())
        self._n = len(self._nodes)
        self._pos = {node: pos for pos, node in enumerate(self._nodes)}
        self._messages_sent = 0
        self._helpful_messages = 0
        self._dropped_messages = 0
        self._churn_dropped = 0
        self._timeslot = 0
        self._completion_rounds: dict[int, int] = {}
        self._loss_probability = config.loss_probability
        self._dynamics = NodeDynamics(config, self._nodes)
        self._last_crash_round = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Run the protocol to completion (or to the ``max_rounds`` limit)."""
        if self.config.time_model is TimeModel.SYNCHRONOUS:
            rounds = self._run_synchronous()
        else:
            rounds = self._run_asynchronous()
        completed = self.process.is_complete()
        if not completed and not self.config.allow_incomplete:
            raise SimulationError(
                f"protocol did not complete within {self.config.max_rounds} rounds"
            )
        metadata = dict(self.process.metadata())
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
    def _run_synchronous(self) -> int:
        round_index = 0
        self._note_completions(round_index)
        dynamics = self._dynamics
        while not self.process.is_complete():
            if round_index >= self.config.max_rounds:
                return round_index
            round_index += 1
            self._process_crashes(round_index)
            down = dynamics.down_mask(round_index) if dynamics.has_churn else None
            pending: list[Transmission] = []
            for pos, node in enumerate(self._nodes):
                if down is not None and down[pos]:
                    continue
                pending.extend(self.process.on_wakeup(node, self.rng))
            self._timeslot += self._n
            # Deliveries become visible only now: end of the round.
            for transmission in pending:
                self._deliver(transmission, round_index, down)
            self._note_completions(round_index)
            self.process.on_round_end(round_index)
        return round_index

    def _run_asynchronous(self) -> int:
        round_index = 0
        self._note_completions(round_index)
        max_timeslots = self.config.max_rounds * self._n
        dynamics = self._dynamics
        while not self.process.is_complete():
            if self._timeslot >= max_timeslots:
                return round_index
            # Round of the slot about to be played (== ceil((t+1)/n)).
            round_now = self._timeslot // self._n + 1
            self._process_crashes(round_now)
            # Memoised per round inside NodeDynamics, so per-slot is cheap.
            down = dynamics.down_mask(round_now) if dynamics.has_churn else None
            pos = dynamics.choose_wakeup(self.rng, round_now, down)
            self._timeslot += 1
            round_index = round_now
            if pos is not None:
                for transmission in self.process.on_wakeup(self._nodes[pos], self.rng):
                    self._deliver(transmission, round_index, down)
            self._note_completions(round_index)
            if self._timeslot % self._n == 0:
                self.process.on_round_end(round_index)
        return round_index

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _process_crashes(self, round_index: int) -> None:
        """Fire :meth:`GossipProcess.on_crash` for crashes starting by ``round_index``."""
        if not self._dynamics.reset_on_crash:
            return
        while self._last_crash_round < round_index:
            self._last_crash_round += 1
            for pos in self._dynamics.crashes_at(self._last_crash_round):
                node = self._nodes[pos]
                self.process.on_crash(node)
                # The wipe un-completes the node; its completion round must
                # be re-earned, not inherited from before the crash.
                self._completion_rounds.pop(node, None)

    def _deliver(
        self,
        transmission: Transmission,
        round_index: int,
        down: np.ndarray | None = None,
    ) -> None:
        self._messages_sent += 1
        # A down endpoint kills the transmission before it enters the lossy
        # channel, so churn consumes no loss-randomness.
        if down is not None and (
            down[self._pos[transmission.sender]]
            or down[self._pos[transmission.receiver]]
        ):
            self._churn_dropped += 1
            return
        if self._loss_probability > 0 and self.rng.random() < self._loss_probability:
            self._dropped_messages += 1
            return
        helpful = self.process.on_deliver(
            transmission.receiver, transmission.sender, transmission.payload
        )
        if helpful:
            self._helpful_messages += 1
        if self.trace is not None:
            self.trace.record(
                GossipEvent(
                    round_index=round_index,
                    timeslot=self._timeslot,
                    sender=transmission.sender,
                    receiver=transmission.receiver,
                    helpful=helpful,
                    kind=transmission.kind,
                )
            )

    def _note_completions(self, round_index: int) -> None:
        for node in self.process.finished_nodes():
            self._completion_rounds.setdefault(node, round_index)
