"""Vectorised batch-trial execution of TAG and spanning-tree protocols.

:class:`~repro.gossip.batch.BatchGossipEngine` covers rank-only *uniform*
algebraic gossip; the engines here extend the lockstep fast path to the
paper's headline protocol.  :class:`BatchTagEngine` runs all trials of a
:class:`~repro.protocols.tag.TagProtocol` at once: phase-1 tree construction
advances as ``trials x nodes`` arrays of informed/parent state (a
:class:`BatchSpanningTreeState`), and phase-2 parent EXCHANGEs flow through
the shared :class:`~repro.rlnc.batch.BatchDecoder` grid, one vectorised
``GF(q)`` sweep per delivery wave.  :class:`BatchSpanningTreeEngine` drives
the same tree states for spanning-tree protocols run *standalone* (the
Theorem 5 broadcast measurements).

Both engines inherit the time-model loops of
:class:`~repro.gossip.batch.BatchEngineCore`, so the odd/even wakeup
interleaving, the synchronous end-of-round delivery buffering and the
asynchronous immediate delivery match :class:`~repro.gossip.engine.GossipEngine`
driving the scalar protocol — and because every random draw (partner
selection, coding coefficients, node activations, loss) is issued per trial
in exactly the sequential order, the results are **bit-identical** to the
scalar path: same seeds give the same stopping times, message counts, tree
shapes and metadata.  ``tests/test_gossip_batch_tag.py`` asserts exactly
that across both time models, all four spanning-tree protocols and both
``keep_phase1_after_tree`` settings.

Supported spanning-tree protocols (exact types — subclasses may carry extra
state and fall back to the sequential engine):

* :class:`~repro.protocols.spanning_tree_protocols.UniformBroadcastTree`
* :class:`~repro.protocols.spanning_tree_protocols.RoundRobinBroadcastTree`
* :class:`~repro.protocols.spanning_tree_protocols.BfsOracleTree`
* :class:`~repro.protocols.is_protocol.ISSpanningTree`
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.config import SimulationConfig
from ..core.results import RunResult
from ..errors import SimulationError
from ..graphs.csr import CSRGraph
from .batch import _RLNC, _STP, BatchEngineCore, RlncBatchMixin
from .engine import BatchRunner, GossipProcess

__all__ = [
    "BatchSpanningTreeState",
    "BatchUniformBroadcastState",
    "BatchRoundRobinBroadcastState",
    "BatchBfsOracleState",
    "BatchISState",
    "BatchTagEngine",
    "BatchSpanningTreeEngine",
    "run_tag_batch",
    "run_spanning_tree_batch",
    "tag_batch_runner",
    "spanning_tree_batch_runner",
]

# ----------------------------------------------------------------------
# Batched spanning-tree state
# ----------------------------------------------------------------------
class BatchSpanningTreeState:
    """``trials x nodes`` spanning-tree state advanced in lockstep.

    Each subclass mirrors one scalar
    :class:`~repro.protocols.spanning_tree_protocols.SpanningTreeProtocol`:
    it is initialised *from* the per-trial scalar instances (which have
    already consumed their construction-time draws, e.g. round-robin
    offsets), advances parent/informed state as stacked numpy arrays indexed
    by node *position* (ascending node order, matching the scalar
    protocols' neighbour ordering), and can :meth:`restore` its final state
    back into a scalar instance so that protocol metadata is produced by the
    very same code path as the sequential engine.

    The per-trial hooks (:meth:`choose_partner`, :meth:`payload`,
    :meth:`deliver`) replicate the scalar protocol's random draws
    call-for-call; only the storage layout is batched.
    """

    def __init__(
        self,
        graph: CSRGraph,
        protocols: list[Any],
        nodes: list[int],
        pos: dict[int, int],
    ) -> None:
        self.trials = len(protocols)
        self.n = len(nodes)
        self._nodes = nodes
        self._pos = pos
        self.root_pos = pos[protocols[0].root]
        #: ``parent[t, p]`` — parent position of node position ``p`` in trial
        #: ``t``, or ``-1`` while unassigned (the root stays ``-1``).
        self.parent = np.full((self.trials, self.n), -1, dtype=np.int64)
        self._unparented = np.full(self.trials, self.n - 1, dtype=np.int64)
        #: Neighbour positions per node, ascending — the scalar selectors'
        #: tuples (node ids are positions on a CSRGraph).
        self._nbrs = graph.neighbor_tuples()

    # -- queries ---------------------------------------------------------
    def parent_pos(self, t: int, p: int) -> int:
        """Parent position of node position ``p`` in trial ``t`` (-1 = none)."""
        return int(self.parent[t, p])

    def parent_mask(self, t: int) -> np.ndarray:
        """Boolean ``(n,)`` mask of nodes with an assigned parent."""
        return self.parent[t] >= 0

    def complete(self, t: int) -> bool:
        """``True`` when every non-root node of trial ``t`` has a parent."""
        return bool(self._unparented[t] == 0)

    def _assign_parent(self, t: int, receiver: int, sender: int) -> None:
        self.parent[t, receiver] = sender
        self._unparented[t] -= 1

    def _parent_map(self, t: int) -> dict[int, int]:
        """Trial ``t``'s parent assignment in node-id space."""
        return {
            self._nodes[p]: self._nodes[int(par)]
            for p, par in enumerate(self.parent[t])
            if par >= 0
        }

    # -- protocol hooks (replicating the scalar random stream) -----------
    def choose_partner(self, t: int, p: int, rng: np.random.Generator) -> int:
        """Partner position for a phase-1 step of node position ``p``."""
        raise NotImplementedError

    def payload(self, t: int, p: int) -> Any:
        """The tree-protocol message node position ``p`` sends."""
        raise NotImplementedError

    def deliver(self, t: int, receiver: int, sender: int, payload: Any) -> bool:
        """Apply a received message; return ``True`` if it changed state."""
        raise NotImplementedError

    def restore(self, protocol: Any, t: int) -> None:
        """Write trial ``t``'s final state back into the scalar ``protocol``."""
        raise NotImplementedError

    # -- shared selector steps -------------------------------------------
    def _uniform_partner(self, p: int, rng: np.random.Generator) -> int:
        neighbors = self._nbrs[p]
        return neighbors[int(rng.integers(0, len(neighbors)))]

    def _round_robin_partner(self, t: int, p: int) -> int:
        """One cyclic step of ``self._rr`` — the batch replica of
        :meth:`RoundRobinSelector.partner
        <repro.gossip.communication.RoundRobinSelector.partner>` (no draws).
        Subclasses that use it own a ``(trials, n)`` ``_rr`` position array.
        """
        neighbors = self._nbrs[p]
        index = int(self._rr[t, p]) % len(neighbors)
        self._rr[t, p] = (index + 1) % len(neighbors)
        return neighbors[index]


class _BatchBroadcastState(BatchSpanningTreeState):
    """Broadcast-based trees: parent = first informer (Section 4.1)."""

    def __init__(self, graph, protocols, nodes, pos) -> None:
        super().__init__(graph, protocols, nodes, pos)
        self.informed = np.zeros((self.trials, self.n), dtype=bool)
        for t, protocol in enumerate(protocols):
            for node in protocol._informed:
                self.informed[t, pos[node]] = True
            for node, par in protocol._parent.items():
                self.parent[t, pos[node]] = pos[par]
        self._unparented = (self.n - 1) - np.count_nonzero(self.parent >= 0, axis=1)

    def payload(self, t: int, p: int) -> bool:
        return bool(self.informed[t, p])

    def deliver(self, t: int, receiver: int, sender: int, payload: bool) -> bool:
        if payload and not self.informed[t, receiver]:
            self.informed[t, receiver] = True
            if receiver != self.root_pos:
                self._assign_parent(t, receiver, sender)
            return True
        return False

    def _informed_set(self, t: int) -> set[int]:
        return {self._nodes[p] for p in np.nonzero(self.informed[t])[0]}


class BatchUniformBroadcastState(_BatchBroadcastState):
    """Batched :class:`~repro.protocols.spanning_tree_protocols.UniformBroadcastTree`."""

    def choose_partner(self, t: int, p: int, rng: np.random.Generator) -> int:
        return self._uniform_partner(p, rng)

    def restore(self, protocol, t: int) -> None:
        protocol.load_state(self._informed_set(t), self._parent_map(t))


class BatchRoundRobinBroadcastState(_BatchBroadcastState):
    """Batched :class:`~repro.protocols.spanning_tree_protocols.RoundRobinBroadcastTree`.

    The per-node cycle positions (including the random starting offsets the
    scalar selector drew at construction) are lifted from each trial's
    protocol instance, so no draw is repeated or skipped.
    """

    def __init__(self, graph, protocols, nodes, pos) -> None:
        super().__init__(graph, protocols, nodes, pos)
        self._rr = np.zeros((self.trials, self.n), dtype=np.int64)
        for t, protocol in enumerate(protocols):
            for node, index in protocol._selector.positions().items():
                self._rr[t, pos[node]] = index

    def choose_partner(self, t: int, p: int, rng: np.random.Generator) -> int:
        return self._round_robin_partner(t, p)

    def restore(self, protocol, t: int) -> None:
        protocol.load_state(
            self._informed_set(t),
            self._parent_map(t),
            selector_positions={
                node: int(self._rr[t, p]) for p, node in enumerate(self._nodes)
            },
        )


class BatchBfsOracleState(BatchSpanningTreeState):
    """Batched :class:`~repro.protocols.spanning_tree_protocols.BfsOracleTree`.

    The tree is known from the start and identical across trials (BFS is
    deterministic for a shared graph and root), so the state is read-only:
    deliveries never change anything and the tree is always complete.
    """

    def __init__(self, graph, protocols, nodes, pos) -> None:
        super().__init__(graph, protocols, nodes, pos)
        for node, par in protocols[0]._tree.parent.items():
            self.parent[:, pos[node]] = pos[par]
        self._unparented[:] = 0

    def choose_partner(self, t: int, p: int, rng: np.random.Generator) -> int:
        parent = int(self.parent[t, p])
        if parent >= 0:
            return parent
        return self._uniform_partner(p, rng)

    def payload(self, t: int, p: int) -> bool:
        return True

    def deliver(self, t: int, receiver: int, sender: int, payload: bool) -> bool:
        return False

    def restore(self, protocol, t: int) -> None:
        """The oracle's tree never changes; nothing to write back."""


class BatchISState(BatchSpanningTreeState):
    """Batched :class:`~repro.protocols.is_protocol.ISSpanningTree`.

    The monotone heard-from bit strings become one ``trials x nodes x nodes``
    boolean array; the alternating round-robin / uniform partner steps and
    the "first message that flipped the most significant bit" parent rule
    are replicated per trial.
    """

    def __init__(self, graph, protocols, nodes, pos) -> None:
        super().__init__(graph, protocols, nodes, pos)
        # Scalar ISSpanningTree indexes bits by sorted-node order, which is
        # exactly the position space used here.
        self.bits = np.zeros((self.trials, self.n, self.n), dtype=bool)
        self._steps = np.zeros((self.trials, self.n), dtype=np.int64)
        self._rr = np.zeros((self.trials, self.n), dtype=np.int64)
        for t, protocol in enumerate(protocols):
            for node, bits in protocol._bits.items():
                self.bits[t, pos[node]] = bits
            for node, par in protocol._parent.items():
                self.parent[t, pos[node]] = pos[par]
            for node, index in protocol._round_robin.positions().items():
                self._rr[t, pos[node]] = index
            for node, count in protocol._step_count.items():
                self._steps[t, pos[node]] = count
        self._unparented = (self.n - 1) - np.count_nonzero(self.parent >= 0, axis=1)

    def choose_partner(self, t: int, p: int, rng: np.random.Generator) -> int:
        step = int(self._steps[t, p])
        self._steps[t, p] = step + 1
        if step % 2 == 0:
            return self._round_robin_partner(t, p)
        return self._uniform_partner(p, rng)

    def payload(self, t: int, p: int) -> np.ndarray:
        return self.bits[t, p].copy()

    def deliver(self, t: int, receiver: int, sender: int, payload: np.ndarray) -> bool:
        before = self.bits[t, receiver]
        had_root_bit = bool(before[self.root_pos])
        changed = bool(np.any(payload & ~before))
        if changed:
            before |= payload
        gained_root_bit = not had_root_bit and bool(before[self.root_pos])
        if gained_root_bit and receiver != self.root_pos and self.parent[t, receiver] < 0:
            self._assign_parent(t, receiver, sender)
        return changed

    def restore(self, protocol, t: int) -> None:
        protocol.load_state(
            bits={node: self.bits[t, p].copy() for p, node in enumerate(self._nodes)},
            parent=self._parent_map(t),
            step_count={node: int(self._steps[t, p]) for p, node in enumerate(self._nodes)},
            round_robin_positions={
                node: int(self._rr[t, p]) for p, node in enumerate(self._nodes)
            },
        )


def _state_class_for(protocol_type: type) -> type[BatchSpanningTreeState] | None:
    """Batch state class for an exact spanning-tree protocol type, or ``None``."""
    # Imported lazily: the protocols package imports repro.gossip at package
    # import time, so a top-level import here would be circular.
    from ..protocols.is_protocol import ISSpanningTree
    from ..protocols.spanning_tree_protocols import (
        BfsOracleTree,
        RoundRobinBroadcastTree,
        UniformBroadcastTree,
    )

    return {
        UniformBroadcastTree: BatchUniformBroadcastState,
        RoundRobinBroadcastTree: BatchRoundRobinBroadcastState,
        BfsOracleTree: BatchBfsOracleState,
        ISSpanningTree: BatchISState,
    }.get(protocol_type)


# ----------------------------------------------------------------------
# TAG batch engine
# ----------------------------------------------------------------------
class BatchTagEngine(RlncBatchMixin, BatchEngineCore):
    """Run ``T`` trials of :class:`~repro.protocols.tag.TagProtocol` in lockstep.

    Phase-1 (odd wakeups) advances the batched spanning-tree state; phase-2
    (even wakeups) EXCHANGEs freshly coded packets with the node's parent
    through the shared decoder grid.  All trials must share the spanning-tree
    protocol type, the root and the ``keep_phase1_after_tree`` setting.
    """

    def __init__(
        self,
        graph: CSRGraph,
        processes: list[GossipProcess],
        config: SimulationConfig,
        rngs: list[np.random.Generator],
    ) -> None:
        super().__init__(graph, processes, config, rngs)
        from ..protocols.tag import TagProtocol

        first = processes[0]
        state_class = None
        if type(first) is TagProtocol:
            state_class = _state_class_for(type(first.stp))
        if state_class is None:
            raise SimulationError(
                f"{type(first).__name__} (spanning tree "
                f"{type(getattr(first, 'stp', None)).__name__}) does not support "
                "the TAG batch fast path; use GossipEngine per trial instead"
            )
        for process in processes:
            if type(process) is not type(first) or type(process.stp) is not type(first.stp):
                raise SimulationError("all batched TAG trials must share the protocol types")
            if process.keep_phase1_after_tree != first.keep_phase1_after_tree:
                raise SimulationError(
                    "all batched TAG trials must share keep_phase1_after_tree"
                )
            if process.stp.root != first.stp.root:
                raise SimulationError("all batched TAG trials must share the tree root")
        self.keep_phase1 = first.keep_phase1_after_tree
        self._tree = state_class(
            graph, [process.stp for process in processes], self._nodes, self._pos
        )
        self._init_decoder_grid()
        self._wakeup_counts = np.zeros((self.trials, self._n), dtype=np.int64)
        self._total_wakeups = np.zeros(self.trials, dtype=np.int64)
        self._tree_complete_at: list[int | None] = [None] * self.trials

    def _wakeup(self, t: int, pos: int) -> list[tuple]:
        """Replicate ``TagProtocol.on_wakeup`` against the batch state."""
        rng = self.rngs[t]
        self._wakeup_counts[t, pos] += 1
        self._total_wakeups[t] += 1
        phase1 = int(self._wakeup_counts[t, pos]) % 2 == 1
        if phase1 and not self.keep_phase1 and self._tree.complete(t):
            phase1 = False
        if phase1:
            partner = self._tree.choose_partner(t, pos, rng)
            return [
                (_STP, partner, pos, self._tree.payload(t, pos)),
                (_STP, pos, partner, self._tree.payload(t, partner)),
            ]
        parent = self._tree.parent_pos(t, pos)
        if parent < 0:
            return []
        base = t * self._n
        entries: list[tuple] = []
        row = self._encode(base + pos, rng)
        if row is not None:
            entries.append((_RLNC, base + parent, row, pos))
        row = self._encode(base + parent, rng)
        if row is not None:
            entries.append((_RLNC, base + pos, row, parent))
        return entries

    def _apply_tree_payload(
        self, t: int, receiver_pos: int, sender_pos: int, payload: Any
    ) -> bool:
        changed = self._tree.deliver(t, receiver_pos, sender_pos, payload)
        # Mirrors TagProtocol.on_deliver: the completion wakeup is recorded on
        # the first *delivery* at which the tree is complete (for the BFS
        # oracle that is the very first tree payload).
        if self._tree_complete_at[t] is None and self._tree.complete(t):
            self._tree_complete_at[t] = int(self._total_wakeups[t])
        return changed

    def _trial_metadata(self, t: int) -> dict[str, Any]:
        # Write the final batch state back into the scalar process and let
        # TagProtocol.metadata() itself produce the dict — one code path for
        # both engines, so the metadata is bit-identical by construction.
        process = self.processes[t]
        self._tree.restore(process.stp, t)
        process.load_batch_outcome(
            wakeups={
                node: int(self._wakeup_counts[t, p]) for p, node in enumerate(self._nodes)
            },
            total_wakeups=int(self._total_wakeups[t]),
            tree_complete_at_wakeup=self._tree_complete_at[t],
        )
        return dict(process.metadata())


# ----------------------------------------------------------------------
# Standalone spanning-tree batch engine (Theorem 5 measurements)
# ----------------------------------------------------------------------
class BatchSpanningTreeEngine(BatchEngineCore):
    """Run ``T`` standalone spanning-tree protocol trials in lockstep.

    Mirrors :class:`~repro.protocols.spanning_tree_protocols.SpanningTreeProtocol`'s
    generic :class:`~repro.gossip.engine.GossipProcess` behaviour (EXCHANGE of
    tree payloads with the chosen partner; a node is finished once it has a
    parent, the root immediately).  No RLNC state is involved at all.
    """

    def __init__(
        self,
        graph: CSRGraph,
        processes: list[GossipProcess],
        config: SimulationConfig,
        rngs: list[np.random.Generator],
    ) -> None:
        super().__init__(graph, processes, config, rngs)
        first = processes[0]
        state_class = _state_class_for(type(first))
        if state_class is None:
            raise SimulationError(
                f"{type(first).__name__} does not support the spanning-tree "
                "batch fast path; use GossipEngine per trial instead"
            )
        for process in processes:
            if type(process) is not type(first):
                raise SimulationError("all batched trials must share the protocol type")
            if process.root != first.root:
                raise SimulationError("all batched trials must share the tree root")
        self._tree = state_class(graph, processes, self._nodes, self._pos)
        self._root_mask = np.zeros(self._n, dtype=bool)
        self._root_mask[self._tree.root_pos] = True

    def _wakeup(self, t: int, pos: int) -> list[tuple]:
        rng = self.rngs[t]
        partner = self._tree.choose_partner(t, pos, rng)
        return [
            (_STP, partner, pos, self._tree.payload(t, pos)),
            (_STP, pos, partner, self._tree.payload(t, partner)),
        ]

    def _apply_tree_payload(
        self, t: int, receiver_pos: int, sender_pos: int, payload: Any
    ) -> bool:
        return self._tree.deliver(t, receiver_pos, sender_pos, payload)

    def _finished_mask(self, t: int) -> np.ndarray:
        return self._tree.parent_mask(t) | self._root_mask

    def _trial_metadata(self, t: int) -> dict[str, Any]:
        process = self.processes[t]
        self._tree.restore(process, t)
        return dict(process.metadata())


# ----------------------------------------------------------------------
# Strategy entry points (see GossipProcess.batch_strategy)
# ----------------------------------------------------------------------
def run_tag_batch(
    graph: CSRGraph,
    processes: list[GossipProcess],
    config: SimulationConfig,
    rngs: list[np.random.Generator],
) -> list[RunResult]:
    """Batch executor declared by :meth:`TagProtocol.batch_strategy`."""
    return BatchTagEngine(graph, processes, config, rngs).run()


def run_spanning_tree_batch(
    graph: CSRGraph,
    processes: list[GossipProcess],
    config: SimulationConfig,
    rngs: list[np.random.Generator],
) -> list[RunResult]:
    """Batch executor declared by :meth:`SpanningTreeProtocol.batch_strategy`."""
    return BatchSpanningTreeEngine(graph, processes, config, rngs).run()


def tag_batch_runner(process: GossipProcess) -> BatchRunner | None:
    """The TAG batch executor for ``process``, or ``None`` if ineligible.

    Eligible processes are exactly :class:`~repro.protocols.tag.TagProtocol`
    (not a subclass, which could carry unreplicated state) composed with one
    of the supported spanning-tree protocol types.
    """
    from ..protocols.tag import TagProtocol

    if type(process) is not TagProtocol:
        return None
    if _state_class_for(type(process.stp)) is None:
        return None
    return run_tag_batch


def spanning_tree_batch_runner(process: GossipProcess) -> BatchRunner | None:
    """The standalone spanning-tree batch executor, or ``None`` if ineligible."""
    if _state_class_for(type(process)) is None:
        return None
    return run_spanning_tree_batch
