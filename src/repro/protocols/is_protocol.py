"""Simulated IS protocol (Censor-Hillel & Shachnai) as a spanning-tree protocol.

Section 6 of the paper plugs the information-spreading protocol of [5]
(Censor-Hillel & Shachnai, SODA 2011) into TAG as the spanning-tree protocol,
because it completes in ``O(c (log n + log δ⁻¹) / Φ_c + c²)`` rounds on graphs
with large *weak conductance* ``Φ_c`` — a family that includes graphs with a
few severe bottlenecks, such as the barbell, where uniform gossip is slow.

The original protocol interleaves randomized uniform exchanges with
deterministic exchanges driven by internal neighbour lists.  Reproducing those
lists exactly is out of scope (they belong to [5], not to this paper); as
documented in DESIGN.md we simulate the protocol with the structure this paper
actually relies on:

* every node ``v`` maintains a **monotone n-bit string** recording the nodes
  it has heard from (directly or indirectly), initialised to the unit vector
  ``e_v`` — exactly the description in Section 6;
* on every wakeup the node alternates between a **uniform random** EXCHANGE
  and a **round-robin** EXCHANGE of its bit string (randomized even steps,
  deterministic odd steps, mirroring the original's two step types);
* the spanning tree is built by the rule quoted in Section 6: a node's parent
  is "the first node u from which it received a message that caused its most
  significant bit to change from zero to one".  The tree is therefore rooted
  at the node owning the most significant bit (the highest-numbered node).

On large-weak-conductance graphs the bit strings fill up in polylogarithmically
many rounds (each clique floods internally fast; the deterministic round-robin
steps force traffic across bottleneck edges), which is the property Theorem 7
and Theorem 8 need.  The benchmark ``bench_table1_tag_is.py`` verifies this
empirically on the barbell and clique-chain families.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import SimulationError
from ..gossip.communication import RoundRobinSelector, UniformSelector
from ..graphs.csr import CSRGraph
from .spanning_tree_protocols import SpanningTreeProtocol

__all__ = ["BitStringMessage", "ISSpanningTree"]


class BitStringMessage:
    """Payload of the simulated IS protocol: the sender's heard-from bit string."""

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray) -> None:
        self.bits = bits

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BitStringMessage(count={int(self.bits.sum())}/{self.bits.size})"


class ISSpanningTree(SpanningTreeProtocol):
    """Spanning-tree protocol driven by monotone heard-from bit strings.

    Parameters
    ----------
    graph:
        The communication graph.
    rng:
        Random stream used for the round-robin offsets (partner choices during
        the protocol use the engine-provided stream).
    root:
        Owner of the most significant bit.  Defaults to the highest-numbered
        node, matching the description in Section 6.
    """

    def __init__(
        self,
        graph: CSRGraph,
        rng: np.random.Generator,
        root: int | None = None,
    ) -> None:
        nodes = sorted(graph.nodes())
        if not nodes:
            raise SimulationError("IS protocol requires a non-empty graph")
        self.graph = graph
        self.root = nodes[-1] if root is None else root
        if self.root not in graph:
            raise SimulationError(f"IS root {self.root} is not a node of the graph")
        self._n = len(nodes)
        self._index_of = {node: index for index, node in enumerate(nodes)}
        self._root_bit = self._index_of[self.root]
        # Monotone n-bit strings, one per node, initialised to the unit vector.
        self._bits: dict[int, np.ndarray] = {}
        for node in nodes:
            bits = np.zeros(self._n, dtype=bool)
            bits[self._index_of[node]] = True
            self._bits[node] = bits
        self._parent: dict[int, int] = {}
        self._uniform = UniformSelector(graph)
        self._round_robin = RoundRobinSelector(graph, rng)
        self._step_count: dict[int, int] = {node: 0 for node in nodes}

    # ------------------------------------------------------------------
    # SpanningTreeProtocol hooks
    # ------------------------------------------------------------------
    def choose_partner(self, node: int, rng: np.random.Generator) -> int:
        """Alternate deterministic (round-robin) and randomized (uniform) steps."""
        step = self._step_count[node]
        self._step_count[node] = step + 1
        if step % 2 == 0:
            return self._round_robin.partner(node, rng)
        return self._uniform.partner(node, rng)

    def tree_payload(self, node: int) -> BitStringMessage:
        return BitStringMessage(self._bits[node].copy())

    def handle_tree_payload(self, node: int, sender: int, payload: Any) -> bool:
        if not isinstance(payload, BitStringMessage):
            raise SimulationError(
                f"IS protocol received unexpected payload type {type(payload)!r}"
            )
        before = self._bits[node]
        had_root_bit = bool(before[self._root_bit])
        merged = before | payload.bits
        changed = bool(np.any(merged != before))
        self._bits[node] = merged
        gained_root_bit = not had_root_bit and bool(merged[self._root_bit])
        if gained_root_bit and node != self.root and node not in self._parent:
            # Section 6: parent = first node whose message flipped the most
            # significant bit from zero to one.
            self._parent[node] = sender
        return changed

    def parent_of(self, node: int) -> int | None:
        return self._parent.get(node)

    # ------------------------------------------------------------------
    # Full information spreading (used to measure the IS stopping time itself)
    # ------------------------------------------------------------------
    def bits_of(self, node: int) -> np.ndarray:
        """Copy of the heard-from bit string of ``node``."""
        return self._bits[node].copy()

    def heard_count(self, node: int) -> int:
        """Number of distinct nodes ``node`` has heard from so far."""
        return int(self._bits[node].sum())

    def full_spreading_complete(self) -> bool:
        """``True`` when every node has heard from every node (all-ones strings)."""
        return all(bool(bits.all()) for bits in self._bits.values())

    def metadata(self) -> dict[str, Any]:
        data = super().metadata()
        data["full_spreading_complete"] = self.full_spreading_complete()
        data["protocol"] = "ISSpanningTree"
        return data
