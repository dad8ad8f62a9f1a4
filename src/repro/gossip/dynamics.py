"""Node churn and heterogeneous activation: the dynamic-network knobs.

The paper analyses a static network with uniform node clocks.  Two extension
axes relax that:

* **Churn** — a crash/restart schedule (:attr:`SimulationConfig.churn
  <repro.core.config.SimulationConfig.churn>`): while a node is down it never
  wakes up and every transmission it would send or receive is dropped before
  delivery.  By default a node keeps its protocol state across a crash
  ("pause" semantics); with ``churn_reset`` the engine additionally calls
  :meth:`~repro.gossip.engine.GossipProcess.on_crash` so the protocol can
  wipe the node back to its initial knowledge.
* **Heterogeneous activation rates** — non-uniform node clocks in the
  asynchronous time model (:attr:`SimulationConfig.activation_rates
  <repro.core.config.SimulationConfig.activation_rates>`): each timeslot
  activates node ``i`` with probability proportional to its rate, restricted
  to currently-alive nodes.

:class:`NodeDynamics` is the single implementation of both, shared **by
value** between the sequential :class:`~repro.gossip.engine.GossipEngine`
and the event-driven engine: both call exactly the same methods with
exactly the same generators, which is what keeps the event engine
bit-identical under the new knobs.  The uniform, churn-free case keeps the
historical ``rng.integers(0, n)`` draw so that existing seeded results are
unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.config import SimulationConfig
from ..errors import SimulationError

if TYPE_CHECKING:
    from ..core.rng import BlockDraws

__all__ = ["NodeDynamics"]


class NodeDynamics:
    """Per-run churn schedule and activation weights in node-*position* space.

    Positions index ``sorted(graph.nodes())``, matching both engines'
    internal ordering.  Every query is a pure function of the round index
    (the only internal state is a memo cache).
    """

    def __init__(self, config: SimulationConfig, nodes: list[int]) -> None:
        self._nodes = nodes
        self._n = len(nodes)
        self._crash_rounds: dict[int, list[int]] = {}
        if config.churn:
            # The position dict and per-position interval lists are O(n); they
            # exist only when a churn schedule actually references them.
            pos = {node: index for index, node in enumerate(nodes)}
            self._down_at: list[list[tuple[int, int]]] = [
                [] for _ in range(self._n)
            ]
            for node, down_round, up_round in config.churn:
                if node not in pos:
                    raise SimulationError(
                        f"churn schedule references unknown node {node}"
                    )
                position = pos[node]
                self._down_at[position].append((down_round, up_round))
                self._crash_rounds.setdefault(down_round, []).append(position)
            for crashes in self._crash_rounds.values():
                crashes.sort()
        else:
            self._down_at = []
        self.has_churn = bool(config.churn)
        self.reset_on_crash = config.churn_reset
        # Churn is typically a few bounded windows in a long run: outside
        # [first_down, last_up) nobody is down and down_mask returns one
        # shared all-False array (callers only read masks, never write).
        self._first_down = min((down for _, down, _ in config.churn), default=0)
        self._last_up = max((up for _, _, up in config.churn), default=0)
        self._zero_mask = np.zeros(self._n, dtype=bool)
        self._zero_mask.setflags(write=False)
        # Single-entry memos: engines ask for the same round's mask (and the
        # derived alive set / cumulative weights) once per timeslot — n times
        # per round — so caching the last round keeps the per-slot cost O(1)
        # inside churn windows.
        self._mask_cache: tuple[int, np.ndarray] | None = None
        self._alive_cache: tuple[int, np.ndarray, np.ndarray | None] | None = None
        self.rates = np.asarray(config.activation_rates, dtype=float)
        self.has_rates = self.rates.size > 0
        if self.has_rates and self.rates.size != self._n:
            raise SimulationError(
                f"activation_rates has {self.rates.size} entries but the "
                f"graph has {self._n} nodes"
            )
        #: ``True`` when either knob is active (set before the hot-path
        #: constants below, which only the active paths ever read).
        active = self.has_churn or self.has_rates
        # Hot-path constants for the everyone-alive case of choose_wakeup.
        self._all_positions = np.arange(self._n) if active else None
        self._cum_rates = np.cumsum(self.rates) if self.has_rates else None
        #: ``True`` when either knob is active (the engines skip all dynamic
        #: bookkeeping otherwise, preserving the historical fast path).
        self.active = active

    # ------------------------------------------------------------------
    # Churn queries
    # ------------------------------------------------------------------
    def is_down(self, position: int, round_index: int) -> bool:
        """Is the node at ``position`` down during ``round_index``?"""
        if not self.has_churn:
            return False
        return any(
            down <= round_index < up for down, up in self._down_at[position]
        )

    def down_mask(self, round_index: int) -> np.ndarray:
        """Boolean ``(n,)`` mask of down positions during ``round_index``.

        The returned array may be a shared read-only constant; callers must
        treat it as immutable.
        """
        if not self.has_churn or not self._first_down <= round_index < self._last_up:
            return self._zero_mask
        if self._mask_cache is not None and self._mask_cache[0] == round_index:
            return self._mask_cache[1]
        mask = np.zeros(self._n, dtype=bool)
        for position in range(self._n):
            if self.is_down(position, round_index):
                mask[position] = True
        mask.setflags(write=False)
        self._mask_cache = (round_index, mask)
        return mask

    def crashes_at(self, round_index: int) -> list[int]:
        """Positions whose crash (down interval) *starts* at ``round_index``."""
        return self._crash_rounds.get(round_index, [])

    # ------------------------------------------------------------------
    # Asynchronous activation
    # ------------------------------------------------------------------
    def choose_wakeup(
        self,
        rng: "np.random.Generator | BlockDraws",
        round_index: int,
        down: np.ndarray | None = None,
    ) -> int | None:
        """Draw the waking node position for one asynchronous timeslot.

        ``None`` means no node can wake this slot (everything is down).  The
        uniform churn-free case issues the same single ``rng.integers(0, n)``
        draw the engine always has, so pre-existing seeded runs reproduce.
        Churn restricts the draw to alive positions; heterogeneous rates turn
        it into one ``rng.random()`` draw against the cumulative alive
        weights.  Both engines call this same method per trial, which is what
        keeps them bit-identical; the event engine
        passes its :class:`~repro.core.rng.BlockDraws` reader as ``rng``,
        which serves these two calls draw for draw.  The one exception is
        the event engine's asynchronous uniform gossip under EXCHANGE at
        loss 0 without churn or rates, which makes the inactive case's
        ``rng.integers(0, n)`` draw itself.

        Callers that already hold this round's :meth:`down_mask` pass it as
        ``down`` so the slot pays for the mask only once.
        """
        if not self.active:
            return int(rng.integers(0, self._n))
        if self.has_churn:
            if down is None:
                down = self.down_mask(round_index)
            somebody_down = bool(down.any())
        else:
            somebody_down = False
        if somebody_down:
            if self._alive_cache is not None and self._alive_cache[0] == round_index:
                _, alive, cumulative = self._alive_cache
            else:
                alive = np.nonzero(~down)[0]
                cumulative = (
                    np.cumsum(self.rates[alive]) if self.has_rates else None
                )
                self._alive_cache = (round_index, alive, cumulative)
        else:
            # Everyone alive: the alive set and cumulative weights are the
            # run-invariant constants precomputed at construction, and the
            # draws below are identical to the general path's.
            alive = self._all_positions
            cumulative = self._cum_rates
        if alive.size == 0:
            return None
        if not self.has_rates:
            return int(alive[int(rng.integers(0, alive.size))])
        draw = rng.random() * cumulative[-1]
        return int(alive[int(np.searchsorted(cumulative, draw, side="right").clip(max=alive.size - 1))])
