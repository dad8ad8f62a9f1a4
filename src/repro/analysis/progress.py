"""Per-round progress metrics: rank evolution and dissemination curves.

The paper's theorems only talk about the final stopping time, but the standard
way to *look* at an algebraic-gossip run is the rank-evolution curve: how the
minimum / median / maximum decoder rank across nodes grows round by round.
The curve makes the two regimes of the analysis visible — an initial spreading
phase (distance-limited, the ``D`` term) followed by a linear draining phase
(one helpful packet per node per constant number of rounds, the ``k`` term).

:class:`ProgressRecorder` wraps any rank-reporting protocol (uniform AG or
TAG) and samples the per-round statistics through the scalar engine's
``on_round_end`` hook, without changing the wrapped protocol's behaviour.
The event engine takes an ``on_round_end(round_index, ranks)`` callback
instead; both build their snapshots with :meth:`RoundSnapshot.from_ranks`,
so the two curves of one trial are equal round for round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..errors import AnalysisError
from ..gossip.engine import GossipProcess, Transmission

__all__ = ["RoundSnapshot", "ProgressRecorder", "rounds_to_fraction_complete"]


@dataclass(frozen=True)
class RoundSnapshot:
    """Rank statistics across all nodes at the end of one round."""

    round_index: int
    min_rank: int
    median_rank: float
    max_rank: int
    completed_nodes: int

    @classmethod
    def from_ranks(cls, round_index: int, ranks: Sequence[int], k: int) -> "RoundSnapshot":
        """The statistics of one round end, from every node's rank out of ``k``."""
        ordered = sorted(ranks)
        count = len(ordered)
        return cls(
            round_index=round_index,
            min_rank=int(ordered[0]),
            median_rank=float((ordered[(count - 1) // 2] + ordered[count // 2]) / 2),
            max_rank=int(ordered[-1]),
            completed_nodes=ordered.count(k),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "round": self.round_index,
            "min_rank": self.min_rank,
            "median_rank": self.median_rank,
            "max_rank": self.max_rank,
            "completed_nodes": self.completed_nodes,
        }


class ProgressRecorder(GossipProcess):
    """Transparent wrapper recording a :class:`RoundSnapshot` per round.

    The wrapped protocol must expose ``rank_of(node)``, iterate its nodes
    via its ``graph`` attribute and carry its ``generation`` (for ``k``) —
    both :class:`~repro.protocols.AlgebraicGossip` and
    :class:`~repro.protocols.TagProtocol` do.
    """

    def __init__(self, inner: GossipProcess) -> None:
        if not all(hasattr(inner, name) for name in ("rank_of", "graph", "generation")):
            raise AnalysisError(
                "ProgressRecorder requires a protocol exposing rank_of(), graph "
                f"and generation (got {type(inner).__name__})"
            )
        self.inner = inner
        self.snapshots: list[RoundSnapshot] = []

    # -- delegation ------------------------------------------------------
    def on_wakeup(self, node: int, rng: np.random.Generator) -> list[Transmission]:
        return self.inner.on_wakeup(node, rng)

    def on_deliver(self, receiver: int, sender: int, payload: Any) -> bool | None:
        return self.inner.on_deliver(receiver, sender, payload)

    def is_complete(self) -> bool:
        return self.inner.is_complete()

    def finished_nodes(self) -> set[int]:
        return self.inner.finished_nodes()

    def on_crash(self, node: int) -> None:
        self.inner.on_crash(node)

    def metadata(self) -> dict[str, Any]:
        data = dict(self.inner.metadata())
        data["progress_snapshots"] = len(self.snapshots)
        return data

    # -- recording --------------------------------------------------------
    def on_round_end(self, round_index: int) -> None:
        inner = self.inner
        ranks = [inner.rank_of(node) for node in inner.graph.nodes()]
        self.snapshots.append(
            RoundSnapshot.from_ranks(round_index, ranks, inner.generation.k)
        )
        inner.on_round_end(round_index)

    # -- analysis helpers -------------------------------------------------
    def rank_curve(self, statistic: str = "min") -> list[tuple[int, float]]:
        """The (round, rank) series for ``statistic`` in {min, median, max}."""
        attribute = {
            "min": "min_rank",
            "median": "median_rank",
            "max": "max_rank",
        }.get(statistic)
        if attribute is None:
            raise AnalysisError(f"unknown statistic {statistic!r}; use min/median/max")
        return [(snap.round_index, float(getattr(snap, attribute))) for snap in self.snapshots]

    def completion_curve(self) -> list[tuple[int, int]]:
        """The (round, number of completed nodes) series."""
        return [(snap.round_index, snap.completed_nodes) for snap in self.snapshots]

    def as_rows(self) -> list[dict[str, Any]]:
        """All snapshots as table rows (for reports)."""
        return [snap.as_dict() for snap in self.snapshots]


def rounds_to_fraction_complete(
    recorder: ProgressRecorder, fraction: float
) -> int | None:
    """First round at which at least ``fraction`` of the nodes had finished.

    Useful for partial-dissemination questions (e.g. "when did 90% of the
    nodes know everything?"); returns ``None`` if the fraction was never
    reached within the recorded rounds.
    """
    if not 0.0 < fraction <= 1.0:
        raise AnalysisError(f"fraction must lie in (0, 1], got {fraction}")
    if not recorder.snapshots:
        raise AnalysisError("the recorder has no snapshots (was the run executed?)")
    total = recorder.inner.graph.number_of_nodes()
    needed = fraction * total
    for snap in recorder.snapshots:
        if snap.completed_nodes >= needed:
            return snap.round_index
    return None
