"""Result objects produced by gossip and queueing simulations.

The central quantity of the paper is the *stopping time* of a protocol: the
number of rounds (synchronous model) or timeslots (asynchronous model, with
``n`` timeslots per round) until every node has learned all ``k`` messages.
:class:`RunResult` records that, together with enough auxiliary counters to
reason about message complexity, and :class:`StoppingTimeStats` aggregates
repeated seeded trials into the "with high probability" statistics the paper's
bounds are stated for.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..errors import AnalysisError

__all__ = ["RunResult", "StoppingTimeStats", "aggregate_results", "json_ready"]


def json_ready(value: Any) -> Any:
    """Deep-normalise ``value`` to plain JSON-native Python types.

    Numpy scalars become ``int``/``float``/``bool``, arrays become nested
    lists, tuples become lists and mapping keys become strings — exactly the
    shape ``json.loads(json.dumps(value))`` would produce, so a value that
    went through this function round-trips through JSON *unchanged* (equality,
    not just approximation).  Used by :meth:`RunResult.__post_init__` so that
    protocol metadata written by numpy-heavy engines (``np.int64`` counters,
    boolean masks, ...) never leaks non-serialisable types into results.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [json_ready(item) for item in value.tolist()]
    if isinstance(value, Mapping):
        return {str(key): json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise AnalysisError(
        f"cannot normalise {type(value).__name__} value {value!r} for JSON"
    )


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single protocol execution.

    Attributes
    ----------
    rounds:
        Number of rounds elapsed when the protocol stopped.  In the
        asynchronous model this is ``ceil(timeslots / n)``.
    timeslots:
        Number of timeslots elapsed (equals ``rounds * n`` in the synchronous
        model, where each round is accounted as ``n`` timeslots).
    completed:
        ``True`` when every node finished; ``False`` when the run hit the
        ``max_rounds`` safety limit with ``allow_incomplete=True``.
    n:
        Number of nodes in the graph.
    k:
        Number of source messages disseminated.
    completion_rounds:
        Mapping from node id to the round at which that node first reached
        full rank (joined the tree, for a standalone spanning tree).  Nodes
        that never finished are absent.
    messages_sent:
        Total packets transmitted over the run (both directions of an
        EXCHANGE count as two packets).
    helpful_messages:
        Number of transmitted packets that increased the receiver's rank
        (Definition 3 of the paper).
    metadata:
        Free-form extra information recorded by the protocol (for example the
        spanning-tree depth in a TAG run, or the round at which phase 1
        finished).  Values must be JSON-representable: numpy scalars/arrays,
        tuples and nested mappings are normalised to plain Python types at
        construction (see :func:`json_ready`), anything else — arbitrary
        objects, sets — raises :class:`~repro.errors.AnalysisError`.  The
        normalisation is what makes results serialise losslessly into the
        persistent result store.
    """

    rounds: int
    timeslots: int
    completed: bool
    n: int
    k: int
    completion_rounds: Mapping[int, int] = field(default_factory=dict)
    messages_sent: int = 0
    helpful_messages: int = 0
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Normalise every field to plain Python types at construction time.
        # Engines assemble results from numpy state, and np.int64 values that
        # leak into metadata or completion_rounds would compare equal to a
        # fresh run but serialise differently — the result store requires the
        # JSON round trip to be exact (see to_dict / from_dict).
        for name in ("rounds", "timeslots", "n", "k", "messages_sent", "helpful_messages"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "completed", bool(self.completed))
        object.__setattr__(
            self,
            "completion_rounds",
            {int(node): int(round_) for node, round_ in self.completion_rounds.items()},
        )
        object.__setattr__(self, "metadata", json_ready(dict(self.metadata)))

    # ------------------------------------------------------------------
    # Serialisation (lossless JSON round trip, used by the result store)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; exact inverse of :meth:`from_dict`.

        ``completion_rounds`` keys become strings (JSON object keys always
        are); :meth:`from_dict` restores them to ``int``, so
        ``RunResult.from_dict(r.to_dict()) == r`` holds exactly — including
        through an actual ``json.dumps``/``json.loads`` round trip, because
        ``__post_init__`` already normalised every value to JSON-native types.
        """
        return {
            "rounds": self.rounds,
            "timeslots": self.timeslots,
            "completed": self.completed,
            "n": self.n,
            "k": self.k,
            "completion_rounds": {
                str(node): round_ for node, round_ in self.completion_rounds.items()
            },
            "messages_sent": self.messages_sent,
            "helpful_messages": self.helpful_messages,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (extra keys rejected)."""
        known = {result_field.name for result_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise AnalysisError(
                f"unknown RunResult fields {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        kwargs["completion_rounds"] = {
            int(node): round_
            for node, round_ in dict(kwargs.get("completion_rounds", {})).items()
        }
        return cls(**kwargs)

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialise to a JSON document (compact by default, for JSONL shards)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Rebuild a result from :meth:`to_json` output."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise AnalysisError("a RunResult JSON document must be an object")
        return cls.from_dict(data)

    @property
    def last_completion_round(self) -> int | None:
        """Round at which the slowest node finished, if all nodes finished."""
        if not self.completed or not self.completion_rounds:
            return None
        return max(self.completion_rounds.values())

    @property
    def helpful_fraction(self) -> float:
        """Fraction of transmitted packets that were helpful (0 when none sent)."""
        if self.messages_sent == 0:
            return 0.0
        return self.helpful_messages / self.messages_sent

    def summary(self) -> str:
        """One-line human-readable summary used by examples and reports."""
        status = "completed" if self.completed else "INCOMPLETE"
        return (
            f"{status} after {self.rounds} rounds ({self.timeslots} timeslots); "
            f"n={self.n}, k={self.k}, messages={self.messages_sent}, "
            f"helpful={self.helpful_messages}"
        )


@dataclass(frozen=True)
class StoppingTimeStats:
    """Aggregate statistics of the stopping time over repeated trials.

    The paper states bounds that hold *with high probability* (probability at
    least ``1 - O(1/n)``).  Empirically we approximate that regime with upper
    quantiles of the observed stopping-time distribution over independent
    seeded trials.
    """

    samples: tuple[float, ...]
    incomplete_trials: int = 0

    def __post_init__(self) -> None:
        if not self.samples:
            raise AnalysisError("StoppingTimeStats requires at least one sample")

    @property
    def trials(self) -> int:
        """Number of completed trials that contributed a sample."""
        return len(self.samples)

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        if len(self.samples) == 1:
            return 0.0
        return float(np.std(self.samples, ddof=1))

    @property
    def minimum(self) -> float:
        return float(np.min(self.samples))

    @property
    def maximum(self) -> float:
        return float(np.max(self.samples))

    @property
    def median(self) -> float:
        return float(np.median(self.samples))

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (``0 <= q <= 1``) of the samples."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must lie in [0, 1], got {q}")
        return float(np.quantile(self.samples, q))

    @property
    def whp(self) -> float:
        """The 95th percentile, used as the empirical 'w.h.p.' stopping time."""
        return self.quantile(0.95)

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.trials)

    def summary(self) -> str:
        return (
            f"mean={self.mean:.1f} ± {self.stderr:.1f}, median={self.median:.1f}, "
            f"p95={self.whp:.1f}, max={self.maximum:.1f} over {self.trials} trials"
            + (f" ({self.incomplete_trials} incomplete)" if self.incomplete_trials else "")
        )


def aggregate_results(
    results: Iterable[RunResult], *, use_rounds: bool = True
) -> StoppingTimeStats:
    """Collapse a collection of :class:`RunResult` into stopping-time stats.

    Parameters
    ----------
    results:
        The per-trial results.
    use_rounds:
        When ``True`` (default) the statistic is the round count; otherwise
        the timeslot count is used.  The paper's bounds are stated in rounds
        for both time models, so rounds are the default unit everywhere.
    """
    samples: list[float] = []
    incomplete = 0
    for result in results:
        if result.completed:
            samples.append(float(result.rounds if use_rounds else result.timeslots))
        else:
            incomplete += 1
    if not samples:
        raise AnalysisError(
            "no completed trials to aggregate; "
            f"{incomplete} trials hit the round limit"
        )
    return StoppingTimeStats(samples=tuple(samples), incomplete_trials=incomplete)
