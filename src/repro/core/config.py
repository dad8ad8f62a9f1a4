"""Simulation configuration objects.

The paper studies gossip protocols along several orthogonal axes:

* the **time model** — synchronous rounds versus asynchronous timeslots
  (Section 2 of the paper; ``n`` timeslots are counted as one round),
* the **gossip action** — ``PUSH``, ``PULL`` or ``EXCHANGE``,
* the **communication model** — uniform neighbour selection, round-robin
  (quasirandom) selection, or a fixed partner (used on spanning trees),
* the **field size** ``q`` used by random linear network coding,
* the **payload length** ``r`` (number of field symbols per source message),
* **node churn** — crash/restart schedules during which a node neither wakes
  nor receives (an extension beyond the paper's static-network model), and
* **heterogeneous activation rates** — non-uniform node clocks in the
  asynchronous time model, the natural generalisation of the paper's
  uniform-timeslot model.

:class:`SimulationConfig` gathers those knobs in a single immutable object so
experiments, tests and benchmarks describe a run with one value.  The object
round-trips through :meth:`~SimulationConfig.to_dict` /
:meth:`~SimulationConfig.from_dict`, which is what lets a
:class:`~repro.scenarios.ScenarioSpec` serialise a whole scenario to JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any

from ..errors import ConfigurationError

__all__ = ["TimeModel", "GossipAction", "ChurnEvent", "SimulationConfig"]


class TimeModel(str, Enum):
    """The two time models of Section 2 of the paper."""

    #: Every node activates exactly once per round; information received in a
    #: round becomes usable only at the beginning of the next round.
    SYNCHRONOUS = "synchronous"

    #: At every timeslot a single node, chosen uniformly at random, activates.
    #: ``n`` consecutive timeslots are one round.
    ASYNCHRONOUS = "asynchronous"


class GossipAction(str, Enum):
    """Direction of information flow when a node contacts its partner."""

    #: The initiator sends to the partner.
    PUSH = "push"

    #: The initiator receives from the partner.
    PULL = "pull"

    #: Both directions; this is the variant the paper analyses.
    EXCHANGE = "exchange"


#: One crash/restart interval: ``(node, down_round, up_round)``.  The node is
#: down for every round ``r`` with ``down_round <= r < up_round`` (rounds are
#: 1-indexed, as reported by the engines): it does not wake up, and any
#: transmission whose sender or receiver is down is dropped before delivery.
ChurnEvent = tuple[int, int, int]

_VALID_FIELD_SIZES = frozenset({2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                                29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64, 67,
                                71, 73, 79, 81, 83, 89, 97, 101, 103, 107, 109, 113,
                                121, 125, 127, 128, 131, 137, 139, 149, 151, 157,
                                163, 167, 169, 173, 179, 181, 191, 193, 197, 199,
                                211, 223, 227, 229, 233, 239, 241, 243, 251, 256})


@dataclass(frozen=True)
class SimulationConfig:
    """Immutable description of a single gossip simulation run.

    Parameters
    ----------
    field_size:
        Order ``q`` of the finite field used by RLNC.  The paper's analysis
        only requires ``q >= 2`` (helpfulness probability ``1 - 1/q``).
    payload_length:
        Number of field symbols ``r`` per source message.  The paper assumes
        ``r >> n``; for the stopping-time dynamics only the coefficient part
        matters, so the default keeps payloads short and simulations fast.
    time_model:
        Synchronous rounds or asynchronous timeslots.
    action:
        PUSH / PULL / EXCHANGE.  The paper's theorems use EXCHANGE.
    max_rounds:
        Safety limit; a simulation that has not completed after this many
        rounds raises :class:`~repro.errors.SimulationError` (or returns an
        incomplete result when ``allow_incomplete`` is set).
    allow_incomplete:
        When ``True``, hitting ``max_rounds`` yields a result flagged as
        incomplete instead of raising.  Benchmarks measuring lower-bound
        behaviour (e.g. uniform gossip on the barbell) use this.
    loss_probability:
        Probability that any individual transmission is dropped before
        delivery (independent per packet).  The paper assumes reliable links;
        this knob exists for robustness experiments — gossip protocols only
        slow down under loss, they never deliver wrong data.
    churn:
        Crash/restart schedule: a tuple of :data:`ChurnEvent` triples
        ``(node, down_round, up_round)``.  While down, a node never wakes up
        and every transmission it would send or receive is dropped (counted
        separately from random loss).  Empty (the default) means the paper's
        static network.
    churn_reset:
        When ``True`` a crashing node additionally *loses its protocol
        state*: the engine calls
        :meth:`~repro.gossip.engine.GossipProcess.on_crash` at the start of
        the crash round, and protocols that support it reset the node to its
        initial knowledge.  Both engines replay it: the event engine wipes
        the node's eliminator problem and re-seeds it from the placement.
    activation_rates:
        Relative activation rates per node for the **asynchronous** time
        model, aligned with ``sorted(graph.nodes())``.  Empty (the default)
        means the paper's uniform node clocks; otherwise each timeslot
        activates node ``i`` with probability proportional to
        ``activation_rates[i]`` (restricted to currently-alive nodes under
        churn).  Rejected under the synchronous model, where every node
        wakes exactly once per round by definition.
    """

    field_size: int = 16
    payload_length: int = 4
    time_model: TimeModel = TimeModel.SYNCHRONOUS
    action: GossipAction = GossipAction.EXCHANGE
    max_rounds: int = 100_000
    allow_incomplete: bool = False
    loss_probability: float = 0.0
    churn: tuple[ChurnEvent, ...] = ()
    churn_reset: bool = False
    activation_rates: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.field_size < 2:
            raise ConfigurationError(
                f"field_size must be at least 2, got {self.field_size}"
            )
        if self.field_size not in _VALID_FIELD_SIZES:
            raise ConfigurationError(
                f"field_size {self.field_size} is not a supported prime power"
            )
        if self.payload_length < 1:
            raise ConfigurationError(
                f"payload_length must be positive, got {self.payload_length}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be positive, got {self.max_rounds}"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must lie in [0, 1), got {self.loss_probability}"
            )
        if not isinstance(self.time_model, TimeModel):
            object.__setattr__(self, "time_model", TimeModel(self.time_model))
        if not isinstance(self.action, GossipAction):
            object.__setattr__(self, "action", GossipAction(self.action))
        # Normalise the sequence-valued fields to tuples so configs built
        # from JSON lists hash and compare like hand-written ones; malformed
        # shapes surface as ConfigurationError, not a raw unpack/cast error.
        try:
            object.__setattr__(
                self,
                "churn",
                tuple((int(n), int(down), int(up)) for n, down, up in self.churn),
            )
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"churn must be a sequence of (node, down_round, up_round) "
                f"triples: {error}"
            ) from None
        try:
            object.__setattr__(
                self, "activation_rates", tuple(float(r) for r in self.activation_rates)
            )
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"activation_rates must be a sequence of numbers: {error}"
            ) from None
        for node, down_round, up_round in self.churn:
            if node < 0:
                raise ConfigurationError(f"churn node must be non-negative, got {node}")
            if down_round < 1:
                raise ConfigurationError(
                    f"churn down_round must be >= 1 (rounds are 1-indexed), got {down_round}"
                )
            if up_round <= down_round:
                raise ConfigurationError(
                    f"churn up_round must exceed down_round, got "
                    f"({node}, {down_round}, {up_round})"
                )
        if self.churn_reset and not self.churn:
            raise ConfigurationError("churn_reset requires a non-empty churn schedule")
        for rate in self.activation_rates:
            if not rate > 0.0 or not math.isfinite(rate):
                raise ConfigurationError(
                    f"activation rates must be positive and finite, got {rate}"
                )
        if self.activation_rates and self.time_model is TimeModel.SYNCHRONOUS:
            raise ConfigurationError(
                "activation_rates apply to the asynchronous time model only "
                "(every node wakes once per round in the synchronous model)"
            )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def is_synchronous(self) -> bool:
        """``True`` when the run uses synchronous rounds."""
        return self.time_model is TimeModel.SYNCHRONOUS

    def replace(self, **changes: Any) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialisation (JSON round trip for the scenario layer)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`.

        Defaulted fields are omitted so serialised scenarios stay small and
        forward-compatible (a field added later with a default still loads).
        """
        defaults = SimulationConfig()
        data: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value == getattr(defaults, spec_field.name):
                continue
            if isinstance(value, Enum):
                value = value.value
            elif spec_field.name == "churn":
                value = [list(event) for event in value]
            elif spec_field.name == "activation_rates":
                value = list(value)
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: "dict[str, Any]") -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output (extra keys rejected)."""
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown SimulationConfig fields {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        if "churn" in kwargs:
            kwargs["churn"] = tuple(tuple(event) for event in kwargs["churn"])
        if "activation_rates" in kwargs:
            kwargs["activation_rates"] = tuple(kwargs["activation_rates"])
        return cls(**kwargs)
