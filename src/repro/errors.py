"""Exception hierarchy for the algebraic-gossip reproduction library.

Every error raised intentionally by the library derives from
:class:`ReproError` so that callers can distinguish library failures from
programming errors (``TypeError``, ``ValueError`` raised by numpy, etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class FieldError(ReproError):
    """Raised for invalid finite-field construction or arithmetic.

    Examples include requesting a field whose order is not a prime power,
    or attempting to invert / divide by the zero element.
    """


class DecodingError(ReproError):
    """Raised when an RLNC decoder cannot complete a requested operation.

    The most common cause is calling :meth:`RlncDecoder.decode` before the
    decoder has accumulated ``k`` linearly independent equations.
    """


class TopologyError(ReproError):
    """Raised for invalid graph-construction parameters.

    Examples: a barbell graph with fewer than two nodes per clique, a grid
    whose side length is not positive, or a spanning-tree request on a
    disconnected graph.
    """


class SimulationError(ReproError):
    """Raised when a gossip or queueing simulation is mis-configured.

    Examples: a workload referencing nodes that do not exist in the graph,
    a protocol driven past its configured ``max_rounds`` safety limit, or a
    spanning-tree protocol asked for a parent before the tree exists.
    """


class ConfigurationError(ReproError):
    """Raised when a :class:`SimulationConfig` contains inconsistent values."""


class EngineError(ReproError):
    """Raised when an explicitly requested engine cannot run a workload.

    The engine axis (``scalar`` / ``event``) never falls back silently:
    asking the event-driven engine for a protocol outside uniform algebraic
    gossip and TAG with a built-in spanning tree refuses with this error, so
    a run always executes on exactly the engine it named.
    """


class BackendError(ReproError):
    """Raised when an eliminator is asked for something it cannot do.

    Examples: a :class:`~repro.backends.rows.RowEliminator` (and so an
    :class:`~repro.rlnc.decoder.RlncDecoder`) over a field wider than a byte,
    which refuses loudly instead of computing with the wrong arithmetic; and
    the placeholders of the deleted eliminators,
    :class:`~repro.gf.linalg.BatchEliminator` and
    :class:`~repro.backends.gf2bit.PackedGf2Eliminator`.
    """


class StoreError(ReproError):
    """Raised when the persistent result store cannot honour a request.

    Examples: a corrupt shard file (malformed JSON on a committed line, or a
    record whose fingerprint does not match its shard), an aggregate request
    for trials the store does not hold, or an export/import of an unreadable
    file.
    """


class CampaignError(ReproError):
    """Raised when an experiment campaign cannot be compiled or executed.

    Examples: a campaign file naming an unknown scenario or artifact kind,
    duplicate unit names, a dependency cycle in the unit DAG, or an offline
    report request against a store that does not hold every trial.
    """


class AnalysisError(ReproError):
    """Raised when an analysis routine receives data it cannot work with.

    Examples: fitting a scaling exponent to fewer than two data points or
    building a results table with mismatched column counts.
    """
