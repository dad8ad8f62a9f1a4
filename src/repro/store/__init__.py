"""Persistent content-addressed result store.

:class:`ResultStore` archives per-trial :class:`~repro.core.RunResult`
records keyed by ``(ScenarioSpec fingerprint, root seed, trial index)`` in
append-only JSONL shards.  The trial runners, the sweep runner and the CLI
read *through* the store — only missing trials are computed — which makes
interrupted sweeps resumable and repeated sweeps free, with bit-identical
aggregates.  See :mod:`repro.store.result_store` and ``docs/result_store.md``
for the layout, concurrency and integrity semantics.
"""

from .result_store import (
    ResultStore,
    Shard,
    StoreRecord,
    diff_snapshots,
    iter_records,
    load_snapshot,
    summarize_result,
)

__all__ = [
    "ResultStore",
    "Shard",
    "StoreRecord",
    "diff_snapshots",
    "iter_records",
    "load_snapshot",
    "summarize_result",
]
