"""Persistent, content-addressed storage of per-trial simulation results.

Every Monte Carlo quantity in this repository is an aggregate over
independent seeded trials, and every trial is fully determined by three
values: the workload (a :class:`~repro.scenarios.ScenarioSpec`, addressed by
:meth:`~repro.scenarios.ScenarioSpec.fingerprint`), the root seed the trial
streams derive from, and the trial index.  :class:`ResultStore` exploits that
determinism: it is an append-only, deduplicated archive of
``(fingerprint, seed, trial) -> RunResult`` records that the trial runners
(:mod:`repro.experiments.parallel`), the campaign runner
(:func:`repro.campaigns.run_campaign`) and the CLI read **through** — only
the pairs not already present are computed, so an interrupted campaign
resumes where it stopped and a repeated one costs no simulation time at all,
with bit-identical aggregates either way.

Layout
------
A store is a directory::

    <root>/shards/<fp[:2]>/<fp>.jsonl

with one JSONL shard per workload fingerprint.  Each shard starts with a
``spec`` record (the workload's canonical JSON, so shards are
self-describing) followed by one ``result`` record per cached trial.  Large
asymptotic sweeps archive ``summary`` records instead — just the stopping
time and completion flag (see :func:`summarize_result`), a few dozen bytes
per trial regardless of ``n``, written through
:meth:`ResultStore.put_summaries` and aggregated by
:meth:`ResultStore.aggregate` interchangeably with full records.  Shards
are **append-only**: a record is one ``os.write`` to a file opened with
``O_APPEND``, which POSIX keeps atomic for concurrent writers — two processes
filling the same store interleave whole lines, never torn ones.  Duplicate
records (two writers racing on the same trial, whose results are identical by
determinism) are collapsed on read, first record wins; :meth:`ResultStore.gc`
compacts them away.

Integrity
---------
A newline-terminated line that does not parse, is not a JSON object, has an
unknown ``kind`` or carries a fingerprint that contradicts its shard raises
:class:`~repro.errors.StoreError` naming the file and line.  A final
*unterminated* line is different: it is the signature of a writer killed
mid-append, and is truncated away on the next load (counted in
:attr:`ResultStore.last_load_dropped_partial`; the truncation only happens
while the file has not grown since it was read) so that a crashed sweep can
always resume from its own store and later appends start on a clean line.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..core.results import RunResult, StoppingTimeStats
from ..errors import AnalysisError, ReproError, StoreError

__all__ = [
    "ResultStore",
    "StoreRecord",
    "StoreSnapshot",
    "iter_records",
    "load_snapshot",
    "diff_snapshots",
    "summarize_result",
]

#: Format tag written into export headers (and checked when reading them).
EXPORT_FORMAT = "repro-result-store-export/v1"

#: The exact keys of a streaming summary payload.  Deliberately tiny and
#: strictly deterministic: everything here is a pure function of
#: ``(fingerprint, seed, trial)``, so summary records obey the same
#: conflict-on-divergence rule as full results.
SUMMARY_KEYS = ("completed", "k", "n", "rounds", "timeslots")


def summarize_result(result: RunResult) -> dict[str, Any]:
    """Project a :class:`~repro.core.results.RunResult` to its summary payload.

    The projection keeps exactly what stopping-time aggregation consumes
    (``rounds``/``timeslots``/``completed``) plus the workload size for
    self-description — no completion-round maps, message counters or
    metadata, so a 10^5-trial shard at ``n = 10^6`` stays a few MiB.
    """
    return {
        "completed": result.completed,
        "k": result.k,
        "n": result.n,
        "rounds": result.rounds,
        "timeslots": result.timeslots,
    }


def _project_summary(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The summary projection of a stored full-result payload."""
    return {key: payload[key] for key in SUMMARY_KEYS if key in payload}


@dataclass(frozen=True)
class StoreRecord:
    """One parsed store line: a ``spec`` header, a ``result`` or a ``summary``."""

    kind: str
    fingerprint: str
    seed: int | None = None
    trial: int | None = None
    payload: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class _Shard:
    """In-memory image of one fingerprint's shard."""

    spec: dict[str, Any] | None = None
    results: dict[tuple[int, int], dict[str, Any]] = field(default_factory=dict)
    summaries: dict[tuple[int, int], dict[str, Any]] = field(default_factory=dict)
    raw_records: int = 0
    dropped_partial: bool = False


def _parse_record(line: str, *, source: str, line_number: int) -> StoreRecord:
    """Parse one committed JSONL line into a :class:`StoreRecord`."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as error:
        raise StoreError(
            f"{source}:{line_number}: corrupt store record (not valid JSON: {error})"
        ) from None
    if not isinstance(data, dict):
        raise StoreError(
            f"{source}:{line_number}: corrupt store record (expected an object, "
            f"got {type(data).__name__})"
        )
    kind = data.get("kind")
    if kind == "header":
        if data.get("format") != EXPORT_FORMAT:
            raise StoreError(
                f"{source}:{line_number}: unsupported export format "
                f"{data.get('format')!r} (expected {EXPORT_FORMAT!r})"
            )
        return StoreRecord(kind="header", fingerprint="")
    if kind == "spec":
        fingerprint = data.get("fingerprint")
        spec = data.get("spec")
        if not isinstance(fingerprint, str) or not isinstance(spec, dict):
            raise StoreError(
                f"{source}:{line_number}: corrupt spec record "
                "(needs string 'fingerprint' and object 'spec')"
            )
        return StoreRecord(kind="spec", fingerprint=fingerprint, payload=spec)
    if kind == "result":
        fingerprint = data.get("fingerprint")
        seed = data.get("seed")
        trial = data.get("trial")
        result = data.get("result")
        if (
            not isinstance(fingerprint, str)
            or not isinstance(seed, int)
            or not isinstance(trial, int)
            or not isinstance(result, dict)
        ):
            raise StoreError(
                f"{source}:{line_number}: corrupt result record (needs string "
                "'fingerprint', integer 'seed' and 'trial', object 'result')"
            )
        return StoreRecord(
            kind="result", fingerprint=fingerprint, seed=seed, trial=trial, payload=result
        )
    if kind == "summary":
        fingerprint = data.get("fingerprint")
        seed = data.get("seed")
        trial = data.get("trial")
        summary = data.get("summary")
        if (
            not isinstance(fingerprint, str)
            or not isinstance(seed, int)
            or not isinstance(trial, int)
            or not isinstance(summary, dict)
        ):
            raise StoreError(
                f"{source}:{line_number}: corrupt summary record (needs string "
                "'fingerprint', integer 'seed' and 'trial', object 'summary')"
            )
        return StoreRecord(
            kind="summary", fingerprint=fingerprint, seed=seed, trial=trial, payload=summary
        )
    raise StoreError(
        f"{source}:{line_number}: corrupt store record (unknown kind {kind!r})"
    )


def _parse_lines(text: str, *, source: str) -> tuple[list[StoreRecord], bool]:
    """Parse a shard/export body; returns records and a dropped-partial flag.

    A trailing chunk without a terminating newline is an interrupted append
    (the writer died mid-line): it is dropped rather than treated as
    corruption, so resuming against a killed run's store always works.
    """
    records: list[StoreRecord] = []
    dropped_partial = False
    lines = text.split("\n")
    if lines and lines[-1] != "":
        dropped_partial = True
    committed = lines[:-1]
    for number, line in enumerate(committed, start=1):
        if not line.strip():
            continue
        records.append(_parse_record(line, source=source, line_number=number))
    return records, dropped_partial


def iter_records(path: "str | Path") -> Iterator[StoreRecord]:
    """Iterate the records of one shard or export file (header lines skipped)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise StoreError(f"cannot read store file {path}: {error}") from None
    records, _ = _parse_lines(text, source=str(path))
    for record in records:
        if record.kind != "header":
            yield record


@dataclass
class StoreSnapshot:
    """A read-only image of store contents, keyed by fingerprint.

    ``results[fingerprint]`` maps ``(seed, trial)`` to the raw result
    dictionary, ``summaries[fingerprint]`` to the raw streaming-summary
    payloads; ``specs[fingerprint]`` holds the workload's canonical JSON
    when a spec header was present.  Built by :func:`load_snapshot` from
    either a store directory or an export file — the shape the CLI's
    ``store diff`` compares.
    """

    specs: dict[str, dict[str, Any]] = field(default_factory=dict)
    results: dict[str, dict[tuple[int, int], dict[str, Any]]] = field(default_factory=dict)
    summaries: dict[str, dict[tuple[int, int], dict[str, Any]]] = field(default_factory=dict)

    def add(self, record: StoreRecord) -> None:
        if record.kind == "spec":
            self.specs.setdefault(record.fingerprint, dict(record.payload))
        elif record.kind == "result":
            bucket = self.results.setdefault(record.fingerprint, {})
            bucket.setdefault((record.seed, record.trial), dict(record.payload))
        elif record.kind == "summary":
            bucket = self.summaries.setdefault(record.fingerprint, {})
            bucket.setdefault((record.seed, record.trial), dict(record.payload))

    @property
    def trial_count(self) -> int:
        return sum(len(bucket) for bucket in self.results.values()) + sum(
            len(bucket) for bucket in self.summaries.values()
        )


def load_snapshot(path: "str | Path") -> StoreSnapshot:
    """Load a store directory *or* an export file into a :class:`StoreSnapshot`.

    A directory must actually look like a store (carry a ``shards/``
    subdirectory): a mistyped path pointing at some unrelated existing
    directory raises instead of quietly reading as an empty snapshot —
    ``store diff`` against an empty "store" would otherwise always succeed.
    """
    path = Path(path)
    snapshot = StoreSnapshot()
    if path.is_dir():
        if not (path / "shards").is_dir():
            raise StoreError(
                f"{path} is not a result store (no shards/ directory) — "
                "pass a store directory or an export file"
            )
        # Pure inspection: never modify (repair) the files being read.
        store = ResultStore(path, create=False, repair=False)
        for fingerprint in store.fingerprints():
            shard = store._load(fingerprint)
            if shard.spec is not None:
                snapshot.specs[fingerprint] = dict(shard.spec)
            snapshot.results[fingerprint] = {
                key: dict(value) for key, value in shard.results.items()
            }
            if shard.summaries:
                snapshot.summaries[fingerprint] = {
                    key: dict(value) for key, value in shard.summaries.items()
                }
        return snapshot
    for record in iter_records(path):
        snapshot.add(record)
    return snapshot


def diff_snapshots(left: StoreSnapshot, right: StoreSnapshot) -> dict[str, Any]:
    """Compare two snapshots record-for-record.

    Returns a report dictionary: fingerprints (with trial counts) present on
    one side only, trial keys present on one side only for shared
    fingerprints, the ``(fingerprint, seed, trial)`` triples whose stored
    results *differ* (identical seeded trials must never differ — a non-empty
    list signals non-determinism or corruption), and the count of identical
    shared records.
    """
    # Full results and streaming summaries are compared in one unified view:
    # per fingerprint, records keyed by (kind, seed, trial), so a store that
    # archived a workload through put_summaries diffs against one that
    # archived it through put_many as "trials only on one side" rather than
    # as spurious payload divergence.
    def _records(snapshot: StoreSnapshot) -> dict[str, dict[tuple[str, int, int], dict[str, Any]]]:
        merged: dict[str, dict[tuple[str, int, int], dict[str, Any]]] = {}
        for fp, bucket in snapshot.results.items():
            view = merged.setdefault(fp, {})
            for (seed, trial), payload in bucket.items():
                view[("result", seed, trial)] = payload
        for fp, bucket in snapshot.summaries.items():
            view = merged.setdefault(fp, {})
            for (seed, trial), payload in bucket.items():
                view[("summary", seed, trial)] = payload
        return merged

    left_records = _records(left)
    right_records = _records(right)
    only_left = {
        fp: len(bucket) for fp, bucket in left_records.items() if fp not in right_records
    }
    only_right = {
        fp: len(bucket) for fp, bucket in right_records.items() if fp not in left_records
    }
    differing: list[tuple[str, int, int]] = []
    trials_only_left: list[tuple[str, int, int]] = []
    trials_only_right: list[tuple[str, int, int]] = []
    identical = 0
    for fp in sorted(set(left_records) & set(right_records)):
        left_bucket = left_records[fp]
        right_bucket = right_records[fp]
        for key in sorted(set(left_bucket) | set(right_bucket)):
            triple = (fp, key[1], key[2])
            if key not in right_bucket:
                trials_only_left.append(triple)
            elif key not in left_bucket:
                trials_only_right.append(triple)
            elif left_bucket[key] != right_bucket[key]:
                differing.append(triple)
            else:
                identical += 1
    return {
        "only_left": only_left,
        "only_right": only_right,
        "trials_only_left": trials_only_left,
        "trials_only_right": trials_only_right,
        "differing": differing,
        "identical": identical,
    }


class ResultStore:
    """Append-only, content-addressed archive of per-trial results.

    Parameters
    ----------
    root:
        Store directory (created unless ``create=False``).
    create:
        When ``False``, a missing directory raises :class:`StoreError`
        instead of being created — the read-only CLI commands use this so a
        typo'd path fails loudly.
    repair:
        When ``False``, loading a shard with a trailing half-record skips
        the fragment in memory but never truncates it on disk — pure
        inspection (``store ls``/``show``/``diff``, :func:`load_snapshot`)
        must not modify the files it reads.  Writers keep the default
        (``True``): they repair before appending so the fragment cannot
        merge into a new record.

    The cache-hit counters (:attr:`hits`, :attr:`misses`, :attr:`puts`) are
    per-instance and start at zero, so a caller can assert "this invocation
    computed nothing new" with ``store.puts == 0`` after a fully-cached run.

    Workload arguments (``spec_or_fingerprint``) accept either a
    :class:`~repro.scenarios.ScenarioSpec` or a fingerprint string; the trial
    key's ``seed`` defaults to the spec's own root seed when a spec is given.

    Examples
    --------
    Runners read *through* a store: trial records are keyed by
    ``(spec fingerprint, root seed, trial index)``, so only the missing
    indices of a plan are ever computed:

    >>> import tempfile
    >>> from repro.scenarios import ScenarioSpec
    >>> spec = ScenarioSpec(topology="ring", n=8, k=2, trials=2, seed=1)
    >>> with tempfile.TemporaryDirectory() as root:
    ...     store = ResultStore(root)
    ...     first = spec.materialize().run_single(store=store)   # computes
    ...     cached = spec.materialize().run_single(store=store)  # cache hit
    ...     (first == cached, store.puts, store.hits, store.missing_trials(spec))
    (True, 1, 1, [1])

    Asymptotic sweeps at large ``n`` archive *streaming summary* records
    instead — a constant-size stopping-time payload per trial — and
    :meth:`aggregate` consumes either kind:

    >>> summary = {"completed": True, "k": 2, "n": 8, "rounds": 7, "timeslots": 7}
    >>> with tempfile.TemporaryDirectory() as root:
    ...     store = ResultStore(root)
    ...     new = store.put_summaries(spec, {0: summary, 1: summary})
    ...     (new, store.missing_summary_trials(spec), round(store.aggregate(spec).mean, 1))
    (2, [], 7.0)
    """

    def __init__(
        self, root: "str | Path", *, create: bool = True, repair: bool = True
    ) -> None:
        self.root = Path(root)
        if self.root.is_dir() and not create and not (self.root / "shards").is_dir():
            # Read-only opens must not treat an arbitrary existing directory
            # (a typo'd --store path) as an empty store.
            raise StoreError(
                f"{self.root} is not a result store (no shards/ directory)"
            )
        if not self.root.is_dir():
            if not create:
                raise StoreError(f"result store {self.root} does not exist")
            try:
                # shards/ is created eagerly: it is what marks a directory
                # as a result store (load_snapshot refuses directories
                # without it), so even a never-written store is recognisable.
                (self.root / "shards").mkdir(parents=True, exist_ok=True)
            except OSError as error:
                # e.g. the path exists as a regular file, or a parent is
                # unwritable — surface the library's error type, not a
                # traceback.
                raise StoreError(
                    f"cannot create result store at {self.root}: {error}"
                ) from None
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.last_load_dropped_partial = 0
        self._cache: dict[str, _Shard] = {}
        self._lock_depth = 0
        self._repair = repair

    @contextlib.contextmanager
    def _write_lock(self):
        """Serialise mutating operations across processes sharing this store.

        An advisory ``flock`` on ``<root>/.lock`` held around every append,
        partial-line repair and ``gc`` rewrite: O_APPEND keeps individual
        writes whole on its own, but the lock is what makes the *compound*
        operations safe — a repair's check-then-truncate cannot race a
        concurrent append, and a ``gc`` read-rewrite-replace cannot drop a
        record appended in between.  Re-entrant within an instance (process
        concurrency is the model here, one store instance per process); a
        no-op on platforms without ``fcntl``.
        """
        if self._lock_depth or fcntl is None:
            self._lock_depth += 1
            try:
                yield
            finally:
                self._lock_depth -= 1
            return
        try:
            descriptor = os.open(self.root / ".lock", os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            # Read-only store (e.g. a shared snapshot mount): locking is
            # impossible but reads must still work — proceed unlocked; the
            # degraded paths (_repair_partial, _append) handle the read-only
            # case themselves.
            self._lock_depth += 1
            try:
                yield
            finally:
                self._lock_depth -= 1
            return
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
            self._lock_depth = 1
            try:
                yield
            finally:
                self._lock_depth = 0
        finally:
            # Closing the descriptor releases the flock.
            os.close(descriptor)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @staticmethod
    def _key(spec_or_fingerprint: Any) -> tuple[str, Any]:
        """Resolve a spec-or-fingerprint argument to ``(fingerprint, spec|None)``."""
        if isinstance(spec_or_fingerprint, str):
            return spec_or_fingerprint, None
        fingerprint = spec_or_fingerprint.fingerprint()
        return fingerprint, spec_or_fingerprint

    @staticmethod
    def _seed_for(spec: Any, seed: "int | None") -> int:
        if seed is not None:
            return int(seed)
        if spec is None:
            raise StoreError(
                "a trial's root seed is part of its store key: pass seed=... "
                "when addressing by bare fingerprint"
            )
        return int(spec.seed)

    def _shard_path(self, fingerprint: str) -> Path:
        return self.root / "shards" / fingerprint[:2] / f"{fingerprint}.jsonl"

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _load(self, fingerprint: str) -> _Shard:
        """The in-memory image of one shard, reading it on first access.

        A trailing half-record (a writer killed mid-append) is *repaired* by
        truncating it away before it is skipped: every writer loads a shard
        before appending to it, so the orphan fragment is gone before any new
        line could merge into it.  The truncation only happens when the file
        has not grown since it was read (a grown file means another process
        already repaired it — re-read and check again).
        """
        shard = self._cache.get(fingerprint)
        if shard is not None:
            return shard
        shard = _Shard()
        path = self._shard_path(fingerprint)
        if path.exists():
            raw = path.read_bytes()
            if raw and not raw.endswith(b"\n"):
                if self._repair:
                    # Repair under the store's write lock, so the size check
                    # and the truncation cannot race a concurrent append.
                    with self._write_lock():
                        raw = self._repair_partial(path, shard)
                else:
                    # Inspection-only store: skip the fragment in memory,
                    # leave the file byte-for-byte untouched.
                    self.last_load_dropped_partial += 1
                    shard.dropped_partial = True
                    raw = raw[: raw.rfind(b"\n") + 1]
            records, dropped = _parse_lines(
                raw.decode("utf-8"), source=str(path)
            )
            shard.dropped_partial = shard.dropped_partial or dropped
            shard.raw_records = len(records)
            for record in records:
                if record.fingerprint != fingerprint:
                    raise StoreError(
                        f"{path}: record fingerprint {record.fingerprint[:12]}... "
                        f"does not match its shard {fingerprint[:12]}..."
                    )
                if record.kind == "spec":
                    if shard.spec is None:
                        shard.spec = dict(record.payload)
                elif record.kind == "result":
                    shard.results.setdefault((record.seed, record.trial), dict(record.payload))
                elif record.kind == "summary":
                    shard.summaries.setdefault((record.seed, record.trial), dict(record.payload))
        self._cache[fingerprint] = shard
        return shard

    def _repair_partial(self, path: Path, shard: _Shard) -> bytes:
        """Resolve a trailing half-record; returns the committed shard bytes.

        Called with the write lock held.  On locking platforms the file
        cannot grow underneath us; where ``fcntl`` is unavailable the lock is
        a no-op, so when the truncation's size check fails the file is
        re-read and re-evaluated (a grown file means a concurrent writer
        appended — its committed records must not be dropped from the view).
        An unchanged file that cannot be truncated is a read-only store: the
        fragment is skipped in memory only and ``_append`` terminates it if
        this instance ever writes.
        """
        raw = path.read_bytes()
        for _ in range(16):  # bounded: each retry means another writer appended
            if not raw or raw.endswith(b"\n"):
                return raw
            committed = raw.rfind(b"\n") + 1
            if self._truncate_partial(path, expected_size=len(raw), keep=committed):
                self.last_load_dropped_partial += 1
                return raw[:committed]
            reread = path.read_bytes()
            if reread == raw:
                self.last_load_dropped_partial += 1
                shard.dropped_partial = True
                return raw[:committed]
            raw = reread
        # Still racing after many retries: skip the fragment in memory only.
        committed = raw.rfind(b"\n") + 1
        self.last_load_dropped_partial += 1
        shard.dropped_partial = True
        return raw[:committed]

    @staticmethod
    def _truncate_partial(path: Path, *, expected_size: int, keep: int) -> bool:
        """Drop a trailing half-record, but only if the file has not grown.

        Returns ``True`` when the file now ends at ``keep`` bytes (repaired
        by us, or already repaired elsewhere); ``False`` when another writer
        appended in the meantime (caller re-reads) or the file cannot be
        opened for writing (read-only store — the fragment is then merely
        skipped, not removed).
        """
        try:
            descriptor = os.open(path, os.O_RDWR)
        except OSError:
            return False
        try:
            if os.fstat(descriptor).st_size != expected_size:
                return False
            os.ftruncate(descriptor, keep)
            return True
        finally:
            os.close(descriptor)

    def refresh(self) -> None:
        """Drop the in-memory index; the next access re-reads the shards.

        Needed only when another process may have appended since this
        instance last read a shard (e.g. a long-lived service sharing a store
        with batch writers).
        """
        self._cache.clear()

    def _decode_result(
        self, fingerprint: str, key: tuple[int, int], payload: Mapping[str, Any]
    ) -> RunResult:
        """Rebuild one stored payload, mapping decode failures to StoreError."""
        try:
            return RunResult.from_dict(payload)
        except (ReproError, TypeError, ValueError, KeyError) as error:
            seed, trial = key
            raise StoreError(
                f"{self._shard_path(fingerprint)}: corrupt result payload for "
                f"seed={seed} trial={trial}: {error}"
            ) from None

    def get(
        self, spec_or_fingerprint: Any, trial: int, *, seed: "int | None" = None
    ) -> "RunResult | None":
        """The cached result of one trial, or ``None`` (counted as hit/miss)."""
        fingerprint, spec = self._key(spec_or_fingerprint)
        key = (self._seed_for(spec, seed), int(trial))
        payload = self._load(fingerprint).results.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return self._decode_result(fingerprint, key, payload)

    def contains(
        self, spec_or_fingerprint: Any, trial: int, *, seed: "int | None" = None
    ) -> bool:
        """Presence check that does not touch the hit/miss counters."""
        fingerprint, spec = self._key(spec_or_fingerprint)
        key = (self._seed_for(spec, seed), int(trial))
        return key in self._load(fingerprint).results

    def missing_trials(
        self,
        spec: Any,
        trials: "int | None" = None,
        *,
        seed: "int | None" = None,
    ) -> list[int]:
        """Trial indices of ``range(trials)`` not yet present (spec plan default)."""
        fingerprint, resolved = self._key(spec)
        if trials is None:
            if resolved is None:
                raise StoreError(
                    "missing_trials needs an explicit trial count when "
                    "addressing by bare fingerprint"
                )
            trials = resolved.trials
        effective_seed = self._seed_for(resolved, seed)
        present = self._load(fingerprint).results
        return [t for t in range(trials) if (effective_seed, t) not in present]

    def results(
        self,
        spec_or_fingerprint: Any,
        trials: "int | None" = None,
        *,
        seed: "int | None" = None,
    ) -> dict[int, RunResult]:
        """Every cached trial (optionally restricted to ``range(trials)``)."""
        fingerprint, spec = self._key(spec_or_fingerprint)
        if trials is None and spec is not None:
            trials = spec.trials
        effective_seed = self._seed_for(spec, seed)
        out: dict[int, RunResult] = {}
        for (record_seed, trial), payload in self._load(fingerprint).results.items():
            if record_seed != effective_seed:
                continue
            if trials is not None and not 0 <= trial < trials:
                continue
            out[trial] = self._decode_result(fingerprint, (record_seed, trial), payload)
        return out

    def summaries(
        self,
        spec_or_fingerprint: Any,
        trials: "int | None" = None,
        *,
        seed: "int | None" = None,
    ) -> dict[int, dict[str, Any]]:
        """Every cached summary payload (full results project down transparently).

        A trial archived as a full ``result`` record is returned as its
        :func:`summarize_result` projection, so callers that only need
        stopping times see one uniform shape regardless of how the trials
        were archived.
        """
        fingerprint, spec = self._key(spec_or_fingerprint)
        if trials is None and spec is not None:
            trials = spec.trials
        effective_seed = self._seed_for(spec, seed)
        shard = self._load(fingerprint)
        out: dict[int, dict[str, Any]] = {}
        for bucket, project in ((shard.results, True), (shard.summaries, False)):
            for (record_seed, trial), payload in bucket.items():
                if record_seed != effective_seed:
                    continue
                if trials is not None and not 0 <= trial < trials:
                    continue
                if trial not in out:
                    out[trial] = _project_summary(payload) if project else dict(payload)
        return out

    def missing_summary_trials(
        self,
        spec: Any,
        trials: "int | None" = None,
        *,
        seed: "int | None" = None,
    ) -> list[int]:
        """Trial indices of ``range(trials)`` with neither a result nor a summary."""
        fingerprint, resolved = self._key(spec)
        if trials is None:
            if resolved is None:
                raise StoreError(
                    "missing_summary_trials needs an explicit trial count "
                    "when addressing by bare fingerprint"
                )
            trials = resolved.trials
        effective_seed = self._seed_for(resolved, seed)
        shard = self._load(fingerprint)
        return [
            t
            for t in range(trials)
            if (effective_seed, t) not in shard.results
            and (effective_seed, t) not in shard.summaries
        ]

    def _iter_shard_records(self, fingerprint: str) -> Iterator[StoreRecord]:
        """Stream one shard's committed records without materialising it.

        Used by :meth:`aggregate` so that a 10^5-record summary shard never
        holds more than one parsed line in memory.  The trailing
        unterminated line of a writer killed mid-append is skipped, never
        repaired — this is a read-only pass and must not modify the file.
        Records come back in file order; first-record-wins deduplication is
        the caller's job.
        """
        path = self._shard_path(fingerprint)
        if not path.exists():
            return
        source = str(path)
        with open(path, "r", encoding="utf-8", newline="") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.endswith("\n"):
                    break
                if not line.strip():
                    continue
                record = _parse_record(line, source=source, line_number=number)
                if record.fingerprint != fingerprint:
                    raise StoreError(
                        f"{path}: record fingerprint {record.fingerprint[:12]}... "
                        f"does not match its shard {fingerprint[:12]}..."
                    )
                yield record

    @staticmethod
    def _stopping_value(
        source: str, key: tuple[int, int], payload: Mapping[str, Any]
    ) -> tuple[float, bool]:
        """Extract ``(rounds, completed)`` from a result or summary payload."""
        rounds = payload.get("rounds")
        completed = payload.get("completed")
        if (
            isinstance(rounds, bool)
            or not isinstance(rounds, (int, float))
            or not isinstance(completed, bool)
        ):
            seed, trial = key
            raise StoreError(
                f"{source}: corrupt result payload for seed={seed} "
                f"trial={trial}: needs numeric 'rounds' and boolean 'completed'"
            )
        return float(rounds), completed

    def aggregate(
        self,
        spec_or_fingerprint: Any,
        trials: "int | None" = None,
        *,
        seed: "int | None" = None,
    ) -> StoppingTimeStats:
        """Stopping-time statistics over cached trials ``0 .. trials-1``.

        Consumes full ``result`` records and streaming ``summary`` records
        interchangeably, and **streams**: only the scalar
        ``(rounds, completed)`` pair of each trial is ever held — a shard
        not already resident in this instance's cache is read line by line
        without populating the cache, so aggregating a 10^5-trial summary
        shard costs O(trials) floats, not O(shard bytes) of decoded
        :class:`~repro.core.results.RunResult` objects.  The samples are
        assembled in trial-index order, exactly as the materialising path
        always did, so the statistics are bit-identical.

        Raises :class:`StoreError` naming the missing indices when the store
        does not hold the full trial range — an aggregate over a partial
        cache would silently change the statistics.
        """
        fingerprint, spec = self._key(spec_or_fingerprint)
        if trials is None:
            if spec is None:
                raise StoreError(
                    "aggregate needs an explicit trial count when addressing "
                    "by bare fingerprint"
                )
            trials = spec.trials
        effective_seed = self._seed_for(spec, seed)
        source = str(self._shard_path(fingerprint))
        values: dict[int, tuple[float, bool]] = {}
        shard = self._cache.get(fingerprint)
        if shard is not None:
            # Already resident: read the scalar pair straight off the cached
            # payload dictionaries (full results first — both kinds agree by
            # the conflict invariant, so priority only breaks exact ties).
            for bucket in (shard.results, shard.summaries):
                for (record_seed, trial), payload in bucket.items():
                    if record_seed != effective_seed or not 0 <= trial < trials:
                        continue
                    if trial not in values:
                        values[trial] = self._stopping_value(
                            source, (record_seed, trial), payload
                        )
        else:
            for record in self._iter_shard_records(fingerprint):
                if record.kind not in ("result", "summary"):
                    continue
                if record.seed != effective_seed or not 0 <= record.trial < trials:
                    continue
                if record.trial not in values:
                    values[record.trial] = self._stopping_value(
                        source, (record.seed, record.trial), record.payload
                    )
        missing = [t for t in range(trials) if t not in values]
        if missing:
            raise StoreError(
                f"store {self.root} holds {len(values)}/{trials} trials for "
                f"{fingerprint[:12]}...; missing trial indices {missing[:8]}"
                f"{'...' if len(missing) > 8 else ''}"
            )
        samples: list[float] = []
        incomplete = 0
        for trial in range(trials):
            rounds, completed = values[trial]
            if completed:
                samples.append(rounds)
            else:
                incomplete += 1
        if not samples:
            # The exact message aggregate_results raises, so callers see one
            # error regardless of which path aggregated.
            raise AnalysisError(
                "no completed trials to aggregate; "
                f"{incomplete} trials hit the round limit"
            )
        return StoppingTimeStats(samples=tuple(samples), incomplete_trials=incomplete)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(record: dict[str, Any]) -> str:
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def _spec_line(cls, fingerprint: str, spec_payload: Mapping[str, Any]) -> str:
        """The encoded shard-header record (one schema, shared by every writer)."""
        return cls._encode(
            {"kind": "spec", "fingerprint": fingerprint, "spec": dict(spec_payload)}
        )

    @classmethod
    def _result_line(
        cls, fingerprint: str, seed: int, trial: int, payload: Mapping[str, Any]
    ) -> str:
        """The encoded trial record (one schema, shared by every writer)."""
        return cls._encode(
            {
                "kind": "result",
                "fingerprint": fingerprint,
                "seed": int(seed),
                "trial": int(trial),
                "result": dict(payload),
            }
        )

    @classmethod
    def _summary_line(
        cls, fingerprint: str, seed: int, trial: int, payload: Mapping[str, Any]
    ) -> str:
        """The encoded streaming-summary record (one schema, every writer)."""
        return cls._encode(
            {
                "kind": "summary",
                "fingerprint": fingerprint,
                "seed": int(seed),
                "trial": int(trial),
                "summary": dict(payload),
            }
        )

    def _append(self, fingerprint: str, lines: list[str]) -> None:
        """Append whole lines in one O_APPEND write, under the write lock."""
        path = self._shard_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = "".join(f"{line}\n" for line in lines).encode("utf-8")
        shard = self._cache.get(fingerprint)
        with self._write_lock():
            if shard is not None and shard.dropped_partial:
                # The shard ends in an interrupted half-record the load-time
                # repair could not truncate (read-only then); terminate it so
                # the new records start on their own lines (the orphaned
                # fragment stays unparsed — blank/partial lines are skipped
                # on read — and gc() removes it).
                data = b"\n" + data
                shard.dropped_partial = False
            try:
                descriptor = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
                try:
                    # POSIX permits short writes (signals, disk pressure);
                    # every byte must land or the shard would end mid-record.
                    view = memoryview(data)
                    while view:
                        view = view[os.write(descriptor, view):]
                finally:
                    os.close(descriptor)
            except OSError as error:
                # Read-only or full store: surface the library's error type
                # (callers have not yet updated their in-memory view, so the
                # cache stays consistent with the disk).
                raise StoreError(
                    f"cannot append to result store shard {path}: {error}"
                ) from None

    def put(
        self, spec: Any, trial: int, result: RunResult, *, seed: "int | None" = None
    ) -> bool:
        """Persist one trial result; returns ``False`` if it was already present."""
        return self.put_many(spec, {int(trial): result}, seed=seed) == 1

    def put_many(
        self,
        spec: Any,
        results_by_trial: Mapping[int, RunResult],
        *,
        seed: "int | None" = None,
    ) -> int:
        """Persist several trial results in one append; returns how many were new.

        Keys already present with an **identical** payload are skipped (the
        store is deduplicated by construction where possible; concurrent
        writers may still race, which the first-record-wins read rule
        absorbs).  A key already present with a *different* payload raises
        :class:`StoreError`: same-keyed trials are deterministic, so a
        conflict means the simulation code changed underneath the archive.
        """
        fingerprint, resolved = self._key(spec)
        if resolved is None:
            raise StoreError(
                "put requires the full ScenarioSpec (shards are self-describing); "
                "got a bare fingerprint"
            )
        effective_seed = self._seed_for(resolved, seed)
        shard = self._load(fingerprint)
        lines: list[str] = []
        new_spec: "dict[str, Any] | None" = None
        if shard.spec is None:
            new_spec = resolved.to_dict()
            lines.append(self._spec_line(fingerprint, new_spec))
        staged: list[tuple[tuple[int, int], dict[str, Any]]] = []
        for trial, result in sorted(results_by_trial.items()):
            key = (effective_seed, int(trial))
            payload = result.to_dict()
            stored = shard.results.get(key)
            if stored is not None:
                if stored != payload:
                    # Identical (workload, seed, trial) keys must produce
                    # identical results — a conflict means the simulation
                    # code changed since the record was written (or the
                    # store was tampered with).  Failing loudly here is what
                    # makes a ``fresh`` run an actual re-verification and
                    # keeps stale archives from silently serving old numbers.
                    raise StoreError(
                        f"store {self.root} already holds a different result "
                        f"for {fingerprint[:12]}... seed={effective_seed} "
                        f"trial={trial}; the workload's behaviour has changed "
                        "since it was archived — gc the shard (or point at a "
                        "new store) to re-archive"
                    )
                continue
            summary = shard.summaries.get(key)
            if summary is not None and summary != _project_summary(payload):
                # A summary archived for this key is the same trial's
                # projection by determinism; a full result that disagrees
                # with it is the same divergence put_many refuses above.
                raise StoreError(
                    f"store {self.root} already holds a summary that "
                    f"contradicts this result for {fingerprint[:12]}... "
                    f"seed={effective_seed} trial={trial}; the workload's "
                    "behaviour has changed since it was archived — gc the "
                    "shard (or point at a new store) to re-archive"
                )
            staged.append((key, payload))
            lines.append(self._result_line(fingerprint, effective_seed, trial, payload))
        if lines:
            # Disk first, memory second: a failed append (read-only / full
            # store) must not leave the cache claiming unpersisted records.
            self._append(fingerprint, lines)
            shard.raw_records += len(lines)
            if new_spec is not None:
                shard.spec = new_spec
            for key, payload in staged:
                shard.results[key] = payload
        self.puts += len(staged)
        return len(staged)

    def put_summaries(
        self,
        spec: Any,
        summaries_by_trial: "Mapping[int, Mapping[str, Any] | RunResult]",
        *,
        seed: "int | None" = None,
    ) -> int:
        """Persist streaming summary records; returns how many were new.

        Values may be full :class:`~repro.core.results.RunResult` objects
        (projected via :func:`summarize_result`) or ready-made summary
        payloads carrying exactly the :data:`SUMMARY_KEYS`.  The conflict
        rules mirror :meth:`put_many`: a key already covered — by an
        identical summary, *or* by a full result whose projection matches —
        is skipped without writing, and any divergence raises
        :class:`StoreError`, so a ``fresh`` rerun through the summary path
        re-verifies the archive exactly like the full-record path does.
        """
        fingerprint, resolved = self._key(spec)
        if resolved is None:
            raise StoreError(
                "put requires the full ScenarioSpec (shards are self-describing); "
                "got a bare fingerprint"
            )
        effective_seed = self._seed_for(resolved, seed)
        shard = self._load(fingerprint)
        lines: list[str] = []
        new_spec: "dict[str, Any] | None" = None
        if shard.spec is None:
            new_spec = resolved.to_dict()
            lines.append(self._spec_line(fingerprint, new_spec))
        staged: list[tuple[tuple[int, int], dict[str, Any]]] = []
        for trial, value in sorted(summaries_by_trial.items()):
            key = (effective_seed, int(trial))
            if isinstance(value, RunResult):
                payload = summarize_result(value)
            else:
                payload = {k: value[k] for k in sorted(value)}
                if tuple(sorted(payload)) != SUMMARY_KEYS:
                    raise StoreError(
                        f"a summary payload carries exactly {list(SUMMARY_KEYS)}; "
                        f"got keys {sorted(payload)} for trial {trial}"
                    )
            full = shard.results.get(key)
            if full is not None:
                if _project_summary(full) != payload:
                    raise StoreError(
                        f"store {self.root} already holds a full result that "
                        f"contradicts this summary for {fingerprint[:12]}... "
                        f"seed={effective_seed} trial={trial}; the workload's "
                        "behaviour has changed since it was archived — gc the "
                        "shard (or point at a new store) to re-archive"
                    )
                continue  # the full record already covers this trial
            stored = shard.summaries.get(key)
            if stored is not None:
                if stored != payload:
                    raise StoreError(
                        f"store {self.root} already holds a different summary "
                        f"for {fingerprint[:12]}... seed={effective_seed} "
                        f"trial={trial}; the workload's behaviour has changed "
                        "since it was archived — gc the shard (or point at a "
                        "new store) to re-archive"
                    )
                continue
            staged.append((key, payload))
            lines.append(self._summary_line(fingerprint, effective_seed, trial, payload))
        if lines:
            # Disk first, memory second (see put_many).
            self._append(fingerprint, lines)
            shard.raw_records += len(lines)
            if new_spec is not None:
                shard.spec = new_spec
            for key, payload in staged:
                shard.summaries[key] = payload
        self.puts += len(staged)
        return len(staged)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def fingerprints(self) -> list[str]:
        """Sorted fingerprints of every shard on disk."""
        shards_dir = self.root / "shards"
        if not shards_dir.is_dir():
            return []
        return sorted(path.stem for path in shards_dir.glob("*/*.jsonl"))

    def spec_dict(self, fingerprint: str) -> "dict[str, Any] | None":
        """The stored canonical spec JSON of one shard (``None`` if absent)."""
        spec = self._load(fingerprint).spec
        return dict(spec) if spec is not None else None

    def spec(self, fingerprint: str) -> Any:
        """Rebuild the stored :class:`~repro.scenarios.ScenarioSpec` of a shard."""
        payload = self.spec_dict(fingerprint)
        if payload is None:
            raise StoreError(
                f"shard {fingerprint[:12]}... has no spec header; the store "
                "can only rebuild workloads written through put()"
            )
        # Imported lazily: the scenario layer sits above the store's own
        # dependencies (core, errors) in the package stack.
        from ..scenarios.spec import ScenarioSpec

        return ScenarioSpec.from_dict(payload)

    def trial_keys(self, fingerprint: str) -> list[tuple[int, int]]:
        """Sorted ``(seed, trial)`` keys cached for one fingerprint (either kind)."""
        shard = self._load(fingerprint)
        return sorted(set(shard.results) | set(shard.summaries))

    def resolve_fingerprint(self, prefix: str) -> str:
        """Expand a unique fingerprint prefix (as the CLI accepts) to the full hash."""
        matches = [fp for fp in self.fingerprints() if fp.startswith(prefix)]
        if not matches:
            raise StoreError(f"no shard matches fingerprint prefix {prefix!r}")
        if len(matches) > 1:
            raise StoreError(
                f"fingerprint prefix {prefix!r} is ambiguous: "
                f"{[m[:12] for m in matches]}"
            )
        return matches[0]

    def gc(self, keep: "Iterable[Any] | None" = None) -> dict[str, int]:
        """Compact the store; optionally drop every workload not in ``keep``.

        With ``keep=None`` every shard is kept but rewritten without
        duplicate records and interrupted partial lines.  With ``keep`` (an
        iterable of specs, or fingerprint strings — unambiguous prefixes
        accepted, and an entry matching **no** shard raises rather than
        silently keeping nothing) the shards of all other workloads are
        deleted.  Rewrites are atomic (temp file + ``os.replace``), so a
        reader never observes a half-compacted shard, and the whole pass
        holds the store's write lock, so a concurrent writer's append can
        never land between a shard's read and its replacement (it waits, then
        appends to the compacted file).
        """
        stats = {
            "kept_shards": 0,
            "removed_shards": 0,
            "kept_records": 0,
            "dropped_records": 0,
        }
        with self._write_lock():
            # Drop any pre-lock view: the shards must be re-read while no
            # other writer can interleave.
            self.refresh()
            keep_fingerprints: "set[str] | None" = None
            if keep is not None:
                # Every keep entry — string (prefix allowed) or spec — must
                # match a shard that actually exists: a typo'd or
                # nothing-matching entry must never turn into "delete
                # everything".
                existing = set(self.fingerprints())
                keep_fingerprints = set()
                for entry in keep:
                    if isinstance(entry, str):
                        fingerprint = self.resolve_fingerprint(entry)
                    else:
                        fingerprint = self._key(entry)[0]
                        if fingerprint not in existing:
                            raise StoreError(
                                f"gc keep entry {fingerprint[:12]}... matches "
                                "no shard in this store; refusing to prune"
                            )
                    keep_fingerprints.add(fingerprint)
            for fingerprint in self.fingerprints():
                path = self._shard_path(fingerprint)
                shard = self._load(fingerprint)
                if keep_fingerprints is not None and fingerprint not in keep_fingerprints:
                    stats["removed_shards"] += 1
                    stats["dropped_records"] += shard.raw_records
                    path.unlink()
                    continue
                lines: list[str] = []
                if shard.spec is not None:
                    lines.append(self._spec_line(fingerprint, shard.spec))
                for (record_seed, trial), payload in sorted(shard.results.items()):
                    lines.append(
                        self._result_line(fingerprint, record_seed, trial, payload)
                    )
                for (record_seed, trial), payload in sorted(shard.summaries.items()):
                    if (record_seed, trial) in shard.results:
                        # Shadowed by the richer full record (identical by the
                        # conflict invariant): compacting drops the duplicate.
                        continue
                    lines.append(
                        self._summary_line(fingerprint, record_seed, trial, payload)
                    )
                temp_path = path.with_suffix(".jsonl.tmp")
                temp_path.write_text(
                    "".join(f"{line}\n" for line in lines), encoding="utf-8"
                )
                os.replace(temp_path, path)
                stats["kept_shards"] += 1
                stats["kept_records"] += len(lines)
                stats["dropped_records"] += max(0, shard.raw_records - len(lines))
        self.refresh()
        return stats

    # ------------------------------------------------------------------
    # Export / import
    # ------------------------------------------------------------------
    def export(
        self, path: "str | Path", fingerprints: "Iterable[str] | None" = None
    ) -> int:
        """Write the store (or selected fingerprints) as one portable JSONL file.

        The file carries the same record stream as the shards plus a format
        header; :meth:`import_file` (or :func:`load_snapshot`, or
        ``benchmarks/check_regression.py --store``) reads it back.  Returns
        the number of result records exported.
        """
        path = Path(path)
        selected = (
            self.fingerprints()
            if fingerprints is None
            else [self.resolve_fingerprint(fp) for fp in fingerprints]
        )
        lines = [self._encode({"kind": "header", "format": EXPORT_FORMAT})]
        exported = 0
        for fingerprint in selected:
            shard = self._load(fingerprint)
            if shard.spec is not None:
                lines.append(self._spec_line(fingerprint, shard.spec))
            for (record_seed, trial), payload in sorted(shard.results.items()):
                lines.append(self._result_line(fingerprint, record_seed, trial, payload))
                exported += 1
            for (record_seed, trial), payload in sorted(shard.summaries.items()):
                lines.append(self._summary_line(fingerprint, record_seed, trial, payload))
                exported += 1
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return exported

    def import_file(self, path: "str | Path") -> int:
        """Merge an export file into this store; returns how many records were new.

        New records are grouped by fingerprint and written with one append
        per shard (the same batching :meth:`put_many` uses), not one write
        per record.  An imported record that *diverges* from the locally
        stored payload for the same ``(fingerprint, seed, trial)`` raises
        :class:`StoreError`, exactly as :meth:`put_many` does — identical
        seeded trials must never differ, and a merge is not allowed to paper
        over two archives that disagree.
        """
        pending_specs: dict[str, dict[str, Any]] = {}
        pending_lines: dict[str, list[str]] = {}
        staged: dict[str, dict[tuple[int, int], dict[str, Any]]] = {}
        staged_summaries: dict[str, dict[tuple[int, int], dict[str, Any]]] = {}
        staged_specs: dict[str, dict[str, Any]] = {}

        def _conflict(record: StoreRecord) -> StoreError:
            return StoreError(
                f"import of {path} conflicts with store {self.root}: "
                f"different {record.kind} for {record.fingerprint[:12]}... "
                f"seed={record.seed} trial={record.trial} (the two "
                "archives were written by diverging simulation code)"
            )

        def _stage_spec(record: StoreRecord, shard: _Shard, lines: list[str]) -> None:
            if shard.spec is None and record.fingerprint not in staged_specs:
                spec_payload = pending_specs.get(record.fingerprint)
                if spec_payload is not None:
                    staged_specs[record.fingerprint] = spec_payload
                    lines.append(self._spec_line(record.fingerprint, spec_payload))

        for record in iter_records(path):
            if record.kind == "spec":
                pending_specs[record.fingerprint] = dict(record.payload)
                continue
            shard = self._load(record.fingerprint)
            key = (record.seed, record.trial)
            payload = dict(record.payload)
            if record.kind == "summary":
                full = shard.results.get(key)
                if full is None:
                    full = staged.get(record.fingerprint, {}).get(key)
                if full is not None:
                    # A local (or just-imported) full result covers this
                    # trial; the incoming summary must be its projection.
                    if _project_summary(full) != payload:
                        raise _conflict(record)
                    continue
                stored = shard.summaries.get(key)
                if stored is not None:
                    if stored != payload:
                        raise _conflict(record)
                    continue
                shard_staged = staged_summaries.setdefault(record.fingerprint, {})
                if key in shard_staged:
                    if shard_staged[key] != payload:
                        raise _conflict(record)
                    continue
                lines = pending_lines.setdefault(record.fingerprint, [])
                _stage_spec(record, shard, lines)
                shard_staged[key] = payload
                lines.append(
                    self._summary_line(record.fingerprint, record.seed, record.trial, payload)
                )
                continue
            stored = shard.results.get(key)
            if stored is not None:
                if stored != payload:
                    raise _conflict(record)
                continue
            summary = shard.summaries.get(key)
            if summary is None:
                summary = staged_summaries.get(record.fingerprint, {}).get(key)
            if summary is not None and summary != _project_summary(payload):
                raise _conflict(record)
            shard_staged = staged.setdefault(record.fingerprint, {})
            if key in shard_staged:
                continue
            lines = pending_lines.setdefault(record.fingerprint, [])
            _stage_spec(record, shard, lines)
            shard_staged[key] = payload
            lines.append(
                self._result_line(record.fingerprint, record.seed, record.trial, payload)
            )
        imported = sum(len(entries) for entries in staged.values()) + sum(
            len(entries) for entries in staged_summaries.values()
        )
        for fingerprint, lines in pending_lines.items():
            if not lines:
                continue
            # Disk first, memory second (see put_many).
            self._append(fingerprint, lines)
            shard = self._cache[fingerprint]
            shard.raw_records += len(lines)
            if fingerprint in staged_specs:
                shard.spec = staged_specs[fingerprint]
            shard.results.update(staged.get(fingerprint, {}))
            shard.summaries.update(staged_summaries.get(fingerprint, {}))
        self.puts += imported
        return imported
