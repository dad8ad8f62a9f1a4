"""Persistent, content-addressed storage of per-trial simulation results.

Every Monte Carlo quantity in this repository is an aggregate over
independent seeded trials, and every trial is fully determined by three
values: the workload (a :class:`~repro.scenarios.ScenarioSpec`, addressed by
:meth:`~repro.scenarios.ScenarioSpec.fingerprint`), the root seed the trial
streams derive from, and the trial index.  :class:`ResultStore` exploits that
determinism: it is an append-only, deduplicated archive of
``(fingerprint, seed, trial) -> RunResult`` records that the trial runner
(:meth:`~repro.scenarios.MaterializedScenario.measure`), and through it the
campaign runner (:func:`repro.campaigns.run_campaign`) and the CLI, read
**through** — only
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
compacts them away.  Writers do not lean on that read rule: ``put_many``,
``put_summaries`` and ``import_file`` admit records under one rule — a key
always holds the same result, and a summary is its full record's
projection — and a record that contradicts what its key holds, in the store
or earlier in the same call, raises :class:`~repro.errors.StoreError`
before anything is written.

Integrity
---------
A newline-terminated line that does not parse, is not a JSON object, has an
unknown ``kind`` or carries a fingerprint that contradicts its shard raises
:class:`~repro.errors.StoreError` naming the file and line.  A final
*unterminated* line is different: it is the signature of a writer killed
mid-append.  Every reader stops before it (a load counts it in
:attr:`ResultStore.last_load_dropped_partial`) and leaves the file as it
is, so a crashed sweep can always resume from its own store.  Reading never
modifies a file: the next append, under the write lock, truncates the
fragment just before it writes, so a new record never merges into it.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..core.results import RunResult, StoppingTimeStats
from ..errors import AnalysisError, ReproError, StoreError

__all__ = [
    "ResultStore",
    "Shard",
    "StoreRecord",
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


#: The two trial-record kinds; a record of either kind keeps its payload
#: under a field named after the kind.
TRIAL_KINDS = ("result", "summary")


@dataclass
class Shard:
    """One workload's records as every reader sees them: first record wins.

    ``spec`` is the workload's canonical JSON (``None`` without a spec
    record); ``results`` and ``summaries`` map ``(seed, trial)`` to the
    payload of each trial-record kind; ``raw_records`` counts the records
    behind the image, duplicates included.  A :class:`ResultStore` builds
    one per shard file it reads, and :func:`load_snapshot` returns them by
    fingerprint from a store directory or an export file alike.
    """

    fingerprint: str
    spec: dict[str, Any] | None = None
    results: dict[tuple[int, int], dict[str, Any]] = field(default_factory=dict)
    summaries: dict[tuple[int, int], dict[str, Any]] = field(default_factory=dict)
    raw_records: int = 0

    def bucket(self, kind: str) -> dict[tuple[int, int], dict[str, Any]]:
        """The ``(seed, trial) -> payload`` map of one trial-record kind."""
        return self.results if kind == "result" else self.summaries

    def add(self, record: StoreRecord) -> None:
        """Fold in one record read from a file; a key keeps its first record."""
        self.raw_records += 1
        if record.kind == "spec":
            if self.spec is None:
                self.spec = dict(record.payload)
        elif record.kind in TRIAL_KINDS:
            self.bucket(record.kind).setdefault(
                (record.seed, record.trial), dict(record.payload)
            )


def _parse_record(line: bytes, *, source: str, line_number: int) -> StoreRecord:
    """Parse one committed JSONL line into a :class:`StoreRecord`."""
    try:
        data = json.loads(line)
    except ValueError as error:  # bad JSON, or bytes that are not UTF-8
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
    if kind in TRIAL_KINDS:
        fingerprint = data.get("fingerprint")
        seed = data.get("seed")
        trial = data.get("trial")
        payload = data.get(kind)
        if (
            not isinstance(fingerprint, str)
            or not isinstance(seed, int)
            or not isinstance(trial, int)
            or not isinstance(payload, dict)
        ):
            raise StoreError(
                f"{source}:{line_number}: corrupt {kind} record (needs string "
                f"'fingerprint', integer 'seed' and 'trial', object '{kind}')"
            )
        return StoreRecord(
            kind=kind, fingerprint=fingerprint, seed=seed, trial=trial, payload=payload
        )
    raise StoreError(
        f"{source}:{line_number}: corrupt store record (unknown kind {kind!r})"
    )


def _read_records(
    path: Path,
    fingerprint: "str | None" = None,
    on_fragment: "Callable[[], None] | None" = None,
) -> Iterator[StoreRecord]:
    """The records of a shard or export file's committed lines, in file order.

    A line is committed once its newline is written.  A last line without
    one is a writer killed mid-append: reading stops there (calling
    ``on_fragment``) and the file is left as it is — only an append removes
    the fragment.  Given a shard's ``fingerprint``, a record that names
    another workload raises :class:`StoreError`.
    """
    source = str(path)
    try:
        handle = open(path, "rb")
    except OSError as error:
        raise StoreError(f"cannot read store file {path}: {error}") from None
    with handle:
        for number, line in enumerate(handle, start=1):
            if not line.endswith(b"\n"):
                if on_fragment is not None:
                    on_fragment()
                return
            if not line.strip():
                continue
            record = _parse_record(line, source=source, line_number=number)
            if fingerprint is not None and record.fingerprint != fingerprint:
                raise StoreError(
                    f"{path}: record fingerprint {record.fingerprint[:12]}... "
                    f"does not match its shard {fingerprint[:12]}..."
                )
            yield record


def iter_records(path: "str | Path") -> Iterator[StoreRecord]:
    """Iterate the records of one shard or export file (header lines skipped)."""
    for record in _read_records(Path(path)):
        if record.kind != "header":
            yield record


def load_snapshot(path: "str | Path") -> dict[str, Shard]:
    """The :class:`Shard` images of a store directory *or* an export file.

    Keyed by fingerprint.  A directory yields the shards a read-only
    :class:`ResultStore` loads, so it must actually be a store (carry a
    ``shards/`` subdirectory): a mistyped path pointing at some unrelated
    directory raises instead of reading as an empty store, against which
    ``store diff`` would always succeed.  An export file's records are
    folded into one shard per fingerprint by the same :meth:`Shard.add`.
    """
    path = Path(path)
    if path.is_dir():
        store = ResultStore(path, create=False)
        return {fp: store._load(fp) for fp in store.fingerprints()}
    shards: dict[str, Shard] = {}
    for record in iter_records(path):
        shards.setdefault(record.fingerprint, Shard(record.fingerprint)).add(record)
    return shards


def diff_snapshots(
    left: Mapping[str, Shard], right: Mapping[str, Shard]
) -> dict[str, Any]:
    """Compare two snapshots (see :func:`load_snapshot`) record-for-record.

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
    def _records(
        shards: Mapping[str, Shard],
    ) -> dict[str, dict[tuple[str, int, int], dict[str, Any]]]:
        return {
            fp: {
                (kind, seed, trial): payload
                for kind in TRIAL_KINDS
                for (seed, trial), payload in shard.bucket(kind).items()
            }
            for fp, shard in shards.items()
        }

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

    Reading never modifies a file; only an append or :meth:`gc` does.  The
    cache-hit counters (:attr:`hits`, :attr:`misses`, :attr:`puts`) are
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

    def __init__(self, root: "str | Path", *, create: bool = True) -> None:
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
        self._cache: dict[str, Shard] = {}
        self._lock_depth = 0

    @contextlib.contextmanager
    def _write_lock(self):
        """Serialise mutating operations across processes sharing this store.

        An advisory ``flock`` on ``<root>/.lock`` held around every append
        and ``gc`` rewrite: O_APPEND keeps individual writes whole on its
        own, but the lock is what makes the *compound* operations safe — an
        append's check-then-truncate of a half-written line cannot race a
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
            # impossible — proceed unlocked; _append then raises its own
            # StoreError when it cannot open the shard for writing.
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
    def _load(self, fingerprint: str) -> Shard:
        """The image of one shard, read on first access and cached.

        Like every reader, it leaves the file as it is: a half-written last
        line is skipped (counted in :attr:`last_load_dropped_partial`) and
        left for the next append to truncate.
        """
        shard = self._cache.get(fingerprint)
        if shard is not None:
            return shard
        shard = Shard(fingerprint)
        path = self._shard_path(fingerprint)
        if path.exists():
            for record in _read_records(path, fingerprint, self._count_fragment):
                shard.add(record)
        self._cache[fingerprint] = shard
        return shard

    def _count_fragment(self) -> None:
        self.last_load_dropped_partial += 1

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
        interchangeably, and **streams**: the shard file is read line by
        line without populating the cache, and only the scalar
        ``(rounds, completed)`` pair of each trial's first record is held,
        so aggregating a 10^5-trial summary shard costs O(trials) floats,
        not O(shard bytes) of decoded
        :class:`~repro.core.results.RunResult` objects.  A key's full record
        and summary agree by the admission rule, so whichever comes first
        gives the same pair.  The samples are assembled in trial-index
        order, as :func:`~repro.core.results.aggregate_results` does, so the
        statistics are bit-identical.

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
        path = self._shard_path(fingerprint)
        values: dict[int, tuple[float, bool]] = {}
        for record in _read_records(path, fingerprint) if path.exists() else ():
            if (
                record.kind in TRIAL_KINDS
                and record.seed == effective_seed
                and 0 <= record.trial < trials
                and record.trial not in values
            ):
                values[record.trial] = self._stopping_value(
                    str(path), (record.seed, record.trial), record.payload
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
    def _trial_line(
        cls,
        kind: str,
        fingerprint: str,
        seed: int,
        trial: int,
        payload: Mapping[str, Any],
    ) -> str:
        """The encoded ``result`` or ``summary`` record (one schema, every writer)."""
        return cls._encode(
            {
                "kind": kind,
                "fingerprint": fingerprint,
                "seed": int(seed),
                "trial": int(trial),
                kind: dict(payload),
            }
        )

    def _append(self, fingerprint: str, lines: list[str]) -> None:
        """Append whole lines in one O_APPEND write, under the write lock.

        The only code that modifies a shard's bytes, ``gc``'s rewrite aside:
        a half-written last line (a writer killed mid-append) is truncated
        away just before the write, whatever this instance's cached view
        says, so a new record never merges into it.
        """
        path = self._shard_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = "".join(f"{line}\n" for line in lines).encode("utf-8")
        with self._write_lock():
            try:
                descriptor = os.open(path, os.O_APPEND | os.O_CREAT | os.O_RDWR, 0o644)
                try:
                    size = os.fstat(descriptor).st_size
                    os.lseek(descriptor, max(size - 1, 0), os.SEEK_SET)
                    if os.read(descriptor, 1) not in (b"", b"\n"):
                        committed = path.read_bytes().rfind(b"\n", 0, size) + 1
                        # Without fcntl the lock does nothing: truncate only
                        # while no other writer has appended since the read.
                        if os.fstat(descriptor).st_size == size:
                            os.ftruncate(descriptor, committed)
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

        Admission follows the store's one rule (shared with
        :meth:`put_summaries` and :meth:`import_file`): a key already holding
        an **identical** result is skipped, and a key holding a *different*
        result, or a summary that is not this result's projection, raises
        :class:`StoreError`.  Same-keyed trials are deterministic, so a
        conflict means the simulation code changed underneath the archive.
        Concurrent writers may still race to append the same record; the
        first-record-wins read rule absorbs that.
        """
        payloads = {trial: result.to_dict() for trial, result in results_by_trial.items()}
        return self._put(spec, "result", payloads, seed)

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
        payloads carrying exactly the :data:`SUMMARY_KEYS`.  Admission is the
        rule :meth:`put_many` follows: a key already covered — by an
        identical summary, *or* by a full result whose projection matches —
        is skipped without writing, and any divergence raises
        :class:`StoreError`, so a ``fresh`` rerun through the summary path
        re-verifies the archive exactly like the full-record path does.
        """
        payloads: dict[int, dict[str, Any]] = {}
        for trial, value in sorted(summaries_by_trial.items()):
            if isinstance(value, RunResult):
                payloads[trial] = summarize_result(value)
                continue
            payload = {k: value[k] for k in sorted(value)}
            if tuple(payload) != SUMMARY_KEYS:
                raise StoreError(
                    f"a summary payload carries exactly {list(SUMMARY_KEYS)}; "
                    f"got keys {sorted(payload)} for trial {trial}"
                )
            payloads[trial] = payload
        return self._put(spec, "summary", payloads, seed)

    def _put(
        self,
        spec: Any,
        kind: str,
        payloads: Mapping[int, dict[str, Any]],
        seed: "int | None",
    ) -> int:
        """Admit one kind of trial record for one workload, then commit them."""
        fingerprint, resolved = self._key(spec)
        if resolved is None:
            raise StoreError(
                "put requires the full ScenarioSpec (shards are self-describing); "
                "got a bare fingerprint"
            )
        effective_seed = self._seed_for(resolved, seed)
        shard = self._load(fingerprint)
        admitted: dict[tuple[str, tuple[int, int]], dict[str, Any]] = {}
        for trial, payload in sorted(payloads.items()):
            key = (effective_seed, int(trial))
            if self._admit(shard, admitted, kind, key, payload) == "new":
                admitted[kind, key] = payload
        spec_payload = resolved.to_dict() if shard.spec is None else None
        return self._commit(shard, admitted, spec_payload)

    def _admit(
        self,
        shard: Shard,
        admitted: Mapping[tuple[str, tuple[int, int]], dict[str, Any]],
        kind: str,
        key: tuple[int, int],
        payload: Mapping[str, Any],
        *,
        origin: str = "put",
    ) -> str:
        """The store's one admission rule for an incoming trial record.

        ``admitted`` maps ``(kind, key)`` to the records the current call
        has already admitted to ``shard`` and not yet written.  A key may
        hold a full result and a summary, and the summary is the result's
        projection.  So the incoming record must equal a held record of its
        own kind, and agree with one of the other kind through that
        projection — whether the shard holds it or the call admitted it
        earlier.  Any disagreement raises :class:`StoreError`: refusing is
        what makes a ``fresh`` run a re-verification and keeps a stale
        archive from silently serving old numbers.  Otherwise the record is
        ``"covered"`` when the key already holds its kind or a full result,
        and ``"new"`` when it must be written.
        """
        covered = False
        for held_kind in TRIAL_KINDS:
            held = shard.bucket(held_kind).get(key)
            archived = held is not None
            if not archived:
                held = admitted.get((held_kind, key))
                if held is None:
                    continue
            if held_kind == kind:
                agrees = held == payload
            elif kind == "result":
                agrees = _project_summary(payload) == held
            else:
                agrees = _project_summary(held) == payload
            if not agrees:
                seed, trial = key
                where = "the store holds" if archived else "earlier in the same input"
                raise StoreError(
                    f"{origin} conflicts with store {self.root}: its {kind} for "
                    f"{shard.fingerprint[:12]}... seed={seed} trial={trial} "
                    f"differs from the {held_kind} {where}; same-keyed trials "
                    "are deterministic, so the workload's behaviour has changed "
                    "since it was archived, or the two records were written by "
                    "diverging simulation code — gc the shard (or point at a "
                    "new store) to re-archive"
                )
            covered = covered or held_kind in (kind, "result")
        return "covered" if covered else "new"

    def _commit(
        self,
        shard: Shard,
        admitted: Mapping[tuple[str, tuple[int, int]], dict[str, Any]],
        spec_payload: "dict[str, Any] | None",
    ) -> int:
        """Write one call's admitted records to their shard; returns how many.

        One append carries the spec header (when ``spec_payload`` is given)
        and every admitted record, in admission order.  Disk first, memory
        second: a failed append (read-only or full store) must not leave the
        cache claiming unpersisted records.
        """
        lines = [] if spec_payload is None else [
            self._spec_line(shard.fingerprint, spec_payload)
        ]
        lines += [
            self._trial_line(kind, shard.fingerprint, *key, payload)
            for (kind, key), payload in admitted.items()
        ]
        if lines:
            self._append(shard.fingerprint, lines)
            shard.raw_records += len(lines)
            if spec_payload is not None:
                shard.spec = spec_payload
            for (kind, key), payload in admitted.items():
                shard.bucket(kind)[key] = payload
        self.puts += len(admitted)
        return len(admitted)

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
        duplicate records, summaries that a full record shadows and
        interrupted partial lines.  With ``keep`` (an
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
                # Each summary a full record shadows (identical by the
                # admission rule) is a duplicate: compacting drops it.
                for key in shard.results.keys() & shard.summaries.keys():
                    del shard.summaries[key]
                lines = self._shard_lines(shard)
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

    def _shard_lines(self, shard: Shard) -> list[str]:
        """A shard's compact record stream: spec, results, then summaries, by key."""
        lines = [] if shard.spec is None else [
            self._spec_line(shard.fingerprint, shard.spec)
        ]
        for kind in TRIAL_KINDS:
            lines += [
                self._trial_line(kind, shard.fingerprint, *key, payload)
                for key, payload in sorted(shard.bucket(kind).items())
            ]
        return lines

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
        the number of trial records (results and summaries) exported.
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
            lines += self._shard_lines(shard)
            exported += len(shard.results) + len(shard.summaries)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return exported

    def import_file(self, path: "str | Path") -> int:
        """Merge an export file into this store; returns how many records were new.

        Every record of the file passes the admission rule :meth:`put_many`
        and :meth:`put_summaries` apply, checked against the local store
        *and* against the records admitted earlier from the same file.  So a
        record that diverges from the local payload for its
        ``(fingerprint, seed, trial)``, or from another record for that key
        in the file itself, raises :class:`StoreError` before anything is
        written — identical seeded trials must never differ, and a merge is
        not allowed to paper over two archives that disagree.  New records
        are then written with one append per shard, led by the file's spec
        header when the shard has none.
        """
        origin = f"import of {path}"
        specs: dict[str, dict[str, Any]] = {}
        batches: dict[str, dict[tuple[str, tuple[int, int]], dict[str, Any]]] = {}
        for record in iter_records(path):
            if record.kind == "spec":
                specs.setdefault(record.fingerprint, dict(record.payload))
                continue
            shard = self._load(record.fingerprint)
            admitted = batches.setdefault(record.fingerprint, {})
            key = (record.seed, record.trial)
            payload = dict(record.payload)
            verdict = self._admit(
                shard, admitted, record.kind, key, payload, origin=origin
            )
            if verdict == "new":
                admitted[record.kind, key] = payload
        imported = 0
        for fingerprint, admitted in batches.items():
            shard = self._load(fingerprint)
            spec_payload = specs.get(fingerprint) if admitted and shard.spec is None else None
            imported += self._commit(shard, admitted, spec_payload)
        return imported
