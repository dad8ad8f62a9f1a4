"""Layer tracing for the benchmark, installed from outside the program.

The tracer wraps public functions of each layer by patching the name where
the caller looks it up: a class attribute for methods, the calling module's
global for functions imported by name.  Nothing under ``src/`` knows it is
being traced, and :meth:`Tracer.uninstall` restores every original.

Two kinds of wrapper keep a run of millions of calls small:

* **hot** calls (wakeup/partner draws, coefficient draws, encode,
  eliminate) only bump an in-memory counter ``[calls, ns, rows, helpful,
  full_before]`` keyed by ``(name, parent)``;
* **coarse** calls (graph builds, engine construction and runs, store
  reads/writes, report rendering) also append one span record ``(id, op,
  name, parent, start, duration)``, where ``op`` names the benchmark
  operation (one cold unit or one cached rerun) the span belongs to.

Both kinds push onto one name stack, so a nested call knows its parent and a
layer's self time is its total minus the time of the traced calls made
inside it.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Any, Callable

_NS = time.perf_counter_ns

#: Per-timeslot layers: hot calls made inside an engine's run loop.
SLOT_LAYERS = ("engine.wakeup", "gf.coef_draw", "gf.encode", "gf.eliminate")
_LOOP_PARENTS = frozenset(("engine.run",) + SLOT_LAYERS)


class Tracer:
    """Counters and spans of one traced run; see the module docstring."""

    def __init__(self) -> None:
        self.counters: dict[tuple[str, str], list[int]] = {}
        self.spans: list[dict[str, Any]] = []
        self.stack: list[str] = ["root"]
        self._span_ids: list[int] = [0]
        self.op = "setup"
        self.timeslots = 0
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _count(self, name: str, parent: str, ns: int, rows: int = 0,
               helpful: int = 0, full: int = 0) -> None:
        entry = self.counters.get((name, parent))
        if entry is None:
            entry = self.counters[(name, parent)] = [0, 0, 0, 0, 0]
        entry[0] += 1
        entry[1] += ns
        entry[2] += rows
        entry[3] += helpful
        entry[4] += full

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        """Record one coarse span around the block (benchmark-side calls)."""
        record = self._open(name, attrs)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str, attrs: dict[str, Any]) -> dict[str, Any]:
        record = {
            "id": len(self.spans) + 1,
            "op": self.op,
            "name": name,
            "parent": self._span_ids[-1],
            "parent_name": self.stack[-1],
            **attrs,
        }
        self.spans.append(record)
        self.stack.append(name)
        self._span_ids.append(record["id"])
        record["start_ns"] = _NS()
        return record

    def _close(self, record: dict[str, Any]) -> None:
        duration = _NS() - record["start_ns"]
        record["ns"] = duration
        self.stack.pop()
        self._span_ids.pop()
        self._count(record["name"], record["parent_name"], duration)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapper)

    def hot(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a per-event call with a counter only."""
        original = getattr(owner, attr)
        stack, count = self.stack, self._count

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stack.append(name)
            start = _NS()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = _NS() - start
                stack.pop()
                count(name, parent, elapsed)

        self._patch(owner, attr, wrapper)

    def eliminate(self, owner: Any, attr: str, single: bool) -> None:
        """Wrap an eliminator entry point, counting rows and their outcome.

        ``full_before`` counts rows whose receiver already had full rank: the
        work an engine could skip without changing any result.  The rank
        lookups happen outside the timed interval.
        """
        original = getattr(owner, attr)
        stack, count = self.stack, self._count
        name = "gf.eliminate"

        def wrapper(state, first, *args, **kwargs):
            parent = stack[-1]
            if single:
                rows = 1
                full = int(state.ranks[first] == state.pivot_limit)
            else:
                indices = args[0] if args else kwargs.get("indices")
                rows = len(first)
                ranks = state.ranks[:rows] if indices is None else state.ranks[indices]
                full = int((ranks == state.pivot_limit).sum())
            stack.append(name)
            start = _NS()
            try:
                result = original(state, first, *args, **kwargs)
            finally:
                elapsed = _NS() - start
                stack.pop()
            helpful = int(result) if single else int(result.sum())
            count(name, parent, elapsed, rows, helpful, full)
            return result

        self._patch(owner, attr, wrapper)

    def coarse(self, owner: Any, attr: str, name: str,
               measure: "Callable[[Any, tuple, dict], dict] | None" = None) -> None:
        """Wrap a coarse call; ``measure(result, args, kwargs)`` adds attributes."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer._open(name, {})
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(record)
            if measure is not None:
                record.update(measure(result, args, kwargs))
            return result

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Derived per-layer numbers
    # ------------------------------------------------------------------
    def _sum(self, field: int, name: str, parents: "frozenset[str] | None") -> int:
        return sum(
            value[field]
            for (key, parent), value in self.counters.items()
            if key == name and (parents is None or parent in parents)
        )

    def self_ns(self, name: str, parents: "frozenset[str] | None" = None) -> int:
        """Time in ``name`` minus the time of traced calls made inside it."""
        children = sum(
            value[1] for (_, parent), value in self.counters.items() if parent == name
        )
        return self._sum(1, name, parents) - children

    def _spans(self, name: str) -> list[dict[str, Any]]:
        # A span nested in one of its own name (an engine constructing another
        # engine, say) is already inside the outer one's duration.
        return [
            span for span in self.spans
            if span["name"] == name and span["parent_name"] != name
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of one traced unit: its cold run and cached rerun."""
        slots = max(self.timeslots, 1)
        per_slot = {
            layer: self.self_ns(layer, _LOOP_PARENTS) / slots / 1e3
            for layer in SLOT_LAYERS
        }
        eliminations = self._sum(0, "gf.eliminate", _LOOP_PARENTS)
        rows = self._sum(2, "gf.eliminate", _LOOP_PARENTS)
        helpful = self._sum(3, "gf.eliminate", _LOOP_PARENTS)
        full = self._sum(4, "gf.eliminate", _LOOP_PARENTS)

        def spans(name: str, key: str = "") -> tuple[int, int, int]:
            chosen = self._spans(name)
            return (
                len(chosen),
                sum(span["ns"] for span in chosen),
                sum(span.get(key, 0) for span in chosen) if key else 0,
            )

        inits, init_ns, _ = spans("engine.init")
        run_ns = sum(
            span["ns"] for span in self._spans("engine.run") if span["op"].endswith("-cold")
        )
        _, put_ns, put_records = spans("store.put", "records")
        gets, get_ns, _ = spans("store.get")
        _, aggregate_ns, aggregate_records = spans("store.aggregate", "records")
        _, render_ns, _ = spans("report.render")
        return {
            "engine.init_ms": init_ns / max(inits, 1) / 1e6,
            "engine.wakeup_us": per_slot["engine.wakeup"],
            "gf.coef_draw_us": per_slot["gf.coef_draw"],
            "gf.encode_us": per_slot["gf.encode"],
            "gf.eliminate_us": per_slot["gf.eliminate"],
            # The run loop minus every traced call made inside it.
            "engine.loop_self_us": self.self_ns("engine.run") / slots / 1e3,
            "engine.run_s": run_ns / 1e9,
            "engine.deliveries_per_slot": rows / slots,
            "engine.helpful_ratio": helpful / max(rows, 1),
            "engine.full_rank_share": full / max(rows, 1),
            "gf.rows_per_eliminate": rows / max(eliminations, 1),
            "store.put_us": put_ns / max(put_records, 1) / 1e3,
            "store.get_us": get_ns / max(gets, 1) / 1e3,
            "store.aggregate_us": aggregate_ns / max(aggregate_records, 1) / 1e3,
            "store.records": put_records,
            "report.render_s": render_ns / 1e9,
        }

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        """Write counters and spans (plus ``extra``) as one JSON document."""
        payload = {
            **extra,
            "timeslots": self.timeslots,
            "counters": [
                {"name": name, "parent": parent, "calls": value[0], "ns": value[1],
                 "rows": value[2], "helpful": value[3], "full_before": value[4]}
                for (name, parent), value in sorted(self.counters.items())
            ],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))


class NullTracer:
    """Stand-in for untraced runs: a span is one no-op context manager."""

    op = "setup"

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        yield attrs


def _timeslots(result: Any) -> int:
    if isinstance(result, list):
        return sum(item.timeslots for item in result)
    return result.timeslots


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> Tracer:
    """Patch every traced layer boundary; returns ``tracer``."""
    from repro.backends.gf2bit import PackedGf2Eliminator
    from repro.campaigns import runner as campaign_runner
    from repro.gf.field import GaloisField
    from repro.gf.linalg import BatchEliminator
    from repro.gossip.batch import BatchEngineCore, BatchGossipEngine
    from repro.gossip.batch_tag import BatchSpanningTreeEngine, BatchTagEngine
    from repro.gossip.communication import PartnerSelector
    from repro.gossip.dynamics import NodeDynamics
    from repro.gossip.engine import GossipEngine
    from repro.gossip.event import EventGossipEngine
    from repro.scenarios import spec as scenario_spec
    from repro.store import ResultStore

    # graphs: the topology builders, at the modules that call them by name.
    for module, attr in (
        (scenario_spec, "build_topology"),
        (scenario_spec, "build_csr_topology"),
        (campaign_runner, "build_topology"),
    ):
        tracer.coarse(module, attr, "graphs.build")

    # gossip engines: construction (with decoder seeding) and the run loop.
    for engine in (EventGossipEngine, BatchGossipEngine, BatchTagEngine,
                   BatchSpanningTreeEngine, GossipEngine):
        tracer.coarse(engine, "__init__", "engine.init")

    def count_slots(result: Any, args: tuple, kwargs: dict) -> dict:
        # Only the outermost run counts, so no timeslot is counted twice.
        if "engine.run" not in tracer.stack:
            tracer.timeslots += _timeslots(result)
        return {}

    for engine in (EventGossipEngine, BatchEngineCore, GossipEngine):
        tracer.coarse(engine, "run", "engine.run", count_slots)

    # per-event hot calls
    tracer.hot(NodeDynamics, "choose_wakeup", "engine.wakeup")
    for selector in _subclasses(PartnerSelector):
        if "partner" in vars(selector):
            tracer.hot(selector, "partner", "engine.wakeup")
    tracer.hot(GaloisField, "random_elements", "gf.coef_draw")
    for eliminator in (BatchEliminator, PackedGf2Eliminator):
        tracer.hot(eliminator, "combine", "gf.encode")
        tracer.hot(eliminator, "combine_one", "gf.encode")
        tracer.eliminate(eliminator, "eliminate", single=False)
        tracer.eliminate(eliminator, "eliminate_one", single=True)

    # store: writes, reads and streaming aggregation, per record.
    def written(result: Any, args: tuple, kwargs: dict) -> dict:
        return {"records": len(args[2])}

    tracer.coarse(ResultStore, "put_many", "store.put", written)
    tracer.coarse(ResultStore, "put_summaries", "store.put", written)
    tracer.coarse(ResultStore, "get", "store.get")
    tracer.coarse(
        ResultStore, "aggregate", "store.aggregate",
        lambda result, args, kwargs: {"records": len(result.samples)},
    )
    return tracer
