"""Declarative experiment campaigns: named sets of scenario sweeps + artifacts.

A *campaign* is the unit of paper reproduction: where a
:class:`~repro.scenarios.ScenarioSpec` describes one workload, a
:class:`CampaignSpec` names a coordinated set of them — the sweeps behind
Table 1, Table 2, the Theorem 2/5 experiments, or the whole paper — together
with the derived artifacts (tables, CSV extracts, rank-evolution curves) its
report should carry.

A campaign is pure data: JSON/TOML-round-trippable, validated at
construction, executable by :func:`repro.campaigns.run_campaign`.  Execution
compiles the units into a DAG (declaration order refined by explicit
``after`` dependencies), runs every unit *through* a
:class:`~repro.store.ResultStore` — so interrupted campaigns resume and
repeated campaigns simulate nothing — and renders a self-documenting
Markdown + HTML report (:mod:`repro.campaigns.report`).

Campaign files
--------------
``python -m repro campaign run --file my.toml`` accepts TOML (preferred for
hand-written files) or JSON (the exact :meth:`CampaignSpec.to_dict` shape)::

    name = "my-campaign"
    title = "Uniform AG on two topologies"

    [[units]]
    name = "line"
    scenario = "uniform/line"     # a registered scenario name...
    trials = 8                    # ...with optional plan overrides

    [[units]]
    name = "adhoc-ring"
    after = ["line"]              # DAG edge: runs after "line"
    [units.spec]                  # ...or an inline ScenarioSpec document
    topology = "ring"
    n = 16
    k = 8

    [[artifacts]]
    kind = "measured-table"
    title = "Stopping times"
    units = ["line", "adhoc-ring"]

Doctest — the round trip every campaign file relies on:

>>> from repro.campaigns import CampaignSpec
>>> campaign = CampaignSpec.from_dict({
...     "name": "demo",
...     "units": [{"name": "ring", "spec": {"topology": "ring", "n": 8}}],
...     "artifacts": [{"kind": "measured-table", "units": ["ring"]}],
... })
>>> CampaignSpec.from_dict(campaign.to_dict()) == campaign
True
>>> campaign.units[0].resolve().topology
'ring'
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping

from ..errors import CampaignError
from ..scenarios.registry import get_scenario
from ..scenarios.spec import ScenarioSpec

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactSpec",
    "CampaignUnit",
    "CampaignSpec",
    "artifact_slug",
    "load_campaign_file",
]

#: Artifact kinds a campaign can declare (see :mod:`repro.campaigns.report`):
#:
#: ``measured-table``
#:     One row per named unit with its measured stopping-time statistics;
#:     ``params={"bounds": ["theorem1", ...]}`` adds each named analytic
#:     bound and ``ratio(<bound>)`` = p95 / bound.
#: ``table1-analytic`` / ``table2-analytic``
#:     The paper's analytic tables, evaluated at the artifact's ``n``/``k``
#:     params (:func:`repro.analysis.table1_rows` / ``table2_rows``).
#: ``csv``
#:     Per-trial CSV extract (unit, trial, rounds, timeslots, ...) of the
#:     named units, written next to the report.
#: ``rank-evolution``
#:     Per-round min/median/max decoder-rank curve of each named unit's
#:     trial 0 (uniform/tag protocols only), as CSV plus an inline SVG plot
#:     in the HTML report.
#: ``asymptotic-fit``
#:     Stopping-time exponent fits over decade sweeps
#:     (:func:`repro.analysis.fit_decades`): units are grouped by their
#:     ``group`` label into families, each family's per-size stopping times
#:     are fitted to ``T(n) = c·n^a`` with a bootstrap CI, and the report
#:     carries one fit row per family, a per-decade CSV extract and a
#:     log-log SVG plot with the fitted slope annotated.
ARTIFACT_KINDS = (
    "measured-table",
    "table1-analytic",
    "table2-analytic",
    "csv",
    "rank-evolution",
    "asymptotic-fit",
)


def artifact_slug(label: str) -> str:
    """A filesystem-safe slug for an artifact's CSV side file.

    >>> artifact_slug("Per-trial stopping times")
    'per-trial-stopping-times'
    """
    cleaned = "".join(ch.lower() if ch.isalnum() else "-" for ch in label)
    while "--" in cleaned:
        cleaned = cleaned.replace("--", "-")
    return cleaned.strip("-") or "artifact"


def _as_params(value: Any) -> tuple[tuple[str, Any], ...]:
    """Normalise a params mapping/sequence to a sorted hashable tuple."""
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = [tuple(pair) for pair in value]
    normalised = []
    for key, item in sorted(items):
        if isinstance(item, list):
            item = tuple(item)
        normalised.append((str(key), item))
    return tuple(normalised)


@dataclass(frozen=True)
class CampaignUnit:
    """One sweep unit of a campaign: a scenario plus its Monte Carlo plan.

    Exactly one of ``scenario`` (a registered scenario name) or ``spec`` (an
    inline :class:`~repro.scenarios.ScenarioSpec`) identifies the workload;
    ``trials`` / ``seed`` override the scenario's own plan when given.
    ``after`` names units that must execute first (the campaign DAG);
    ``group`` is a free-form label artifacts and reports can select on.
    ``record`` picks what the store archives per trial: ``""`` (the default)
    keeps full :class:`~repro.core.results.RunResult` records, ``"summary"``
    streams only the stopping-time projection
    (:func:`repro.store.summarize_result`) — the constant-size record path
    large asymptotic sweeps need.
    """

    name: str
    scenario: str = ""
    spec: "ScenarioSpec | None" = None
    trials: "int | None" = None
    seed: "int | None" = None
    group: str = ""
    after: tuple[str, ...] = ()
    record: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("a campaign unit needs a non-empty name")
        if bool(self.scenario) == (self.spec is not None):
            raise CampaignError(
                f"unit {self.name!r} must give exactly one of 'scenario' "
                "(a registered name) or 'spec' (an inline scenario document)"
            )
        if self.trials is not None and self.trials < 1:
            raise CampaignError(
                f"unit {self.name!r}: trials must be positive, got {self.trials}"
            )
        if self.record not in ("", "summary"):
            raise CampaignError(
                f"unit {self.name!r}: record must be '' (full results) or "
                f"'summary' (streaming stopping-time records), got {self.record!r}"
            )
        object.__setattr__(self, "after", tuple(self.after))

    def resolve(
        self, *, trials: "int | None" = None, seed: "int | None" = None
    ) -> ScenarioSpec:
        """The concrete :class:`~repro.scenarios.ScenarioSpec` this unit runs.

        Precedence for the Monte Carlo plan: the call's ``trials``/``seed``
        (a campaign-wide override, e.g. the CLI's smoke-scale ``--trials 2``)
        beats the unit's own override, which beats the scenario's plan.
        """
        spec = get_scenario(self.scenario) if self.scenario else self.spec
        changes: dict[str, Any] = {}
        effective_trials = trials if trials is not None else self.trials
        effective_seed = seed if seed is not None else self.seed
        if effective_trials is not None:
            changes["trials"] = effective_trials
        if effective_seed is not None:
            changes["seed"] = effective_seed
        return spec.replace(**changes) if changes else spec

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        data: dict[str, Any] = {"name": self.name}
        if self.scenario:
            data["scenario"] = self.scenario
        if self.spec is not None:
            data["spec"] = self.spec.to_dict()
        for key in ("trials", "seed"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.group:
            data["group"] = self.group
        if self.after:
            data["after"] = list(self.after)
        if self.record:
            data["record"] = self.record
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignUnit":
        """Rebuild a unit from :meth:`to_dict` output (extra keys rejected)."""
        known = {unit_field.name for unit_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise CampaignError(
                f"unknown campaign unit fields {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        if "spec" in kwargs and isinstance(kwargs["spec"], Mapping):
            kwargs["spec"] = ScenarioSpec.from_dict(kwargs["spec"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ArtifactSpec:
    """One derived output of a campaign report (see :data:`ARTIFACT_KINDS`).

    ``units`` names the units the artifact covers (empty = every unit, in
    execution order); ``params`` holds kind-specific settings (e.g. ``n``,
    ``k`` and ``topologies`` for the analytic tables).
    """

    kind: str
    title: str = ""
    units: tuple[str, ...] = ()
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise CampaignError(
                f"unknown artifact kind {self.kind!r}; known: {sorted(ARTIFACT_KINDS)}"
            )
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "params", _as_params(self.params))

    @property
    def label(self) -> str:
        """The heading the report uses (title, or a kind-derived default)."""
        return self.title or self.kind

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        data: dict[str, Any] = {"kind": self.kind}
        if self.title:
            data["title"] = self.title
        if self.units:
            data["units"] = list(self.units)
        if self.params:
            data["params"] = {
                key: list(item) if isinstance(item, tuple) else item
                for key, item in self.params
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArtifactSpec":
        """Rebuild an artifact spec from :meth:`to_dict` output."""
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise CampaignError(
                f"unknown artifact fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class CampaignSpec:
    """A named, declarative set of scenario sweeps plus report artifacts.

    Validated eagerly: unit names must be unique, ``after`` edges and
    artifact unit references must name existing units, and (for units
    referencing registered scenarios) the scenario must resolve.  The DAG is
    checked for cycles by :meth:`execution_order`.
    """

    name: str
    title: str = ""
    description: str = ""
    units: tuple[CampaignUnit, ...] = ()
    artifacts: tuple[ArtifactSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("a campaign needs a non-empty name")
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "artifacts", tuple(self.artifacts))
        if not self.units:
            raise CampaignError(f"campaign {self.name!r} declares no units")
        names = [unit.name for unit in self.units]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise CampaignError(
                f"campaign {self.name!r} has duplicate unit names: {duplicates}"
            )
        known = set(names)
        for unit in self.units:
            missing = [dep for dep in unit.after if dep not in known]
            if missing:
                raise CampaignError(
                    f"campaign {self.name!r} unit {unit.name!r} depends on "
                    f"unknown unit(s) {missing}"
                )
            if unit.scenario:
                # Eager resolution: a campaign naming an unregistered
                # scenario must fail when the campaign is built (with the
                # registry's did-you-mean message), not mid-execution.
                try:
                    get_scenario(unit.scenario)
                except Exception as error:
                    raise CampaignError(
                        f"campaign {self.name!r} unit {unit.name!r}: {error}"
                    ) from None
        slugs: dict[str, str] = {}
        for artifact in self.artifacts:
            missing = [ref for ref in artifact.units if ref not in known]
            if missing:
                raise CampaignError(
                    f"campaign {self.name!r} artifact {artifact.label!r} "
                    f"references unknown unit(s) {missing}"
                )
            if artifact.kind in ("csv", "rank-evolution", "asymptotic-fit"):
                # These artifacts write `<slug>.csv` next to the report, so
                # their labels must slug uniquely — checked here, at load
                # time, not after the whole campaign has executed.
                slug = artifact_slug(artifact.label)
                if slug in slugs:
                    raise CampaignError(
                        f"campaign {self.name!r}: artifacts "
                        f"{slugs[slug]!r} and {artifact.label!r} would both "
                        f"write {slug}.csv; give them distinct titles"
                    )
                slugs[slug] = artifact.label
        # The execution order doubles as the cycle check; computing it here
        # makes an unrunnable campaign fail at construction, not at run time.
        self.execution_order()

    def unit(self, name: str) -> CampaignUnit:
        """Look a unit up by name."""
        for unit in self.units:
            if unit.name == name:
                return unit
        raise CampaignError(f"campaign {self.name!r} has no unit {name!r}")

    def execution_order(self) -> list[CampaignUnit]:
        """Topological order of the unit DAG, stable in declaration order.

        Kahn's algorithm over the ``after`` edges; ties resolve to the order
        units were declared in, so a campaign without dependencies executes
        exactly as written.  A cycle raises :class:`CampaignError`.
        """
        remaining = {unit.name: set(unit.after) for unit in self.units}
        by_name = {unit.name: unit for unit in self.units}
        order: list[CampaignUnit] = []
        done: set[str] = set()
        while remaining:
            ready = [
                unit.name
                for unit in self.units
                if unit.name in remaining and not (remaining[unit.name] - done)
            ]
            if not ready:
                cycle = sorted(remaining)
                raise CampaignError(
                    f"campaign {self.name!r} has a dependency cycle among "
                    f"unit(s) {cycle}"
                )
            for name in ready:
                order.append(by_name[name])
                done.add(name)
                del remaining[name]
        return order

    def resolved_specs(
        self, *, trials: "int | None" = None, seed: "int | None" = None
    ) -> "dict[str, ScenarioSpec]":
        """Unit name → concrete scenario spec, in execution order."""
        return {
            unit.name: unit.resolve(trials=trials, seed=seed)
            for unit in self.execution_order()
        }

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        data: dict[str, Any] = {"name": self.name}
        if self.title:
            data["title"] = self.title
        if self.description:
            data["description"] = self.description
        data["units"] = [unit.to_dict() for unit in self.units]
        if self.artifacts:
            data["artifacts"] = [artifact.to_dict() for artifact in self.artifacts]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_dict` output (extra keys rejected)."""
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise CampaignError(
                f"unknown campaign fields {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        kwargs["units"] = tuple(
            CampaignUnit.from_dict(unit) if isinstance(unit, Mapping) else unit
            for unit in kwargs.get("units", ())
        )
        kwargs["artifacts"] = tuple(
            ArtifactSpec.from_dict(artifact) if isinstance(artifact, Mapping) else artifact
            for artifact in kwargs.get("artifacts", ())
        )
        return cls(**kwargs)

    def to_json(self, *, indent: "int | None" = 2) -> str:
        """Serialise to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_json` output."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise CampaignError("a campaign JSON document must be an object")
        return cls.from_dict(data)

    def replace(self, **changes: Any) -> "CampaignSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def load_campaign_file(path: "str | Path") -> CampaignSpec:
    """Load a campaign from a ``.toml`` or ``.json`` file.

    The suffix picks the parser (anything other than ``.toml`` is treated as
    JSON — the :meth:`CampaignSpec.to_json` shape); both decode to the same
    :meth:`CampaignSpec.from_dict` document.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise CampaignError(f"cannot read campaign file {path}: {error}") from None
    if path.suffix.lower() == ".toml":
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as error:
            raise CampaignError(f"{path} is not valid TOML: {error}") from None
    else:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CampaignError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise CampaignError(f"{path} must hold a campaign object/table at top level")
    return CampaignSpec.from_dict(data)
