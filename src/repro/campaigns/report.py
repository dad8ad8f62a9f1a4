"""Self-documenting campaign reports: Markdown and static HTML.

A report is the durable face of a campaign run.  It embeds everything needed
to audit and regenerate the numbers it shows:

* the campaign spec itself (canonical JSON — feed it back through
  ``python -m repro campaign run --file``),
* one row per unit with its workload, cache verdict (``cached`` /
  ``computed`` / ``partial``) and measured statistics,
* the store cache statistics (trials read back vs newly simulated),
* every declared artifact — regenerated paper tables, CSV extracts,
  rank-evolution curves and asymptotic log-log fits (inline SVG in the
  HTML report), and
* per-unit wall-clock timings and peak-RSS high-water marks.

Determinism contract
--------------------
Everything above the :data:`TIMINGS_MARKER` line — the *report body* — is a
pure function of the campaign spec and the store contents: a fully-cached
re-run renders a byte-identical body (``tests/test_campaigns_resume.py``
asserts this).  Only the timings section below the marker carries wall-clock
values.  :func:`report_body` strips a rendered report back to its body.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..analysis.tables import format_table
from ..errors import AnalysisError, CampaignError
from .runner import ArtifactResult, CampaignResult
from .spec import artifact_slug as _artifact_slug

__all__ = [
    "TIMINGS_MARKER",
    "render_markdown",
    "render_html",
    "render_text_summary",
    "report_body",
    "write_report",
]

#: Separator between the deterministic report body and the wall-clock
#: timings section.  Present verbatim in both the Markdown and HTML output.
TIMINGS_MARKER = "<!-- repro-campaign: timings below (non-deterministic) -->"


def report_body(rendered: str) -> str:
    """The deterministic part of a rendered report (above the timings marker)."""
    return rendered.split(TIMINGS_MARKER, 1)[0]


def format_markdown_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render rows (dicts sharing the same keys) as a GitHub-flavoured Markdown table."""
    if not rows:
        raise AnalysisError("format_markdown_table requires at least one row")
    headers = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != headers:
            raise AnalysisError("all rows must share the same columns, in the same order")
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(row[header]) for header in headers) + " |")
    return "\n".join(lines)


def _regenerate_command(result: CampaignResult) -> str:
    """The command that reproduces this report.

    Registered campaigns regenerate by name; a campaign that came from a
    file (or was registered only in the producing process) is addressed via
    ``--file`` against the spec embedded at the bottom of the report —
    ``campaign run <unregistered-name>`` would exit with an unknown-name
    error.
    """
    from .registry import CAMPAIGNS

    campaign = result.campaign
    if CAMPAIGNS.get(campaign.name) == campaign:
        return (
            f"python -m repro campaign run {campaign.name} "
            f"--store {result.store_root}"
        )
    return (
        "python -m repro campaign run --file <this report's embedded "
        f"campaign spec, saved as JSON> --store {result.store_root}"
    )


def _unit_rows(result: CampaignResult) -> list[dict[str, Any]]:
    """The per-unit summary table shared by both renderers."""
    rows = []
    for outcome in result.outcomes:
        rows.append(
            {
                "unit": outcome.unit.name,
                "workload": outcome.unit.scenario or outcome.spec.name or "(inline)",
                "fingerprint": outcome.fingerprint[:12],
                "n": outcome.n,
                "k": outcome.k,
                "trials": outcome.trials,
                "seed": outcome.seed,
                "status": outcome.status,
                "cached": outcome.cached_trials,
                "computed": outcome.computed_trials,
                "mean_rounds": round(outcome.stats.mean, 2),
                "p95_rounds": round(outcome.stats.whp, 2),
            }
        )
    return rows


def _cache_lines(result: CampaignResult) -> list[str]:
    """The cache-statistics bullet list (deterministic)."""
    return [
        f"result store: `{result.store_root}`",
        f"trial plan: {result.total_trials} trial(s) across "
        f"{len(result.outcomes)} unit(s)",
        f"served from cache: {result.cached_trials} trial(s)",
        f"newly computed and archived: {result.computed_trials} trial(s) "
        f"(store puts: {result.store_puts})",
    ]


def _override_lines(result: CampaignResult) -> list[str]:
    lines = []
    if result.trials_override is not None:
        lines.append(f"campaign-wide trials override: {result.trials_override}")
    if result.seed_override is not None:
        lines.append(f"campaign-wide seed override: {result.seed_override}")
    return lines


def _timing_rows(result: CampaignResult) -> list[dict[str, Any]]:
    rows = [
        {
            "unit": outcome.unit.name,
            "status": outcome.status,
            "seconds": round(outcome.seconds, 3),
            # Process-lifetime high-water mark at unit completion (rusage):
            # cumulative, so the largest decade's row is the run's budget.
            "peak_rss_mib": (
                "-"
                if outcome.peak_rss_mib is None
                else round(outcome.peak_rss_mib, 1)
            ),
        }
        for outcome in result.outcomes
    ]
    rows.append(
        {
            "unit": "TOTAL",
            "status": "-",
            "seconds": round(result.seconds, 3),
            "peak_rss_mib": rows[-1]["peak_rss_mib"] if rows else "-",
        }
    )
    return rows


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def render_markdown(result: CampaignResult) -> str:
    """The full Markdown report: deterministic body, marker, timings."""
    campaign = result.campaign
    parts: list[str] = [f"# Campaign report: {campaign.title or campaign.name}", ""]
    if campaign.description:
        parts += [campaign.description, ""]
    parts += [
        f"Regenerate with `{_regenerate_command(result)}` — a fully cached "
        "re-run simulates nothing and renders this body byte-for-byte.",
        "",
        "## Units",
        "",
        format_markdown_table(_unit_rows(result)),
        "",
        "## Cache statistics",
        "",
    ]
    parts += [f"- {line}" for line in _cache_lines(result) + _override_lines(result)]
    parts.append("")
    for artifact_result in result.artifacts:
        parts += _markdown_artifact(artifact_result)
    parts += [
        "## Campaign spec",
        "",
        "The exact campaign this report documents "
        "(`python -m repro campaign run --file <saved.json>` re-runs it):",
        "",
        "```json",
        campaign.to_json(),
        "```",
        "",
        TIMINGS_MARKER,
        "",
        "## Execution timings (wall clock)",
        "",
        format_markdown_table(_timing_rows(result)),
        "",
    ]
    return "\n".join(parts)


def _markdown_artifact(artifact_result: ArtifactResult) -> list[str]:
    artifact = artifact_result.artifact
    parts = [f"## {artifact.label}", ""]
    if artifact_result.rows:
        parts += [format_markdown_table(list(artifact_result.rows)), ""]
    if (
        artifact.kind in ("csv", "rank-evolution", "asymptotic-fit")
        and artifact_result.csv
    ):
        slug = _artifact_slug(artifact.label)
        parts += [
            f"CSV extract written alongside this report as `{slug}.csv` "
            f"({artifact_result.csv.count(chr(10)) - 1} data row(s)).",
            "",
        ]
    if artifact_result.curves:
        for name, points in artifact_result.curves:
            if not points:
                continue
            final = points[-1]
            if artifact.kind == "asymptotic-fit":
                parts.append(
                    f"- {name} (log-log curve in the HTML report / CSV extract)"
                )
            else:
                parts.append(
                    f"- `{name}`: min rank reaches {final[1]:.0f} at round "
                    f"{final[0]:.0f} (curve in the HTML report / CSV extract)"
                )
        parts.append("")
    return parts


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       padding: 0 1rem; color: #1a1a1a; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: 1rem 0; font-size: .9rem; }
th, td { border: 1px solid #bbb; padding: .3rem .6rem; text-align: left; }
th { background: #f0f0f0; }
td.num { text-align: right; }
code, pre { background: #f6f6f6; }
pre { padding: .8rem; overflow-x: auto; border: 1px solid #ddd; }
.status-cached { color: #11691e; font-weight: 600; }
.status-computed { color: #8a4b00; font-weight: 600; }
.status-partial { color: #00568a; font-weight: 600; }
svg.curve { border: 1px solid #ddd; background: #fcfcfc; margin: .5rem 0; }
""".strip()


def _html_table(rows: Sequence[Mapping[str, Any]]) -> str:
    if not rows:
        return "<p>(empty)</p>"
    headers = list(rows[0].keys())
    out = ["<table>", "<tr>" + "".join(f"<th>{html.escape(h)}</th>" for h in headers) + "</tr>"]
    for row in rows:
        cells = []
        for header in headers:
            value = row[header]
            css = ' class="num"' if isinstance(value, (int, float)) else ""
            if header == "status":
                css = f' class="status-{html.escape(str(value))}"'
            cells.append(f"<td{css}>{html.escape(str(value))}</td>")
        out.append("<tr>" + "".join(cells) + "</tr>")
    out.append("</table>")
    return "\n".join(out)


def _svg_curve(
    name: str, points: Sequence[tuple[float, float, float, float]]
) -> str:
    """A dependency-free inline SVG of one rank-evolution curve.

    Three polylines (min / median / max rank per round) on a fixed 560x220
    canvas; coordinates are rounded to 2 decimals so the markup is
    deterministic across runs.
    """
    if not points:
        return ""
    width, height, pad = 560.0, 220.0, 30.0
    max_round = max(point[0] for point in points) or 1.0
    max_rank = max(point[3] for point in points) or 1.0

    def coords(series_index: int) -> str:
        return " ".join(
            f"{pad + (point[0] / max_round) * (width - 2 * pad):.2f},"
            f"{height - pad - (point[series_index] / max_rank) * (height - 2 * pad):.2f}"
            for point in points
        )

    series = [
        ("min rank", "#b2182b", 1),
        ("median rank", "#5b5b5b", 2),
        ("max rank", "#2166ac", 3),
    ]
    lines = [
        f'<svg class="curve" viewBox="0 0 {width:.0f} {height:.0f}" '
        f'width="{width:.0f}" height="{height:.0f}" role="img" '
        f'aria-label="rank evolution of {html.escape(name)}">',
        f'<text x="{pad:.0f}" y="16" font-size="12">'
        f"{html.escape(name)} — decoder rank per round (max {max_rank:.0f}, "
        f"{max_round:.0f} rounds)</text>",
        f'<line x1="{pad:.0f}" y1="{height - pad:.0f}" x2="{width - pad:.0f}" '
        f'y2="{height - pad:.0f}" stroke="#999"/>',
        f'<line x1="{pad:.0f}" y1="{pad:.0f}" x2="{pad:.0f}" '
        f'y2="{height - pad:.0f}" stroke="#999"/>',
    ]
    for label, color, series_index in series:
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords(series_index)}"><title>{label}</title></polyline>'
        )
    for offset, (label, color, _) in enumerate(series):
        lines.append(
            f'<text x="{width - pad - 150:.0f}" y="{pad + 14 * offset:.0f}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def _svg_loglog(
    name: str, points: Sequence[tuple[float, float, float, float]]
) -> str:
    """A dependency-free inline SVG of one asymptotic log-log curve.

    Points are ``(log10 n, log10 mean, log10 fitted, log10 p95)`` (see the
    ``asymptotic-fit`` builder); the measured mean is drawn with point
    markers, the fitted power law as a line through them, the p95 curve
    dimly above.  The fitted slope and its CI ride in ``name``.  Same
    determinism contract as :func:`_svg_curve`: fixed canvas, coordinates
    rounded to 2 decimals.
    """
    if not points:
        return ""
    width, height, pad = 560.0, 220.0, 30.0
    xs = [point[0] for point in points]
    ys = [value for point in points for value in point[1:]]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def x_at(value: float) -> float:
        return pad + ((value - x_lo) / x_span) * (width - 2 * pad)

    def y_at(value: float) -> float:
        return height - pad - ((value - y_lo) / y_span) * (height - 2 * pad)

    def coords(series_index: int) -> str:
        return " ".join(
            f"{x_at(point[0]):.2f},{y_at(point[series_index]):.2f}"
            for point in points
        )

    lines = [
        f'<svg class="curve" viewBox="0 0 {width:.0f} {height:.0f}" '
        f'width="{width:.0f}" height="{height:.0f}" role="img" '
        f'aria-label="log-log stopping time of {html.escape(name)}">',
        f'<text x="{pad:.0f}" y="16" font-size="12">'
        f"{html.escape(name)}</text>",
        f'<text x="{pad:.0f}" y="{height - 8:.0f}" font-size="11" fill="#555">'
        f"log10 n: {x_lo:.1f} … {x_hi:.1f}; log10 rounds: "
        f"{y_lo:.1f} … {y_hi:.1f}</text>",
        f'<line x1="{pad:.0f}" y1="{height - pad:.0f}" x2="{width - pad:.0f}" '
        f'y2="{height - pad:.0f}" stroke="#999"/>',
        f'<line x1="{pad:.0f}" y1="{pad:.0f}" x2="{pad:.0f}" '
        f'y2="{height - pad:.0f}" stroke="#999"/>',
        f'<polyline fill="none" stroke="#bbb" stroke-width="1" '
        f'stroke-dasharray="4 3" points="{coords(3)}">'
        "<title>p95 (measured)</title></polyline>",
        f'<polyline fill="none" stroke="#2166ac" stroke-width="1.5" '
        f'points="{coords(2)}"><title>fitted power law</title></polyline>',
        f'<polyline fill="none" stroke="#b2182b" stroke-width="1.5" '
        f'points="{coords(1)}"><title>mean (measured)</title></polyline>',
    ]
    for point in points:
        lines.append(
            f'<circle cx="{x_at(point[0]):.2f}" cy="{y_at(point[1]):.2f}" '
            'r="3" fill="#b2182b"/>'
        )
    for offset, (label, color) in enumerate(
        (("mean (measured)", "#b2182b"), ("fit", "#2166ac"), ("p95", "#999"))
    ):
        lines.append(
            f'<text x="{width - pad - 150:.0f}" y="{pad + 14 * offset:.0f}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def render_html(result: CampaignResult) -> str:
    """The full static-HTML report: deterministic body, marker, timings."""
    campaign = result.campaign
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>Campaign report: {html.escape(campaign.title or campaign.name)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>Campaign report: {html.escape(campaign.title or campaign.name)}</h1>",
    ]
    if campaign.description:
        parts.append(f"<p>{html.escape(campaign.description)}</p>")
    parts += [
        f"<p>Regenerate with <code>{html.escape(_regenerate_command(result))}"
        "</code> — a fully cached re-run simulates nothing and renders this "
        "body byte-for-byte.</p>",
        "<h2>Units</h2>",
        _html_table(_unit_rows(result)),
        "<h2>Cache statistics</h2>",
        "<ul>",
    ]
    for line in _cache_lines(result) + _override_lines(result):
        parts.append(f"<li>{html.escape(line).replace('`', '')}</li>")
    parts.append("</ul>")
    for artifact_result in result.artifacts:
        artifact = artifact_result.artifact
        parts.append(f"<h2>{html.escape(artifact.label)}</h2>")
        if artifact_result.rows:
            parts.append(_html_table(list(artifact_result.rows)))
        if (
            artifact.kind in ("csv", "rank-evolution", "asymptotic-fit")
            and artifact_result.csv
        ):
            slug = _artifact_slug(artifact.label)
            parts.append(
                f"<p>CSV extract: <a href=\"{html.escape(slug)}.csv\">"
                f"{html.escape(slug)}.csv</a></p>"
            )
        curve_renderer = (
            _svg_loglog if artifact.kind == "asymptotic-fit" else _svg_curve
        )
        for name, points in artifact_result.curves:
            parts.append(curve_renderer(name, points))
    parts += [
        "<h2>Campaign spec</h2>",
        "<p>The exact campaign this report documents "
        "(<code>python -m repro campaign run --file &lt;saved.json&gt;</code> "
        "re-runs it):</p>",
        f"<pre>{html.escape(campaign.to_json())}</pre>",
        TIMINGS_MARKER,
        "<h2>Execution timings (wall clock)</h2>",
        _html_table(_timing_rows(result)),
        "</body></html>",
        "",
    ]
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_report(
    result: CampaignResult,
    directory: "str | Path",
    *,
    formats: Sequence[str] = ("md", "html"),
) -> dict[str, Path]:
    """Write ``report.md`` / ``report.html`` plus CSV side files.

    Returns a mapping from output kind (``"md"``, ``"html"``, or the CSV
    slug) to the written path.  Side files are deterministic, so a cached
    re-run rewrites every file byte-identically.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    renderers = {"md": render_markdown, "html": render_html}
    unknown = [fmt for fmt in formats if fmt not in renderers]
    if unknown:
        raise CampaignError(
            f"unknown report format(s) {unknown}; known: {sorted(renderers)}"
        )
    written: dict[str, Path] = {}
    for fmt in formats:
        path = directory / f"report.{fmt}"
        path.write_text(renderers[fmt](result), encoding="utf-8")
        written[fmt] = path
    slugs: set[str] = set()
    for artifact_result in result.artifacts:
        if not artifact_result.csv:
            continue
        slug = _artifact_slug(artifact_result.artifact.label)
        if slug in slugs:
            raise CampaignError(
                f"two CSV-producing artifacts share the slug {slug!r}; "
                "give them distinct titles"
            )
        slugs.add(slug)
        path = directory / f"{slug}.csv"
        path.write_text(artifact_result.csv, encoding="utf-8")
        written[slug] = path
    return written


def render_text_summary(result: CampaignResult) -> str:
    """A terminal-friendly summary (the CLI prints this after a run)."""
    lines = [
        format_table(
            _unit_rows(result),
            title=f"Campaign {result.campaign.name!r} — "
            f"{len(result.outcomes)} unit(s)",
        ),
        "",
        f"campaign: {result.cached_trials} trial(s) read from cache, "
        f"{result.computed_trials} newly computed and saved "
        f"({result.store_root})",
    ]
    return "\n".join(lines)
