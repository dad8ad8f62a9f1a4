"""Generators for the paper's Table 1 and Table 2.

The paper's evaluation artefacts are two tables:

* **Table 1** — the overview of the main results: for each (protocol, graph
  family, time model) the proven bound, with the order-optimal entries marked.
  :func:`table1_rows` reproduces the table's *analytic* content for concrete
  ``(n, k)`` values, and the benchmark harness augments each row with the
  measured stopping time of the corresponding simulation.
* **Table 2** — the comparison against Haeupler's bound
  ``O(k/γ + log²n / λ)`` on the line, the grid and the binary tree, with the
  improvement factor of this paper's bound ``O((k + log n + D) Δ)``.
  :func:`table2_rows` evaluates both expressions on real graphs (measuring
  ``γ`` and ``λ`` from the graph itself) and reports the ratio.

Both functions return plain lists of dictionaries so benchmarks, tests and
campaign reports can render them however they like; :func:`format_table`
renders rows as a fixed-width text table.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Sequence

from ..errors import AnalysisError
from ..graphs.csr import CSRGraph
from ..graphs.properties import (
    diameter as graph_diameter,
)
from ..graphs.properties import (
    max_degree as graph_max_degree,
)
from ..graphs.properties import (
    min_cut_gamma,
    spectral_gap,
)
from ..graphs.topologies import binary_tree_graph, grid_graph, line_graph
from .bounds import (
    constant_degree_upper_bound,
    haeupler_upper_bound,
    k_dissemination_lower_bound,
    tag_upper_bound,
    tag_with_brr_upper_bound,
    tag_with_is_upper_bound,
    uniform_ag_upper_bound,
)

__all__ = ["table1_rows", "table2_rows", "measured_rows", "format_table", "rows_to_csv"]


def measured_rows(
    specs: Sequence[Any],
    *,
    trials: int | None = None,
    seed: int | None = None,
    jobs: int | None = None,
    store: Any = None,
    fresh: bool = False,
) -> list[dict[str, Any]]:
    """Measured stopping-time rows for a set of scenarios, read through the store.

    The companion of the analytic :func:`table1_rows` / :func:`table2_rows`:
    each entry of ``specs`` (a :class:`~repro.scenarios.ScenarioSpec` or a
    registered scenario name) is simulated for its Monte Carlo plan — or for
    the overriding ``trials``/``seed`` — and reported as one row with the
    mean/p95 stopping time.  With a :class:`~repro.store.ResultStore`, every
    already-cached ``(fingerprint, seed, trial)`` record is reused, so adding
    one new topology to a table re-simulates only that topology's trials.
    """
    # Imported lazily: the scenario layer sits above repro.analysis in the
    # dependency stack, so a top-level import would be circular.
    from ..scenarios.registry import get_scenario

    rows: list[dict[str, Any]] = []
    for entry in specs:
        spec = get_scenario(entry) if isinstance(entry, str) else entry
        scenario = spec.materialize()
        stats = scenario.run(
            trials=trials, seed=seed, jobs=jobs, store=store, fresh=fresh
        )
        rows.append(
            {
                "label": scenario.label,
                "n": scenario.n,
                "k": scenario.k,
                "trials": stats.trials,
                "mean_rounds": round(stats.mean, 2),
                "p95_rounds": round(stats.whp, 2),
            }
        )
    return rows


def table1_rows(
    n: int,
    k: int,
    *,
    graphs: Mapping[str, CSRGraph],
    tree_diameter: int | None = None,
    tree_time: float | None = None,
    weak_conductance_value: float = 0.5,
    weak_conductance_c: float = 2.0,
) -> list[dict[str, Any]]:
    """Analytic reproduction of Table 1 for concrete ``n`` and ``k``.

    ``graphs`` maps a family name (``"any"`` entries use the first graph) to a
    concrete graph so that ``D`` and ``Δ`` can be measured rather than quoted.
    ``tree_diameter`` / ``tree_time`` parameterise the generic TAG row (they
    default to the measured BFS-tree diameter and a ``3n`` broadcast time).
    """
    if not graphs:
        raise AnalysisError("table1_rows requires at least one graph")
    first = next(iter(graphs.values()))
    d_s = tree_diameter if tree_diameter is not None else graph_diameter(first)
    t_s = tree_time if tree_time is not None else 3.0 * n
    rows: list[dict[str, Any]] = []
    for name, graph in graphs.items():
        diameter_value = graph_diameter(graph)
        delta = graph_max_degree(graph)
        rows.append(
            {
                "protocol": "Uniform AG",
                "graph": name,
                "bound": "O((k + log n + D) Δ)",
                "bound_value": round(uniform_ag_upper_bound(n, k, diameter_value, delta), 1),
                "lower_bound_value": round(
                    k_dissemination_lower_bound(k, diameter_value, synchronous=True), 1
                ),
                "order_optimal": delta <= 8,
            }
        )
        if delta <= 8:
            rows.append(
                {
                    "protocol": "Uniform AG",
                    "graph": f"{name} (constant Δ)",
                    "bound": "Θ(k + D)",
                    "bound_value": round(constant_degree_upper_bound(k, diameter_value), 1),
                    "lower_bound_value": round(
                        k_dissemination_lower_bound(k, diameter_value, synchronous=True), 1
                    ),
                    "order_optimal": True,
                }
            )
    rows.append(
        {
            "protocol": "TAG",
            "graph": "any graph",
            "bound": "O(k + log n + d(S) + t(S))",
            "bound_value": round(tag_upper_bound(n, k, d_s, t_s), 1),
            "lower_bound_value": round(k / 2.0, 1),
            "order_optimal": False,
        }
    )
    rows.append(
        {
            "protocol": "TAG + B_RR",
            "graph": "any graph, k = Ω(n)",
            "bound": "Θ(n)",
            "bound_value": round(tag_with_brr_upper_bound(n, k), 1),
            "lower_bound_value": round(max(k, n) / 2.0, 1),
            "order_optimal": True,
        }
    )
    rows.append(
        {
            "protocol": "TAG + IS",
            "graph": "large weak conductance, k = Ω(polylog n)",
            "bound": "Θ(k)",
            "bound_value": round(
                tag_with_is_upper_bound(n, k, weak_conductance_c, weak_conductance_value), 1
            ),
            "lower_bound_value": round(k / 2.0, 1),
            "order_optimal": True,
        }
    )
    return rows


_TABLE2_FAMILIES: dict[str, Callable[[int], CSRGraph]] = {
    "line": line_graph,
    "grid": grid_graph,
    "binary_tree": binary_tree_graph,
}


def table2_rows(n: int, k: int) -> list[dict[str, Any]]:
    """Reproduce Table 2: this paper's bound versus Haeupler's on three families.

    For every family the graph parameters (``D``, ``Δ``, ``γ``, ``λ``) are
    *measured on the constructed graph*, the two bound expressions are
    evaluated, and the improvement factor (Haeupler / here) is reported.  The
    paper's asymptotic improvement factors (``log² n`` for the line and grid,
    ``Ω(n log n / k)`` for the binary tree) appear as the expected column.
    """
    if n < 8:
        raise AnalysisError(f"table2_rows needs n >= 8, got {n}")
    rows: list[dict[str, Any]] = []
    for name, builder in _TABLE2_FAMILIES.items():
        graph = builder(n)
        actual_n = graph.number_of_nodes()
        diameter_value = graph_diameter(graph)
        delta = graph_max_degree(graph)
        gamma = min_cut_gamma(graph)
        lam = spectral_gap(graph)
        ours = uniform_ag_upper_bound(actual_n, k, diameter_value, delta)
        haeupler = haeupler_upper_bound(k, gamma, lam, actual_n)
        if name in ("line", "grid"):
            expected = math.log(actual_n) ** 2
        else:
            expected = actual_n * math.log(actual_n) / k
        rows.append(
            {
                "graph": name,
                "n": actual_n,
                "k": k,
                "D": diameter_value,
                "max_degree": delta,
                "gamma": round(gamma, 6),
                "lambda": round(lam, 6),
                "haeupler_bound": round(haeupler, 1),
                "our_bound": round(ours, 1),
                "improvement_factor": round(haeupler / ours, 2),
                "paper_expected_factor": round(expected, 2),
            }
        )
    return rows


def rows_to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render table rows (dicts sharing the same keys) as an RFC-4180 CSV string.

    The campaign report's CSV extracts go through here: deterministic column
    order (the rows' own key order), ``\\n`` line endings, quoting only where
    needed — so a re-rendered extract of cached results is byte-identical.

    >>> rows_to_csv([{"n": 8, "mean": 12.5}, {"n": 16, "mean": 30.0}])
    'n,mean\\n8,12.5\\n16,30.0\\n'
    """
    if not rows:
        raise AnalysisError("rows_to_csv requires at least one row")
    headers = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != headers:
            raise AnalysisError("all rows must share the same columns, in the same order")

    def cell(value: Any) -> str:
        text = str(value)
        if any(ch in text for ch in (",", '"', "\n")):
            escaped = text.replace('"', '""')
            return f'"{escaped}"'
        return text

    lines = [",".join(cell(header) for header in headers)]
    lines.extend(",".join(cell(row[header]) for header in headers) for row in rows)
    return "\n".join(lines) + "\n"


def format_table(rows: Sequence[Mapping[str, Any]], *, title: str | None = None) -> str:
    """Render rows (list of dicts sharing keys) as a fixed-width text table."""
    if not rows:
        raise AnalysisError("format_table requires at least one row")
    headers = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != headers:
            raise AnalysisError("all rows must share the same columns, in the same order")
    columns = {header: [str(row[header]) for row in rows] for header in headers}
    widths = {
        header: max(len(header), *(len(value) for value in values))
        for header, values in columns.items()
    }
    lines: list[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(header.ljust(widths[header]) for header in headers)
    lines.append(header_line)
    lines.append("-+-".join("-" * widths[header] for header in headers))
    for row in rows:
        lines.append(
            " | ".join(str(row[header]).ljust(widths[header]) for header in headers)
        )
    return "\n".join(lines)
