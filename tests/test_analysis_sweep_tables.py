"""Tests for the Table 1 / Table 2 generators and the text-table renderer."""

from __future__ import annotations

import pytest

from repro.analysis import format_table, table1_rows, table2_rows
from repro.errors import AnalysisError
from repro.graphs import complete_graph, ring_graph


class TestTable1:
    def test_rows_cover_all_protocols(self):
        graphs = {"ring": ring_graph(16), "complete": complete_graph(16)}
        rows = table1_rows(16, 8, graphs=graphs)
        protocols = {row["protocol"] for row in rows}
        assert {"Uniform AG", "TAG", "TAG + B_RR", "TAG + IS"} <= protocols
        # The constant-degree ring earns an order-optimal Θ(k + D) row.
        assert any(row["bound"] == "Θ(k + D)" for row in rows)
        for row in rows:
            assert row["bound_value"] >= row["lower_bound_value"]

    def test_requires_at_least_one_graph(self):
        with pytest.raises(AnalysisError):
            table1_rows(16, 8, graphs={})


class TestTable2:
    def test_rows_families_and_improvement(self):
        rows = table2_rows(64, 64)
        assert [row["graph"] for row in rows] == ["line", "grid", "binary_tree"]
        for row in rows:
            assert row["our_bound"] > 0
            assert row["haeupler_bound"] > 0
            # Our bound should not lose to Haeupler's on these three families
            # (that is the entire point of Table 2).
            assert row["improvement_factor"] >= 0.8

    def test_improvement_factor_grows_with_n_on_the_line(self):
        small = table2_rows(32, 32)[0]["improvement_factor"]
        large = table2_rows(128, 128)[0]["improvement_factor"]
        assert large > small

    def test_minimum_size(self):
        with pytest.raises(AnalysisError):
            table2_rows(4, 4)


class TestFormatTable:
    def test_renders_headers_and_rows(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_mismatched_columns_rejected(self):
        with pytest.raises(AnalysisError):
            format_table([{"a": 1}, {"b": 2}])
        with pytest.raises(AnalysisError):
            format_table([])
