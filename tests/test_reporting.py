"""Tests for the plain-text reporting helpers."""

from __future__ import annotations

from repro.experiments.reporting import format_table


class TestFormatTable:
    def test_basic_rendering(self):
        rows = [
            {"dataset": "Email", "accuracy": 0.99, "gap": 3},
            {"dataset": "Epinions", "accuracy": 0.97, "gap": 12},
        ]
        text = format_table(rows, title="Table II")
        assert "Table II" in text
        assert "Email" in text
        assert "0.9900" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, separator, two rows

    def test_missing_cells_rendered_as_dash(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "-" in text

    def test_column_order_override(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_boolean_rendering(self):
        text = format_table([{"finished": True}, {"finished": False}])
        assert "yes" in text and "no" in text

    def test_empty_rows(self):
        text = format_table([])
        assert text == "\n"  # header and separator lines are empty
