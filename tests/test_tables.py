"""Tests for the table-reproduction harness (Tables I-IV)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from graph_helpers import erdos_renyi_graph

from repro.core.verification import is_independent_set
from repro.experiments.datasets import QUICK_PROFILE
from repro.experiments.runner import PAPER_ALGORITHMS
from repro.experiments.tables import (
    compute_initial_solution,
    table1_dataset_statistics,
    table2_easy_quality,
    table3_many_updates,
    table4_hard_quality,
)
from repro.generators.datasets import dataset_names
from repro.generators.power_law import power_law_random_graph


#: A deliberately tiny profile so the table harness runs in seconds in CI.
TINY_PROFILE = replace(
    QUICK_PROFILE,
    name="tiny",
    easy_vertices=250,
    hard_vertices=300,
    updates_small=250,
    updates_large=600,
    easy_datasets=("Email", "Epinions"),
    hard_datasets=("soc-pokec",),
    reference_node_budget=4_000,
    arw_iterations=2,
    time_limit_seconds=30.0,
    plr_vertices=250,
)


class TestTable1:
    def test_rows_cover_profile_datasets(self):
        rows = table1_dataset_statistics(TINY_PROFILE)
        assert {row["dataset"] for row in rows} == {"Email", "Epinions", "soc-pokec"}
        for row in rows:
            assert row["repro_n"] in (TINY_PROFILE.easy_vertices, TINY_PROFILE.hard_vertices)
            assert row["scale_factor"] > 1

    def test_explicit_dataset_selection(self):
        rows = table1_dataset_statistics(TINY_PROFILE, datasets=["Email"])
        assert len(rows) == 1

    def test_rows_cover_every_dataset(self):
        rows = table1_dataset_statistics(TINY_PROFILE, datasets=dataset_names())
        assert [row["dataset"] for row in rows] == dataset_names()
        for row in rows:
            assert row["repro_n"] in (TINY_PROFILE.easy_vertices, TINY_PROFILE.hard_vertices)
            assert row["scale_factor"] > 1
            assert row["paper_n"] > row["repro_n"]


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return table2_easy_quality(TINY_PROFILE)

    def test_one_row_per_dataset(self, rows):
        assert [row["dataset"] for row in rows] == ["Email", "Epinions"]

    def test_every_algorithm_has_gap_and_accuracy(self, rows):
        for row in rows:
            for algorithm in PAPER_ALGORITHMS:
                assert f"{algorithm}_gap" in row
                assert f"{algorithm}_acc" in row
                accuracy = row[f"{algorithm}_acc"]
                assert accuracy is None or 0 < accuracy <= 1.0001

    def test_perturbation_columns_present(self, rows):
        for row in rows:
            assert "DyOneSwap_gap*" in row
            assert "DyTwoSwap_gap*" in row

    def test_reference_recorded(self, rows):
        for row in rows:
            assert row["reference"] > 0
            assert row["reference_kind"] in ("exact", "best-known")
            assert row["initial_solution"] in ("exact", "arw")

    def test_paper_shape_dytwoswap_is_most_accurate(self, rows):
        for row in rows:
            two = row["DyTwoSwap_acc"]
            assert two is not None
            for other in ("DGOneDIS", "DGTwoDIS", "DyOneSwap", "DyARW"):
                value = row[f"{other}_acc"]
                if value is not None:
                    assert two >= value - 0.02


class TestTable3:
    def test_uses_large_update_count(self):
        rows = table3_many_updates(TINY_PROFILE, datasets=["Email"])
        assert len(rows) == 1
        assert rows[0]["updates"] == TINY_PROFILE.updates_large


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        return table4_hard_quality(TINY_PROFILE)

    def test_one_row_per_hard_dataset(self, rows):
        assert [row["dataset"] for row in rows] == ["soc-pokec"]

    def test_best_result_reference(self, rows):
        for row in rows:
            assert row["best_result"] > 0
            assert row["initial_solution"] == "arw"

    def test_gap_columns_for_every_algorithm(self, rows):
        for row in rows:
            for algorithm in PAPER_ALGORITHMS:
                assert f"{algorithm}_gap" in row


class TestInitialSolution:
    def test_exact_preferred_when_feasible(self):
        graph = erdos_renyi_graph(40, 0.1, seed=1)
        solution, source = compute_initial_solution(graph, prefer="exact", node_budget=100_000)
        assert source == "exact"
        assert is_independent_set(graph, solution)

    def test_falls_back_to_arw(self):
        graph = erdos_renyi_graph(150, 0.3, seed=2)
        solution, source = compute_initial_solution(
            graph, prefer="exact", node_budget=2, arw_iterations=2
        )
        assert source == "arw"
        assert is_independent_set(graph, solution)

    def test_arw_requested_directly(self):
        graph = power_law_random_graph(100, 2.3, seed=3)
        solution, source = compute_initial_solution(graph, prefer="arw", arw_iterations=2)
        assert source == "arw"
        assert is_independent_set(graph, solution)
