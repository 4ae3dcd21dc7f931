"""Tests for DyARW, the dynamic ARW competitor."""

from __future__ import annotations

import pytest

from graph_helpers import erdos_renyi_graph

from repro.baselines.dyn_arw import DyARW
from repro.core.one_swap import DyOneSwap
from repro.core.verification import is_k_maximal_independent_set
from repro.generators.power_law import power_law_random_graph
from repro.updates.operations import UpdateOperation
from repro.updates.streams import mixed_update_stream


class TestBasics:
    def test_initial_solution_is_one_maximal(self, small_random_graph):
        algo = DyARW(small_random_graph)
        assert is_k_maximal_independent_set(small_random_graph, algo.solution(), 1)

    def test_k_is_pinned_to_one(self, path_graph):
        algo = DyARW(path_graph, k=4)
        assert algo.k == 1

    def test_simple_swap_detected(self, star_graph):
        algo = DyARW(star_graph, initial_solution=[0], stabilize=False)
        assert algo.solution() == {0}
        # Touching the hub's neighbourhood triggers the ordered scan.
        algo.apply_update(UpdateOperation.insert_vertex(99, [0]))
        assert 0 not in algo.solution()
        assert algo.solution_size >= 6


class TestGuarantees:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_maximality_over_random_streams(self, seed):
        graph = erdos_renyi_graph(60, 0.08, seed=seed)
        stream = mixed_update_stream(graph, 300, seed=seed + 11, edge_fraction=0.7)
        algo = DyARW(graph.copy(), check_invariants=True)
        algo.apply_stream(stream)
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 1)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_quality_matches_dyoneswap(self, seed):
        """The paper observes DyARW and DyOneSwap maintain near-identical sizes."""
        graph = power_law_random_graph(150, 2.2, seed=seed)
        stream = mixed_update_stream(graph, 500, seed=seed + 20)
        arw = DyARW(graph.copy())
        one_swap = DyOneSwap(graph.copy())
        arw.apply_stream(stream)
        one_swap.apply_stream(stream)
        assert abs(arw.solution_size - one_swap.solution_size) <= max(
            2, 0.02 * one_swap.solution_size
        )

    def test_statistics_recorded(self, small_power_law_graph):
        stream = mixed_update_stream(small_power_law_graph, 200, seed=8)
        algo = DyARW(small_power_law_graph.copy())
        algo.apply_stream(stream)
        assert algo.stats.updates_processed == len(stream)
        assert algo.memory_footprint() > 0
