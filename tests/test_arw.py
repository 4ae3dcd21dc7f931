"""Tests for the static ARW (1,2)-swap local search."""

from __future__ import annotations

from repro.baselines.arw import ArwLocalSearch, arw_best_result
from repro.baselines.exact import exact_independence_number
from repro.baselines.greedy import static_degree_greedy
from repro.core.verification import (
    is_k_maximal_independent_set,
    is_maximal_independent_set,
)
from repro.generators.power_law import power_law_random_graph
from repro.generators.random_graphs import erdos_renyi_graph
from repro.graphs.dynamic_graph import DynamicGraph


class TestBasics:
    def test_result_is_maximal(self, small_random_graph):
        result = ArwLocalSearch(max_iterations=5, seed=1).run(small_random_graph)
        assert is_maximal_independent_set(small_random_graph, result.solution)
        assert result.iterations == 5

    def test_result_admits_no_one_swap(self, small_power_law_graph):
        result = ArwLocalSearch(max_iterations=3, seed=2).run(small_power_law_graph)
        assert is_k_maximal_independent_set(small_power_law_graph, result.solution, 1)

    def test_star_graph_finds_optimum(self, star_graph):
        solution = arw_best_result(star_graph, max_iterations=2, seed=1)
        assert solution == {1, 2, 3, 4, 5, 6}

    def test_empty_graph(self):
        result = ArwLocalSearch(max_iterations=1, seed=0).run(DynamicGraph())
        assert result.solution == set()

    def test_accepts_initial_solution(self, cycle_graph):
        result = ArwLocalSearch(max_iterations=2, seed=3).run(
            cycle_graph, initial_solution={0}
        )
        assert is_maximal_independent_set(cycle_graph, result.solution)
        assert len(result.solution) == 3

    def test_deterministic_with_seed(self, small_random_graph):
        a = arw_best_result(small_random_graph, max_iterations=5, seed=9)
        b = arw_best_result(small_random_graph, max_iterations=5, seed=9)
        assert a == b


class TestQuality:
    def test_improves_over_static_greedy(self):
        graph = power_law_random_graph(250, 2.0, seed=4)
        greedy_size = len(static_degree_greedy(graph))
        arw_size = len(arw_best_result(graph, max_iterations=15, seed=4))
        assert arw_size >= greedy_size

    def test_close_to_optimum_on_small_graphs(self):
        for seed in range(3):
            graph = erdos_renyi_graph(40, 0.15, seed=seed)
            alpha = exact_independence_number(graph)
            arw_size = len(arw_best_result(graph, max_iterations=25, seed=seed))
            assert arw_size >= alpha - 1

    def test_more_iterations_never_hurt(self, small_power_law_graph):
        short = len(arw_best_result(small_power_law_graph, max_iterations=2, seed=6))
        long = len(arw_best_result(small_power_law_graph, max_iterations=20, seed=6))
        assert long >= short
