"""Tests for the greedy construction heuristics."""

from __future__ import annotations

import pytest

from repro.baselines.exact import exact_independence_number
from repro.baselines.greedy import (
    extend_to_maximal,
    min_degree_greedy,
    randomized_greedy,
    static_degree_greedy,
)
from repro.core.verification import is_maximal_independent_set
from repro.generators.power_law import power_law_random_graph
from repro.generators.random_graphs import erdos_renyi_graph, gnm_random_graph
from repro.graphs.dynamic_graph import DynamicGraph


@pytest.mark.parametrize(
    "heuristic",
    [min_degree_greedy, static_degree_greedy, lambda g: randomized_greedy(g, seed=1)],
    ids=["min_degree", "static_degree", "randomized"],
)
class TestAllGreedyVariants:
    def test_result_is_maximal(self, heuristic, small_random_graph):
        solution = heuristic(small_random_graph)
        assert is_maximal_independent_set(small_random_graph, solution)

    def test_star_graph_picks_leaves(self, heuristic, star_graph):
        assert heuristic(star_graph) == {1, 2, 3, 4, 5, 6}

    def test_empty_graph(self, heuristic):
        assert heuristic(DynamicGraph()) == set()

    def test_original_graph_untouched(self, heuristic, path_graph):
        before = path_graph.copy()
        heuristic(path_graph)
        assert path_graph == before

    def test_recycled_slots(self, heuristic):
        """Vertex churn leaves slots out of step with labels and some free."""
        graph = gnm_random_graph(40, 90, seed=12)
        for label in range(0, 40, 4):
            graph.remove_vertex(label)
        for i in range(6):
            graph.add_edge(("late", i), 1 + 4 * i, add_missing_vertices=True)
        before = graph.copy()
        assert is_maximal_independent_set(graph, heuristic(graph))
        assert graph == before


class TestQuality:
    def test_min_degree_greedy_close_to_optimal_on_sparse_graphs(self):
        graph = power_law_random_graph(300, 2.5, seed=2)
        greedy_size = len(min_degree_greedy(graph))
        alpha = exact_independence_number(graph, node_budget=500_000)
        assert greedy_size >= 0.9 * alpha

    def test_min_degree_at_least_as_good_as_static_on_average(self):
        total_dynamic = 0
        total_static = 0
        for seed in range(5):
            graph = erdos_renyi_graph(80, 0.08, seed=seed)
            total_dynamic += len(min_degree_greedy(graph))
            total_static += len(static_degree_greedy(graph))
        assert total_dynamic >= total_static - 2

    def test_randomized_greedy_deterministic_per_seed(self, small_random_graph):
        a = randomized_greedy(small_random_graph, seed=5)
        b = randomized_greedy(small_random_graph, seed=5)
        assert a == b


class TestExtendToMaximal:
    def test_extends_partial_solution(self, path_graph):
        result = extend_to_maximal(path_graph, {2})
        assert 2 in result
        assert is_maximal_independent_set(path_graph, result)

    def test_extending_maximal_set_is_identity(self, cycle_graph):
        result = extend_to_maximal(cycle_graph, {0, 2, 4})
        assert result == {0, 2, 4}

    def test_extending_empty_set(self, star_graph):
        result = extend_to_maximal(star_graph, set())
        assert is_maximal_independent_set(star_graph, result)

