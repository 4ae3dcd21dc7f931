"""Tests for the DGOneDIS / DGTwoDIS index-based competitors."""

from __future__ import annotations

import pytest

from repro.baselines.dgdis import DGOneDIS, DGTwoDIS
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import is_maximal_independent_set
from repro.exceptions import SolutionInvariantError
from repro.generators.power_law import power_law_random_graph
from repro.generators.random_graphs import erdos_renyi_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateOperation
from repro.updates.streams import mixed_update_stream


@pytest.mark.parametrize("algorithm_class", [DGOneDIS, DGTwoDIS])
class TestBothVariants:
    def test_initial_solution_is_maximal(self, algorithm_class, small_random_graph):
        algo = algorithm_class(small_random_graph)
        assert is_maximal_independent_set(small_random_graph, algo.solution())

    def test_respects_initial_solution(self, algorithm_class, path_graph):
        algo = algorithm_class(path_graph, initial_solution=[0, 2, 4])
        assert algo.solution() == {0, 2, 4}

    def test_rejects_dependent_initial_solution(self, algorithm_class, path_graph):
        with pytest.raises(SolutionInvariantError):
            algorithm_class(path_graph, initial_solution=[0, 1])

    def test_names_initial_vertex_missing_from_graph(self, algorithm_class):
        graph = DynamicGraph(edges=[(0, 1), (1, 2)])
        with pytest.raises(
            SolutionInvariantError,
            match="initial solution vertex 99 is not in the graph",
        ):
            algorithm_class(graph, initial_solution=[0, 99])

    def test_maximality_preserved_over_random_streams(self, algorithm_class):
        graph = erdos_renyi_graph(60, 0.08, seed=5)
        stream = mixed_update_stream(graph, 300, seed=15, edge_fraction=0.7)
        algo = algorithm_class(graph.copy(), check_invariants=True)
        algo.apply_stream(stream)
        assert is_maximal_independent_set(algo.graph, algo.solution())

    def test_vertex_and_edge_cases(self, algorithm_class, path_graph):
        algo = algorithm_class(path_graph.copy(), initial_solution=[0, 2, 4])
        algo.apply_update(UpdateOperation.insert_vertex(9, [2]))
        algo.apply_update(UpdateOperation.insert_vertex(10, []))
        algo.apply_update(UpdateOperation.delete_vertex(2))
        algo.apply_update(UpdateOperation.insert_edge(0, 4))
        algo.apply_update(UpdateOperation.delete_edge(3, 4))
        solution = algo.solution()
        assert algo.graph.is_independent_set(solution)
        assert is_maximal_independent_set(algo.graph, solution)
        assert 10 in solution  # isolated vertices always join the solution

    def test_memory_footprint_positive(self, algorithm_class, small_power_law_graph):
        algo = algorithm_class(small_power_law_graph)
        assert algo.memory_footprint() > 0

    def test_statistics_updated(self, algorithm_class, small_power_law_graph):
        stream = mixed_update_stream(small_power_law_graph, 150, seed=9)
        algo = algorithm_class(small_power_law_graph.copy())
        algo.apply_stream(stream)
        assert algo.stats.updates_processed == len(stream)
        assert algo.stats.rebuilds >= 1


class TestIndexBehaviour:
    def test_two_dis_index_is_larger(self, small_power_law_graph):
        one = DGOneDIS(small_power_law_graph.copy())
        two = DGTwoDIS(small_power_law_graph.copy())
        assert two.memory_footprint() >= one.memory_footprint()

    def test_rebuild_refreshes_index(self, small_power_law_graph):
        algo = DGOneDIS(small_power_law_graph.copy())
        before = algo.stats.rebuilds
        algo.rebuild_index()
        assert algo.stats.rebuilds == before + 1

    def test_complementary_search_counts(self):
        graph = power_law_random_graph(200, 2.1, seed=4)
        stream = mixed_update_stream(graph, 400, seed=5)
        algo = DGTwoDIS(graph.copy())
        algo.apply_stream(stream)
        assert algo.stats.complementary_searches > 0
        assert algo.stats.complementary_successes <= algo.stats.complementary_searches


class TestQualityRelativeToSwapAlgorithms:
    def test_dgdis_not_better_than_dytwoswap_after_many_updates(self):
        """The paper's headline: swap-based maintenance wins once updates pile up."""
        graph = power_law_random_graph(300, 2.1, seed=12)
        stream = mixed_update_stream(graph, 1200, seed=13, edge_fraction=0.8)
        dgdis = DGTwoDIS(graph.copy())
        ours = DyTwoSwap(graph.copy())
        dgdis.apply_stream(stream)
        ours.apply_stream(stream)
        assert ours.solution_size >= dgdis.solution_size
