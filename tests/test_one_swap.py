"""Tests for DyOneSwap (Algorithm 2): behaviour, guarantees, and update cases."""

from __future__ import annotations

import pytest

from graph_helpers import erdos_renyi_graph

from repro.core.one_swap import DyOneSwap
from repro.core.verification import (
    is_independent_set,
    is_k_maximal_independent_set,
    is_maximal_independent_set,
)
from repro.exceptions import SolutionInvariantError
from repro.generators.power_law import power_law_random_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateOperation
from repro.updates.streams import mixed_update_stream


class TestInitialisation:
    def test_initial_solution_is_one_maximal(self, small_random_graph):
        algo = DyOneSwap(small_random_graph)
        assert is_k_maximal_independent_set(small_random_graph, algo.solution(), 1)

    def test_star_graph_picks_leaves(self, star_graph):
        algo = DyOneSwap(star_graph)
        assert algo.solution() == {1, 2, 3, 4, 5, 6}

    def test_respects_supplied_initial_solution(self, path_graph):
        algo = DyOneSwap(path_graph, initial_solution=[0, 2, 4])
        assert algo.solution() == {0, 2, 4}

    def test_invalid_initial_solution_rejected(self, path_graph):
        with pytest.raises(SolutionInvariantError):
            DyOneSwap(path_graph, initial_solution=[0, 1])
        with pytest.raises(SolutionInvariantError):
            DyOneSwap(path_graph, initial_solution=[99])

    def test_suboptimal_initial_solution_is_improved_by_stabilisation(self, star_graph):
        # Putting the hub in the solution is 1-swappable: stabilisation should
        # immediately swap it for the leaves.
        algo = DyOneSwap(star_graph, initial_solution=[0], stabilize=True)
        assert algo.solution() == {1, 2, 3, 4, 5, 6}

    def test_stabilisation_can_be_disabled(self, star_graph):
        algo = DyOneSwap(star_graph, initial_solution=[0], stabilize=False)
        assert algo.solution() == {0}

    def test_rejects_explicit_k(self, path_graph):
        # DyOneSwap pins k = 1 regardless of what the caller passes.
        algo = DyOneSwap(path_graph, k=5)
        assert algo.k == 1


class TestOneSwapDetection:
    def test_edge_insertion_triggers_swap(self):
        # Solution {1}: hub 1 with tight leaves 0 and 2 that are adjacent.
        # Deleting the leaf edge creates a 1-swap: {1} -> {0, 2}.
        graph = DynamicGraph(edges=[(0, 1), (1, 2), (0, 2)])
        algo = DyOneSwap(graph, initial_solution=[1])
        assert algo.solution_size == 1
        algo.apply_update(UpdateOperation.delete_edge(0, 2))
        assert algo.solution() == {0, 2}
        assert algo.stats.swaps_performed.get(1, 0) >= 1

    def test_vertex_insertion_can_trigger_swap(self):
        # Start with a triangle solved by one vertex; insert a new vertex that
        # makes the previous choice suboptimal.
        graph = DynamicGraph(edges=[(0, 1), (1, 2), (0, 2)])
        algo = DyOneSwap(graph, initial_solution=[0])
        algo.apply_update(UpdateOperation.insert_vertex(3, [0]))
        algo.apply_update(UpdateOperation.insert_vertex(4, [0]))
        # 0 now has two non-adjacent tight neighbours (3 and 4) -> swap.
        assert 3 in algo.solution() and 4 in algo.solution()
        assert 0 not in algo.solution()

    def test_conflict_edge_insertion_keeps_independence(self, path_graph):
        algo = DyOneSwap(path_graph, initial_solution=[0, 2, 4])
        algo.apply_update(UpdateOperation.insert_edge(2, 4))
        solution = algo.solution()
        assert is_independent_set(path_graph, solution)
        assert is_maximal_independent_set(path_graph, solution)

    def test_delete_solution_vertex_repairs_maximality(self, star_graph):
        algo = DyOneSwap(star_graph, initial_solution=[1, 2, 3, 4, 5, 6])
        algo.apply_update(UpdateOperation.delete_vertex(1))
        solution = algo.solution()
        assert is_maximal_independent_set(star_graph, solution)
        assert solution == {2, 3, 4, 5, 6}

    def test_delete_nonsolution_vertex(self, star_graph):
        algo = DyOneSwap(star_graph)
        algo.apply_update(UpdateOperation.delete_vertex(0))
        assert algo.solution() == {1, 2, 3, 4, 5, 6}

    def test_edge_deletion_with_solution_endpoint_frees_vertex(self, path_graph):
        algo = DyOneSwap(path_graph, initial_solution=[0, 2, 4])
        algo.apply_update(UpdateOperation.delete_edge(0, 1))
        # Vertex 1 is now only adjacent to 2; deleting (1, 2) frees it.
        algo.apply_update(UpdateOperation.delete_edge(1, 2))
        assert 1 in algo.solution()

    def test_edge_deletion_between_tight_vertices_triggers_swap(self):
        # Vertex 0 is in the solution with two tight neighbours 1, 2 joined by
        # an edge; removing (1, 2) creates the 1-swap {0} -> {1, 2}.
        graph = DynamicGraph(
            edges=[(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (5, 3), (5, 4), (3, 4)]
        )
        algo = DyOneSwap(graph, initial_solution=[0, 5])
        assert algo.solution() == {0, 5}
        algo.apply_update(UpdateOperation.delete_edge(1, 2))
        assert algo.solution_size == 3
        assert {1, 2}.issubset(algo.solution())


class TestGuarantees:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_maximality_preserved_over_random_streams(self, seed):
        graph = erdos_renyi_graph(70, 0.07, seed=seed)
        stream = mixed_update_stream(graph, 350, seed=seed + 50, edge_fraction=0.7)
        algo = DyOneSwap(graph.copy(), check_invariants=True)
        working = graph.copy()
        algo_graph = algo.graph
        algo.apply_stream(stream)
        stream.apply_all(working)
        assert algo_graph == working
        assert is_k_maximal_independent_set(algo_graph, algo.solution(), 1)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_lazy_variant_matches_guarantee(self, small_power_law_graph, lazy):
        stream = mixed_update_stream(small_power_law_graph, 300, seed=2)
        algo = DyOneSwap(small_power_law_graph.copy(), lazy=lazy, check_invariants=True)
        algo.apply_stream(stream)
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 1)

    def test_theorem2_bound_holds_on_power_law_graph(self):
        graph = power_law_random_graph(150, 2.3, seed=8)
        stream = mixed_update_stream(graph, 200, seed=9)
        algo = DyOneSwap(graph.copy())
        algo.apply_stream(stream)
        from repro.baselines.exact import BranchAndReduceSolver

        alpha = BranchAndReduceSolver(node_budget=200_000).independence_number(algo.graph)
        assert alpha <= (algo.graph.max_degree() / 2 + 1) * algo.solution_size

    def test_statistics_are_tracked(self, small_random_graph, small_update_stream):
        algo = DyOneSwap(small_random_graph.copy())
        algo.apply_stream(small_update_stream)
        assert algo.stats.updates_processed == len(small_update_stream)
        assert algo.stats.total_swaps == sum(algo.stats.swaps_performed.values())
        assert algo.memory_footprint() > 0
