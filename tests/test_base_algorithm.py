"""Tests for the shared machinery in DynamicMISBase (update cases, eviction, repair)."""

from __future__ import annotations

import pytest
from slot_helpers import count

from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import is_maximal_independent_set
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateOperation


class TestInsertVertexCases:
    def test_isolated_vertex_joins_solution(self, path_graph):
        algo = DyOneSwap(path_graph, initial_solution=[0, 2, 4])
        algo.apply_update(UpdateOperation.insert_vertex(10, []))
        assert 10 in algo.solution()

    def test_vertex_adjacent_to_solution_stays_out(self, path_graph):
        algo = DyOneSwap(path_graph, initial_solution=[0, 2, 4])
        algo.apply_update(UpdateOperation.insert_vertex(10, [0, 2]))
        assert 10 not in algo.solution()
        assert count(algo.state, 10) == 2

    def test_vertex_adjacent_only_to_nonsolution_joins(self, path_graph):
        algo = DyOneSwap(path_graph, initial_solution=[0, 2, 4])
        algo.apply_update(UpdateOperation.insert_vertex(10, [1, 3]))
        assert 10 in algo.solution()


class TestDeleteVertexCases:
    def test_delete_solution_vertex_keeps_maximality(self, path_graph):
        algo = DyOneSwap(path_graph, initial_solution=[0, 2, 4])
        algo.apply_update(UpdateOperation.delete_vertex(0))
        # Vertex 1 is still covered by 2, so the solution shrinks but stays maximal.
        assert algo.solution() == {2, 4}
        assert is_maximal_independent_set(algo.graph, algo.solution())

    def test_delete_solution_vertex_promotes_freed_neighbors(self, star_graph):
        algo = DyOneSwap(star_graph, initial_solution=[0], stabilize=False)
        algo.apply_update(UpdateOperation.delete_vertex(0))
        # Every leaf loses its only solution neighbour and must be moved in.
        assert algo.solution() == {1, 2, 3, 4, 5, 6}

    def test_delete_nonsolution_vertex_is_noop_for_solution(self, path_graph):
        algo = DyOneSwap(path_graph, initial_solution=[0, 2, 4])
        before = algo.solution()
        algo.apply_update(UpdateOperation.delete_vertex(1))
        assert algo.solution() == before

    def test_delete_last_vertices(self):
        graph = DynamicGraph(edges=[(0, 1)])
        algo = DyOneSwap(graph)
        algo.apply_update(UpdateOperation.delete_vertex(0))
        algo.apply_update(UpdateOperation.delete_vertex(1))
        assert algo.solution() == set()
        assert algo.graph.num_vertices == 0


class TestInsertEdgeCases:
    def test_conflict_prefers_endpoint_with_tight_neighbors(self):
        # Solution {0, 3}; 0 has a tight neighbour (1), 3 has none.
        graph = DynamicGraph(edges=[(0, 1), (2, 3), (2, 0)])
        algo = DyOneSwap(graph, initial_solution=[0, 3])
        algo.apply_update(UpdateOperation.insert_edge(0, 3))
        # 0 is evicted (it can be compensated by its tight neighbour 1).
        solution = algo.solution()
        assert 3 in solution
        assert graph.is_independent_set(solution)
        assert is_maximal_independent_set(graph, solution)
        assert 1 in solution

    def test_conflict_evicts_higher_degree_endpoint_otherwise(self):
        graph = DynamicGraph(edges=[(0, 1), (0, 2), (0, 3), (4, 5)])
        algo = DyOneSwap(graph, initial_solution=[0, 4], stabilize=False)
        # Neither 0 nor 4 has a *tight* neighbour of count 1?  vertices 1-3
        # are tight on 0, so 0 is preferred for eviction anyway; the point of
        # this test is that the update never leaves adjacent solution vertices.
        algo.apply_update(UpdateOperation.insert_edge(0, 4))
        solution = algo.solution()
        assert graph.is_independent_set(solution)
        assert is_maximal_independent_set(graph, solution)

    def test_edge_between_nonsolution_vertices_changes_nothing(self, path_graph):
        algo = DyOneSwap(path_graph, initial_solution=[0, 2, 4])
        before = algo.solution()
        algo.apply_update(UpdateOperation.insert_edge(1, 3))
        assert algo.solution() == before


class TestDeleteEdgeCases:
    def test_deleting_only_cover_promotes_vertex(self):
        graph = DynamicGraph(edges=[(0, 1), (1, 2)])
        algo = DyOneSwap(graph, initial_solution=[1])
        algo.apply_update(UpdateOperation.delete_edge(0, 1))
        assert 0 in algo.solution()

    def test_deleting_edge_between_solution_and_high_count_vertex(self, star_graph):
        algo = DyOneSwap(star_graph)  # leaves in the solution
        algo.apply_update(UpdateOperation.delete_edge(0, 1))
        # The hub still has five solution neighbours.
        assert 0 not in algo.solution()
        assert count(algo.state, 0) == 5


class TestBookkeeping:
    def test_unknown_update_kind_rejected(self, path_graph):
        algo = DyOneSwap(path_graph)
        bogus = UpdateOperation(kind="not-a-kind", vertex=1)  # type: ignore[arg-type]
        with pytest.raises(Exception):
            algo.apply_update(bogus)

    def test_memory_footprint_includes_candidate_queues(self, small_power_law_graph):
        algo = DyTwoSwap(small_power_law_graph)
        assert algo.memory_footprint() >= algo.state.structure_size()

    def test_has_pending_candidates_empty_after_processing(self, small_random_graph):
        algo = DyTwoSwap(small_random_graph)
        assert not algo.has_pending_candidates()

    def test_graph_property_exposes_state_graph(self, path_graph):
        algo = DyOneSwap(path_graph)
        assert algo.graph is path_graph

    def test_solution_returns_copy(self, path_graph):
        algo = DyOneSwap(path_graph)
        solution = algo.solution()
        solution.add("junk")
        assert "junk" not in algo.solution()
