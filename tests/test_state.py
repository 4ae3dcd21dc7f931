"""Tests for the solution-state bookkeeping.

The eager :class:`MISState` and the count-only :class:`LazyMISState` promise
the same label-level behaviour, so every test runs on both except those that
corrupt the eager state's stored ``I(v)`` sets on purpose.
"""

from __future__ import annotations

import pytest

from repro.core.lazy import LazyMISState
from repro.core.state import MISState
from repro.exceptions import SolutionInvariantError
from repro.graphs.dynamic_graph import DynamicGraph


@pytest.fixture(params=[MISState, LazyMISState], ids=lambda cls: cls.__name__)
def state_class(request):
    return request.param


def make_state(state_class, graph, k=1, solution=()):
    state = state_class(graph, k=k)
    for v in solution:
        state.move_in(v)
    return state


class TestBasics:
    def test_requires_positive_k(self, state_class, path_graph):
        with pytest.raises(ValueError):
            state_class(path_graph, k=0)

    def test_initially_empty_solution(self, state_class, path_graph):
        state = state_class(path_graph)
        assert state.solution_size == 0
        assert state.solution() == set()
        assert state.count(2) == 0

    def test_move_in_updates_counts(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[2])
        assert state.is_in_solution(2)
        assert state.count(1) == 1
        assert state.count(3) == 1
        assert state.count(0) == 0
        assert state.solution_neighbors(1) == {2}

    def test_move_in_returns_events(self, state_class, path_graph):
        state = state_class(path_graph)
        events = state.move_in(2)
        assert sorted(events) == [(1, 0, 1), (3, 0, 1)]

    def test_move_in_twice_raises(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[2])
        with pytest.raises(SolutionInvariantError):
            state.move_in(2)

    def test_move_in_with_solution_neighbor_raises(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[2])
        with pytest.raises(SolutionInvariantError):
            state.move_in(1)

    def test_move_out(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        events = state.move_out(2)
        assert not state.is_in_solution(2)
        assert state.count(1) == 1  # still adjacent to 0
        assert (1, 2, 1) in events
        assert state.count(2) == 0

    def test_move_out_not_in_solution_raises(self, state_class, path_graph):
        state = state_class(path_graph)
        with pytest.raises(SolutionInvariantError):
            state.move_out(3)

    def test_count_of_solution_vertex_is_zero(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[2])
        assert state.count(2) == 0
        assert state.solution_neighbors(2) == set()


class TestTightSets:
    def test_tight_vertices_level1(self, state_class, star_graph):
        state = make_state(state_class, star_graph, solution=[0])
        tight = state.tight_vertices(frozenset((0,)), 1)
        assert tight == {1, 2, 3, 4, 5, 6}

    def test_tight_vertices_require_matching_level(self, state_class, star_graph):
        state = make_state(state_class, star_graph, solution=[0])
        with pytest.raises(ValueError):
            state.tight_vertices(frozenset((0,)), 2)

    def test_tight_vertices_level_exceeding_k_raises(self, state_class, star_graph):
        state = make_state(state_class, star_graph, solution=[0])
        with pytest.raises(ValueError):
            state.tight_vertices(frozenset((0, 1)), 2)

    def test_level2_membership(self, state_class):
        # 0 - 2 - 1 plus 0 - 3 - 1: vertices 2 and 3 both see solution {0, 1}.
        graph = DynamicGraph(edges=[(0, 2), (2, 1), (0, 3), (3, 1)])
        state = make_state(state_class, graph, k=2, solution=[0, 1])
        pair = frozenset((0, 1))
        assert state.tight_vertices(pair, 2) == {2, 3}
        assert state.tight_up_to(pair, 2) == {2, 3}

    def test_tight_up_to_unions_levels(self, state_class):
        graph = DynamicGraph(edges=[(0, 2), (2, 1), (0, 3)])
        state = make_state(state_class, graph, k=2, solution=[0, 1])
        pair = frozenset((0, 1))
        assert state.tight_vertices(pair, 2) == {2}
        assert state.tight_up_to(pair, 2) == {2, 3}

    def test_nonsolution_vertices_with_count(self, state_class, star_graph):
        state = make_state(state_class, star_graph, solution=[0])
        assert state.nonsolution_vertices_with_count(1) == {1, 2, 3, 4, 5, 6}

    def test_tight_sets_follow_move_out(self, state_class, star_graph):
        state = make_state(state_class, star_graph, solution=[0])
        state.move_out(0)
        assert state.tight_vertices(frozenset((0,)), 1) == set()
        assert state.nonsolution_vertices_with_count(1) == set()


class TestStructuralUpdates:
    def test_add_vertex_counts_solution_neighbors(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        count = state.add_vertex(9, [2, 4])
        assert count == 2
        assert state.graph.has_vertex(9)

    def test_add_vertex_isolated(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0])
        assert state.add_vertex(9, []) == 0

    def test_remove_solution_vertex(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        was_in, neighbors, events = state.remove_vertex(2)
        assert was_in
        assert neighbors == {1, 3}
        assert (1, 2, 1) in events
        assert not state.graph.has_vertex(2)

    def test_remove_nonsolution_vertex(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2])
        was_in, neighbors, events = state.remove_vertex(1)
        assert not was_in
        assert events == []
        assert not state.graph.has_vertex(1)

    def test_add_edge_updates_counts(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        events = state.add_edge(0, 3)
        assert (3, 2, 3) in events
        assert state.count(3) == 3

    def test_add_edge_between_nonsolution_vertices(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        assert state.add_edge(1, 3) == []

    def test_remove_edge_updates_counts(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        events = state.remove_edge(2, 3)
        assert (3, 2, 1) in events
        assert state.count(3) == 1

    def test_structure_size_positive_and_grows_with_tracking(self, state_class, star_graph):
        state1 = make_state(state_class, star_graph.copy(), k=1, solution=[0])
        state2 = make_state(state_class, star_graph.copy(), k=2, solution=[0])
        assert state1.structure_size() > 0
        assert state2.structure_size() >= state1.structure_size()


class TestInvariantChecking:
    def test_check_invariants_on_consistent_state(self, state_class, cycle_graph):
        state = make_state(state_class, cycle_graph, solution=[0, 2, 4])
        state.check_invariants()

    def test_is_maximal(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        assert state.is_maximal()
        state.move_out(4)
        assert not state.is_maximal()

    def test_check_invariants_detects_adjacent_solution(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0])
        # Corrupt the state on purpose (slot of label 1 is 1 in a fresh path).
        state._in_sol[1] = 1
        state._sol_slots.add(1)
        with pytest.raises(SolutionInvariantError):
            state.check_invariants()

    def test_check_invariants_detects_wrong_counts(self, path_graph):
        state = make_state(MISState, path_graph, solution=[0, 2])
        state._sn[1].discard(0)
        with pytest.raises(SolutionInvariantError):
            state.check_invariants()
