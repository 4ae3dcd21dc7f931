"""Tests for the lazy-collection solution state and its equivalence to the eager one."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from slot_helpers import count, labels, move_in, move_out, remove_edge, slots

from repro.core.lazy import LazyMISState
from repro.core.state import MISState
from repro.exceptions import SolutionInvariantError
from repro.generators.random_graphs import erdos_renyi_graph


class TestLazyBasics:
    def test_requires_positive_k(self, path_graph):
        with pytest.raises(ValueError):
            LazyMISState(path_graph, k=0)

    def test_move_in_and_counts(self, path_graph):
        state = LazyMISState(path_graph)
        move_in(state, 2)
        assert count(state, 1) == 1
        assert count(state, 3) == 1
        assert labels(state, state.sn_slots_view(path_graph.slot_of(1))) == {2}
        assert state.solution() == {2}

    def test_move_in_preconditions(self, path_graph):
        state = LazyMISState(path_graph)
        move_in(state, 2)
        with pytest.raises(SolutionInvariantError):
            move_in(state, 2)
        with pytest.raises(SolutionInvariantError):
            move_in(state, 1)

    def test_move_out(self, path_graph):
        state = LazyMISState(path_graph)
        move_in(state, 2)
        move_out(state, 2)
        assert count(state, 1) == 0
        assert not state.in_solution_view()[path_graph.slot_of(2)]
        with pytest.raises(SolutionInvariantError):
            move_out(state, 2)

    def test_tight_views_recomputed(self, star_graph):
        state = LazyMISState(star_graph)
        move_in(state, 0)
        owner = slots(state, [0])
        assert labels(state, state.tight_view(owner, 1)) == {1, 2, 3, 4, 5, 6}
        assert labels(state, state.tight_up_to_slots(owner, 1)) == {1, 2, 3, 4, 5, 6}

    def test_tight_view_level_validation(self, star_graph):
        state = LazyMISState(star_graph, k=1)
        with pytest.raises(ValueError):
            state.tight_view(slots(state, [0, 1]), 2)
        with pytest.raises(ValueError):
            state.tight_up_to_slots(slots(state, [0]), 2)
        with pytest.raises(ValueError):
            state.nonsolution_slots_with_count(2)

    def test_structure_size_smaller_than_eager(self, star_graph):
        lazy = LazyMISState(star_graph.copy(), k=2)
        eager = MISState(star_graph.copy(), k=2)
        move_in(lazy, 0)
        move_in(eager, 0)
        assert lazy.structure_size() < eager.structure_size()

    def test_invariant_checker_detects_wrong_count(self, path_graph):
        state = LazyMISState(path_graph)
        move_in(state, 2)
        state._count[1] = 7
        with pytest.raises(SolutionInvariantError):
            state.check_invariants()

    def test_is_maximal(self, path_graph):
        state = LazyMISState(path_graph)
        move_in(state, 2)
        assert not state.is_maximal()
        move_in(state, 0, 4)
        assert state.is_maximal()


class TestLazyEagerEquivalence:
    """Drive both states through identical random operation sequences."""

    def _random_walk(self, seed):
        graph_a = erdos_renyi_graph(40, 0.1, seed=seed)
        graph_b = graph_a.copy()
        eager = MISState(graph_a, k=2)
        lazy = LazyMISState(graph_b, k=2)
        rng = random.Random(seed)
        next_vertex = 1000
        member = eager.in_solution_view()
        for _ in range(250):
            choice = rng.random()
            vertices = list(graph_a.vertices())
            if choice < 0.25 and vertices:
                # Toggle solution membership of a random vertex when legal.
                v = rng.choice(vertices)
                if member[graph_a.slot_of(v)]:
                    move_out(eager, v)
                    move_out(lazy, v)
                elif count(eager, v) == 0:
                    move_in(eager, v)
                    move_in(lazy, v)
            elif choice < 0.45:
                neighbors = rng.sample(vertices, min(len(vertices), rng.randint(0, 3)))
                eager.add_vertex_slot(next_vertex, neighbors)
                lazy.add_vertex_slot(next_vertex, neighbors)
                next_vertex += 1
            elif choice < 0.6 and vertices:
                v = rng.choice(vertices)
                eager.remove_vertex_slot(graph_a.slot_of(v))
                lazy.remove_vertex_slot(graph_b.slot_of(v))
            elif choice < 0.8 and len(vertices) >= 2:
                u, v = rng.sample(vertices, 2)
                both_in_solution = member[graph_a.slot_of(u)] and member[graph_a.slot_of(v)]
                if not graph_a.has_edge(u, v) and not both_in_solution:
                    eager.add_edge_slots(graph_a.slot_of(u), graph_a.slot_of(v))
                    lazy.add_edge_slots(graph_b.slot_of(u), graph_b.slot_of(v))
            else:
                edges = list(graph_a.edges())
                if edges:
                    u, v = rng.choice(edges)
                    remove_edge(eager, u, v)
                    remove_edge(lazy, u, v)
        return eager, lazy

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_counts_and_solutions_agree(self, seed):
        eager, lazy = self._random_walk(seed)
        eager.check_invariants()
        lazy.check_invariants()
        assert eager.solution() == lazy.solution()
        for v in eager.graph.vertices():
            assert count(eager, v) == count(lazy, v)
            assert labels(eager, eager.sn_slots_view(eager.graph.slot_of(v))) == labels(
                lazy, lazy.sn_slots_view(lazy.graph.slot_of(v))
            )

    @pytest.mark.parametrize("seed", [4, 5])
    def test_tight_sets_agree(self, seed):
        eager, lazy = self._random_walk(seed)

        def agree(view, *args):
            assert labels(eager, getattr(eager, view)(*args)) == labels(
                lazy, getattr(lazy, view)(*args)
            )

        # Both graphs made the same slot assignments, so one slot names the
        # same vertex in either state.
        assert eager.graph.slot_map_view() == lazy.graph.slot_map_view()
        for owner in eager.solution_slots_view():
            agree("tight_view", frozenset((owner,)), 1)
        for level in (1, 2):
            agree("nonsolution_slots_with_count", level)
        for pair in combinations(sorted(eager.solution_slots_view()), 2):
            key = frozenset(pair)
            agree("tight_view", key, 2)
            agree("tight_up_to_slots", key, 2)
