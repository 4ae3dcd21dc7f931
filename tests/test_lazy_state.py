"""Tests for the lazy-collection solution state and its equivalence to the eager one."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core.lazy import LazyMISState
from repro.core.state import MISState
from repro.exceptions import SolutionInvariantError
from repro.generators.random_graphs import erdos_renyi_graph
from repro.graphs.dynamic_graph import DynamicGraph


class TestLazyBasics:
    def test_requires_positive_k(self, path_graph):
        with pytest.raises(ValueError):
            LazyMISState(path_graph, k=0)

    def test_move_in_and_counts(self, path_graph):
        state = LazyMISState(path_graph)
        state.move_in(2)
        assert state.count(1) == 1
        assert state.count(3) == 1
        assert state.solution_neighbors(1) == {2}
        assert state.solution() == {2}

    def test_move_in_preconditions(self, path_graph):
        state = LazyMISState(path_graph)
        state.move_in(2)
        with pytest.raises(SolutionInvariantError):
            state.move_in(2)
        with pytest.raises(SolutionInvariantError):
            state.move_in(1)

    def test_move_out(self, path_graph):
        state = LazyMISState(path_graph)
        state.move_in(2)
        state.move_out(2)
        assert state.count(1) == 0
        assert not state.is_in_solution(2)
        with pytest.raises(SolutionInvariantError):
            state.move_out(2)

    def test_tight_vertices_recomputed(self, star_graph):
        state = LazyMISState(star_graph)
        state.move_in(0)
        assert state.tight_vertices(frozenset((0,)), 1) == {1, 2, 3, 4, 5, 6}
        assert state.tight_up_to(frozenset((0,)), 1) == {1, 2, 3, 4, 5, 6}

    def test_tight_vertices_level_validation(self, star_graph):
        state = LazyMISState(star_graph, k=1)
        with pytest.raises(ValueError):
            state.tight_vertices(frozenset((0,)), 2)
        with pytest.raises(ValueError):
            state.tight_up_to(frozenset((0,)), 2)

    def test_structure_size_smaller_than_eager(self, star_graph):
        lazy = LazyMISState(star_graph.copy(), k=2)
        eager = MISState(star_graph.copy(), k=2)
        lazy.move_in(0)
        eager.move_in(0)
        assert lazy.structure_size() < eager.structure_size()

    def test_invariant_checker_detects_wrong_count(self, path_graph):
        state = LazyMISState(path_graph)
        state.move_in(2)
        state._count[1] = 7
        with pytest.raises(SolutionInvariantError):
            state.check_invariants()

    def test_is_maximal(self, path_graph):
        state = LazyMISState(path_graph)
        state.move_in(2)
        assert not state.is_maximal()
        state.move_in(0)
        state.move_in(4)
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
        for _ in range(250):
            choice = rng.random()
            vertices = list(graph_a.vertices())
            if choice < 0.25 and vertices:
                # Toggle solution membership of a random vertex when legal.
                v = rng.choice(vertices)
                if eager.is_in_solution(v):
                    eager.move_out(v)
                    lazy.move_out(v)
                elif eager.count(v) == 0:
                    eager.move_in(v)
                    lazy.move_in(v)
            elif choice < 0.45:
                neighbors = rng.sample(vertices, min(len(vertices), rng.randint(0, 3)))
                eager.add_vertex(next_vertex, neighbors)
                lazy.add_vertex(next_vertex, neighbors)
                next_vertex += 1
            elif choice < 0.6 and vertices:
                v = rng.choice(vertices)
                eager.remove_vertex(v)
                lazy.remove_vertex(v)
            elif choice < 0.8 and len(vertices) >= 2:
                u, v = rng.sample(vertices, 2)
                both_in_solution = eager.is_in_solution(u) and eager.is_in_solution(v)
                if not graph_a.has_edge(u, v) and not both_in_solution:
                    eager.add_edge(u, v)
                    lazy.add_edge(u, v)
            else:
                edges = list(graph_a.edges())
                if edges:
                    u, v = rng.choice(edges)
                    eager.remove_edge(u, v)
                    lazy.remove_edge(u, v)
        return eager, lazy

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_counts_and_solutions_agree(self, seed):
        eager, lazy = self._random_walk(seed)
        eager.check_invariants()
        lazy.check_invariants()
        assert eager.solution() == lazy.solution()
        for v in eager.graph.vertices():
            assert eager.count(v) == lazy.count(v)
            assert eager.solution_neighbors(v) == lazy.solution_neighbors(v)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_tight_sets_agree(self, seed):
        eager, lazy = self._random_walk(seed)
        for v in eager.solution():
            key = frozenset((v,))
            assert eager.tight_vertices(key, 1) == lazy.tight_vertices(key, 1)
        for level in (1, 2):
            assert eager.nonsolution_vertices_with_count(level) == (
                lazy.nonsolution_vertices_with_count(level)
            )
        for pair in combinations(sorted(eager.solution()), 2):
            key = frozenset(pair)
            assert eager.tight_vertices(key, 2) == lazy.tight_vertices(key, 2)
            assert eager.tight_up_to(key, 2) == lazy.tight_up_to(key, 2)
