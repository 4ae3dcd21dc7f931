"""Tests for the reference checkers in repro.core.verification."""

from __future__ import annotations

import pytest

from repro.core.verification import (
    find_j_swap,
    find_one_swap,
    independence_violations,
    is_independent_set,
    is_k_maximal_independent_set,
    is_maximal_independent_set,
)
from repro.generators.worst_case import subdivided_complete_graph
from repro.graphs.dynamic_graph import DynamicGraph


class TestIndependenceChecks:
    def test_is_independent_set(self, cycle_graph):
        assert is_independent_set(cycle_graph, {0, 2, 4})
        assert not is_independent_set(cycle_graph, {0, 1})

    def test_is_maximal_independent_set(self, cycle_graph):
        assert is_maximal_independent_set(cycle_graph, {0, 2, 4})
        assert not is_maximal_independent_set(cycle_graph, {0, 2})
        assert not is_maximal_independent_set(cycle_graph, {0, 1, 3})

    def test_independence_violations(self, cycle_graph):
        assert independence_violations(cycle_graph, {0, 2, 4}) == []
        violations = independence_violations(cycle_graph, {0, 1, 3})
        assert len(violations) == 1

    def test_violations_ignore_missing_vertices(self, cycle_graph):
        assert independence_violations(cycle_graph, {0, 99}) == []


class TestSwapSearch:
    def test_find_one_swap_on_star(self, star_graph):
        # The hub alone admits the 1-swap hub -> two leaves.
        found = find_one_swap(star_graph, {0})
        assert found is not None
        vertex, pair = found
        assert vertex == 0
        assert len(pair) == 2

    def test_find_one_swap_absent_on_leaves(self, star_graph):
        assert find_one_swap(star_graph, {1, 2, 3, 4, 5, 6}) is None

    def test_find_j_swap_matches_one_swap(self, star_graph):
        assert find_j_swap(star_graph, {0}, 1) is not None
        assert find_j_swap(star_graph, {1, 2, 3, 4, 5, 6}, 1) is None

    def test_find_j_swap_rejects_invalid_j(self, star_graph):
        with pytest.raises(ValueError):
            find_j_swap(star_graph, {0}, 0)

    def test_find_two_swap(self):
        # {a, b} exchangeable for {p, q, r}.
        edges = [("a", "p"), ("a", "q"), ("b", "q"), ("b", "r"), ("a", "r"), ("b", "p")]
        graph = DynamicGraph(edges=edges)
        swap = find_j_swap(graph, {"a", "b"}, 2)
        assert swap is not None
        swap_out, swap_in = swap
        assert set(swap_out) == {"a", "b"}
        assert set(swap_in) == {"p", "q", "r"}

    def test_is_k_maximal(self, star_graph):
        assert not is_k_maximal_independent_set(star_graph, {0}, 1)
        assert is_k_maximal_independent_set(star_graph, {1, 2, 3, 4, 5, 6}, 2)

    def test_is_k_maximal_requires_maximality(self, cycle_graph):
        assert not is_k_maximal_independent_set(cycle_graph, {0, 3}, 1)

    def test_swap_search_reaches_every_candidate(self):
        # Removing 0 frees the clique 1..30, whose only non-edge 29-30 is a
        # 1-swap.  The clique 200..205 lifts 29 and 30 above every other
        # candidate by degree, so a search over a cut of the lowest-degree
        # candidates misses the swap.
        clique = range(1, 31)
        edges = [(0, v) for v in clique]
        edges += [
            (a, b) for a in clique for b in clique if a < b and (a, b) != (29, 30)
        ]
        outer = range(200, 206)
        edges += [(a, b) for a in outer for b in outer if a < b]
        edges += [(a, b) for a in outer for b in (100, 29, 30)]
        graph = DynamicGraph(edges=edges)
        assert is_maximal_independent_set(graph, {0, 100})
        assert find_one_swap(graph, {0, 100}) == (0, (29, 30))
        assert find_j_swap(graph, {0, 100}, 1) == ((0,), (29, 30))
        assert not is_k_maximal_independent_set(graph, {0, 100}, 1)

    def test_worst_case_family_is_k_maximal_but_not_optimal(self):
        graph, originals, subdivisions = subdivided_complete_graph(4)
        assert is_k_maximal_independent_set(graph, originals, 3)
        assert len(subdivisions) > len(originals)
