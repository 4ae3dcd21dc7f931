"""Tests for the generic k-swap maintenance framework (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core import framework
from repro.core.framework import KSwapFramework
from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import (
    is_k_maximal_independent_set,
    is_maximal_independent_set,
)
from repro.generators.random_graphs import erdos_renyi_graph
from repro.generators.worst_case import subdivided_complete_graph
from repro.updates.streams import mixed_update_stream


class TestBasics:
    def test_default_k_is_one(self, path_graph):
        algo = KSwapFramework(path_graph)
        assert algo.k == 1
        assert is_k_maximal_independent_set(path_graph, algo.solution(), 1)

    def test_invalid_k_rejected(self, path_graph):
        with pytest.raises(ValueError):
            KSwapFramework(path_graph, k=0)

    def test_star_graph(self, star_graph):
        algo = KSwapFramework(star_graph, k=2)
        assert algo.solution() == {1, 2, 3, 4, 5, 6}

    def test_memory_footprint_grows_with_k(self, small_power_law_graph):
        small = KSwapFramework(small_power_law_graph.copy(), k=1)
        large = KSwapFramework(small_power_law_graph.copy(), k=2)
        assert large.memory_footprint() >= small.memory_footprint()


class TestGuaranteesMatchSpecializedAlgorithms:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k1_is_one_maximal(self, seed):
        graph = erdos_renyi_graph(50, 0.1, seed=seed)
        stream = mixed_update_stream(graph, 250, seed=seed + 30)
        algo = KSwapFramework(graph.copy(), k=1, check_invariants=True)
        algo.apply_stream(stream)
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k2_is_two_maximal(self, seed):
        graph = erdos_renyi_graph(50, 0.1, seed=seed)
        stream = mixed_update_stream(graph, 250, seed=seed + 40)
        algo = KSwapFramework(graph.copy(), k=2, check_invariants=True)
        algo.apply_stream(stream)
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 2)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_k3_is_maximal_and_at_least_as_good_as_k1(self, seed):
        graph = erdos_renyi_graph(60, 0.08, seed=seed)
        stream = mixed_update_stream(graph, 250, seed=seed + 60)
        deep = KSwapFramework(graph.copy(), k=3, check_invariants=True)
        shallow = DyOneSwap(graph.copy())
        deep.apply_stream(stream)
        shallow.apply_stream(stream)
        assert is_maximal_independent_set(deep.graph, deep.solution())
        # The deep framework keeps processing level-1 and level-2 candidates,
        # so it is never worse than the 1-maximal baseline.
        assert deep.solution_size >= shallow.solution_size - 1

    @pytest.mark.parametrize("seed", [5, 6])
    def test_framework_k2_matches_dytwoswap_quality(self, seed):
        graph = erdos_renyi_graph(60, 0.08, seed=seed)
        stream = mixed_update_stream(graph, 250, seed=seed + 90)
        framework = KSwapFramework(graph.copy(), k=2)
        dedicated = DyTwoSwap(graph.copy())
        framework.apply_stream(stream)
        dedicated.apply_stream(stream)
        # Both guarantee 2-maximality; sizes may differ slightly because the
        # search visits swaps in different orders.
        assert is_k_maximal_independent_set(framework.graph, framework.solution(), 2)
        assert is_k_maximal_independent_set(dedicated.graph, dedicated.solution(), 2)
        assert framework.solution_size >= 0.9 * dedicated.solution_size


class TestDeepSwaps:
    def test_k3_can_improve_on_2_maximal_solution(self):
        # Three solution vertices exchangeable for four independent vertices:
        # a complete bipartite-like gadget where every outside vertex sees all
        # three owners (so no 1- or 2-swap applies).
        from repro.graphs.dynamic_graph import DynamicGraph

        owners = ["a", "b", "c"]
        others = ["p", "q", "r", "s"]
        edges = [(o, w) for o in owners for w in others]
        graph = DynamicGraph(edges=edges)
        algo = KSwapFramework(graph, k=3, initial_solution=owners, stabilize=True)
        assert algo.solution() == set(others)

    def test_worst_case_family_stays_at_original_vertices(self):
        # On K'_5 the original vertices are 3-maximal: the framework must not
        # (and cannot) improve them with swaps of size <= 3.
        graph, originals, _sub = subdivided_complete_graph(5)
        algo = KSwapFramework(graph, k=3, initial_solution=originals, stabilize=True)
        assert algo.solution() == originals

    def test_search_limit_counter_exists(self, small_random_graph):
        algo = KSwapFramework(small_random_graph, k=2)
        assert algo.search_limit_hits == 0

    @pytest.mark.parametrize(
        "cap, kept, hits",
        [(3, {"a", "b", "c"}, 4), (4, {"p", "q", "r", "s"}, 0)],
        ids=["cap-below-search", "cap-at-search"],
    )
    def test_search_budget_is_exact_and_counted(self, monkeypatch, cap, kept, hits):
        # Each swap-in search of the 3-swap {a, b, c} -> {p, q, r, s} on
        # K_{3,4} visits three nodes, and a search gives up once it has
        # spent its whole budget: a cap of 3 stops all four searches on
        # their last node and counts each hit; a cap of 4 finds the swap.
        from repro.graphs.dynamic_graph import DynamicGraph

        monkeypatch.setattr(framework, "_SEARCH_NODE_LIMIT", cap)

        def build(**options):
            graph = DynamicGraph(edges=[(o, w) for o in "abc" for w in "pqrs"])
            return KSwapFramework(graph, k=3, initial_solution=["a", "b", "c"], **options)

        algo = build(stabilize=False)
        algo._stabilize()
        assert algo.solution() == kept
        assert algo.search_limit_hits == hits
        # The constructor's own stabilising pass counts the same hits.
        algo = build()
        assert algo.solution() == kept
        assert algo.search_limit_hits == hits


class TestPromotionGapRegression:
    """Regression pin for the k = 3 promotion gap found by PR 4's probing.

    The old promotion rule only climbed strict-superset owner chains
    (witness with ``count == level + 1`` and ``I(w) ⊃ owners``), so a
    3-swap whose swap-in members' owner sets only *jointly* cover the
    removed set (e.g. ``{a}`` and ``{b, c}`` covering ``{a, b, c}``) was
    never registered.  The union-based promotion closes exactly that class;
    these tests pin the original repro and probe surrounding seeds.
    """

    def test_roadmap_repro_settles_3_maximal(self):
        from repro.generators.random_graphs import gnm_random_graph

        graph = gnm_random_graph(24, 44, seed=10)
        stream = mixed_update_stream(graph, 120, seed=110, edge_fraction=0.6)
        algo = KSwapFramework(graph.copy(), k=3)
        algo.apply_stream(stream)
        assert algo.search_limit_hits == 0
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 3)

    @pytest.mark.parametrize("seed", [0, 3, 7, 11, 19])
    @pytest.mark.parametrize("k", [3, 4])
    def test_randomized_probing_finds_no_gap(self, seed, k):
        from repro.generators.random_graphs import gnm_random_graph

        graph = gnm_random_graph(22, 40, seed=seed)
        stream = mixed_update_stream(graph, 100, seed=seed + 500, edge_fraction=0.6)
        algo = KSwapFramework(graph.copy(), k=k)
        algo.apply_stream(stream)
        # Only assert full k-maximality when the bounded search never gave
        # up (a limit hit legitimately leaves deeper swaps unexplored).
        if algo.search_limit_hits == 0:
            assert is_k_maximal_independent_set(algo.graph, algo.solution(), k)
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 2)
