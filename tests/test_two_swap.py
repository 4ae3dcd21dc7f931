"""Tests for DyTwoSwap (Algorithm 3): behaviour, guarantees, and 2-swap cases."""

from __future__ import annotations

import pytest

from graph_helpers import erdos_renyi_graph

from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import is_k_maximal_independent_set
from repro.generators.power_law import power_law_random_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateOperation
from repro.updates.streams import mixed_update_stream


def two_swap_ready_graph():
    """A graph where {0, 1} can be exchanged for the independent triple {2, 3, 4}.

    Vertices 2, 3, 4 are pairwise non-adjacent once the blocking edge (2, 3)
    is removed; each of them sees only {0, 1} in the solution, and a separate
    solution vertex 5 covers the rest of the graph.
    """
    edges = [
        (0, 2), (1, 2),          # 2 sees both 0 and 1
        (0, 3), (1, 3),          # 3 sees both 0 and 1
        (0, 4), (1, 4),          # 4 sees both 0 and 1
        (2, 3),                  # blocking edge: no 2-swap while present
        (3, 4),                  # second blocking edge
        (5, 6), (5, 7),          # an unrelated solution vertex with leaves
        (6, 7),
    ]
    return DynamicGraph(edges=edges)


class TestInitialisation:
    def test_initial_solution_is_two_maximal(self, small_random_graph):
        algo = DyTwoSwap(small_random_graph)
        assert is_k_maximal_independent_set(small_random_graph, algo.solution(), 2)

    def test_fixed_k(self, path_graph):
        algo = DyTwoSwap(path_graph, k=7)
        assert algo.k == 2

    def test_stabilisation_resolves_initial_two_swap(self):
        # Start from a 1-maximal but not 2-maximal solution: C5 plus chords.
        # The 5-cycle with solution of two adjacent-but-one vertices admits no
        # 1-swap, while {0, 2} -> {1, 3, ...} style improvements may exist in
        # richer graphs; use the canonical construction below.
        graph = two_swap_ready_graph()
        graph.remove_edge(2, 3)
        graph.remove_edge(3, 4)
        algo = DyTwoSwap(graph, initial_solution=[0, 1, 5], stabilize=True)
        # {0, 1} can be exchanged for {2, 3, 4}.
        assert algo.solution_size >= 4
        assert {2, 3, 4}.issubset(algo.solution())


class TestTwoSwapDetection:
    def test_edge_deletion_inside_tight_pair_triggers_two_swap(self):
        graph = two_swap_ready_graph()
        algo = DyTwoSwap(graph, initial_solution=[0, 1, 5])
        assert is_k_maximal_independent_set(graph, algo.solution(), 2)
        assert algo.solution_size == 3
        # Remove the first blocking edge: still no independent triple.
        algo.apply_update(UpdateOperation.delete_edge(2, 3))
        assert algo.solution_size == 3
        # Removing the second blocking edge makes {2, 3, 4} independent.
        algo.apply_update(UpdateOperation.delete_edge(3, 4))
        assert {2, 3, 4}.issubset(algo.solution())
        assert algo.solution_size == 4
        assert algo.stats.swaps_performed.get(2, 0) >= 1

    def test_case_b_different_owners(self):
        # u tight on x, v tight on y, w in ¯I_2({x, y}); deleting (u, v)
        # enables the 2-swap {x, y} -> {u, v, w}.
        edges = [
            ("x", "u"),
            ("y", "v"),
            ("x", "w"), ("y", "w"),
            ("u", "v"),               # the edge whose deletion triggers the swap
            ("x", "p"), ("y", "p"), ("u", "p"), ("v", "p"), ("w", "p"),
        ]
        graph = DynamicGraph(edges=edges)
        algo = DyTwoSwap(graph, initial_solution=["x", "y"])
        assert algo.solution() == {"x", "y"}
        algo.apply_update(UpdateOperation.delete_edge("u", "v"))
        assert algo.solution() == {"u", "v", "w"}

    def test_case_c_count_two_endpoint(self):
        # Both endpoints of the deleted edge are dominated by the same pair
        # {x, y}; a third ¯I_2 vertex completes the swap.
        edges = [
            ("x", "a"), ("y", "a"),
            ("x", "b"), ("y", "b"),
            ("x", "c"), ("y", "c"),
            ("a", "b"),               # deleted below
            ("a", "c"), ("b", "c"),   # keep {a, b, c} dependent until the end
        ]
        graph = DynamicGraph(edges=edges)
        algo = DyTwoSwap(graph, initial_solution=["x", "y"])
        algo.apply_update(UpdateOperation.delete_edge("a", "c"))
        assert algo.solution() == {"x", "y"}
        algo.apply_update(UpdateOperation.delete_edge("b", "c"))
        assert algo.solution() == {"x", "y"}
        algo.apply_update(UpdateOperation.delete_edge("a", "b"))
        assert algo.solution() == {"a", "b", "c"}

    def test_count_decrease_into_level_two_is_detected(self):
        # A vertex whose count drops from 3 to 2 can enable a 2-swap.
        edges = [
            ("x", "a"), ("y", "a"), ("z", "a"),   # a sees three solution vertices
            ("x", "b"), ("y", "b"),
            ("x", "c"), ("y", "c"),
            ("b", "c"),
            ("z", "d"),
        ]
        graph = DynamicGraph(edges=edges)
        algo = DyTwoSwap(graph, initial_solution=["x", "y", "z"])
        assert algo.solution() == {"x", "y", "z"}
        # Deleting (z, a) drops count(a) to 2; combined with deleting (b, c)
        # the pair {x, y} can be swapped for {a, b, c}.
        algo.apply_update(UpdateOperation.delete_edge("z", "a"))
        algo.apply_update(UpdateOperation.delete_edge("b", "c"))
        assert {"a", "b", "c", "z"}.issubset(algo.solution())
        assert algo.solution_size == 4


class TestGuarantees:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_two_maximality_preserved_over_random_streams(self, seed):
        graph = erdos_renyi_graph(60, 0.08, seed=seed)
        stream = mixed_update_stream(graph, 300, seed=seed + 70, edge_fraction=0.7)
        algo = DyTwoSwap(graph.copy(), check_invariants=True)
        algo.apply_stream(stream)
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 2)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_lazy_variant_matches_guarantee(self, small_power_law_graph, lazy):
        stream = mixed_update_stream(small_power_law_graph, 250, seed=5)
        algo = DyTwoSwap(small_power_law_graph.copy(), lazy=lazy, check_invariants=True)
        algo.apply_stream(stream)
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 2)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_never_worse_than_one_swap(self, seed):
        graph = power_law_random_graph(120, 2.2, seed=seed)
        stream = mixed_update_stream(graph, 400, seed=seed, edge_fraction=0.8)
        one = DyOneSwap(graph.copy(), initial_solution=None)
        two = DyTwoSwap(graph.copy(), initial_solution=None)
        one.apply_stream(stream)
        two.apply_stream(stream)
        assert two.solution_size >= one.solution_size

    def test_statistics_track_both_swap_sizes(self, small_power_law_graph):
        stream = mixed_update_stream(small_power_law_graph, 400, seed=6)
        algo = DyTwoSwap(small_power_law_graph.copy())
        algo.apply_stream(stream)
        assert algo.stats.updates_processed == len(stream)
        assert set(algo.stats.swaps_performed) <= {1, 2}
