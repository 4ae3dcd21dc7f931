"""Tests for the branch-and-reduce exact solver (VCSolver stand-in)."""

from __future__ import annotations

import pytest

from repro.baselines.exact import (
    BranchAndReduceSolver,
    brute_force_maximum_independent_set,
    clique_cover_bound,
    exact_independence_number,
    independence_numbers,
)
from repro.exceptions import SolverTimeoutError
from repro.generators.random_graphs import erdos_renyi_graph, random_bipartite_graph
from repro.generators.worst_case import complete_graph, hypercube_graph
from repro.graphs.dynamic_graph import DynamicGraph


class TestKnownOptima:
    def test_empty_graph(self):
        assert exact_independence_number(DynamicGraph()) == 0

    def test_edgeless_graph(self):
        assert exact_independence_number(DynamicGraph(vertices=range(7))) == 7

    def test_path(self, path_graph):
        assert exact_independence_number(path_graph) == 3

    def test_cycle(self, cycle_graph):
        assert exact_independence_number(cycle_graph) == 3

    def test_star(self, star_graph):
        assert exact_independence_number(star_graph) == 6

    def test_complete_graph(self):
        assert exact_independence_number(complete_graph(8)) == 1

    def test_hypercube(self):
        # α(Q_n) = 2^(n-1) (the even-parity vertices).
        assert exact_independence_number(hypercube_graph(4)) == 8

    def test_disjoint_cliques(self):
        # Six disjoint K5s: α is one vertex per clique.
        graph = DynamicGraph(
            edges=[((c, i), (c, j)) for c in range(6) for j in range(5) for i in range(j)]
        )
        assert exact_independence_number(graph) == 6

    def test_bipartite_left_side(self):
        graph = random_bipartite_graph(8, 6, 0.9, seed=1)
        assert exact_independence_number(graph) >= 8


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_on_random_graphs(self, seed):
        graph = erdos_renyi_graph(15, 0.3, seed=seed)
        solver = BranchAndReduceSolver()
        report = solver.solve(graph)
        assert graph.is_independent_set(report.solution)
        assert report.independence_number == len(brute_force_maximum_independent_set(graph))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_on_denser_graphs(self, seed):
        graph = erdos_renyi_graph(13, 0.5, seed=seed + 100)
        assert exact_independence_number(graph) == len(
            brute_force_maximum_independent_set(graph)
        )

    def test_brute_force_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            brute_force_maximum_independent_set(erdos_renyi_graph(25, 0.2, seed=1))


class TestBudgetAndBounds:
    def test_budget_exhaustion_raises_with_best_known(self):
        graph = erdos_renyi_graph(120, 0.3, seed=7)
        solver = BranchAndReduceSolver(node_budget=3)
        with pytest.raises(SolverTimeoutError) as excinfo:
            solver.solve(graph)
        assert excinfo.value.best_known is not None
        assert excinfo.value.best_known > 0

    def test_clique_cover_bound_is_valid_upper_bound(self):
        for seed in range(5):
            graph = erdos_renyi_graph(14, 0.35, seed=seed)
            alpha = len(brute_force_maximum_independent_set(graph))
            assert clique_cover_bound(graph) >= alpha

    def test_clique_cover_bound_tight_on_cliques(self):
        assert clique_cover_bound(complete_graph(9)) == 1

    def test_solver_report_counts_nodes(self):
        graph = erdos_renyi_graph(30, 0.25, seed=3)
        report = BranchAndReduceSolver().solve(graph)
        assert report.branch_nodes >= 1
        assert report.reduced_vertices == graph.num_vertices - report.independence_number

    def test_independence_numbers_bulk(self, path_graph, star_graph):
        values = independence_numbers({"path": path_graph, "star": star_graph})
        assert values == {"path": 3, "star": 6}

    def test_sparse_power_law_dataset_is_solved(self):
        from repro.generators.datasets import load_dataset

        graph = load_dataset("Email", scaled_vertices=600)
        solver = BranchAndReduceSolver(node_budget=200_000)
        report = solver.solve(graph)
        assert graph.is_independent_set(report.solution)
        # Sanity: a maximal independent set of a sparse graph covers most vertices.
        assert report.independence_number > graph.num_vertices * 0.4
