"""Tests for the random-graph generators."""

from __future__ import annotations

import pytest

from graph_helpers import erdos_renyi_graph

from repro.generators.power_law import (
    erased_configuration_model,
    power_law_degree_sequence,
    power_law_random_graph,
)
from repro.generators.random_graphs import gnm_random_graph


class TestErdosRenyi:
    def test_zero_probability_gives_empty_graph(self):
        graph = erdos_renyi_graph(50, 0.0, seed=1)
        assert graph.num_vertices == 50
        assert graph.num_edges == 0

    def test_full_probability_gives_complete_graph(self):
        graph = erdos_renyi_graph(10, 1.0, seed=1)
        assert graph.num_edges == 45

    def test_expected_edge_count_close(self):
        graph = erdos_renyi_graph(300, 0.05, seed=42)
        expected = 0.05 * 300 * 299 / 2
        assert abs(graph.num_edges - expected) < 0.35 * expected

    def test_deterministic_with_seed(self):
        a = erdos_renyi_graph(80, 0.1, seed=5)
        b = erdos_renyi_graph(80, 0.1, seed=5)
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(-1, 0.5)
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5)


class TestGnm:
    def test_exact_edge_count(self):
        graph = gnm_random_graph(40, 100, seed=3)
        assert graph.num_edges == 100
        graph.check_consistency()

    def test_too_many_edges_raises(self):
        with pytest.raises(ValueError):
            gnm_random_graph(5, 11)


class TestPowerLaw:
    def test_degree_sequence_sum_is_even(self):
        degrees = power_law_degree_sequence(501, 2.3, seed=3)
        assert sum(degrees) % 2 == 0
        assert len(degrees) == 501
        assert min(degrees) >= 1

    def test_degree_sequence_respects_bounds(self):
        degrees = power_law_degree_sequence(200, 2.0, min_degree=2, max_degree=10, seed=1)
        assert all(2 <= d <= 10 or d == 11 for d in degrees)  # +1 parity bump allowed

    def test_degree_sequence_invalid_parameters(self):
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, 2.0, min_degree=0)
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, 2.0, min_degree=5, max_degree=2)

    def test_smaller_beta_gives_denser_graphs(self):
        dense = power_law_random_graph(1500, 1.9, seed=2)
        sparse = power_law_random_graph(1500, 2.7, seed=2)
        assert dense.num_edges > sparse.num_edges

    def test_erased_configuration_model_is_simple(self):
        degrees = power_law_degree_sequence(400, 2.2, seed=6)
        graph = erased_configuration_model(degrees, seed=7)
        graph.check_consistency()
        # Erasure can only lower degrees.
        for v in graph.vertices():
            assert graph.degree(v) <= degrees[v]

    def test_erased_configuration_model_negative_degree_raises(self):
        with pytest.raises(ValueError):
            erased_configuration_model([1, -1])
