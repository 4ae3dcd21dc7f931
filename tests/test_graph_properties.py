"""Tests for the degree buckets and the power-law-bounded model checks."""

from __future__ import annotations

import math

from repro.core.bounds import theorem4_constant
from repro.generators.power_law import power_law_random_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.properties import (
    check_power_law_bounded,
    degree_buckets,
    estimate_power_law_exponent,
    shifted_zipf_bucket_mass,
)


class TestDegreeBuckets:
    def test_buckets_group_by_log2(self):
        graph = DynamicGraph()
        # One vertex of degree 1, one of degree 2, one of degree 4.
        graph.add_edge(0, 1, add_missing_vertices=True)
        graph.add_edge(2, 3, add_missing_vertices=True)
        graph.add_edge(2, 4, add_missing_vertices=True)
        graph.add_edge(5, 6, add_missing_vertices=True)
        graph.add_edge(5, 7, add_missing_vertices=True)
        graph.add_edge(5, 8, add_missing_vertices=True)
        graph.add_edge(5, 9, add_missing_vertices=True)
        buckets = degree_buckets(graph)
        # bucket 0 holds degrees [1, 2); bucket 1 holds [2, 4); bucket 2 holds [4, 8)
        assert buckets[0] >= 1
        assert buckets[1] >= 1
        assert buckets[2] == 1

    def test_isolated_vertices_ignored(self):
        graph = DynamicGraph(vertices=[1, 2, 3])
        assert degree_buckets(graph) == {}

    def test_zipf_bucket_mass_decreases_with_beta(self):
        low = shifted_zipf_bucket_mass(2, beta=2.0, shift=0.0)
        high = shifted_zipf_bucket_mass(2, beta=3.0, shift=0.0)
        assert low > high > 0


class TestPowerLawEstimation:
    def test_estimate_on_power_law_graph_is_plausible(self):
        graph = power_law_random_graph(3000, 2.5, seed=3)
        estimate = estimate_power_law_exponent(graph)
        assert 1.5 < estimate < 4.0

    def test_estimate_on_empty_graph_is_nan(self):
        assert math.isnan(estimate_power_law_exponent(DynamicGraph()))

    def test_plb_fit_on_power_law_graph(self):
        graph = power_law_random_graph(2000, 2.4, seed=5)
        fit = check_power_law_bounded(graph, beta=2.4)
        assert fit.is_power_law_bounded
        assert fit.c1 >= fit.c2 > 0
        assert theorem4_constant(c1=fit.c1, c2=fit.c2, beta=fit.beta, shift=fit.shift) > 1.0

    def test_plb_fit_on_empty_graph(self):
        fit = check_power_law_bounded(DynamicGraph(), beta=2.5)
        assert not fit.is_power_law_bounded
        assert theorem4_constant(
            c1=fit.c1, c2=fit.c2, beta=fit.beta, shift=fit.shift
        ) == float("inf")

    def test_plb_fit_regular_graph_has_degenerate_envelope(self):
        # A cycle has every vertex of degree 2: a single non-empty bucket.
        graph = DynamicGraph(edges=[(i, (i + 1) % 20) for i in range(20)])
        fit = check_power_law_bounded(graph, beta=2.5)
        assert fit.c1 >= fit.c2

