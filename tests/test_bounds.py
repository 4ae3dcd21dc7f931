"""Tests for the theoretical bounds of Section III (Theorems 2-4, Lemma 2)."""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import (
    _riemann_zeta,
    lemma2_expected_tight2_bound,
    measured_tight2_sizes,
    ratio_report,
    theorem2_ratio_bound,
    theorem2_size_lower_bound,
    theorem3_worst_case_ratio,
    theorem4_constant,
    theorem4_constant_for_graph,
)
from repro.core.one_swap import DyOneSwap
from repro.generators.power_law import power_law_random_graph
from repro.generators.worst_case import subdivided_complete_graph
from repro.graphs.dynamic_graph import DynamicGraph


class TestTheorem2:
    def test_ratio_bound_formula(self):
        assert theorem2_ratio_bound(0) == 1.0
        assert theorem2_ratio_bound(4) == 3.0
        assert theorem2_ratio_bound(7) == 4.5

    def test_size_lower_bound(self, star_graph):
        # α = 6, Δ = 6 -> any 1-maximal set has at least 6 / 4 = 1.5 vertices.
        assert theorem2_size_lower_bound(star_graph, 6) == pytest.approx(1.5)

    def test_one_maximal_solution_respects_bound_on_star(self, star_graph):
        algo = DyOneSwap(star_graph)
        bound = theorem2_ratio_bound(star_graph.max_degree())
        assert 6 <= bound * algo.solution_size

    def test_bound_holds_on_worst_case_family(self):
        graph, originals, subdivisions = subdivided_complete_graph(6)
        ratio = len(subdivisions) / len(originals)
        assert ratio <= theorem2_ratio_bound(graph.max_degree()) + 1e-9
        # And Theorem 3 says the achieved ratio is exactly Δ/2.
        assert ratio == pytest.approx(theorem3_worst_case_ratio(graph.max_degree()))


class TestTheorem4:
    def test_constant_formula(self):
        value = theorem4_constant(c1=2.0, c2=0.5, beta=2.5, shift=0.0)
        first = 2.0 * 1.0 / 0.5
        second = 2.0 * 2.0 * 1.0 / (0.5 * 1.5 * 2.0 ** 1.5) + 1.0
        assert value == pytest.approx(min(first, second))

    def test_constant_infinite_when_envelope_invalid(self):
        assert theorem4_constant(c1=1.0, c2=0.0, beta=2.5) == float("inf")

    def test_constant_for_power_law_graph_is_finite(self):
        graph = power_law_random_graph(2500, 2.5, seed=1)
        constant = theorem4_constant_for_graph(graph, beta=2.5)
        assert constant > 1.0
        assert constant != float("inf")

    def test_constant_for_non_plb_graph_is_infinite(self):
        # A graph with a single degree bucket missing inside the range breaks
        # the lower envelope; an empty graph certainly does.
        assert theorem4_constant_for_graph(DynamicGraph()) == float("inf")


class TestLemma2:
    def test_riemann_zeta_known_value(self):
        assert _riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-4)

    def test_riemann_zeta_diverges_at_one(self):
        assert _riemann_zeta(1.0) == float("inf")
        assert _riemann_zeta(0.5) == float("inf")

    def test_lemma2_bound_finite_for_beta_above_2_5(self):
        bound = lemma2_expected_tight2_bound(
            c1=1.5, c2=0.5, beta=2.8, average_degree=6.0
        )
        assert 0 < bound < float("inf")

    def test_lemma2_bound_infinite_for_small_beta(self):
        bound = lemma2_expected_tight2_bound(
            c1=1.5, c2=0.5, beta=2.2, average_degree=6.0
        )
        assert bound == float("inf")

    def test_lemma2_bound_requires_positive_c2(self):
        assert lemma2_expected_tight2_bound(
            c1=1.0, c2=0.0, beta=3.0, average_degree=4.0
        ) == float("inf")

    def test_measured_tight2_sizes(self, star_graph):
        # With the leaves as the solution, the hub has count 6, so no vertex
        # contributes to ¯I_2 of any leaf.
        sizes = measured_tight2_sizes(star_graph, {1, 2, 3, 4, 5, 6})
        assert all(size == 0 for size in sizes.values())

    def test_measured_tight2_sizes_counts_two_owner_vertices(self):
        graph = DynamicGraph(edges=[("x", "a"), ("y", "a"), ("x", "b")])
        sizes = measured_tight2_sizes(graph, {"x", "y"})
        assert sizes["x"] == 1  # vertex a
        assert sizes["y"] == 1


class TestRatioReport:
    def test_report_fields(self, star_graph):
        report = ratio_report(star_graph, solution_size=6, reference_size=6)
        assert report.measured_ratio == pytest.approx(1.0)
        assert report.within_theorem2
        assert report.max_degree == 6

    def test_report_with_zero_solution(self, star_graph):
        report = ratio_report(star_graph, solution_size=0, reference_size=6)
        assert report.measured_ratio == float("inf")
        assert not report.within_theorem2
