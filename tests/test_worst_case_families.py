"""Tests for the Theorem 3 worst-case families (subdivided cliques and hypercubes)."""

from __future__ import annotations

import pytest

from repro.core.verification import is_k_maximal_independent_set
from repro.generators.worst_case import (
    complete_graph,
    flicker_update_stream,
    hypercube_graph,
    subdivide,
    subdivided_complete_graph,
    subdivided_hypercube_graph,
    theorem3_witnesses,
    worst_case_ratio,
)


class TestBaseGraphs:
    def test_complete_graph(self):
        graph = complete_graph(6)
        assert graph.num_vertices == 6
        assert graph.num_edges == 15
        assert graph.max_degree() == 5

    def test_hypercube_graph(self):
        graph = hypercube_graph(4)
        assert graph.num_vertices == 16
        assert graph.num_edges == 32
        assert all(graph.degree(v) == 4 for v in graph.vertices())

    def test_hypercube_negative_dimension_raises(self):
        with pytest.raises(ValueError):
            hypercube_graph(-1)

    def test_hypercube_dimension_zero(self):
        graph = hypercube_graph(0)
        assert graph.num_vertices == 1
        assert graph.num_edges == 0


class TestSubdivision:
    def test_subdivide_doubles_edges(self):
        base = complete_graph(5)
        subdivided, mapping, originals = subdivide(base)
        assert len(mapping) == base.num_edges
        assert subdivided.num_edges == 2 * base.num_edges
        assert subdivided.num_vertices == base.num_vertices + base.num_edges
        assert originals == set(base.vertices())

    def test_original_vertices_become_independent(self):
        base = complete_graph(4)
        subdivided, _mapping, originals = subdivide(base)
        assert subdivided.is_independent_set(originals)

    def test_subdivision_vertices_are_independent(self):
        subdivided, _originals, subdivisions = subdivided_complete_graph(5)
        assert subdivided.is_independent_set(subdivisions)


class TestTheorem3Witnesses:
    def test_subdivided_complete_graph_sizes(self):
        graph, originals, subdivisions = subdivided_complete_graph(6)
        assert len(originals) == 6
        assert len(subdivisions) == 15
        assert graph.max_degree() == 5  # original vertices keep degree n-1

    def test_subdivided_complete_ratio_matches_delta_over_two(self):
        for n in (4, 5, 6):
            graph, originals, subdivisions = subdivided_complete_graph(n)
            ratio = worst_case_ratio(len(originals), len(subdivisions))
            assert ratio == pytest.approx(graph.max_degree() / 2)

    def test_subdivided_complete_originals_are_k_maximal_for_small_k(self):
        # Theorem 3: the original vertices are a k-maximal set for k in {2, 3}.
        graph, originals, _ = subdivided_complete_graph(4)
        assert is_k_maximal_independent_set(graph, originals, 3)

    def test_subdivided_complete_originals_admit_no_one_swap(self):
        graph, originals, _ = subdivided_complete_graph(5)
        assert is_k_maximal_independent_set(graph, originals, 1)

    def test_subdivided_hypercube_sizes(self):
        graph, originals, subdivisions = subdivided_hypercube_graph(4)
        assert len(originals) == 16
        assert len(subdivisions) == 32
        assert graph.max_degree() == 4

    def test_subdivided_hypercube_ratio(self):
        graph, originals, subdivisions = subdivided_hypercube_graph(4)
        ratio = worst_case_ratio(len(originals), len(subdivisions))
        assert ratio == pytest.approx(graph.max_degree() / 2)

    def test_witness_enumeration(self):
        witnesses = theorem3_witnesses(max_clique_size=5, max_hypercube_dim=4)
        families = {w["family"] for w in witnesses}
        assert families == {"subdivided_complete", "subdivided_hypercube"}
        for witness in witnesses:
            graph = witness["graph"]
            assert graph.is_independent_set(witness["k_maximal_set"])
            assert graph.is_independent_set(witness["optimal_set"])
            assert witness["ratio"] == pytest.approx(witness["max_degree"] / 2)

    def test_worst_case_ratio_zero_guard(self):
        assert worst_case_ratio(0, 10) == 0.0


class TestFlickerStream:
    def test_stream_is_valid_and_net_noop(self):
        graph, stream = flicker_update_stream(5, rounds=12, seed=4)
        scratch = graph.copy()
        stream.apply_all(scratch)  # every op legal in sequence
        assert sorted(scratch.vertices()) == sorted(graph.vertices())
        assert sorted(tuple(sorted(e)) for e in scratch.edges()) == sorted(
            tuple(sorted(e)) for e in graph.edges()
        )

    def test_deterministic_for_a_seed(self):
        _, first = flicker_update_stream(6, rounds=10, seed=9)
        _, second = flicker_update_stream(6, rounds=10, seed=9)
        assert list(first) == list(second)
        _, other = flicker_update_stream(6, rounds=10, seed=10)
        assert list(other) != list(first)

    def test_description_pins_parameters(self):
        _, stream = flicker_update_stream(7, rounds=3, seed=2)
        assert stream.description == "worst-case-flicker(n=7,rounds=3,seed=2)"
        assert stream.metadata["family"] == "subdivided_complete"

    def test_engine_survives_flicker_and_stays_k_maximal(self):
        from repro.experiments.runner import create_algorithm

        graph, stream = flicker_update_stream(6, rounds=15, seed=1)
        engine = create_algorithm("DyOneSwap", graph.copy(), None)
        engine.apply_batch(list(stream))
        assert is_k_maximal_independent_set(
            engine.graph, engine.solution(), 1
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            flicker_update_stream(2)
        with pytest.raises(ValueError):
            flicker_update_stream(5, rounds=-1)
