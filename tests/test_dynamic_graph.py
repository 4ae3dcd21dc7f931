"""Unit tests for the dynamic graph substrate."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    SelfLoopError,
    VertexExistsError,
    VertexNotFoundError,
)
from repro.graphs.dynamic_graph import DynamicGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = DynamicGraph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.vertices()) == []
        assert list(graph.edges()) == []

    def test_vertices_only(self):
        graph = DynamicGraph(vertices=[1, 2, 3])
        assert graph.num_vertices == 3
        assert graph.num_edges == 0

    def test_edges_create_missing_vertices(self):
        graph = DynamicGraph(edges=[(1, 2), (2, 3)])
        assert graph.num_vertices == 3
        assert graph.num_edges == 2

    def test_duplicate_edges_in_constructor_are_ignored(self):
        graph = DynamicGraph(edges=[(1, 2), (2, 1), (1, 2)])
        assert graph.num_edges == 1

    def test_self_loops_in_constructor_are_ignored(self):
        graph = DynamicGraph(edges=[(1, 1), (1, 2)])
        assert graph.num_edges == 1
        assert graph.has_vertex(1)

    def test_len_and_contains(self):
        graph = DynamicGraph(vertices=[1, 2])
        assert len(graph) == 2
        assert 1 in graph
        assert 3 not in graph


class TestAccessors:
    def test_neighbors(self, path_graph):
        assert path_graph.neighbors(2) == {1, 3}
        assert path_graph.neighbors(0) == {1}

    def test_neighbors_missing_vertex_raises(self, path_graph):
        with pytest.raises(VertexNotFoundError):
            path_graph.neighbors(99)

    def test_degree(self, star_graph):
        assert star_graph.degree(0) == 6
        assert star_graph.degree(1) == 1

    def test_max_min_average_degree(self, star_graph):
        assert star_graph.max_degree() == 6
        assert star_graph.min_degree() == 1
        assert star_graph.average_degree() == pytest.approx(12 / 7)

    def test_degree_statistics_on_empty_graph(self):
        graph = DynamicGraph()
        assert graph.max_degree() == 0
        assert graph.min_degree() == 0
        assert graph.average_degree() == 0.0

    def test_edges_iterates_each_edge_once(self, cycle_graph):
        edges = list(cycle_graph.edges())
        assert len(edges) == 6
        normalized = {frozenset(e) for e in edges}
        assert len(normalized) == 6

    def test_has_edge_is_symmetric(self, path_graph):
        assert path_graph.has_edge(1, 2)
        assert path_graph.has_edge(2, 1)
        assert not path_graph.has_edge(0, 4)

    def test_degree_sequence(self, star_graph):
        sequence = sorted(star_graph.degree_sequence())
        assert sequence == [1, 1, 1, 1, 1, 1, 6]


class TestMutation:
    def test_add_vertex(self):
        graph = DynamicGraph()
        graph.add_vertex(5)
        assert graph.has_vertex(5)
        with pytest.raises(VertexExistsError):
            graph.add_vertex(5)

    def test_remove_vertex_returns_neighbors(self, path_graph):
        neighbors = path_graph.remove_vertex(2)
        assert neighbors == {1, 3}
        assert not path_graph.has_vertex(2)
        assert path_graph.num_edges == 2

    def test_remove_missing_vertex_raises(self):
        graph = DynamicGraph()
        with pytest.raises(VertexNotFoundError):
            graph.remove_vertex(1)

    def test_add_edge(self):
        graph = DynamicGraph(vertices=[1, 2])
        graph.add_edge(1, 2)
        assert graph.has_edge(1, 2)
        assert graph.num_edges == 1

    def test_add_edge_missing_vertex_raises(self):
        graph = DynamicGraph(vertices=[1])
        with pytest.raises(VertexNotFoundError):
            graph.add_edge(1, 2)

    def test_add_edge_add_missing_vertices(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, add_missing_vertices=True)
        assert graph.has_edge(1, 2)

    def test_add_duplicate_edge_raises(self, path_graph):
        with pytest.raises(EdgeExistsError):
            path_graph.add_edge(0, 1)

    def test_add_self_loop_raises(self, path_graph):
        with pytest.raises(SelfLoopError):
            path_graph.add_edge(1, 1)

    def test_add_edge_if_missing(self, path_graph):
        assert path_graph.add_edge_if_missing(0, 4) is True
        assert path_graph.add_edge_if_missing(0, 4) is False
        assert path_graph.add_edge_if_missing(0, 0) is False

    def test_remove_edge(self, path_graph):
        path_graph.remove_edge(1, 2)
        assert not path_graph.has_edge(1, 2)
        assert path_graph.num_edges == 3

    def test_remove_missing_edge_raises(self, path_graph):
        with pytest.raises(EdgeNotFoundError):
            path_graph.remove_edge(0, 4)
        with pytest.raises(VertexNotFoundError):
            path_graph.remove_edge(0, 99)

    def test_edge_count_consistency_after_mixed_mutations(self):
        graph = DynamicGraph()
        for v in range(10):
            graph.add_vertex(v)
        for v in range(9):
            graph.add_edge(v, v + 1)
        graph.remove_vertex(5)
        graph.add_edge(4, 6)
        graph.remove_edge(0, 1)
        graph.check_consistency()
        assert graph.num_edges == 7


class TestDerivedViews:
    def test_copy_is_independent(self, path_graph):
        clone = path_graph.copy()
        clone.remove_vertex(2)
        assert path_graph.has_vertex(2)
        assert clone.num_vertices == path_graph.num_vertices - 1

    def test_equality(self, path_graph):
        assert path_graph == path_graph.copy()
        other = path_graph.copy()
        other.add_edge(0, 4)
        assert path_graph != other

    def test_connected_components(self):
        graph = DynamicGraph(edges=[(0, 1), (2, 3)], vertices=[4])
        components = sorted(graph.connected_components(), key=lambda c: min(c))
        assert components == [{0, 1}, {2, 3}, {4}]

    def test_check_consistency_detects_nothing_on_valid_graph(self, cycle_graph):
        cycle_graph.check_consistency()


def _corrupt_edge_counter(graph):
    graph._num_edges += 1


def _corrupt_symmetry(graph):
    graph.adjacency_slots_view()[graph.slot_of(1)].discard(graph.slot_of(2))


def _corrupt_free_slot(graph):
    slot = graph.slot_of(3)
    graph.pop_vertex_slot(slot)
    graph.adjacency_slots_view()[slot].add(graph.slot_of(0))


def _corrupt_cow_bitmap(graph):
    graph.fork()
    graph._cow_adj.pop()


CORRUPTIONS = {
    "edge-counter": (_corrupt_edge_counter, "edge counter"),
    "one-sided-edge": (_corrupt_symmetry, "asymmetric edge"),
    "free-slot-adjacency": (_corrupt_free_slot, "residual adjacency"),
    "cow-bitmap-length": (_corrupt_cow_bitmap, "copy-on-write bitmap"),
}


@pytest.mark.parametrize("corrupt, reason", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_check_consistency_raises_graph_error(corrupt, reason):
    graph = DynamicGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    corrupt(graph)
    with pytest.raises(GraphError, match=reason):
        graph.check_consistency()


def test_check_consistency_survives_optimised_mode():
    """The checks raise, so ``python -O`` (no ``assert``) keeps them."""
    script = (
        "from repro.exceptions import GraphError\n"
        "from repro.graphs.dynamic_graph import DynamicGraph\n"
        "graph = DynamicGraph(edges=[(0, 1)])\n"
        "graph._num_edges = 5\n"
        "try:\n"
        "    graph.check_consistency()\n"
        "except GraphError:\n"
        "    print('refused')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert result.stdout.strip() == "refused", result.stderr
