"""Property-based tests (Hypothesis) for the core invariants.

These tests generate random graphs and random update sequences and assert the
library's central guarantees: structural consistency of the dynamic graph
and k-maximality of the maintained solutions after arbitrary valid update
streams.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.exact import brute_force_maximum_independent_set
from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import (
    is_k_maximal_independent_set,
    is_maximal_independent_set,
)
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import apply_update, invert_update
from repro.updates.streams import mixed_update_stream

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #


@st.composite
def small_graphs(draw, max_vertices: int = 12, edge_bias: float = 0.35):
    """Generate a small simple graph as a DynamicGraph."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    vertices = list(range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()) and draw(st.floats(0, 1)) < edge_bias:
                edges.append((i, j))
    return DynamicGraph(vertices=vertices, edges=edges)


@st.composite
def medium_graphs(draw, min_vertices: int = 10, max_vertices: int = 40):
    """Generate a medium graph from a random edge count (for algorithm runs)."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    max_edges = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(max_edges, 3 * n)))
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1)
    )
    edges = draw(st.lists(pair, min_size=m, max_size=m))
    graph = DynamicGraph(vertices=range(n))
    for u, v in edges:
        if u != v:
            graph.add_edge_if_missing(u, v)
    return graph


# --------------------------------------------------------------------------- #
# Graph substrate properties
# --------------------------------------------------------------------------- #
class TestGraphProperties:
    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_consistency_and_handshake(self, graph):
        graph.check_consistency()
        assert sum(graph.degree_sequence()) == 2 * graph.num_edges

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_copy_equals_original(self, graph):
        assert graph.copy() == graph

    @given(small_graphs(), st.sets(st.integers(min_value=0, max_value=11)))
    @settings(max_examples=60, deadline=None)
    def test_subgraph_preserves_adjacency(self, graph, keep):
        sub = graph.subgraph(keep)
        for u, v in sub.edges():
            assert graph.has_edge(u, v)
        for v in sub.vertices():
            assert graph.has_vertex(v)

    @given(medium_graphs())
    @settings(max_examples=30, deadline=None)
    def test_components_partition_vertices(self, graph):
        components = graph.connected_components()
        union = set()
        total = 0
        for component in components:
            union |= component
            total += len(component)
        assert union == set(graph.vertices())
        assert total == graph.num_vertices


# --------------------------------------------------------------------------- #
# Update operations
# --------------------------------------------------------------------------- #
class TestUpdateProperties:
    @given(medium_graphs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_stream_application_keeps_graph_consistent(self, graph, seed):
        stream = mixed_update_stream(graph, 40, seed=seed)
        working = graph.copy()
        stream.apply_all(working)
        working.check_consistency()

    @given(medium_graphs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_invert_restores_graph(self, graph, seed):
        stream = mixed_update_stream(graph, 25, seed=seed)
        working = graph.copy()
        inverses = []
        for operation in stream:
            inverses.append(invert_update(working, operation))
            apply_update(working, operation)
        for inverse in reversed(inverses):
            apply_update(working, inverse)
        assert working == graph


# --------------------------------------------------------------------------- #
# Maintenance algorithm invariants
# --------------------------------------------------------------------------- #
class TestMaintenanceProperties:
    @given(medium_graphs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dyoneswap_maintains_one_maximality(self, graph, seed):
        stream = mixed_update_stream(graph, 60, seed=seed)
        algo = DyOneSwap(graph.copy(), check_invariants=True)
        algo.apply_stream(stream)
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 1)

    @given(medium_graphs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dytwoswap_maintains_two_maximality(self, graph, seed):
        stream = mixed_update_stream(graph, 60, seed=seed)
        algo = DyTwoSwap(graph.copy(), check_invariants=True)
        algo.apply_stream(stream)
        assert is_k_maximal_independent_set(algo.graph, algo.solution(), 2)

    @given(medium_graphs(), st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_lazy_and_perturbed_variants_stay_maximal(self, graph, seed, lazy):
        stream = mixed_update_stream(graph, 50, seed=seed)
        algo = DyOneSwap(graph.copy(), lazy=lazy, perturbation=True, check_invariants=True)
        algo.apply_stream(stream)
        assert is_maximal_independent_set(algo.graph, algo.solution())

    @given(medium_graphs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_theorem2_bound_holds_against_brute_force(self, graph, seed):
        stream = mixed_update_stream(graph, 40, seed=seed)
        algo = DyOneSwap(graph.copy())
        algo.apply_stream(stream)
        final = algo.graph
        if final.num_vertices == 0:
            return
        if final.num_vertices <= 20:
            alpha = len(brute_force_maximum_independent_set(final))
            bound = final.max_degree() / 2 + 1
            assert alpha <= bound * max(algo.solution_size, 1) + 1e-9
