"""Slot recycling: the dense-slot core must be invisible to every caller.

``DynamicGraph`` assigns each vertex a dense integer slot and recycles the
slots of deleted vertices through a free-list.  These tests pin down the
contract of that layer:

* the state resolves a reused slot to its new vertex, never the old one,
* interned insertion indices are *never* reused (tie-breaks stay monotone),
* the flat-array state bookkeeping survives ``remove_vertex`` →
  ``add_vertex`` cycles (the recycled slot starts clean),
* algorithm trajectories are deterministic and eager/lazy-equivalent under
  heavy vertex churn, which maximises slot recycling.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from slot_helpers import count, labels, move_in, move_out

from repro.core.lazy import LazyMISState
from repro.core.one_swap import DyOneSwap
from repro.core.state import MISState
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import is_maximal_independent_set
from repro.generators.random_graphs import gnm_random_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.streams import mixed_update_stream


class TestGraphSlotRecycling:
    def test_slot_is_reused_and_order_is_fresh(self):
        graph = DynamicGraph(edges=[(0, 1), (1, 2), (2, 3)])
        slot_of_1 = graph.slot_of(1)
        order_of_1 = graph.order_of(1)
        graph.remove_vertex(1)
        assert graph.num_slots == 4  # arrays unchanged, slot 1 on the free-list
        graph.add_vertex("fresh")
        # The recycled slot is handed to the next insertion...
        assert graph.slot_of("fresh") == slot_of_1
        # ...but the interned order index is new (never reused).
        assert graph.order_of("fresh") > order_of_1
        assert graph.num_slots == 4
        assert graph.degree("fresh") == 0
        graph.check_consistency()

    def test_num_slots_stays_bounded_under_churn(self):
        graph = DynamicGraph(vertices=range(10))
        for cycle in range(50):
            graph.add_vertex(f"v{cycle}")
            graph.remove_vertex(f"v{cycle}")
        assert graph.num_slots <= 11
        graph.check_consistency()

    def test_reinserting_same_label_starts_isolated(self):
        graph = DynamicGraph(edges=[(0, 1), (1, 2)])
        graph.remove_vertex(1)
        graph.add_vertex(1)
        assert graph.degree(1) == 0
        assert not graph.has_edge(0, 1)
        graph.add_edge(1, 2)
        assert graph.neighbors(1) == {2}
        graph.check_consistency()

    def test_vertex_of_slot_of_roundtrip(self):
        graph = DynamicGraph(vertices=["a", "b", "c"])
        graph.remove_vertex("b")
        graph.add_vertex("d")
        for v in graph.vertices():
            assert graph.vertex_of(graph.slot_of(v)) == v

    def test_state_resolves_a_recycled_slot_to_its_new_vertex(self):
        """The state's counts and neighbour sets follow the slot's new occupant."""
        graph = DynamicGraph(edges=[(0, 1), (1, 2)])
        graph.remove_vertex(1)
        graph.add_vertex(99)  # occupies the recycled slot of vertex 1
        graph.add_edge(99, 0)
        graph.add_edge(99, 2)
        for state_cls in (MISState, LazyMISState):
            state = state_cls(graph.copy(), k=1)
            move_in(state, 99)
            assert (count(state, 0), count(state, 2)) == (1, 1)
            assert state.solution() == {99}
            was_in, neighbors = state.remove_vertex_slot(state.graph.slot_of(99))
            assert was_in
            assert labels(state, neighbors) == {0, 2}
            assert (count(state, 0), count(state, 2)) == (0, 0)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_random_churn_keeps_graph_consistent(self, seed):
        import random

        rng = random.Random(seed)
        graph = gnm_random_graph(15, 25, seed=seed)
        next_label = 1000
        for _ in range(60):
            vertices = list(graph.vertices())
            action = rng.random()
            if action < 0.4 and vertices:
                graph.remove_vertex(rng.choice(vertices))
            elif action < 0.8:
                neighbors = rng.sample(vertices, min(len(vertices), rng.randint(0, 3)))
                graph.add_vertex(next_label)
                for nbr in neighbors:
                    if graph.has_vertex(nbr):
                        graph.add_edge(next_label, nbr)
                next_label += 1
            elif len(vertices) >= 2:
                u, v = rng.sample(vertices, 2)
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v)
        graph.check_consistency()
        # Slot table is dense: bounded by peak live size, not total churn.
        assert graph.num_slots <= 15 + 60


class TestStateSlotRecycling:
    def _churn(self, state_cls, seed):
        import random

        rng = random.Random(seed)
        graph = gnm_random_graph(20, 30, seed=seed)
        state = state_cls(graph, k=2)
        member = state.in_solution_view()
        for v in sorted(graph.vertices(), key=lambda v: graph.slot_order_key(graph.slot_of(v))):
            if not member[graph.slot_of(v)] and count(state, v) == 0:
                move_in(state, v)
        next_label = 500
        for _ in range(120):
            vertices = list(graph.vertices())
            action = rng.random()
            if action < 0.35 and vertices:
                state.remove_vertex_slot(graph.slot_of(rng.choice(vertices)))
            elif action < 0.7:
                neighbors = rng.sample(vertices, min(len(vertices), rng.randint(0, 3)))
                slot, new_count = state.add_vertex_slot(next_label, neighbors)
                if new_count == 0:
                    state.move_in_slot(slot)
                next_label += 1
            elif vertices:
                v = rng.choice(vertices)
                if member[graph.slot_of(v)]:
                    move_out(state, v)
                elif count(state, v) == 0:
                    move_in(state, v)
        return state

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_eager_state_survives_recycling(self, seed):
        state = self._churn(MISState, seed)
        state.graph.check_consistency()
        state.check_invariants()

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_lazy_state_survives_recycling(self, seed):
        state = self._churn(LazyMISState, seed)
        state.graph.check_consistency()
        state.check_invariants()


class TestAlgorithmsUnderSlotRecycling:
    """Vertex-heavy streams maximise free-list reuse inside the algorithms."""

    def _workload(self, graph_seed, stream_seed):
        graph = gnm_random_graph(20, 30, seed=graph_seed)
        # edge_fraction=0.2: most operations are vertex deletions/insertions,
        # so inserted vertices constantly land in recycled slots.
        stream = mixed_update_stream(
            graph, 80, seed=stream_seed, edge_fraction=0.2
        )
        return graph, stream

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph_seed=st.integers(min_value=0, max_value=2**20),
        stream_seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_runs_are_deterministic(self, graph_seed, stream_seed):
        graph, stream = self._workload(graph_seed, stream_seed)
        runs = []
        for _ in range(2):
            algo = DyTwoSwap(graph.copy(), check_invariants=True)
            algo.apply_stream(stream)
            runs.append(algo.solution())
        assert runs[0] == runs[1]
        assert is_maximal_independent_set(algo.graph, runs[1])

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        graph_seed=st.integers(min_value=0, max_value=2**20),
        stream_seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_eager_lazy_equivalence_under_recycling(self, graph_seed, stream_seed):
        graph, stream = self._workload(graph_seed, stream_seed)
        for algorithm_class in (DyOneSwap, DyTwoSwap):
            eager = algorithm_class(graph.copy(), lazy=False)
            lazy = algorithm_class(graph.copy(), lazy=True)
            eager.apply_stream(stream)
            lazy.apply_stream(stream)
            assert eager.solution() == lazy.solution()
            eager.state.check_invariants()
            lazy.state.check_invariants()

    def test_graph_stays_bounded_after_stream(self):
        graph, stream = self._workload(7, 11)
        algo = DyOneSwap(graph.copy())
        algo.apply_stream(stream)
        algo.graph.check_consistency()
        # The slot table grows with peak liveness, not with total insertions.
        assert algo.graph.num_slots <= graph.num_slots + len(stream)

