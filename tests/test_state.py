"""Tests for the solution-state bookkeeping.

The eager :class:`MISState` and the count-only :class:`LazyMISState` promise
the same slot-level behaviour, so every test runs on both except those that
corrupt the eager state's stored ``I(v)`` sets on purpose.  Vertices are
named by label and translated through ``slot_helpers``.
"""

from __future__ import annotations

import pytest
from slot_helpers import count, labels, move_in, move_out, slots

from repro.core import DyOneSwap, DyTwoSwap
from repro.core.lazy import LazyMISState
from repro.core.state import _EMPTY, MISState
from repro.exceptions import SolutionInvariantError
from repro.generators import power_law_random_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates import mixed_update_stream


@pytest.fixture(params=[MISState, LazyMISState], ids=lambda cls: cls.__name__)
def state_class(request):
    return request.param


def make_state(state_class, graph, k=1, solution=()):
    state = state_class(graph, k=k)
    move_in(state, *solution)
    return state


class TestBasics:
    def test_requires_positive_k(self, state_class, path_graph):
        with pytest.raises(ValueError):
            state_class(path_graph, k=0)

    def test_initially_empty_solution(self, state_class, path_graph):
        state = state_class(path_graph)
        assert state.solution_size == 0
        assert state.solution() == set()
        assert count(state, 2) == 0

    def test_move_in_updates_counts(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[2])
        assert state.in_solution_view()[path_graph.slot_of(2)]
        assert count(state, 1) == 1
        assert count(state, 3) == 1
        assert count(state, 0) == 0
        assert labels(state, state.sn_slots_view(path_graph.slot_of(1))) == {2}

    def test_move_in_raises_each_neighbour_count_by_one(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[4])
        before = list(state.counts_slots_view())
        assert state.move_in_slot(path_graph.slot_of(1)) is None
        after = state.counts_slots_view()
        raised = {s for s in path_graph.slots() if after[s] != before[s]}
        assert labels(state, raised) == {0, 2}
        assert all(after[s] == before[s] + 1 for s in raised)
        assert state.stats.count_updates == 1 + 2

    def test_move_in_twice_raises(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[2])
        with pytest.raises(SolutionInvariantError):
            move_in(state, 2)

    def test_move_in_with_solution_neighbor_raises(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[2])
        with pytest.raises(SolutionInvariantError):
            move_in(state, 1)

    def test_move_out(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        move_out(state, 2)
        assert not state.in_solution_view()[path_graph.slot_of(2)]
        assert count(state, 1) == 1  # still adjacent to 0
        assert count(state, 3) == 1  # still adjacent to 4
        assert count(state, 2) == 0

    def test_move_out_not_in_solution_raises(self, state_class, path_graph):
        state = state_class(path_graph)
        with pytest.raises(SolutionInvariantError):
            move_out(state, 3)

    def test_count_of_solution_vertex_is_zero(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[2])
        assert count(state, 2) == 0
        assert set(state.sn_slots_view(path_graph.slot_of(2))) == set()


class TestTightSets:
    def test_tight_view_level1(self, state_class, star_graph):
        state = make_state(state_class, star_graph, solution=[0])
        tight = state.tight_view(slots(state, [0]), 1)
        assert labels(state, tight) == {1, 2, 3, 4, 5, 6}
        assert set(state.tight1_view(star_graph.slot_of(0))) == set(tight)

    def test_tight_view_level2_follows_an_owner_leaving(self, state_class):
        # 2 and 3 both see {0, 1}; once 1 leaves they are tight on 0 alone.
        graph = DynamicGraph(edges=[(0, 2), (2, 1), (0, 3), (3, 1)])
        state = make_state(state_class, graph, k=2, solution=[0, 1])
        pair = slots(state, [0, 1])
        assert labels(state, state.tight_view(pair, 2)) == {2, 3}
        assert labels(state, state.tight1_view(graph.slot_of(0))) == set()
        move_out(state, 1)
        assert set(state.tight_view(pair, 2)) == set()
        assert labels(state, state.tight1_view(graph.slot_of(0))) == {2, 3}
        state.check_invariants()

    def test_tight_view_level_exceeding_k_raises(self, state_class, star_graph):
        state = make_state(state_class, star_graph, solution=[0])
        with pytest.raises(ValueError):
            state.tight_view(slots(state, [0, 1]), 2)

    def test_level2_membership(self, state_class):
        # 0 - 2 - 1 plus 0 - 3 - 1: vertices 2 and 3 both see solution {0, 1}.
        graph = DynamicGraph(edges=[(0, 2), (2, 1), (0, 3), (3, 1)])
        state = make_state(state_class, graph, k=2, solution=[0, 1])
        pair = slots(state, [0, 1])
        assert labels(state, state.tight_view(pair, 2)) == {2, 3}
        assert labels(state, state.tight_up_to_slots(pair, 2)) == {2, 3}

    def test_tight_up_to_unions_levels(self, state_class):
        graph = DynamicGraph(edges=[(0, 2), (2, 1), (0, 3)])
        state = make_state(state_class, graph, k=2, solution=[0, 1])
        pair = slots(state, [0, 1])
        assert labels(state, state.tight_view(pair, 2)) == {2}
        assert labels(state, state.tight_up_to_slots(pair, 2)) == {2, 3}

    def test_nonsolution_slots_with_count(self, state_class, star_graph):
        state = make_state(state_class, star_graph, solution=[0])
        assert labels(state, state.nonsolution_slots_with_count(1)) == {1, 2, 3, 4, 5, 6}

    def test_tight_sets_follow_move_out(self, state_class, star_graph):
        state = make_state(state_class, star_graph, solution=[0])
        move_out(state, 0)
        assert set(state.tight1_view(star_graph.slot_of(0))) == set()
        assert state.nonsolution_slots_with_count(1) == set()


class TestStructuralUpdates:
    def test_add_vertex_counts_solution_neighbors(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        slot, new_count = state.add_vertex_slot(9, [2, 4])
        assert new_count == 2 == state.count_slot(slot)
        assert path_graph.slot_of(9) == slot

    def test_add_vertex_isolated(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0])
        _slot, new_count = state.add_vertex_slot(9, [])
        assert new_count == 0

    def test_remove_solution_vertex(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        was_in, neighbors = state.remove_vertex_slot(path_graph.slot_of(2))
        assert was_in
        assert labels(state, neighbors) == {1, 3}
        assert (count(state, 1), count(state, 3)) == (1, 1)
        assert not path_graph.has_vertex(2)

    def test_remove_nonsolution_vertex(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2])
        before = {v: count(state, v) for v in (0, 2, 3, 4)}
        was_in, _neighbors = state.remove_vertex_slot(path_graph.slot_of(1))
        assert not was_in
        assert {v: count(state, v) for v in before} == before
        assert not path_graph.has_vertex(1)

    def test_add_edge_updates_counts(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        state.add_edge_slots(path_graph.slot_of(0), path_graph.slot_of(3))
        assert count(state, 3) == 3

    def test_add_edge_between_nonsolution_vertices(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        before = list(state.counts_slots_view())
        state.add_edge_slots(path_graph.slot_of(1), path_graph.slot_of(3))
        assert list(state.counts_slots_view()) == before

    def test_remove_edge_updates_counts(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        s = path_graph.slot_of
        assert state.remove_edge_one_sided(s(3), s(2)) == 1
        assert count(state, 3) == 1

    def test_structure_size_positive_and_grows_with_tracking(self, state_class, star_graph):
        state1 = make_state(state_class, star_graph.copy(), k=1, solution=[0])
        state2 = make_state(state_class, star_graph.copy(), k=2, solution=[0])
        assert state1.structure_size() > 0
        assert state2.structure_size() >= state1.structure_size()


class TestInvariantChecking:
    def test_check_invariants_on_consistent_state(self, state_class, cycle_graph):
        state = make_state(state_class, cycle_graph, solution=[0, 2, 4])
        state.check_invariants()

    def test_is_maximal(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2, 4])
        assert state.is_maximal()
        move_out(state, 4)
        assert not state.is_maximal()

    def test_check_invariants_detects_adjacent_solution(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0])
        # Corrupt the state on purpose (slot of label 1 is 1 in a fresh path).
        state._in_sol[1] = 1
        state._sol_slots.add(1)
        with pytest.raises(SolutionInvariantError):
            state.check_invariants()

    def test_check_invariants_detects_wrong_counts(self, path_graph):
        state = make_state(MISState, path_graph, solution=[0, 2])
        state._sn[1].discard(0)
        with pytest.raises(SolutionInvariantError):
            state.check_invariants()

    @pytest.mark.parametrize("k, vertex, level", [(1, 3, 1), (2, 1, 2)])
    def test_check_invariants_detects_a_vertex_missing_from_its_bucket(
        self, path_graph, k, vertex, level
    ):
        state = make_state(MISState, path_graph, k=k, solution=[0, 2])
        slot = path_graph.slot_of(vertex)
        owners = frozenset(state.sn_slots_view(slot))
        state.tight_view(owners, level).discard(slot)  # the stored bucket itself
        with pytest.raises(
            SolutionInvariantError, match=f"{vertex} is missing from ¯I_{level}"
        ):
            state.check_invariants()


class TestMemberBookkeeping:
    """A solution vertex stores count 0 (and, eagerly, an empty ``I(v)``)."""

    def test_check_invariants_detects_a_member_count(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2])
        state._count[path_graph.slot_of(2)] = 3
        with pytest.raises(SolutionInvariantError, match="stores count 3"):
            state.check_invariants()

    def test_count_slot_reads_the_count_table(self, state_class, path_graph):
        state = make_state(state_class, path_graph, solution=[0, 2])
        state._count[path_graph.slot_of(2)] = 3
        table = state.counts_slots_view()
        assert [state.count_slot(s) for s in path_graph.slots()] == [
            table[s] for s in path_graph.slots()
        ]

    def test_check_invariants_detects_a_member_solution_neighbour_set(self, path_graph):
        state = make_state(MISState, path_graph, solution=[0, 2])
        # A member's I(v) is the shared immutable empty set: plant by assignment.
        state._sn[path_graph.slot_of(2)] = {path_graph.slot_of(0)}
        with pytest.raises(SolutionInvariantError, match="not the empty set"):
            state.check_invariants()


class TestSharedEmptySet:
    """Every empty ``I(v)`` of the eager state is the shared ``_EMPTY``.

    A solution vertex, a non-solution vertex without solution neighbours and
    a free slot all store that one frozenset, so only a vertex with a
    solution neighbour holds a set of its own.
    """

    @staticmethod
    def assert_shared(engine):
        engine.state.check_invariants()
        stored = engine.state._sn
        empty = [nbrs for nbrs in stored if not nbrs]
        assert len(empty) >= engine.solution_size > 0
        assert all(nbrs is _EMPTY for nbrs in empty)

    @pytest.fixture(scope="class")
    def graph(self):
        return power_law_random_graph(300, 2.3, seed=42)

    @pytest.mark.parametrize("cls", [DyOneSwap, DyTwoSwap])
    def test_after_set_up(self, graph, cls):
        self.assert_shared(cls(graph.copy()))

    @pytest.mark.parametrize("edge_fraction", [0.8, 0.3], ids=["edges", "vertex-churn"])
    @pytest.mark.parametrize("batch", [1, 8, 64], ids=["b1", "short-b8", "bulk-b64"])
    @pytest.mark.parametrize("cls", [DyOneSwap, DyTwoSwap])
    def test_after_a_mixed_stream(self, graph, cls, batch, edge_fraction):
        engine = cls(graph.copy())
        stream = mixed_update_stream(graph, 400, seed=7, edge_fraction=edge_fraction)
        engine.apply_stream(stream, batch_size=batch)
        self.assert_shared(engine)

    @pytest.mark.parametrize("cls", [DyOneSwap, DyTwoSwap])
    def test_after_a_fork_written_on_both_sides(self, graph, cls):
        parent = cls(graph.copy())
        child = parent.fork()
        for engine, seed in ((parent, 11), (child, 12)):
            stream = mixed_update_stream(engine.graph, 300, seed=seed, edge_fraction=0.5)
            engine.apply_stream(stream, batch_size=8)
        assert parent.solution() != child.solution()
        self.assert_shared(parent)
        self.assert_shared(child)
