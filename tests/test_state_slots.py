"""The slot-level API shared by :class:`MISState` and :class:`LazyMISState`.

The maintenance algorithms drive their bookkeeping through slot-indexed
methods (``move_in_slot``, ``add_edge_slots``, ``remove_vertex_slot``, the
bulk mutators …) and read it through zero-copy views (``count_slot``,
``sn_slots_view``, ``tight1_view``, ``tight_up_to_slots`` …), the only API
the states have.  The eager state stores the hierarchy and the lazy one
recomputes it, but both promise the same answers: every test runs on both
and checks them against a brute-force reading of the graph.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core.lazy import LazyMISState
from repro.core.state import MISState
from repro.exceptions import EdgeExistsError, SelfLoopError, SolutionInvariantError
from repro.graphs.dynamic_graph import DynamicGraph


@pytest.fixture(params=[MISState, LazyMISState], ids=lambda cls: cls.__name__)
def state_class(request):
    return request.param


def _state(state_class, graph, solution=(), k=2):
    state = state_class(graph, k=k)
    for vertex in solution:
        state.move_in_slot(graph.slot_of(vertex))
    return state


def _path(n=6):
    return DynamicGraph(edges=[(i, i + 1) for i in range(n - 1)])


def _own(state, slot):
    """Brute-force I(v): the solution neighbours of ``slot``."""
    in_sol = state.in_solution_view()
    return {t for t in state.graph.neighbors_slots_view(slot) if in_sol[t]}


def _outside(state):
    in_sol = state.in_solution_view()
    return [s for s in state.graph.slots() if not in_sol[s]]


class TestSlotViews:
    def test_membership_views_stay_live(self, state_class):
        graph = _path()
        state = _state(state_class, graph)
        membership, members = state.in_solution_view(), state.solution_slots_view()
        counts = state.counts_slots_view()
        four, five = graph.slot_of(4), graph.slot_of(5)
        state.move_in_slot(four)
        assert (membership[four], four in members, counts[five]) == (1, True, 1)
        state.move_out_slot(four)
        assert (membership[four], four in members, counts[five]) == (0, False, 0)

    def test_slot_queries_match_brute_force(self, state_class):
        # Solution {0, 10, 30}: 1, 2 tight on 0; 11 on 10; 20 on {0, 10};
        # 21 on {0, 10, 30}, beyond the tracked k = 2.
        graph = DynamicGraph(
            edges=[(0, 1), (0, 2), (10, 11), (0, 20), (10, 20), (0, 21), (10, 21), (21, 30)]
        )
        state = _state(state_class, graph, solution=[0, 10, 30])
        outside = _outside(state)
        for slot in outside:
            assert set(state.sn_slots_view(slot)) == _own(state, slot)
        members = sorted(state.solution_slots_view())
        for owner in members:
            expected = {s for s in outside if _own(state, s) == {owner}}
            assert set(state.tight1_view(owner)) == expected
        for level in (1, 2):
            expected = {s for s in outside if len(_own(state, s)) == level}
            assert set(state.nonsolution_slots_with_count(level)) == expected
            for owners in map(frozenset, [*combinations(members, 1), *combinations(members, 2)]):
                expected = {
                    s for s in outside
                    if 1 <= len(_own(state, s)) <= level and _own(state, s) <= owners
                }
                assert set(state.tight_up_to_slots(owners, level)) == expected
        assert len(state.sn_slots_view(graph.slot_of(21))) == 3
        assert set(state.tight1_view(graph.slot_of(0))) == {graph.slot_of(1), graph.slot_of(2)}


class TestStructuralSlots:
    def test_structural_refusals(self, state_class):
        graph = _path()
        state = _state(state_class, graph)
        with pytest.raises(EdgeExistsError):
            state.add_vertex_slot("dup", [1, 1])
        with pytest.raises(SelfLoopError):
            state.add_edge_slots(graph.slot_of(2), graph.slot_of(2))
        with pytest.raises(EdgeExistsError):
            state.add_edge_slots(graph.slot_of(2), graph.slot_of(3))

    def test_recycled_slot_starts_clean(self, state_class):
        graph = _path()
        state = _state(state_class, graph, solution=[1, 4])
        old = graph.slot_of(1)
        assert state.remove_vertex_slot(old) == (True, {graph.slot_of(0), graph.slot_of(2)})
        assert state.add_vertex_slot("fresh", [5]) == (old, 0)
        assert state.count_slot(old) == 0 and not state.in_solution_view()[old]
        assert set(state.sn_slots_view(old)) == set()
        state.move_in_slot(old)
        state.check_invariants()

    def test_add_edge_slots_between_members_is_structural_only(self, state_class):
        graph = _path()
        state = _state(state_class, graph, solution=[0, 3])
        counts = list(state.counts_slots_view())
        state.add_edge_slots(graph.slot_of(0), graph.slot_of(3))
        assert list(state.counts_slots_view()) == counts
        with pytest.raises(SolutionInvariantError):
            state.check_invariants()
        state.move_out_slot(graph.slot_of(3))  # the caller's eviction
        assert state.count_slot(graph.slot_of(3)) == 1
        state.check_invariants()

    def test_bulk_insertion_reports_bumps_and_conflicts(self, state_class):
        graph = _path(8)
        state = _state(state_class, graph, solution=[0, 3, 6])
        s = graph.slot_of
        bumped, conflicts = state.add_edges_slots_bulk(
            [(s(0), s(5)), (s(3), s(6)), (s(2), s(7)), (s(4), s(0))]
        )
        assert (sorted(bumped), conflicts) == (sorted([s(5), s(4)]), [(s(3), s(6))])
        assert state.count_slot(s(5)) == 2 and graph.num_edges == 11

    def test_bulk_deletion_reports_drops_and_outside_pairs(self, state_class):
        graph = _path(8)
        state = _state(state_class, graph, solution=[0, 3, 6])
        s = graph.slot_of
        dropped, outside = state.remove_edges_slots_bulk(
            [(s(1), s(0)), (s(4), s(5)), (s(3), s(2))]
        )
        assert (sorted(dropped), outside) == (sorted([s(1), s(2)]), [(s(4), s(5))])
        assert [state.count_slot(s(v)) for v in (1, 2)] == [0, 0]
        assert graph.num_edges == 4
        state.check_invariants()

