"""Failure-atomicity of the bulk slot mutators, pinned byte-for-byte.

Before PR 9 the bulk mutators validated pair *i* only when they reached it,
so a rejected batch left pairs ``0..i-1`` applied and ``graph._num_edges``
drifted.  The contract now is **validate-then-apply**: the whole pair list
is checked first (self-loops, in-batch duplicates, already-present /
missing edges) and the raised error is the one the historical sequential
loop raised at its first offending pair — on rejection the state is
byte-identical to the pre-call state.  These tests assert that equality
over every observable surface (graph payload, edge count, membership
bytes, flat counts, statistics) for both state implementations.

The second half pins the adjacency-symmetry bugfix: a one-sided adjacency
entry now raises :class:`~repro.exceptions.GraphError` where the corruption
is observed instead of silently double-discarding.
"""

from __future__ import annotations

import dataclasses

import pytest
from slot_helpers import count, move_in, slot_pairs

from repro.core.lazy import LazyMISState
from repro.core.state import MISState
from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    SelfLoopError,
)
from repro.graphs.dynamic_graph import DynamicGraph

STATE_CLASSES = (MISState, LazyMISState)


def _build_state(state_cls):
    """A small graph with a solution: 0 and 4 in, 1-2-3-5 out.

    Edges: 0-1, 1-2, 2-3, 0-3, 4-5.
    """
    graph = DynamicGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
    state = state_cls(graph, k=2)
    move_in(state, 0, 4)
    return graph, state


def _fingerprint(state):
    """Every observable byte of a state: graph, flat arrays, statistics."""
    graph = state.graph
    return (
        sorted(graph.vertices()),
        sorted(tuple(sorted(edge)) for edge in graph.edges()),
        graph.num_edges,
        bytes(state._in_sol),
        list(state._count),
        sorted(state.solution()),
        dataclasses.asdict(state.stats)
        if hasattr(state, "stats")
        else None,
    )


#: (label, mutator name, label-level batch, expected error) — each batch has
#: valid leading pairs so a non-atomic implementation would half-apply it.
REJECTED_BATCHES = [
    (
        "insert-self-loop",
        "add_edges_slots_bulk",
        [(1, 3), (2, 4), (5, 5)],
        SelfLoopError,
    ),
    (
        "insert-existing-edge",
        "add_edges_slots_bulk",
        [(1, 3), (2, 4), (0, 1)],
        EdgeExistsError,
    ),
    (
        "insert-duplicate-in-batch",
        "add_edges_slots_bulk",
        [(1, 3), (2, 4), (3, 1)],
        EdgeExistsError,
    ),
    (
        "delete-missing-edge",
        "remove_edges_slots_bulk",
        [(0, 1), (2, 3), (1, 5)],
        EdgeNotFoundError,
    ),
    (
        "delete-duplicate-in-batch",
        "remove_edges_slots_bulk",
        [(0, 1), (2, 3), (1, 0)],
        EdgeNotFoundError,
    ),
]


class TestRejectedBatchesLeaveStateUntouched:
    @pytest.mark.parametrize("state_cls", STATE_CLASSES)
    @pytest.mark.parametrize(
        "label, mutator, batch, error",
        REJECTED_BATCHES,
        ids=[case[0] for case in REJECTED_BATCHES],
    )
    def test_rejected_batch_is_a_no_op(
        self, state_cls, label, mutator, batch, error
    ):
        graph, state = _build_state(state_cls)
        before = _fingerprint(state)
        with pytest.raises(error):
            getattr(state, mutator)(slot_pairs(state, batch))
        assert _fingerprint(state) == before
        state.check_invariants()
        graph.check_consistency()

    @pytest.mark.parametrize("state_cls", STATE_CLASSES)
    @pytest.mark.parametrize(
        "label, mutator, batch, error",
        REJECTED_BATCHES,
        ids=[case[0] for case in REJECTED_BATCHES],
    )
    def test_rejected_batch_on_a_fork_privatizes_nothing(
        self, state_cls, label, mutator, batch, error
    ):
        """Validation runs before the copy-on-write barrier, so a refused
        batch leaves a fork sharing every adjacency set it shared before."""
        graph, state = _build_state(state_cls)
        fork = state.fork(graph.fork())
        shared = bytes(fork.graph._cow_adj)
        with pytest.raises(error):
            getattr(fork, mutator)(slot_pairs(fork, batch))
        assert bytes(fork.graph._cow_adj) == shared

    @pytest.mark.parametrize("state_cls", STATE_CLASSES)
    def test_error_names_the_first_offending_pair(self, state_cls):
        """Sequential-semantics fidelity: with two violations in one batch,
        the error is the one the old per-pair loop hit first."""
        graph, state = _build_state(state_cls)
        before = _fingerprint(state)
        # Pair 1 repeats the existing edge (0, 1); pair 2 is a self-loop.
        # The sequential loop trips on the duplicate first.
        with pytest.raises(EdgeExistsError) as excinfo:
            state.add_edges_slots_bulk(
                slot_pairs(state, [(2, 4), (1, 0), (3, 3)])
            )
        assert "(1, 0)" in str(excinfo.value)
        assert _fingerprint(state) == before

    @pytest.mark.parametrize("state_cls", STATE_CLASSES)
    def test_accepted_batch_still_applies(self, state_cls):
        """The atomic rewrite must not change the success path."""
        graph, state = _build_state(state_cls)
        bumped, conflicts = state.add_edges_slots_bulk(
            slot_pairs(state, [(1, 4), (2, 5)])
        )
        assert graph.has_edge(1, 4) and graph.has_edge(2, 5)
        assert conflicts == []
        # 1 gained solution-neighbour 4; 2 is not adjacent to the solution
        # through the new edge (5 is outside).
        assert graph.slot_of(1) in bumped
        assert count(state, 1) == 2  # neighbours 0 and 4 both in solution
        state.check_invariants()


class TestAdjacencySymmetryIsEnforced:
    @pytest.mark.parametrize("state_cls", STATE_CLASSES)
    def test_remove_edge_structural_raises_on_one_sided_entry(
        self, state_cls
    ):
        graph, state = _build_state(state_cls)
        su, sv = graph.slot_of(0), graph.slot_of(1)
        state._adj[sv].remove(su)  # corrupt: edge present only as su -> sv
        with pytest.raises(GraphError, match="asymmetric"):
            state.remove_edge_structural(su, sv)

    @pytest.mark.parametrize("state_cls", STATE_CLASSES)
    @pytest.mark.parametrize("mutator", ["remove_edges_slots_bulk"])
    def test_bulk_removal_raises_on_one_sided_entry(self, state_cls, mutator):
        graph, state = _build_state(state_cls)
        su, sv = graph.slot_of(2), graph.slot_of(3)
        state._adj[sv].remove(su)
        with pytest.raises(GraphError, match="asymmetric"):
            getattr(state, mutator)([(su, sv)])

    @pytest.mark.parametrize("state_cls", STATE_CLASSES)
    def test_symmetric_removal_still_succeeds(self, state_cls):
        graph, state = _build_state(state_cls)
        su, sv = graph.slot_of(2), graph.slot_of(3)
        state.remove_edge_structural(su, sv)
        assert not graph.has_edge(2, 3)
        graph.check_consistency()
