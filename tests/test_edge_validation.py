"""Failure-atomic validation inside the bulk edge mutators.

:meth:`~repro.core.state.SlotState.add_edges_slots_bulk` and
:meth:`~repro.core.state.SlotState.remove_edges_slots_bulk` check a whole
slot-pair list before they touch any state.  They must accept exactly the
lists the sequential loop (``add_edge_slots`` / ``remove_edge_slots`` one
pair at a time, on a scratch copy) accepts and leave the same graph behind,
reject the others with the same error at the same pair, and leave the graph
of a refused batch untouched.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lazy import LazyMISState
from repro.exceptions import EdgeExistsError, EdgeNotFoundError, SelfLoopError
from repro.graphs.dynamic_graph import DynamicGraph

#: kind -> (bulk mutator, the per-pair graph primitive it stands in for)
MUTATORS = {
    "insert": ("add_edges_slots_bulk", DynamicGraph.add_edge_slots),
    "delete": ("remove_edges_slots_bulk", DynamicGraph.remove_edge_slots),
}

slot_pairs = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40)


def _apply_bulk(kind, graph, pairs):
    """Run the bulk mutator over ``graph`` (no solution, so only edges move)."""
    getattr(LazyMISState(graph), MUTATORS[kind][0])(pairs)


def _sequential(kind, scratch, pairs):
    for su, sv in pairs:
        MUTATORS[kind][1](scratch, su, sv)


def _outcome(fn, *args):
    """Call ``fn`` and normalise the result or the raised error for diffing."""
    try:
        fn(*args)
    except (SelfLoopError, EdgeExistsError, EdgeNotFoundError) as exc:
        return type(exc).__name__, exc.args
    return "ok", ()


def _path_graph():
    """Path 0-1-2-3 on slots 0..3; slots 4 and 5 are isolated."""
    return DynamicGraph(vertices=range(6), edges=[(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("kind", MUTATORS)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(existing=slot_pairs, batch=slot_pairs)
def test_validation_matches_the_sequential_loop(kind, existing, batch):
    graph = DynamicGraph(vertices=range(12), edges=existing)
    if kind == "delete":  # lead with present edges so acceptance is exercised
        batch = sorted(graph.edges())[: len(batch) // 2] + batch
    before = graph.to_payload()
    scratch = graph.copy()
    expected = _outcome(_sequential, kind, scratch, batch)
    assert _outcome(_apply_bulk, kind, graph, batch) == expected
    if expected[0] == "ok":
        assert graph.to_payload() == scratch.to_payload()
    else:
        assert graph.to_payload() == before  # a refused batch mutates nothing


REJECTIONS = {
    "insert-self-loop": ("insert", [(4, 5), (3, 3)], SelfLoopError, (3,)),
    "insert-existing-edge": ("insert", [(0, 1)], EdgeExistsError, (0, 1)),
    "insert-existing-edge-reversed": ("insert", [(4, 5), (2, 1)], EdgeExistsError, (2, 1)),
    "insert-duplicate-in-batch": ("insert", [(4, 5), (0, 4), (4, 5)], EdgeExistsError, (4, 5)),
    "insert-duplicate-reversed": ("insert", [(0, 4), (4, 0)], EdgeExistsError, (4, 0)),
    "insert-first-offender-wins": ("insert", [(0, 5), (5, 5), (0, 1)], SelfLoopError, (5,)),
    "delete-missing-edge": ("delete", [(0, 2)], EdgeNotFoundError, (0, 2)),
    "delete-isolated-endpoint": ("delete", [(1, 2), (3, 4)], EdgeNotFoundError, (3, 4)),
    "delete-duplicate-in-batch": ("delete", [(0, 1), (1, 2), (0, 1)], EdgeNotFoundError, (0, 1)),
    "delete-duplicate-reversed": ("delete", [(2, 3), (3, 2)], EdgeNotFoundError, (3, 2)),
    "delete-first-offender-wins": ("delete", [(2, 1), (0, 3), (1, 1)], EdgeNotFoundError, (0, 3)),
}


@pytest.mark.parametrize("kind, pairs, error, named", REJECTIONS.values(), ids=REJECTIONS)
def test_rejected_at_the_first_offending_pair(kind, pairs, error, named):
    graph = _path_graph()
    before = graph.to_payload()
    with pytest.raises(error) as excinfo:
        _apply_bulk(kind, graph, pairs)
    assert excinfo.value.args == error(*named).args
    assert graph.to_payload() == before
    assert _outcome(_sequential, kind, graph.copy(), pairs) == (
        error.__name__,
        excinfo.value.args,
    )


ACCEPTED = {
    "insert-empty": ("insert", []),
    "delete-empty": ("delete", []),
    "insert-new-edges": ("insert", [(0, 2), (3, 0), (4, 5), (5, 1)]),
    "delete-either-orientation": ("delete", [(1, 0), (1, 2), (3, 2)]),
}


@pytest.mark.parametrize("kind, pairs", ACCEPTED.values(), ids=ACCEPTED)
def test_valid_batches_are_accepted(kind, pairs):
    _apply_bulk(kind, _path_graph(), pairs)


def test_errors_name_labels_not_slots():
    graph = DynamicGraph(edges=[("a", "b"), ("b", "c")])
    slot = graph.slot_of
    with pytest.raises(EdgeExistsError, match="'c', 'b'"):
        _apply_bulk("insert", graph, [(slot("c"), slot("b"))])
    with pytest.raises(EdgeNotFoundError, match="'a', 'c'"):
        _apply_bulk("delete", graph, [(slot("a"), slot("c"))])
    with pytest.raises(SelfLoopError, match="'a'"):
        _apply_bulk("insert", graph, [(slot("a"), slot("a"))])


def test_recycled_slots_are_validated_against_the_new_vertex():
    graph = DynamicGraph(edges=[(0, 1), (1, 2)])
    old = graph.slot_of(2)
    graph.remove_vertex(2)
    graph.add_vertex("fresh")
    assert graph.slot_of("fresh") == old
    # The recycled slot starts isolated: the old edge is gone, re-adding is new.
    with pytest.raises(EdgeNotFoundError, match="1, 'fresh'"):
        _apply_bulk("delete", graph, [(graph.slot_of(1), old)])
    _apply_bulk("insert", graph, [(graph.slot_of(1), old)])
