"""A refused vertex insertion leaves no trace on any registered engine.

``DynamicGraph.add_vertex_slot`` checks every neighbour before it allocates
the vertex, so an insertion naming a missing, repeated or self neighbour —
or a vertex that is already present — raises without wiring the vertex to
the neighbours listed before the bad one.  The graph payload, the edge
counter and the solution are unchanged afterwards, the structure and the
bookkeeping still check out, and the engine keeps taking valid updates.
"""

from __future__ import annotations

import pytest

from repro.core.base import DynamicMISBase
from repro.exceptions import (
    EdgeExistsError,
    SelfLoopError,
    UpdateError,
    VertexExistsError,
    VertexNotFoundError,
)
from repro.experiments.runner import SNAPSHOT_CAPABLE, create_algorithm
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateOperation, apply_update

#: The snapshot-capable engines on both states, plus the index-based baselines.
ENGINES = [
    pytest.param(name, {"lazy": lazy}, id=f"{name}-{'lazy' if lazy else 'eager'}")
    for name in SNAPSHOT_CAPABLE
    for lazy in (False, True)
] + [pytest.param(name, {}, id=name) for name in ("DGOneDIS", "DGTwoDIS")]

#: Each refused insertion and the exception it raises.
REFUSED = {
    "missing-neighbour": (UpdateOperation.insert_vertex("x", [1, 999]), VertexNotFoundError),
    "repeated-neighbour": (UpdateOperation.insert_vertex("x", [1, 4, 1]), EdgeExistsError),
    "itself": (UpdateOperation.insert_vertex("x", [1, "x"]), SelfLoopError),
    "present-vertex": (UpdateOperation.insert_vertex(2, [5]), VertexExistsError),
}


def _graph():
    """A hexagon with one chord; vertex 6 is isolated."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]
    return DynamicGraph(vertices=range(7), edges=edges)


def _check(engine):
    engine.graph.check_consistency()
    if isinstance(engine, DynamicMISBase):
        engine.state.check_invariants()


@pytest.mark.parametrize("name, options", ENGINES)
@pytest.mark.parametrize("operation, error", REFUSED.values(), ids=REFUSED)
def test_refused_insertion_leaves_no_trace(name, options, operation, error):
    engine = create_algorithm(name, _graph(), **options)
    engine.apply_update(UpdateOperation.delete_edge(1, 4))
    # An encode installs the copy-on-write bitmap: the rows are now shared.
    engine.graph.adjacency_json()
    payload = engine.graph.to_payload()
    num_edges = engine.graph.num_edges
    solution = engine.solution()

    with pytest.raises(error):
        engine.apply_update(operation)

    assert engine.graph.to_payload() == payload
    assert engine.graph.num_edges == num_edges
    assert engine.solution() == solution
    _check(engine)
    engine.apply_update(UpdateOperation.insert_vertex("x", [1, 3, 6]))
    engine.apply_update(UpdateOperation.insert_edge("x", 5))
    assert engine.graph.neighbors("x") == {1, 3, 5, 6}
    _check(engine)


@pytest.mark.parametrize("operation, error", REFUSED.values(), ids=REFUSED)
def test_apply_update_on_a_bare_graph_is_atomic(operation, error):
    graph = _graph()
    payload = graph.to_payload()
    with pytest.raises(UpdateError) as excinfo:
        apply_update(graph, operation)
    assert isinstance(excinfo.value.__cause__, error)
    assert graph.to_payload() == payload
    graph.check_consistency()
