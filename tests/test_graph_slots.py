"""The slot-level API of :class:`DynamicGraph` (the hot-path primitives).

Algorithms and the state layer address vertices by dense slots and call
``add_vertex_slot`` / ``pop_vertex_slot`` / ``add_edge_slots`` /
``remove_edge_slots`` directly, reading the graph through zero-copy views.
These tests pin that API against the label-level methods it mirrors: the
same errors (naming labels, not slots), LIFO slot recycling, views that stay
live across mutation, and copy-on-write isolation between a graph and its
forks for every slot-level mutator.
"""

from __future__ import annotations

import pytest

from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    SelfLoopError,
    VertexExistsError,
    VertexNotFoundError,
)
from repro.generators.random_graphs import gnm_random_graph
from repro.graphs.dynamic_graph import DynamicGraph


def _path():
    """Path a - b - c - d on slots 0..3, plus an isolated vertex e on slot 4."""
    graph = DynamicGraph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
    graph.add_vertex("e")
    return graph


def _pairs(graph, *labels):
    return [graph.slot_of(label) for label in labels]


REFUSALS = {
    "add-existing-vertex": (lambda g: g.add_vertex_slot("c"), VertexExistsError, "c"),
    "add-existing-edge": (
        lambda g: g.add_edge_slots(*_pairs(g, "a", "b")), EdgeExistsError, ("a", "b")
    ),
    "add-existing-edge-reversed": (
        lambda g: g.add_edge_slots(*_pairs(g, "b", "a")), EdgeExistsError, ("b", "a")
    ),
    "add-self-loop": (lambda g: g.add_edge_slots(*_pairs(g, "d", "d")), SelfLoopError, "d"),
    "remove-missing-edge": (
        lambda g: g.remove_edge_slots(*_pairs(g, "a", "c")), EdgeNotFoundError, ("a", "c")
    ),
    "pop-free-slot": (
        lambda g: (g.pop_vertex_slot(4), g.pop_vertex_slot(4)), VertexNotFoundError, 4
    ),
    "label-of-free-slot": (
        lambda g: (g.pop_vertex_slot(1), g.vertex_of(1)), VertexNotFoundError, 1
    ),
    "resolve-missing-endpoint": (
        lambda g: g.resolve_edge_slots([("a", "b"), ("c", "zz")]), VertexNotFoundError, "zz"
    ),
    "add-vertex-missing-neighbour": (
        lambda g: g.add_vertex_slot("x", ["a", "zz", "x"]), VertexNotFoundError, "zz"
    ),
    "add-vertex-itself": (
        lambda g: g.add_vertex_slot("x", ["a", "x", "zz"]), SelfLoopError, "x"
    ),
    "add-vertex-repeated-neighbour": (
        lambda g: g.add_vertex_slot("x", ["a", "b", "a"]), EdgeExistsError, ("x", "a")
    ),
    "add-existing-vertex-wired": (
        lambda g: g.add_vertex_slot("c", ["zz"]), VertexExistsError, "c"
    ),
}


@pytest.mark.parametrize("call, error, named", REFUSALS.values(), ids=REFUSALS)
def test_refusals_name_the_offender_and_keep_the_graph_consistent(call, error, named):
    graph = _path()
    with pytest.raises(error) as excinfo:
        call(graph)
    offender = excinfo.value.edge if hasattr(excinfo.value, "edge") else excinfo.value.vertex
    assert offender == named
    graph.check_consistency()


@pytest.mark.parametrize("call", [REFUSALS[key][0] for key in REFUSALS if "vertex" in key])
@pytest.mark.parametrize("forked", [False, True])
def test_a_refused_insertion_allocates_nothing(call, forked):
    graph = _path()
    graph.pop_vertex_slot(graph.slot_of("e"))  # a free slot to recycle
    if forked:
        graph.fork()
    payload = graph.to_payload()
    with pytest.raises(GraphError):
        call(graph)
    assert graph.to_payload() == payload


class TestVertexSlots:
    def test_add_vertex_slot_wires_the_neighbours(self):
        graph = _path()
        slot = graph.add_vertex_slot("x", ["d", "a"])
        assert graph.neighbors_slots_view(slot) == set(_pairs(graph, "d", "a"))
        assert graph.neighbors("a") == {"b", "x"} and graph.num_edges == 5
        graph.check_consistency()

    def test_add_vertex_slot_appends_when_no_slot_is_free(self):
        graph = _path()
        assert graph.add_vertex_slot("f") == graph.num_slots - 1 == 5
        assert graph.vertex_of(5) == "f" and graph.degree_by_slot(5) == 0

    def test_freed_slots_are_recycled_lifo(self):
        graph = _path()
        first, second = _pairs(graph, "a", "d")
        graph.pop_vertex_slot(first)
        graph.pop_vertex_slot(second)
        assert [graph.add_vertex_slot(v) for v in "xyz"] == [second, first, 5]
        graph.check_consistency()

    def test_pop_vertex_slot_hands_over_the_former_neighbours(self):
        graph = _path()
        a, b, c = _pairs(graph, "a", "b", "c")
        neighbours = graph.pop_vertex_slot(b)
        assert neighbours == {a, c}
        assert graph.num_edges == 1 and not graph.has_vertex("b")
        neighbours.clear()  # the caller owns the set: the graph is unaffected
        graph.check_consistency()
        assert graph.neighbors("c") == {"d"}

    def test_is_live_slot_tracks_occupancy_and_bounds(self):
        graph = _path()
        assert graph.is_live_slot(1)
        graph.pop_vertex_slot(1)
        assert not graph.is_live_slot(1)
        assert not graph.is_live_slot(-1) and not graph.is_live_slot(graph.num_slots)

    def test_slots_iterate_in_slot_map_insertion_order(self):
        graph = _path()
        graph.remove_vertex("b")
        graph.add_vertex("b2")
        assert [graph.vertex_of(s) for s in graph.slots()] == ["a", "c", "d", "e", "b2"]


class TestEdgeSlots:
    def test_add_edge_slots_is_symmetric_and_counted(self):
        graph = _path()
        a, e = _pairs(graph, "a", "e")
        graph.add_edge_slots(e, a)
        assert a in graph.neighbors_slots_view(e) and e in graph.neighbors_slots_view(a)
        assert graph.has_edge("a", "e") and graph.num_edges == 4

    def test_remove_edge_slots_is_symmetric_and_counted(self):
        graph = _path()
        graph.remove_edge_slots(*_pairs(graph, "c", "b"))
        assert not graph.has_edge("b", "c") and graph.num_edges == 2
        graph.check_consistency()

    def test_bulk_mutators_match_the_single_ones(self):
        graph, single = _path(), _path()
        inserted = [tuple(_pairs(graph, "a", "e")), tuple(_pairs(graph, "d", "a"))]
        graph.add_edges_slots(inserted)
        for pair in inserted:
            single.add_edge_slots(*pair)
        assert graph.to_payload() == single.to_payload()
        removed = [tuple(_pairs(graph, "b", "a")), tuple(_pairs(graph, "a", "e"))]
        graph.remove_edges_slots(removed)
        for pair in removed:
            single.remove_edge_slots(*pair)
        assert graph.to_payload() == single.to_payload()
        graph.check_consistency()

    @pytest.mark.parametrize("mutator", ["remove_edge_slots", "remove_edges_slots"])
    def test_one_sided_edges_are_refused(self, mutator):
        graph = _path()
        b, c = _pairs(graph, "b", "c")
        graph.adjacency_slots_view()[c].discard(b)  # corrupt: only b -> c is left
        call = getattr(graph, mutator)
        with pytest.raises(GraphError, match="asymmetric"):
            call(b, c) if mutator == "remove_edge_slots" else call([(b, c)])

    def test_resolve_edge_slots_translates_every_pair(self):
        graph = _path()
        assert graph.resolve_edge_slots([("a", "e"), ("d", "b")]) == [
            tuple(_pairs(graph, "a", "e")),
            tuple(_pairs(graph, "d", "b")),
        ]
        assert graph.resolve_edge_slots([]) == []


class TestViews:
    def test_views_stay_live_across_mutation(self):
        graph = _path()
        slot_map, labels = graph.slot_map_view(), graph.labels_view()
        adjacency, orders = graph.adjacency_slots_view(), graph.orders_view()
        graph.add_edge("a", "e")
        graph.remove_vertex("c")
        graph.add_vertex("new")
        assert slot_map is graph.slot_map_view() and labels[slot_map["new"]] == "new"
        assert adjacency is graph.adjacency_slots_view()
        assert slot_map["e"] in adjacency[slot_map["a"]]
        assert orders is graph.orders_view() and len(orders) == graph.num_slots

    def test_slot_keys_match_the_label_level_keys(self):
        graph = gnm_random_graph(25, 50, seed=9)
        graph.remove_vertex(3)
        graph.add_edge("late", 7, add_missing_vertices=True)
        for vertex in graph.vertices():
            slot = graph.slot_of(vertex)
            assert graph.degree_by_slot(slot) == graph.degree(vertex)
            assert graph.slot_order_key(slot) == graph.degree_order_key(vertex)
            assert graph.order_by_slot(slot) == graph.order_of(vertex)
        by_slot = sorted(graph.slots(), key=graph.slot_order_key)
        assert [graph.vertex_of(s) for s in by_slot] == sorted(
            graph.vertices(), key=graph.degree_order_key
        )

    def test_neighbors_copy_is_independent_of_the_graph(self):
        graph = _path()
        copied = graph.neighbors_copy("b")
        copied.add("zz")
        graph.remove_edge("a", "b")
        assert copied == {"a", "c", "zz"} and graph.neighbors("b") == {"c"}


#: Each slot-level mutator, applied to one side of a fork (path 0-1-2-3-4, 5 isolated).
SLOT_MUTATIONS = {
    "add_edge_slots": lambda g: g.add_edge_slots(g.slot_of(0), g.slot_of(5)),
    "remove_edge_slots": lambda g: g.remove_edge_slots(g.slot_of(0), g.slot_of(1)),
    "pop_vertex_slot": lambda g: g.pop_vertex_slot(g.slot_of(1)),
    "recycle_and_connect": lambda g: (
        g.pop_vertex_slot(g.slot_of(2)),
        g.add_vertex_slot("reborn"),
        g.add_edge_slots(g.slot_of("reborn"), g.slot_of(0)),
    ),
    "recycle_wired": lambda g: (
        g.pop_vertex_slot(g.slot_of(2)),
        g.add_vertex_slot("reborn", [0, 3, 5]),
    ),
    "add_edges_slots": lambda g: g.add_edges_slots(
        [(g.slot_of(0), g.slot_of(5)), (g.slot_of(4), g.slot_of(1))]
    ),
    "remove_edges_slots": lambda g: g.remove_edges_slots(
        [(g.slot_of(0), g.slot_of(1)), (g.slot_of(3), g.slot_of(2))]
    ),
}


def _forkable_graph():
    return DynamicGraph(vertices=range(6), edges=[(i, i + 1) for i in range(4)])


class TestForkIsolation:
    @pytest.mark.parametrize("mutation", SLOT_MUTATIONS)
    @pytest.mark.parametrize("side", ["child", "parent"])
    def test_slot_mutators_never_leak_across_a_fork(self, mutation, side):
        parent = _forkable_graph()
        pristine = parent.to_payload()
        child = parent.fork()
        writer, reader = (child, parent) if side == "child" else (parent, child)
        SLOT_MUTATIONS[mutation](writer)
        assert reader.to_payload() == pristine
        expected = _forkable_graph()  # the same mutation on an unshared graph
        SLOT_MUTATIONS[mutation](expected)
        assert writer.to_payload() == expected.to_payload()
        writer.check_consistency()
        reader.check_consistency()

    def test_copy_and_fork_recycle_slots_like_the_original(self):
        graph = gnm_random_graph(12, 20, seed=2)
        for label in (4, 9, 1):
            graph.remove_vertex(label)
        clones = [graph.copy(), graph.fork()]
        expected = [graph.add_vertex_slot(("n", i)) for i in range(4)]
        for clone in clones:
            assert [clone.add_vertex_slot(("n", i)) for i in range(4)] == expected
            clone.check_consistency()

    def test_empty_graph_payload_roundtrips(self):
        restored = DynamicGraph.from_payload(DynamicGraph().to_payload())
        assert restored == DynamicGraph() and restored.num_slots == 0
        assert restored.add_vertex_slot("first") == 0
