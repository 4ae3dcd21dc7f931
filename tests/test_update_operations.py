"""Tests for update operations (apply / invert)."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.exceptions import UpdateError
from repro.updates.operations import UpdateKind, UpdateOperation, apply_update, invert_update


class TestConstruction:
    def test_insert_vertex(self):
        op = UpdateOperation.insert_vertex(5, [1, 2])
        assert op.kind is UpdateKind.INSERT_VERTEX
        assert op.vertex == 5
        assert op.neighbors == (1, 2)
        assert op.is_insertion and op.is_vertex_operation

    def test_delete_vertex(self):
        op = UpdateOperation.delete_vertex(3)
        assert op.kind is UpdateKind.DELETE_VERTEX
        assert op.is_deletion and op.is_vertex_operation

    def test_insert_edge(self):
        op = UpdateOperation.insert_edge(1, 2)
        assert op.kind is UpdateKind.INSERT_EDGE
        assert op.edge == (1, 2)
        assert op.is_insertion and op.is_edge_operation

    def test_insert_self_loop_rejected(self):
        with pytest.raises(UpdateError):
            UpdateOperation.insert_edge(1, 1)

    def test_delete_edge(self):
        op = UpdateOperation.delete_edge(1, 2)
        assert op.is_deletion and op.is_edge_operation

    def test_delete_self_loop_rejected(self):
        with pytest.raises(UpdateError, match="self loop"):
            UpdateOperation.delete_edge(4, 4)

    def test_touched_vertices(self):
        assert UpdateOperation.insert_vertex(5, [1]).touched_vertices() == (5, 1)
        assert UpdateOperation.insert_edge(1, 2).touched_vertices() == (1, 2)

    def test_str_representations(self):
        assert "+v" in str(UpdateOperation.insert_vertex(1))
        assert "-v" in str(UpdateOperation.delete_vertex(1))
        assert "+e" in str(UpdateOperation.insert_edge(1, 2))
        assert "-e" in str(UpdateOperation.delete_edge(1, 2))


#: Each static constructor next to the keyword-built instance it must equal.
CONSTRUCTED = [
    (
        UpdateOperation.insert_vertex("v", [1, True]),
        UpdateOperation(kind=UpdateKind.INSERT_VERTEX, vertex="v", neighbors=(1, True)),
    ),
    (UpdateOperation.insert_vertex(7), UpdateOperation(kind=UpdateKind.INSERT_VERTEX, vertex=7)),
    (UpdateOperation.delete_vertex(7), UpdateOperation(kind=UpdateKind.DELETE_VERTEX, vertex=7)),
    (UpdateOperation.insert_edge(1, "b"), UpdateOperation(kind=UpdateKind.INSERT_EDGE, edge=(1, "b"))),
    (UpdateOperation.delete_edge(1, "b"), UpdateOperation(kind=UpdateKind.DELETE_EDGE, edge=(1, "b"))),
]


class TestValueSemantics:
    @pytest.mark.parametrize("built, keyword", CONSTRUCTED)
    def test_constructors_match_keyword_construction(self, built, keyword):
        assert built == keyword
        assert hash(built) == hash(keyword)
        assert repr(built) == repr(keyword)
        assert dataclasses.astuple(built) == dataclasses.astuple(keyword)

    def test_neighbors_default_to_empty_tuple(self):
        assert UpdateOperation(kind=UpdateKind.DELETE_VERTEX, vertex=1).neighbors == ()
        assert UpdateOperation.delete_vertex(1).neighbors == ()

    @pytest.mark.parametrize("built, _keyword", CONSTRUCTED)
    def test_assignment_is_refused(self, built, _keyword):
        for name in ("kind", "vertex", "edge", "neighbors"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(built, name)

    def test_instances_are_slotted(self):
        operation = UpdateOperation.insert_edge(1, 2)
        assert not hasattr(operation, "__dict__")
        assert set(UpdateOperation.__slots__) == {"kind", "vertex", "edge", "neighbors"}
        # No __dict__ to hold a new attribute.  CPython's frozen+slots
        # __setattr__ refuses unknown names with TypeError, not
        # FrozenInstanceError.
        with pytest.raises((AttributeError, TypeError)):
            operation.extra = 1

    @pytest.mark.parametrize("built, _keyword", CONSTRUCTED)
    def test_replace_and_deepcopy_round_trip(self, built, _keyword):
        assert dataclasses.replace(built) == built
        moved = dataclasses.replace(built, vertex="elsewhere")
        assert moved.vertex == "elsewhere" and moved.kind is built.kind
        clone = copy.deepcopy(built)
        assert clone == built and hash(clone) == hash(built)
        assert clone.kind is built.kind


class TestApply:
    def test_apply_insert_vertex_with_edges(self, path_graph):
        apply_update(path_graph, UpdateOperation.insert_vertex(9, [0, 4]))
        assert path_graph.has_vertex(9)
        assert path_graph.has_edge(9, 0)
        assert path_graph.has_edge(9, 4)

    def test_apply_delete_vertex(self, path_graph):
        apply_update(path_graph, UpdateOperation.delete_vertex(2))
        assert not path_graph.has_vertex(2)

    def test_apply_insert_edge(self, path_graph):
        apply_update(path_graph, UpdateOperation.insert_edge(0, 4))
        assert path_graph.has_edge(0, 4)

    def test_apply_delete_edge(self, path_graph):
        apply_update(path_graph, UpdateOperation.delete_edge(0, 1))
        assert not path_graph.has_edge(0, 1)

    def test_apply_invalid_operation_raises_update_error(self, path_graph):
        with pytest.raises(UpdateError):
            apply_update(path_graph, UpdateOperation.delete_vertex(99))
        with pytest.raises(UpdateError):
            apply_update(path_graph, UpdateOperation.insert_edge(0, 1))
        with pytest.raises(UpdateError):
            apply_update(path_graph, UpdateOperation.delete_edge(0, 4))


class TestInvert:
    def test_invert_insert_vertex(self, path_graph):
        op = UpdateOperation.insert_vertex(9, [0])
        inverse = invert_update(path_graph, op)
        apply_update(path_graph, op)
        apply_update(path_graph, inverse)
        assert not path_graph.has_vertex(9)

    def test_invert_delete_vertex_restores_edges(self, path_graph):
        original = path_graph.copy()
        op = UpdateOperation.delete_vertex(2)
        inverse = invert_update(path_graph, op)
        apply_update(path_graph, op)
        apply_update(path_graph, inverse)
        assert path_graph == original

    def test_invert_delete_missing_vertex_raises(self, path_graph):
        with pytest.raises(UpdateError):
            invert_update(path_graph, UpdateOperation.delete_vertex(99))

    def test_invert_edge_operations(self, path_graph):
        original = path_graph.copy()
        for op in (UpdateOperation.insert_edge(0, 4), UpdateOperation.delete_edge(1, 2)):
            inverse = invert_update(path_graph, op)
            apply_update(path_graph, op)
            apply_update(path_graph, inverse)
        assert path_graph == original
