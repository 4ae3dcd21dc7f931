"""Update operations on dynamic graphs.

A dynamic graph in the paper is a sequence ``G_0, G_1, ...`` where each graph
differs from its predecessor by a single vertex/edge insertion or deletion.
:class:`UpdateOperation` is the value object representing one such step, and
:func:`apply_update` / :func:`invert_update` apply and undo it on a
:class:`~repro.graphs.dynamic_graph.DynamicGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from repro.exceptions import UpdateError
from repro.graphs.dynamic_graph import DynamicGraph, Vertex


class UpdateKind(str, Enum):
    """The four structural update kinds supported by the maintenance algorithms."""

    INSERT_VERTEX = "insert_vertex"
    DELETE_VERTEX = "delete_vertex"
    INSERT_EDGE = "insert_edge"
    DELETE_EDGE = "delete_edge"


@dataclass(frozen=True, slots=True)
class UpdateOperation:
    """One update in a dynamic graph sequence.

    Attributes
    ----------
    kind:
        Which structural change the operation performs.
    vertex:
        The affected vertex for vertex operations.
    edge:
        The affected ``(u, v)`` pair for edge operations.
    neighbors:
        For :data:`UpdateKind.INSERT_VERTEX`, the (existing) vertices the new
        vertex is connected to upon insertion.  The paper's model inserts a
        vertex together with its incident edges.

    Instances are slotted: they carry no ``__dict__`` and no weak
    references, which keeps the millions of operations a replay decodes
    cheap to build.
    """

    kind: UpdateKind
    vertex: Optional[Vertex] = None
    edge: Optional[Tuple[Vertex, Vertex]] = None
    neighbors: Tuple[Vertex, ...] = ()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def insert_vertex(vertex: Vertex, neighbors: Sequence[Vertex] = ()) -> "UpdateOperation":
        """Create a vertex-insertion operation (optionally with incident edges)."""
        return _build(_INSERT_VERTEX, vertex, None, tuple(neighbors))

    @staticmethod
    def delete_vertex(vertex: Vertex) -> "UpdateOperation":
        """Create a vertex-deletion operation."""
        return _build(_DELETE_VERTEX, vertex, None, ())

    @staticmethod
    def insert_edge(u: Vertex, v: Vertex) -> "UpdateOperation":
        """Create an edge-insertion operation."""
        if u == v:
            raise UpdateError("cannot insert a self loop")
        return _build(_INSERT_EDGE, None, (u, v), ())

    @staticmethod
    def delete_edge(u: Vertex, v: Vertex) -> "UpdateOperation":
        """Create an edge-deletion operation.

        A self loop is refused here, as in :meth:`insert_edge`: no
        :class:`~repro.graphs.dynamic_graph.DynamicGraph` can hold one, so
        the deletion could only fail later, when a batch applies it.
        """
        if u == v:
            raise UpdateError("cannot delete a self loop")
        return _build(_DELETE_EDGE, None, (u, v), ())

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_insertion(self) -> bool:
        """True for insert-vertex / insert-edge operations."""
        return self.kind in (UpdateKind.INSERT_VERTEX, UpdateKind.INSERT_EDGE)

    @property
    def is_deletion(self) -> bool:
        """True for delete-vertex / delete-edge operations."""
        return not self.is_insertion

    @property
    def is_vertex_operation(self) -> bool:
        """True for vertex insert/delete operations."""
        return self.kind in (UpdateKind.INSERT_VERTEX, UpdateKind.DELETE_VERTEX)

    @property
    def is_edge_operation(self) -> bool:
        """True for edge insert/delete operations."""
        return not self.is_vertex_operation

    def touched_vertices(self) -> Tuple[Vertex, ...]:
        """Return the vertices whose neighbourhood the operation changes."""
        if self.is_vertex_operation:
            return (self.vertex,) + self.neighbors
        return self.edge

    def __str__(self) -> str:
        if self.kind is UpdateKind.INSERT_VERTEX:
            return f"+v {self.vertex} ~ {list(self.neighbors)}"
        if self.kind is UpdateKind.DELETE_VERTEX:
            return f"-v {self.vertex}"
        if self.kind is UpdateKind.INSERT_EDGE:
            return f"+e {self.edge}"
        return f"-e {self.edge}"


# Module globals for the per-operation paths: the constructors below, and
# ``protocol._fingerprint_text`` and ``wire.operations_from_wire``, which
# import the kinds.  On CPython 3.11 an ``UpdateKind.X`` lookup costs
# about 0.1 us more than a global read, and a bound slot setter skips the
# name lookup of ``object.__setattr__``; PERFORMANCE.md ("Read path") has
# the end-to-end A/B.
_INSERT_VERTEX = UpdateKind.INSERT_VERTEX
_DELETE_VERTEX = UpdateKind.DELETE_VERTEX
_INSERT_EDGE = UpdateKind.INSERT_EDGE
_DELETE_EDGE = UpdateKind.DELETE_EDGE
_new_operation = object.__new__
_set_kind = UpdateOperation.kind.__set__
_set_vertex = UpdateOperation.vertex.__set__
_set_edge = UpdateOperation.edge.__set__
_set_neighbors = UpdateOperation.neighbors.__set__


def _build(
    kind: UpdateKind,
    vertex: Optional[Vertex],
    edge: Optional[Tuple[Vertex, Vertex]],
    neighbors: Tuple[Vertex, ...],
) -> UpdateOperation:
    """Fill a fresh instance through its slot descriptors.

    The static constructors' fast path: it skips the frozen dataclass
    ``__init__``, which routes every field through ``object.__setattr__``.
    The result is indistinguishable from a keyword-built instance.
    """
    operation = _new_operation(UpdateOperation)
    _set_kind(operation, kind)
    _set_vertex(operation, vertex)
    _set_edge(operation, edge)
    _set_neighbors(operation, neighbors)
    return operation


def apply_update(graph: DynamicGraph, operation: UpdateOperation) -> None:
    """Apply ``operation`` to ``graph`` in place.

    Raises
    ------
    UpdateError
        When the operation cannot be applied (missing vertex, duplicate edge,
        and so on).  The underlying graph exceptions are chained for context.
    """
    try:
        if operation.kind is UpdateKind.INSERT_VERTEX:
            graph.add_vertex_slot(operation.vertex, operation.neighbors)
        elif operation.kind is UpdateKind.DELETE_VERTEX:
            graph.remove_vertex(operation.vertex)
        elif operation.kind is UpdateKind.INSERT_EDGE:
            graph.add_edge(*operation.edge)
        elif operation.kind is UpdateKind.DELETE_EDGE:
            graph.remove_edge(*operation.edge)
        else:  # pragma: no cover - exhaustive enum
            raise UpdateError(f"unknown update kind {operation.kind!r}")
    except UpdateError:
        raise
    except Exception as exc:
        raise UpdateError(f"cannot apply {operation}: {exc}") from exc


def invert_update(graph: DynamicGraph, operation: UpdateOperation) -> UpdateOperation:
    """Return the operation that undoes ``operation`` on the *current* ``graph``.

    Must be called *before* ``operation`` is applied for deletions (so the
    incident edges of a deleted vertex can be captured).
    """
    if operation.kind is UpdateKind.INSERT_VERTEX:
        return UpdateOperation.delete_vertex(operation.vertex)
    if operation.kind is UpdateKind.DELETE_VERTEX:
        if not graph.has_vertex(operation.vertex):
            raise UpdateError(f"cannot invert deletion of missing vertex {operation.vertex!r}")
        return UpdateOperation.insert_vertex(
            operation.vertex, sorted(graph.neighbors(operation.vertex), key=graph.order_of)
        )
    if operation.kind is UpdateKind.INSERT_EDGE:
        return UpdateOperation.delete_edge(*operation.edge)
    return UpdateOperation.insert_edge(*operation.edge)
