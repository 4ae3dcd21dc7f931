"""A mutable, undirected, unweighted dynamic graph with a dense slot core.

This is the substrate every algorithm in the library runs on.  The paper's
dynamic MaxIS maintenance algorithms need exactly four structural update
primitives — vertex insertion, vertex deletion, edge insertion and edge
deletion — plus constant-time adjacency queries.

Internally every vertex is assigned a **dense integer slot**: adjacency is a
``list`` of ``set[int]`` indexed by slot, and all per-vertex attributes the
hot paths need (degree, interned insertion order) are flat lists indexed by
slot.  A free-list recycles the slots of deleted vertices, so the arrays stay
dense under arbitrary insert/delete churn.  The *public* API still speaks
arbitrary ``Hashable`` vertex labels — translation between labels and slots
happens once at the boundary (one dict lookup per operation operand), never
inside loops.  Maintenance algorithms use the slot-level primitives
(:meth:`slot_of`, :meth:`vertex_of`, :meth:`adjacency_slots_view`,
:meth:`orders_view`, …) and therefore do zero label hashing on their
inner loops.

Vertices are arbitrary hashable objects; the experiment code uses ``int``
identifiers throughout, but strings (or any hashable label) work identically
— see ``examples/quickstart.py``.

Determinism: every vertex also carries a monotone *interned insertion index*
(:meth:`order_of`) that is never reused, even when its slot is.  All greedy
tie-breaks in the library sort by ``(degree, insertion index)``, so
trajectories do not depend on slot recycling or set iteration order.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    SelfLoopError,
    VertexExistsError,
    VertexNotFoundError,
)

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

#: Sentinel stored in the slot→label table for recycled (free) slots.  A
#: dedicated object so that ``None``/``False``/… remain usable vertex labels.
_FREE = object()

#: Exact types of the ``labels`` entries of a graph payload (``None`` marks
#: a free slot); checked as a set first so the per-slot scan runs only when
#: some entry is of another type.
_PAYLOAD_LABEL_TYPES = frozenset((int, str, bool, type(None)))


def _asymmetric(su: int, sv: int) -> GraphError:
    return GraphError(
        f"asymmetric adjacency: edge ({su}, {sv}) present only as {su}->{sv}"
    )


class DynamicGraph:
    """An undirected graph supporting efficient incremental updates.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.
    edges:
        Optional iterable of initial edges given as ``(u, v)`` pairs.  Missing
        endpoints are added automatically.

    Examples
    --------
    >>> g = DynamicGraph(edges=[(1, 2), (2, 3)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.remove_edge(1, 2)
    >>> g.has_edge(1, 2)
    False
    """

    __slots__ = (
        "_slot",
        "_label",
        "_adj",
        "_order",
        "_free",
        "_num_edges",
        "_next_order",
        "_cow_adj",
    )

    def __init__(
        self,
        vertices: Iterable[Vertex] | None = None,
        edges: Iterable[Edge] | None = None,
    ) -> None:
        # label -> slot (the only hashed structure; touched once per operand).
        self._slot: Dict[Vertex, int] = {}
        # slot -> label (_FREE for recycled slots awaiting reuse).
        self._label: List[Vertex] = []
        # slot -> set of neighbour slots.
        self._adj: List[Set[int]] = []
        # slot -> interned insertion index: a deterministic total order that
        # is O(1) to compare, injective even for vertex types whose repr is
        # not, and — unlike the slot itself — never reused.  Used as the
        # tie-break in every greedy sort.
        self._order: List[int] = []
        # Recycled slots, reused LIFO by the next insertion.
        self._free: List[int] = []
        self._num_edges = 0
        self._next_order = 0
        # Copy-on-write ownership bitmap for the inner adjacency sets, or
        # ``None`` for a graph that has never been forked (the common case:
        # mutators then pay a single ``is None`` check).  After a
        # :meth:`fork`, parent and child share inner sets and each side
        # owns none of them (all zeros); a mutator must privatise a set
        # (``adj[s] = set(adj[s])``) before its first write to slot ``s``.
        self._cow_adj: bytearray | None = None
        if vertices is not None:
            slot_map = self._slot
            for v in vertices:
                if v not in slot_map:
                    self._alloc(v)
        if edges is not None:
            slot_map = self._slot
            adj = self._adj
            for u, v in edges:
                su = slot_map.get(u)
                if su is None:
                    su = self._alloc(u)
                sv = slot_map.get(v)
                if sv is None:
                    sv = self._alloc(v)
                if su != sv and sv not in adj[su]:
                    adj[su].add(sv)
                    adj[sv].add(su)
                    self._num_edges += 1

    # ------------------------------------------------------------------ #
    # Slot management
    # ------------------------------------------------------------------ #
    def _alloc(self, vertex: Vertex) -> int:
        """Assign ``vertex`` a slot (recycling a free one when available)."""
        free = self._free
        if free:
            # A recycled slot keeps its empty row: should a fork share it,
            # the first write passes the barrier like any other.
            s = free.pop()
            self._label[s] = vertex
            self._order[s] = self._next_order
        else:
            s = len(self._label)
            self._label.append(vertex)
            self._adj.append(set())
            self._order.append(self._next_order)
            if self._cow_adj is not None:
                self._cow_adj.append(1)
        self._slot[vertex] = s
        self._next_order += 1
        return s

    def _own(self, slots: Iterable[int]) -> None:
        """The copy-on-write barrier, passed by every write into an existing row.

        After a :meth:`fork` a row's set may be shared, so each listed row
        not yet owned is replaced by a private copy before it is written.  A
        graph that was never forked pays one ``is None`` check.
        """
        cow = self._cow_adj
        if cow is None:
            return
        adj = self._adj
        for s in slots:
            if not cow[s]:
                adj[s] = set(adj[s])
                cow[s] = 1

    def pop_vertex_slot(self, slot: int) -> Set[int]:
        """Delete the vertex at ``slot``; return its former neighbour slots.

        Slot-level twin of :meth:`remove_vertex` for callers that already
        resolved the label.  The returned set is handed over to the caller
        (the graph replaces it internally); it is copied only when a fork
        or an encode still shares it.
        """
        label = self._label[slot]
        if label is _FREE:
            raise VertexNotFoundError(slot)
        del self._slot[label]
        adj = self._adj
        nbrs = adj[slot]
        adj[slot] = set()
        cow = self._cow_adj
        if cow is not None:
            # The caller may write the popped row, so a shared one is
            # copied; the fresh row is owned; the neighbours' rows are
            # written below.
            if not cow[slot]:
                nbrs = set(nbrs)
            cow[slot] = 1
            if nbrs:
                self._own(nbrs)
        for t in nbrs:
            adj[t].discard(slot)
        self._num_edges -= len(nbrs)
        self._label[slot] = _FREE
        self._free.append(slot)
        return nbrs

    # ------------------------------------------------------------------ #
    # Slot-level primitives (the hot-path API)
    # ------------------------------------------------------------------ #
    def slot_of(self, vertex: Vertex) -> int:
        """Return the dense slot of ``vertex`` (stable until it is deleted)."""
        try:
            return self._slot[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def vertex_of(self, slot: int) -> Vertex:
        """Return the label stored at ``slot``."""
        label = self._label[slot]
        if label is _FREE:
            raise VertexNotFoundError(slot)
        return label

    def is_live_slot(self, slot: int) -> bool:
        """Return ``True`` when ``slot`` currently holds a vertex."""
        return 0 <= slot < len(self._label) and self._label[slot] is not _FREE

    @property
    def num_slots(self) -> int:
        """Size of the slot arrays (live vertices plus free slots)."""
        return len(self._label)

    def slots(self) -> Iterable[int]:
        """Iterate over the slots of all live vertices, in insertion order."""
        return self._slot.values()

    def slot_map_view(self) -> Dict[Vertex, int]:
        """Return the live label→slot mapping (read-only for callers).

        Boundary code translates operands with one lookup here; hot loops
        also use ``label in graph.slot_map_view()`` for membership tests.
        """
        return self._slot

    def labels_view(self) -> List[Vertex]:
        """Return the live slot→label table (read-only; free slots hold a sentinel)."""
        return self._label

    def adjacency_slots_view(self) -> List[Set[int]]:
        """Return the live slot-indexed adjacency list (read-only for callers).

        ``adjacency_slots_view()[s]`` is the neighbour-slot set of the vertex
        at slot ``s`` — the zero-hash replacement for :meth:`neighbors` on
        every inner loop.
        """
        return self._adj

    def orders_view(self) -> List[int]:
        """Return the live slot-indexed interned-insertion-order table."""
        return self._order

    def slot_order_key(self, slot: int) -> Tuple[int, int]:
        """Return ``(degree, insertion index)`` for ``slot`` — the canonical greedy key."""
        return len(self._adj[slot]), self._order[slot]

    def add_vertex_slot(self, vertex: Vertex, neighbors: Iterable[Vertex] = ()) -> int:
        """Insert ``vertex`` with edges to ``neighbors``; return its assigned slot.

        Every neighbour is resolved and checked before anything is
        allocated, so a refused insertion leaves the graph as it was.  Raises
        :class:`VertexExistsError` if ``vertex`` is present, then, at the
        first bad neighbour in order, :class:`SelfLoopError` for ``vertex``
        itself, :class:`VertexNotFoundError` for a missing one and
        :class:`EdgeExistsError` for a repeated one.
        """
        slot_map = self._slot
        if vertex in slot_map:
            raise VertexExistsError(vertex)
        if not neighbors:
            return self._alloc(vertex)
        targets: Set[int] = set()
        for nbr in neighbors:
            t = slot_map.get(nbr)
            if t is None:
                if nbr == vertex:
                    raise SelfLoopError(vertex)
                raise VertexNotFoundError(nbr)
            if t in targets:
                raise EdgeExistsError(vertex, nbr)
            targets.add(t)
        slot = self._alloc(vertex)
        adj = self._adj
        adj[slot] = targets
        cow = self._cow_adj
        if cow is not None:
            cow[slot] = 1  # a new set: owned, not shared
            self._own(targets)
        for t in targets:
            adj[t].add(slot)
        self._num_edges += len(targets)
        return slot

    def resolve_edge_slots(
        self, edges: Iterable[Edge]
    ) -> List[Tuple[int, int]]:
        """Translate label pairs to slot pairs in one pass over the slot map.

        The boundary step of the batched update engine: a whole run of edge
        operations is translated with two dict lookups per edge here, and the
        bulk mutators of the state layer then work purely on slot arrays.

        Raises
        ------
        VertexNotFoundError
            If any endpoint is not currently in the graph.
        """
        slot_map = self._slot
        pairs: List[Tuple[int, int]] = []
        append = pairs.append
        try:
            for u, v in edges:
                append((slot_map[u], slot_map[v]))
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        return pairs

    def add_edge_slots(self, su: int, sv: int) -> None:
        """Insert the edge between two live slots.

        Raises :class:`SelfLoopError` for ``su == sv`` and
        :class:`EdgeExistsError` for an edge already present.
        """
        if su == sv:
            raise SelfLoopError(self.vertex_of(su))
        adj = self._adj
        if sv in adj[su]:
            raise EdgeExistsError(self.vertex_of(su), self.vertex_of(sv))
        cow = self._cow_adj
        # Per-edge hot path: call the barrier only while a row is shared.
        if cow is not None and not (cow[su] and cow[sv]):
            self._own((su, sv))
        adj[su].add(sv)
        adj[sv].add(su)
        self._num_edges += 1

    def remove_edge_slots(self, su: int, sv: int) -> None:
        """Delete the edge between two live slots.

        Raises :class:`EdgeNotFoundError` for an absent edge, and
        :class:`GraphError` when the edge is recorded on ``su``'s side only.
        """
        adj = self._adj
        if sv not in adj[su]:
            raise EdgeNotFoundError(self.vertex_of(su), self.vertex_of(sv))
        cow = self._cow_adj
        if cow is not None and not (cow[su] and cow[sv]):
            self._own((su, sv))
        adj[su].remove(sv)
        try:
            adj[sv].remove(su)
        except KeyError:
            raise _asymmetric(su, sv) from None
        self._num_edges -= 1

    def add_edges_slots(self, pairs: List[Tuple[int, int]]) -> None:
        """Insert a run of edges (slot pairs) in one pass over the slot arrays.

        **Failure-atomic:** the whole list is validated before any mutation,
        and the error raised is the one a loop of :meth:`add_edge_slots`
        would raise first — :class:`SelfLoopError` for ``su == sv``,
        :class:`EdgeExistsError` for an edge already present or repeated
        within the list — so a refused list leaves the graph untouched.
        """
        adj = self._adj
        seen: Set[Tuple[int, int]] = set()
        for su, sv in pairs:
            if su == sv:
                raise SelfLoopError(self.vertex_of(su))
            key = (su, sv) if su < sv else (sv, su)
            if sv in adj[su] or key in seen:
                raise EdgeExistsError(self.vertex_of(su), self.vertex_of(sv))
            seen.add(key)
        self._own(chain.from_iterable(pairs))
        for su, sv in pairs:
            adj[su].add(sv)
            adj[sv].add(su)
        self._num_edges += len(pairs)

    def remove_edges_slots(self, pairs: List[Tuple[int, int]]) -> None:
        """Delete a run of edges (slot pairs) in one pass over the slot arrays.

        **Failure-atomic:** the whole list is validated before any mutation;
        :class:`EdgeNotFoundError` names the first pair whose edge is absent
        or repeated within the list, as a loop of :meth:`remove_edge_slots`
        would, and leaves the graph untouched.  An edge recorded on one side
        only raises :class:`GraphError`.
        """
        adj = self._adj
        seen: Set[Tuple[int, int]] = set()
        for su, sv in pairs:
            key = (su, sv) if su < sv else (sv, su)
            if sv not in adj[su] or key in seen:
                raise EdgeNotFoundError(self.vertex_of(su), self.vertex_of(sv))
            seen.add(key)
        self._own(chain.from_iterable(pairs))
        for su, sv in pairs:
            adj[su].remove(sv)
            try:
                adj[sv].remove(su)
            except KeyError:
                raise _asymmetric(su, sv) from None
        self._num_edges -= len(pairs)

    # ------------------------------------------------------------------ #
    # Basic accessors (label boundary)
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._slot)

    @property
    def num_edges(self) -> int:
        """Number of edges currently in the graph."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._slot

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._slot)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices (label insertion order)."""
        return iter(self._slot)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges, yielding each undirected edge exactly once."""
        label = self._label
        adj = self._adj
        seen: Set[int] = set()
        for s in self._slot.values():
            u = label[s]
            for t in adj[s]:
                if t not in seen:
                    yield (u, label[t])
            seen.add(s)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` if ``vertex`` is in the graph."""
        return vertex in self._slot

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` is in the graph."""
        su = self._slot.get(u)
        if su is None:
            return False
        sv = self._slot.get(v)
        return sv is not None and sv in self._adj[su]

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return the open neighbourhood ``N(v)`` of ``vertex`` as a label set.

        Translated from the slot core, so the result is a fresh set per call;
        hot loops use :meth:`adjacency_slots_view` instead and translate
        nothing.
        """
        try:
            s = self._slot[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        label = self._label
        return {label[t] for t in self._adj[s]}

    def degree(self, vertex: Vertex) -> int:
        """Return the degree of ``vertex``."""
        try:
            return len(self._adj[self._slot[vertex]])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def order_of(self, vertex: Vertex) -> int:
        """Return the insertion index of ``vertex`` (a deterministic total order).

        Indices are assigned monotonically when a vertex enters the graph and
        are never reused; re-inserting a deleted vertex assigns a fresh,
        higher index even when its *slot* is recycled.
        """
        try:
            return self._order[self._slot[vertex]]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def max_degree(self) -> int:
        """Return the maximum degree Δ of the graph (0 for an empty graph)."""
        if not self._slot:
            return 0
        adj = self._adj
        return max(len(adj[s]) for s in self._slot.values())

    def min_degree(self) -> int:
        """Return the minimum degree δ of the graph (0 for an empty graph)."""
        if not self._slot:
            return 0
        adj = self._adj
        return min(len(adj[s]) for s in self._slot.values())

    def average_degree(self) -> float:
        """Return the average degree ``2m / n`` (0.0 for an empty graph)."""
        if not self._slot:
            return 0.0
        return 2.0 * self._num_edges / len(self._slot)

    # ------------------------------------------------------------------ #
    # Mutation primitives
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: Vertex) -> None:
        """Insert an isolated vertex.

        Raises
        ------
        VertexExistsError
            If the vertex is already present.
        """
        self.add_vertex_slot(vertex)

    def remove_vertex(self, vertex: Vertex) -> Set[Vertex]:
        """Delete ``vertex`` and all incident edges.

        Returns
        -------
        set
            The neighbourhood the vertex had immediately before deletion;
            maintenance algorithms need it to repair their bookkeeping.

        Raises
        ------
        VertexNotFoundError
            If the vertex is not present.
        """
        try:
            s = self._slot[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        label = self._label
        return {label[t] for t in self.pop_vertex_slot(s)}

    def add_edge(self, u: Vertex, v: Vertex, *, add_missing_vertices: bool = False) -> None:
        """Insert the undirected edge ``(u, v)``.

        Parameters
        ----------
        add_missing_vertices:
            When ``True``, endpoints not yet in the graph are created instead
            of raising :class:`VertexNotFoundError`.

        Raises
        ------
        SelfLoopError
            If ``u == v``.
        EdgeExistsError
            If the edge already exists.
        """
        if u == v:
            raise SelfLoopError(u)
        slot_map = self._slot
        su = slot_map.get(u)
        if su is None:
            if not add_missing_vertices:
                raise VertexNotFoundError(u)
            su = self._alloc(u)
        sv = slot_map.get(v)
        if sv is None:
            if not add_missing_vertices:
                raise VertexNotFoundError(v)
            sv = self._alloc(v)
        if sv in self._adj[su]:
            raise EdgeExistsError(u, v)
        self.add_edge_slots(su, sv)

    def add_edge_if_missing(self, u: Vertex, v: Vertex) -> bool:
        """Insert edge ``(u, v)`` if absent (creating endpoints as needed).

        Returns ``True`` when a new edge was created, ``False`` when the edge
        already existed or ``u == v``.
        """
        if u == v:
            return False
        slot_map = self._slot
        su = slot_map.get(u)
        if su is None:
            su = self._alloc(u)
        sv = slot_map.get(v)
        if sv is None:
            sv = self._alloc(v)
        if sv in self._adj[su]:
            return False
        self.add_edge_slots(su, sv)
        return True

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete the undirected edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not present.
        VertexNotFoundError
            If either endpoint is not present.
        """
        slot_map = self._slot
        su = slot_map.get(u)
        if su is None:
            raise VertexNotFoundError(u)
        sv = slot_map.get(v)
        if sv is None:
            raise VertexNotFoundError(v)
        if sv not in self._adj[su]:
            raise EdgeNotFoundError(u, v)
        self.remove_edge_slots(su, sv)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def copy(self) -> "DynamicGraph":
        """Return a deep copy of the graph structure.

        Slots, interned orders and the free-list are preserved, so algorithms
        running on a copy walk exactly the same slot trajectories as on the
        original.
        """
        clone = DynamicGraph()
        clone._slot = dict(self._slot)
        clone._label = list(self._label)
        clone._adj = [set(nbrs) for nbrs in self._adj]
        clone._order = list(self._order)
        clone._free = list(self._free)
        clone._num_edges = self._num_edges
        clone._next_order = self._next_order
        return clone

    def fork(self) -> "DynamicGraph":
        """Return a copy-on-write fork: O(slots) spine copies, shared sets.

        The child gets fresh *spine* containers (slot map, label table,
        adjacency list, orders, free-list) whose inner adjacency sets are
        **shared** with the parent; both sides get a fresh all-zeros
        ownership bitmap, so the first mutation of any slot's neighbourhood
        on either side privatises just that one set.  Compared with
        :meth:`copy` this skips the O(n·d) per-element set copies — the
        dominant cost — and divergence later costs O(touched slots) only.

        The parent's container *identities* are untouched (only its
        ownership bitmap is replaced), so cached views held by algorithm
        instances (``adjacency_slots_view`` etc.) stay valid across forks.
        Like :meth:`copy`, slots, interned orders and the free-list are
        preserved, so a fork walks exactly the same slot trajectories.
        """
        clone = DynamicGraph()
        clone._slot = dict(self._slot)
        clone._label = list(self._label)
        clone._adj = list(self._adj)  # shares the inner sets
        clone._order = list(self._order)
        clone._free = list(self._free)
        clone._num_edges = self._num_edges
        clone._next_order = self._next_order
        n = len(self._label)
        # Fresh bitmaps on BOTH sides: sets are shared symmetrically, and
        # with no refcounting the worst case is privatising a set nobody
        # else holds anymore — harmless over-copying, never aliased writes.
        clone._cow_adj = bytearray(n)
        self._cow_adj = bytearray(n)
        return clone

    def degree_sequence(self) -> List[int]:
        """Return the (unsorted) list of vertex degrees."""
        adj = self._adj
        return [len(adj[s]) for s in self._slot.values()]

    def connected_components(self) -> List[Set[Vertex]]:
        """Return the connected components as a list of vertex sets."""
        label = self._label
        adj = self._adj
        seen: Set[int] = set()
        components: List[Set[Vertex]] = []
        for start in self._slot.values():
            if start in seen:
                continue
            stack = [start]
            component: Set[Vertex] = {label[start]}
            seen.add(start)
            while stack:
                node = stack.pop()
                for nbr in adj[node]:
                    if nbr not in seen:
                        seen.add(nbr)
                        component.add(label[nbr])
                        stack.append(nbr)
            components.append(component)
        return components

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        if len(self._slot) != len(other._slot) or self._num_edges != other._num_edges:
            return False
        for v in self._slot:
            if v not in other._slot:
                return False
            if self.neighbors(v) != other.neighbors(v):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DynamicGraph(n={self.num_vertices}, m={self.num_edges})"

    # ------------------------------------------------------------------ #
    # Bit-for-bit serialisation (the snapshot substrate)
    # ------------------------------------------------------------------ #
    #: Version tag of :meth:`to_payload`; bumped with the representation.
    #: ``/2`` stores the labels as one flat list of JSON-native values
    #: (``null`` for a free slot) instead of a tagged ``[tag, value]`` pair
    #: per slot.
    PAYLOAD_FORMAT = "repro-graph/2"

    def to_payload(self) -> Dict:
        """Capture the graph bit-for-bit as a plain-data document.

        Everything trajectory-relevant is included: the label→slot
        assignment (in slot-map insertion order), adjacency, the interned
        orders, and the free-list in LIFO order — so a graph rebuilt by
        :meth:`from_payload` resolves every future operand to the same slot
        and recycles slots in the same order.  Labels are stored as they
        are, ``None`` marking a free slot, so only int, str and bool labels
        are serialisable (JSON keeps the three apart: ``1``, ``"1"``,
        ``true``); any other label raises :class:`GraphError`.

        This method lives on the graph so the payload contract evolves
        together with the internal representation; external modules must
        not reach into the slot arrays directly.
        """
        labels = list(self._label)
        for slot in self._free:
            labels[slot] = None
        if not set(map(type, labels)) <= _PAYLOAD_LABEL_TYPES or None in self._slot:
            # Slow path: int/str subclasses are fine, anything else is not.
            for label in self._slot:
                if label is None or not isinstance(label, (int, str)):
                    raise GraphError(
                        f"cannot snapshot vertex label {label!r} of type "
                        f"{type(label).__name__}: only int, str and bool labels "
                        "are serialisable"
                    )
        return {
            "format": self.PAYLOAD_FORMAT,
            "labels": labels,
            "adjacency": [sorted(nbrs) for nbrs in self._adj],
            "orders": list(self._order),
            "free": list(self._free),
            "live": list(self._slot.values()),  # slot-map insertion order
            "num_edges": self._num_edges,
            "next_order": self._next_order,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "DynamicGraph":
        """Rebuild a graph captured by :meth:`to_payload` (bit-for-bit inverse).

        Raises
        ------
        GraphError
            On a version mismatch, a malformed document, or a structurally
            inconsistent one (the checks of :meth:`check_consistency`).
        """
        if payload.get("format") != cls.PAYLOAD_FORMAT:
            raise GraphError(
                f"unsupported graph payload format {payload.get('format')!r} "
                f"(expected {cls.PAYLOAD_FORMAT!r})"
            )
        graph = cls()
        try:
            entries = payload["labels"]
            if not set(map(type, entries)) <= _PAYLOAD_LABEL_TYPES:
                for entry in entries:
                    if entry is not None and not isinstance(entry, (int, str)):
                        raise GraphError(
                            f"malformed graph payload: label entry {entry!r} "
                            f"of type {type(entry).__name__} is not an int, "
                            "str, bool or null"
                        )
            graph._label = [_FREE if entry is None else entry for entry in entries]
            graph._adj = [set(neighbors) for neighbors in payload["adjacency"]]
            graph._order = list(payload["orders"])
            graph._free = list(payload["free"])
            graph._slot = {graph._label[s]: s for s in payload["live"]}
            graph._num_edges = payload["num_edges"]
            graph._next_order = payload["next_order"]
            # Inside the envelope: type-corrupt fields (e.g. string order
            # indices) surface as TypeError from the comparisons below and
            # must become GraphError like every other malformation.
            graph._validate()
        except (KeyError, TypeError, IndexError) as exc:
            raise GraphError(f"malformed graph payload: {exc}") from exc
        return graph

    def _validate(self) -> None:
        """Raise :class:`GraphError` if the slot structures are incoherent."""
        labels = self._label
        adj = self._adj
        orders = self._order
        n = len(labels)

        def fail(reason: str) -> None:
            raise GraphError(f"inconsistent graph: {reason}")

        if len(adj) != n or len(orders) != n:
            fail("slot table sizes out of sync")
        if len(self._slot) + len(self._free) != n:
            fail(
                f"{len(self._slot)} live + {len(self._free)} free slots "
                f"!= {n} total"
            )
        if len(set(self._free)) != len(self._free):
            fail("duplicate free slots")
        for s in self._free:
            if not (0 <= s < n) or labels[s] is not _FREE:
                fail(f"free slot {s} still labelled")
            if adj[s]:
                fail(f"free slot {s} has residual adjacency")
        for v, s in self._slot.items():
            if v is _FREE:
                fail(f"live slot {s} has no label")
            if not (0 <= s < n) or labels[s] != v:
                fail(f"slot {s} label mismatch for {v!r}")
            if orders[s] >= self._next_order:
                fail(f"order index of slot {s} beyond next_order")
        degree_total = 0
        for s in self._slot.values():
            nbrs = adj[s]
            if s in nbrs:
                fail(f"self loop on slot {s}")
            for t in nbrs:
                if not (0 <= t < n) or labels[t] is _FREE:
                    fail(f"slot {s} adjacent to free slot {t}")
                if s not in adj[t]:
                    fail(f"asymmetric edge between slots {s} and {t}")
            degree_total += len(nbrs)
        if degree_total % 2 or degree_total // 2 != self._num_edges:
            fail(
                f"edge counter {self._num_edges} does not match structure "
                f"{degree_total // 2}"
            )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def check_consistency(self) -> None:
        """Verify the slot structures are coherent and the edge count matches.

        The checks :meth:`from_payload` runs on a restored graph, plus the
        length of the copy-on-write bitmap.  Raise-based, so it also works
        under ``python -O``; raises :class:`GraphError` on the first
        violation.
        """
        self._validate()
        cow = self._cow_adj
        if cow is not None and len(cow) != len(self._label):
            raise GraphError(
                f"inconsistent graph: copy-on-write bitmap covers {len(cow)} "
                f"of {len(self._label)} slots"
            )
