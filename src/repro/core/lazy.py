"""Lazy-collection solution state (optimization 1 of Section III).

The eager :class:`~repro.core.state.MISState` maintains ``I(v)`` sets and the
hierarchical ``¯I_j(S)`` buckets explicitly so they can be queried in O(1).
The lazy variant only keeps the membership bytes and the integer ``count(v)``
per slot; everything else is *recomputed on demand* by scanning the relevant
neighbourhoods.  As the paper observes, this slashes memory and even improves
wall-clock time for small ``k``, at the price of losing the worst-case time
bound (and getting slower as ``k`` grows) — exactly the trade-off evaluated
in Fig 7.

Like the eager state, all storage is slot-indexed flat arrays (bytearray
membership, list counts), so the per-update inner loop does zero hashing.
The class exposes the same interface as :class:`MISState` — including the
``*_slot`` hot-path methods — so every maintenance algorithm can run on
either state by passing ``lazy=True``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.core import kernels
from repro.core.state import CountEvent, StateStatistics, _privatize_adj_pairs
from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    SelfLoopError,
    SolutionInvariantError,
)
from repro.graphs.dynamic_graph import DynamicGraph, Vertex


class LazyMISState:
    """Count-only bookkeeping of an independent set over a dynamic graph.

    Interface-compatible with :class:`repro.core.state.MISState`; see that
    class for method semantics.
    """

    def __init__(self, graph: DynamicGraph, k: int = 1) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.graph = graph
        self.k = k
        n = graph.num_slots
        self._adj = graph.adjacency_slots_view()
        self._in_sol = bytearray(n)
        self._sol_slots: Set[int] = set()
        self._count: List[int] = [0] * n
        self.stats = StateStatistics()

    def _ensure_slot(self, slot: int) -> None:
        while len(self._count) <= slot:
            self._in_sol.append(0)
            self._count.append(0)

    def fork(self, graph_fork: DynamicGraph) -> "LazyMISState":
        """Return a fork of this state over ``graph_fork`` (see :meth:`MISState.fork`).

        The lazy state stores only flat scalar arrays, so its fork is pure
        memcpy-level copies; all structural sharing lives in the graph's
        adjacency CoW (the inlined mutators below honour its bitmap).
        """
        clone = object.__new__(type(self))
        clone.graph = graph_fork
        clone.k = self.k
        clone._adj = graph_fork.adjacency_slots_view()
        clone._in_sol = bytearray(self._in_sol)
        clone._sol_slots = set(self._sol_slots)
        clone._count = list(self._count)
        clone.stats = StateStatistics(
            move_in_calls=self.stats.move_in_calls,
            move_out_calls=self.stats.move_out_calls,
            count_updates=self.stats.count_updates,
        )
        return clone

    # ------------------------------------------------------------------ #
    # Queries (label boundary)
    # ------------------------------------------------------------------ #
    @property
    def solution_size(self) -> int:
        return len(self._sol_slots)

    def solution(self) -> Set[Vertex]:
        label = self.graph.labels_view()
        return {label[s] for s in self._sol_slots}

    def solution_view(self) -> Set[Vertex]:
        """Interface parity with :class:`MISState` (fresh label set)."""
        return self.solution()

    def is_in_solution(self, vertex: Vertex) -> bool:
        return bool(self._in_sol[self.graph.slot_of(vertex)])

    def count(self, vertex: Vertex) -> int:
        slot = self.graph.slot_of(vertex)
        if self._in_sol[slot]:
            return 0
        return self._count[slot]

    def counts_view(self) -> Dict[Vertex, int]:
        """Return ``{label: count}`` for every vertex of the graph.

        Solution vertices always carry a stored count of 0 (moving in
        requires count 0 and no later mutation touches a member's own
        counter), so this agrees with :meth:`count` on every vertex.
        """
        counts = self._count
        return {v: counts[s] for v, s in self.graph.slot_map_view().items()}

    def solution_neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Recompute ``I(v)`` by scanning the neighbourhood of ``vertex``."""
        label = self.graph.labels_view()
        return {label[t] for t in self.sn_slots_view(self.graph.slot_of(vertex))}

    def solution_neighbors_view(self, vertex: Vertex) -> Set[Vertex]:
        """Interface parity with :class:`MISState`; lazily recomputed, so the
        result is a fresh set rather than a live view."""
        return self.solution_neighbors(vertex)

    def tight_vertices(self, owners: FrozenSet[Vertex], level: int) -> Set[Vertex]:
        """Recompute ``¯I_level(owners)`` by scanning the owners' neighbourhoods."""
        if level != len(owners):
            raise ValueError("level must equal the size of the owner set")
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        slot_map = self.graph.slot_map_view()
        label = self.graph.labels_view()
        owner_slots = frozenset(slot_map[v] for v in owners if v in slot_map)
        if len(owner_slots) != len(owners):
            # Some owner is gone; only surviving owners can dominate anything.
            return set()
        return {label[t] for t in self.tight_view(owner_slots, level)}

    def tight_up_to(self, owners: FrozenSet[Vertex], level: int) -> Set[Vertex]:
        """Recompute ``¯I_{≤level}(owners)`` by scanning the owners' neighbourhoods."""
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        slot_map = self.graph.slot_map_view()
        label = self.graph.labels_view()
        owner_slots = frozenset(slot_map[v] for v in owners if v in slot_map)
        return {label[t] for t in self.tight_up_to_slots(owner_slots, level)}

    def nonsolution_vertices_with_count(self, level: int) -> Set[Vertex]:
        label = self.graph.labels_view()
        return {label[s] for s in self.nonsolution_slots_with_count(level)}

    def structure_size(self) -> int:
        """Memory proxy: only the membership set and one counter per vertex."""
        return len(self._sol_slots) + self.graph.num_vertices

    # ------------------------------------------------------------------ #
    # Queries (slot space — recomputed on demand)
    # ------------------------------------------------------------------ #
    def in_solution_view(self) -> bytearray:
        return self._in_sol

    def solution_slots_view(self) -> Set[int]:
        return self._sol_slots

    def counts_slots_view(self) -> List[int]:
        return self._count

    def count_slot(self, slot: int) -> int:
        if self._in_sol[slot]:
            return 0
        return self._count[slot]

    def sn_list_view(self) -> None:
        """No stored ``I(v)`` lists on the lazy state (see :class:`MISState`)."""
        return None

    def sn_slots_view(self, slot: int) -> Set[int]:
        """Recompute the ``I(v)`` neighbour-slot set (fresh set, not a view)."""
        if self._in_sol[slot]:
            return set()
        in_sol = self._in_sol
        return {t for t in self._adj[slot] if in_sol[t]}

    def tight1_view(self, owner_slot: int) -> Set[int]:
        """Recompute ``¯I_1({owner})`` (no stored buckets to expose lazily).

        A neighbour of ``owner`` with count 1 is dominated by ``owner`` alone,
        so no ``I(v)`` comparison is needed at level 1.
        """
        in_sol = self._in_sol
        counts = self._count
        return {
            t for t in self._adj[owner_slot] if counts[t] == 1 and not in_sol[t]
        }

    def tight_view(self, owner_slots: FrozenSet[int], level: int) -> Set[int]:
        """Recompute ``¯I_level(S)`` for an owner-slot set."""
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        if level == 1:
            (owner,) = owner_slots
            return self.tight1_view(owner)
        in_sol = self._in_sol
        counts = self._count
        adj = self._adj
        result: Set[int] = set()
        for owner in owner_slots:
            for t in adj[owner]:
                if in_sol[t] or counts[t] != level or t in result:
                    continue
                if {x for x in adj[t] if in_sol[x]} == owner_slots:
                    result.add(t)
        return result

    def tight_up_to_slots(self, owner_slots: FrozenSet[int], level: int) -> Set[int]:
        """Recompute ``¯I_{≤level}(S)`` by scanning the owners' neighbourhoods."""
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        in_sol = self._in_sol
        counts = self._count
        adj = self._adj
        result: Set[int] = set()
        for owner in owner_slots:
            for t in adj[owner]:
                if in_sol[t] or t in result:
                    continue
                c = counts[t]
                if 1 <= c <= level and {x for x in adj[t] if in_sol[x]} <= owner_slots:
                    result.add(t)
        return result

    def nonsolution_slots_with_count(self, level: int) -> Set[int]:
        """Scan all vertices for the requested count (lazy: O(n))."""
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        in_sol = self._in_sol
        counts = self._count
        return {
            s for s in self.graph.slots() if counts[s] == level and not in_sol[s]
        }

    # ------------------------------------------------------------------ #
    # Solution mutation
    # ------------------------------------------------------------------ #
    def move_in(self, vertex: Vertex, *, collect_events: bool = True) -> List[CountEvent]:
        slot = self.graph.slot_of(vertex)
        self.move_in_slot(slot)
        if not collect_events:
            return []
        counts = self._count
        label = self.graph.labels_view()
        return [(label[t], counts[t] - 1, counts[t]) for t in self._adj[slot]]

    def move_out(self, vertex: Vertex, *, collect_events: bool = True) -> List[CountEvent]:
        slot = self.graph.slot_of(vertex)
        self.move_out_slot(slot)
        if not collect_events:
            return []
        counts = self._count
        in_sol = self._in_sol
        label = self.graph.labels_view()
        return [
            (label[t], counts[t] + 1, counts[t])
            for t in self._adj[slot]
            if not in_sol[t]
        ]

    def move_in_slot(self, slot: int) -> None:
        if self._in_sol[slot]:
            raise SolutionInvariantError(
                f"{self.graph.vertex_of(slot)!r} is already in the solution"
            )
        if self._count[slot] != 0:
            raise SolutionInvariantError(
                f"cannot MOVEIN {self.graph.vertex_of(slot)!r}: "
                f"count is {self._count[slot]}"
            )
        self.stats.move_in_calls += 1
        self._in_sol[slot] = 1
        self._sol_slots.add(slot)
        counts = self._count
        touched = 0
        for t in self._adj[slot]:
            counts[t] += 1
            touched += 1
        self.stats.count_updates += touched

    def move_out_slot(self, slot: int) -> None:
        if not self._in_sol[slot]:
            raise SolutionInvariantError(
                f"{self.graph.vertex_of(slot)!r} is not in the solution"
            )
        self.stats.move_out_calls += 1
        self._in_sol[slot] = 0
        self._sol_slots.discard(slot)
        in_sol = self._in_sol
        counts = self._count
        own_count = 0
        touched = 0
        for t in self._adj[slot]:
            if in_sol[t]:
                own_count += 1
                continue
            counts[t] -= 1
            touched += 1
        self.stats.count_updates += touched
        self._count[slot] = own_count

    # ------------------------------------------------------------------ #
    # Structural mutation
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: Vertex, neighbors: Iterable[Vertex]) -> int:
        _slot, count = self.add_vertex_slot(vertex, neighbors)
        return count

    def add_vertex_slot(
        self, vertex: Vertex, neighbors: Iterable[Vertex]
    ) -> Tuple[int, int]:
        graph = self.graph
        slot = graph.add_vertex_slot(vertex)
        self._ensure_slot(slot)
        # Fused edge loop (inlines graph.add_edge_slots; see MISState).
        count = 0
        if neighbors:
            slot_of = graph.slot_of
            adj = self._adj
            adj_s = adj[slot]  # freshly allocated: _alloc made it private
            in_sol = self._in_sol
            gcow = graph._cow_adj
            n = 0
            for nbr in neighbors:
                t = slot_of(nbr)
                if t == slot:
                    raise SelfLoopError(vertex)
                if t in adj_s:
                    raise EdgeExistsError(vertex, nbr)
                adj_s.add(t)
                if gcow is not None and not gcow[t]:
                    adj[t] = set(adj[t])
                    gcow[t] = 1
                adj[t].add(slot)
                n += 1
                if in_sol[t]:
                    count += 1
            graph._num_edges += n
        self._count[slot] = count
        return slot, count

    def remove_vertex(self, vertex: Vertex) -> Tuple[bool, Set[Vertex], List[CountEvent]]:
        label = self.graph.labels_view()
        was_in, neighbor_slots = self.remove_vertex_slot(self.graph.slot_of(vertex))
        events: List[CountEvent] = []
        if was_in:
            counts = self._count
            in_sol = self._in_sol
            events = [
                (label[t], counts[t] + 1, counts[t])
                for t in neighbor_slots
                if not in_sol[t]
            ]
        return was_in, {label[t] for t in neighbor_slots}, events

    def remove_vertex_slot(self, slot: int) -> Tuple[bool, Set[int]]:
        was_in_solution = bool(self._in_sol[slot])
        # The graph hands over its own popped adjacency set — no copy needed.
        neighbor_slots = self.graph.pop_vertex_slot(slot)
        if was_in_solution:
            self._in_sol[slot] = 0
            self._sol_slots.discard(slot)
            in_sol = self._in_sol
            counts = self._count
            for t in neighbor_slots:
                if not in_sol[t]:
                    counts[t] -= 1
                    self.stats.count_updates += 1
        self._count[slot] = 0
        return was_in_solution, neighbor_slots

    def add_edge(
        self, u: Vertex, v: Vertex, *, collect_events: bool = True
    ) -> List[CountEvent]:
        slot_of = self.graph.slot_of
        su, sv = slot_of(u), slot_of(v)
        self.add_edge_slots(su, sv)
        if not collect_events:
            return []
        in_sol = self._in_sol
        counts = self._count
        if in_sol[su] and not in_sol[sv]:
            return [(v, counts[sv] - 1, counts[sv])]
        if in_sol[sv] and not in_sol[su]:
            return [(u, counts[su] - 1, counts[su])]
        return []

    def remove_edge(self, u: Vertex, v: Vertex) -> List[CountEvent]:
        slot_of = self.graph.slot_of
        su, sv = slot_of(u), slot_of(v)
        in_sol = self._in_sol
        u_in, v_in = in_sol[su], in_sol[sv]
        if u_in != v_in:
            label_out, s_out, s_in = (v, sv, su) if u_in else (u, su, sv)
            new = self.remove_edge_one_sided(s_out, s_in)
            return [(label_out, new + 1, new)]
        self.remove_edge_structural(su, sv)
        return []

    def add_edge_slots(self, su: int, sv: int) -> None:
        # Inlined graph.add_edge_slots (hot path; see MISState).
        if su == sv:
            raise SelfLoopError(self.graph.vertex_of(su))
        adj = self._adj
        adj_u = adj[su]
        if sv in adj_u:
            raise EdgeExistsError(self.graph.vertex_of(su), self.graph.vertex_of(sv))
        gcow = self.graph._cow_adj
        if gcow is not None:
            if not gcow[su]:
                adj[su] = adj_u = set(adj_u)
                gcow[su] = 1
            if not gcow[sv]:
                adj[sv] = set(adj[sv])
                gcow[sv] = 1
        adj_u.add(sv)
        adj[sv].add(su)
        self.graph._num_edges += 1
        in_sol = self._in_sol
        if in_sol[su]:
            if not in_sol[sv]:
                self._count[sv] += 1
                self.stats.count_updates += 1
        elif in_sol[sv]:
            self._count[su] += 1
            self.stats.count_updates += 1

    def remove_edge_structural(self, su: int, sv: int) -> None:
        """Delete an edge whose removal changes no count (neither or both endpoints in ``I``)."""
        # Inlined graph.remove_edge_slots (hot path; see MISState).
        adj = self._adj
        adj_u = adj[su]
        if sv not in adj_u:
            raise EdgeNotFoundError(self.graph.vertex_of(su), self.graph.vertex_of(sv))
        gcow = self.graph._cow_adj
        if gcow is not None:
            if not gcow[su]:
                adj[su] = adj_u = set(adj_u)
                gcow[su] = 1
            if not gcow[sv]:
                adj[sv] = set(adj[sv])
                gcow[sv] = 1
        adj_u.remove(sv)
        try:
            adj[sv].remove(su)
        except KeyError:
            raise GraphError(
                f"asymmetric adjacency: edge ({su}, {sv}) present only as "
                f"{su}->{sv}"
            ) from None
        self.graph._num_edges -= 1

    def remove_edge_one_sided(self, s_out: int, s_in: int) -> int:
        """Delete an edge with exactly ``s_in`` in the solution; return the new count of ``s_out``."""
        self.remove_edge_structural(s_out, s_in)
        counts = self._count
        counts[s_out] -= 1
        self.stats.count_updates += 1
        return counts[s_out]

    # ------------------------------------------------------------------ #
    # Bulk structural mutation (the batched update engine's hot path)
    # ------------------------------------------------------------------ #
    def add_edges_slots_bulk(
        self, pairs: List[Tuple[int, int]]
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Insert a run of edges in one pass; see :meth:`MISState.add_edges_slots_bulk`.

        Failure-atomic: the whole pair list is validated before any mutation.
        """
        adj = self._adj
        in_sol = self._in_sol
        counts = self._count
        graph = self.graph
        _privatize_adj_pairs(graph, adj, pairs)
        bumped: List[int] = []
        conflicts: List[Tuple[int, int]] = []
        kernels.validate_edge_insertions(graph, adj, pairs)
        for su, sv in pairs:
            adj[su].add(sv)
            adj[sv].add(su)
            if in_sol[su]:
                if in_sol[sv]:
                    conflicts.append((su, sv))
                else:
                    counts[sv] += 1
                    bumped.append(sv)
            elif in_sol[sv]:
                counts[su] += 1
                bumped.append(su)
        graph._num_edges += len(pairs)
        self.stats.count_updates += len(bumped)
        return bumped, conflicts

    def remove_edges_slots_bulk(
        self, pairs: List[Tuple[int, int]]
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Delete a run of edges in one pass; see :meth:`MISState.remove_edges_slots_bulk`.

        Failure-atomic: the whole pair list is validated before any mutation.
        """
        adj = self._adj
        in_sol = self._in_sol
        counts = self._count
        graph = self.graph
        _privatize_adj_pairs(graph, adj, pairs)
        dropped: List[int] = []
        outside: List[Tuple[int, int]] = []
        remove = self._remove_pair_symmetric
        kernels.validate_edge_deletions(graph, adj, pairs)
        for su, sv in pairs:
            remove(adj, su, sv)
            u_in = in_sol[su]
            if u_in != in_sol[sv]:
                s_out, s_in = (sv, su) if u_in else (su, sv)
                counts[s_out] -= 1
                dropped.append(s_out)
            elif not u_in:
                outside.append((su, sv))
        graph._num_edges -= len(pairs)
        self.stats.count_updates += len(dropped)
        return dropped, outside

    @staticmethod
    def _remove_pair_symmetric(adj, su: int, sv: int) -> None:
        """Drop both directions of a pre-validated edge, asserting symmetry."""
        adj[su].remove(sv)
        try:
            adj[sv].remove(su)
        except KeyError:
            raise GraphError(
                f"asymmetric adjacency: edge ({su}, {sv}) present only as "
                f"{su}->{sv}"
            ) from None

    # ------------------------------------------------------------------ #
    # Invariant checking
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        graph = self.graph
        adj = self._adj
        in_sol = self._in_sol
        label = graph.labels_view()
        for s in self._sol_slots:
            if not graph.is_live_slot(s):
                raise SolutionInvariantError(f"solution slot {s} missing from graph")
            if not in_sol[s]:
                raise SolutionInvariantError(
                    f"{label[s]!r} is in the solution set but its membership "
                    "byte is clear"
                )
            for t in adj[s]:
                if in_sol[t]:
                    raise SolutionInvariantError(
                        f"solution vertices {label[s]!r} and {label[t]!r} are adjacent"
                    )
        counts = self._count
        for s in graph.slots():
            if in_sol[s]:
                if s not in self._sol_slots:
                    raise SolutionInvariantError(
                        f"membership byte of {label[s]!r} out of sync"
                    )
                continue
            expected = sum(1 for t in adj[s] if in_sol[t])
            if counts[s] != expected:
                raise SolutionInvariantError(
                    f"count({label[s]!r}) is {counts[s]!r} but the graph "
                    f"says {expected}"
                )

    def is_maximal(self) -> bool:
        in_sol = self._in_sol
        counts = self._count
        for s in self.graph.slots():
            if counts[s] == 0 and not in_sol[s]:
                return False
        return True
