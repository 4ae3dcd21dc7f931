"""Solution-state bookkeeping shared by all maintenance algorithms.

The framework of the paper (Section III-B) keeps, for the maintained
independent set ``I``:

* a boolean ``status(v)`` per vertex (membership in ``I``),
* for every non-solution vertex ``v``, the list ``I(v)`` of its neighbours in
  ``I`` and the counter ``count(v) = |I(v)|``,
* for every subset ``S ⊆ I`` of size ``j ≤ k``, the set
  ``¯I_j(S) = {v ∉ I : I(v) = S}`` stored hierarchically so membership moves
  in constant time when a count changes.

:class:`MISState` is the eager implementation of this bookkeeping; the lazy
variant (Section III optimization 1) lives in :mod:`repro.core.lazy` and
exposes the same interface, so every algorithm can run on either.

Performance notes (the hot path of every maintenance algorithm):

* All bookkeeping is **slot-indexed flat storage**: membership is a
  ``bytearray`` (one byte per graph slot), ``count(v)`` a plain ``list`` of
  ints, ``I(v)`` a list of neighbour-slot sets, and the level-1 hierarchy a
  list of buckets keyed by the owner *slot*.  The innermost count-maintenance
  loop therefore performs zero hashing — every probe is a C-level list index.
* Only levels ≥ 2 of the hierarchy use frozenset-keyed dictionaries (of
  slots); DyOneSwap never allocates a frozenset on a count change.
* The ``*_slot`` methods are the native API consumed by the algorithms; the
  label-level methods (`move_in`, `add_edge`, …) translate at the boundary
  and remain for tests and external callers.
* :meth:`structure_size` is O(1): the footprint is a counter maintained at
  every mutation instead of an O(n) sweep per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core import kernels
from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    SelfLoopError,
    SolutionInvariantError,
)
from repro.graphs.dynamic_graph import DynamicGraph, Vertex

#: A count-change event ``(vertex, old_count, new_count)``.  Returned by the
#: label-level mutators only (the slot-level hot paths build no events; see
#: :meth:`MISState.move_in`), so the first field is the vertex *label*.
#: ``old_count`` is ``None`` when the vertex had no tracked count before the
#: event (it was in the solution, or did not exist).
CountEvent = Tuple[Vertex, Optional[int], int]

#: Shared immutable empty set returned by the view accessors when a bucket is
#: absent, so callers can iterate/compare without a per-call allocation.
_EMPTY: FrozenSet[int] = frozenset()


def _privatize_adj_pairs(
    graph: DynamicGraph, adj: List[Set[int]], pairs: Iterable[Tuple[int, int]]
) -> None:
    """CoW barrier for a bulk pass: privatise every adjacency set ``pairs`` touches.

    Called once per bulk mutator when the graph has been forked (no-op check
    otherwise), so the per-pair hot loops below run on owned sets with zero
    extra branching.  Shared by the eager and lazy states.
    """
    gcow = graph._cow_adj
    if gcow is None:
        return
    for su, sv in pairs:
        if not gcow[su]:
            adj[su] = set(adj[su])
            gcow[su] = 1
        if not gcow[sv]:
            adj[sv] = set(adj[sv])
            gcow[sv] = 1


@dataclass
class StateStatistics:
    """Running counters describing the work a state instance has performed."""

    move_in_calls: int = 0
    move_out_calls: int = 0
    count_updates: int = 0


class MISState:
    """Eager bookkeeping of an independent set over a dynamic graph.

    Parameters
    ----------
    graph:
        The dynamic graph; the state mutates it through its own
        ``add_vertex`` / ``add_edge`` / … methods so graph and bookkeeping
        never diverge.
    k:
        Highest hierarchy level to maintain (the ``k`` of the k-maximal
        framework).
    """

    def __init__(self, graph: DynamicGraph, k: int = 1) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.graph = graph
        self.k = k
        n = graph.num_slots
        # Shared live view of the graph's slot-indexed adjacency.
        self._adj = graph.adjacency_slots_view()
        # Membership: byte per slot (zero-hash probe) plus the slot set for
        # O(|I|) iteration.
        self._in_sol = bytearray(n)
        self._sol_slots: Set[int] = set()
        # count(v) maintained incrementally; 0 for solution vertices.
        self._count: List[int] = [0] * n
        # I(v) as neighbour-slot sets, indexed by slot.
        self._sn: List[Set[int]] = [set() for _ in range(n)]
        # Level-1 hierarchy keyed by the owner slot: _tight1[w] = ¯I_1({w})
        # (None when the bucket is absent).
        self._tight1: List[Optional[Set[int]]] = [None] * n
        # _tight[j] maps frozenset(S) of slots (|S| == j >= 2) to ¯I_j(S).
        # Slots 0 and 1 stay empty (level 1 lives in _tight1).
        self._tight: List[Dict[FrozenSet[int], Set[int]]] = [
            {} for _ in range(k + 1)
        ]
        # Incrementally maintained parts of structure_size(): total entries
        # stored in _sn values, and keys/entries across the hierarchy
        # (including _tight1).
        self._sn_total = 0
        self._tight_keys = 0
        self._tight_total = 0
        self.stats = StateStatistics()
        # Copy-on-write ownership bitmaps for the inner ``I(v)`` sets and the
        # level-1 hierarchy buckets (``None`` until the first fork — mutators
        # then pay a single ``is None`` check).  See :meth:`fork`.
        self._cow_sn: Optional[bytearray] = None
        self._cow_t1: Optional[bytearray] = None

    def _ensure_slot(self, slot: int) -> None:
        """Grow the flat arrays to cover a freshly allocated graph slot."""
        cow = self._cow_sn
        while len(self._count) <= slot:
            self._in_sol.append(0)
            self._count.append(0)
            self._sn.append(set())
            self._tight1.append(None)
            if cow is not None:
                cow.append(1)
                self._cow_t1.append(1)

    def fork(self, graph_fork: DynamicGraph) -> "MISState":
        """Return a copy-on-write fork of this state over ``graph_fork``.

        ``graph_fork`` must be the result of ``self.graph.fork()``.  Flat
        scalar arrays (membership bytes, counts, solution slots, footprint
        counters, statistics) are copied outright — C-level memcpy — while
        the per-slot ``I(v)`` sets and level-1 hierarchy buckets are shared
        behind fresh ownership bitmaps on **both** sides, exactly like the
        graph's adjacency CoW.  Levels ≥ 2 of the hierarchy are deep-copied:
        their total size is bounded by the few vertices with ``2 ≤ count ≤ k``
        (empty for k=1 algorithms), so sharing machinery would cost more
        than it saves.
        """
        clone = object.__new__(type(self))
        clone.graph = graph_fork
        clone.k = self.k
        clone._adj = graph_fork.adjacency_slots_view()
        clone._in_sol = bytearray(self._in_sol)
        clone._sol_slots = set(self._sol_slots)
        clone._count = list(self._count)
        clone._sn = list(self._sn)  # shares the inner sets
        clone._tight1 = list(self._tight1)  # shares the buckets
        clone._tight = [
            {key: set(bucket) for key, bucket in level.items()}
            for level in self._tight
        ]
        n = len(self._count)
        clone._cow_sn = bytearray(n)
        clone._cow_t1 = bytearray(n)
        self._cow_sn = bytearray(n)
        self._cow_t1 = bytearray(n)
        clone._sn_total = self._sn_total
        clone._tight_keys = self._tight_keys
        clone._tight_total = self._tight_total
        clone.stats = StateStatistics(
            move_in_calls=self.stats.move_in_calls,
            move_out_calls=self.stats.move_out_calls,
            count_updates=self.stats.count_updates,
        )
        return clone

    def _owned_sn(self, slot: int) -> Set[int]:
        """Return ``I(v)`` for ``slot`` privately owned (the CoW write barrier)."""
        sn = self._sn
        cow = self._cow_sn
        if cow is not None and not cow[slot]:
            sn[slot] = nbrs = set(sn[slot])
            cow[slot] = 1
            return nbrs
        return sn[slot]

    def _owned_t1(self, owner: int) -> Optional[Set[int]]:
        """Return the ``¯I_1({owner})`` bucket privately owned (may be ``None``)."""
        tight1 = self._tight1
        cow = self._cow_t1
        if cow is not None and not cow[owner]:
            bucket = tight1[owner]
            if bucket is not None:
                tight1[owner] = bucket = set(bucket)
            cow[owner] = 1
            return bucket
        return tight1[owner]

    # ------------------------------------------------------------------ #
    # Queries (label boundary)
    # ------------------------------------------------------------------ #
    @property
    def solution_size(self) -> int:
        """Size of the maintained independent set."""
        return len(self._sol_slots)

    def solution(self) -> Set[Vertex]:
        """Return a copy of the maintained independent set (as labels)."""
        label = self.graph.labels_view()
        return {label[s] for s in self._sol_slots}

    def solution_view(self) -> Set[Vertex]:
        """Return the maintained independent set as a fresh label set.

        Kept for interface compatibility; hot loops use
        :meth:`in_solution_view` / :meth:`solution_slots_view` instead.
        """
        return self.solution()

    def is_in_solution(self, vertex: Vertex) -> bool:
        """Return ``True`` when ``vertex`` is currently in the solution."""
        return bool(self._in_sol[self.graph.slot_of(vertex)])

    def count(self, vertex: Vertex) -> int:
        """Return ``count(v) = |N(v) ∩ I|`` (0 for solution vertices)."""
        return self._count[self.graph.slot_of(vertex)]

    def counts_view(self) -> Dict[Vertex, int]:
        """Return ``{label: count}`` for every vertex of the graph.

        Built per call from the flat slot array; hot loops use
        :meth:`counts_slots_view` (a list indexed by slot) instead.
        """
        counts = self._count
        return {v: counts[s] for v, s in self.graph.slot_map_view().items()}

    def solution_neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return a copy of ``I(v)``, the solution neighbours of ``vertex``."""
        label = self.graph.labels_view()
        return {label[t] for t in self._sn[self.graph.slot_of(vertex)]}

    def solution_neighbors_view(self, vertex: Vertex) -> Set[Vertex]:
        """Label-level ``I(v)`` (translated per call; see :meth:`sn_slots_view`)."""
        return self.solution_neighbors(vertex)

    def tight_vertices(self, owners: FrozenSet[Vertex], level: int) -> Set[Vertex]:
        """Return a copy of ``¯I_level(owners) = {v ∉ I : I(v) = owners}``.

        ``level`` must equal ``len(owners)`` and be at most ``k``.  Owners are
        labels; the result is a label set.
        """
        if level != len(owners):
            raise ValueError("level must equal the size of the owner set")
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        slot_map = self.graph.slot_map_view()
        label = self.graph.labels_view()
        owner_slots = {slot_map[v] for v in owners if v in slot_map}
        if len(owner_slots) != len(owners):
            # Some owner is gone; I(v) = owners cannot hold for anyone
            # (matches the lazy state instead of raising).
            return set()
        if level == 1:
            (owner,) = owner_slots
            bucket = self._tight1[owner]
            return {label[t] for t in bucket} if bucket else set()
        bucket2 = self._tight[level].get(frozenset(owner_slots))
        return {label[t] for t in bucket2} if bucket2 else set()

    def tight_up_to(self, owners: FrozenSet[Vertex], level: int) -> Set[Vertex]:
        """Return ``¯I_{≤level}(owners)`` as a label set (see :meth:`tight_up_to_slots`).

        Deleted owner labels contribute nothing (interface parity with the
        lazy state): the union runs over the surviving owners only.
        """
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        slot_map = self.graph.slot_map_view()
        label = self.graph.labels_view()
        owner_slots = frozenset(slot_map[v] for v in owners if v in slot_map)
        pool = self.tight_up_to_slots(owner_slots, level)
        return {label[t] for t in pool}

    def nonsolution_vertices_with_count(self, level: int) -> Set[Vertex]:
        """Return every non-solution vertex (label) with ``count == level`` (≤ k)."""
        label = self.graph.labels_view()
        return {label[s] for s in self.nonsolution_slots_with_count(level)}

    def structure_size(self) -> int:
        """Approximate memory footprint (number of stored vertex references).

        Used by the experiment harness as the deterministic stand-in for the
        paper's ``/usr/bin/time`` heap measurements: it counts the membership
        entries, the per-vertex count/I(v) storage and the hierarchy.  O(1):
        the counters are maintained incrementally by every mutation.
        """
        n = self.graph.num_vertices
        return (
            len(self._sol_slots)
            + 2 * n
            + self._sn_total
            + self._tight_keys
            + self._tight_total
        )

    # ------------------------------------------------------------------ #
    # Queries (slot space — the algorithms' hot-path API)
    # ------------------------------------------------------------------ #
    def in_solution_view(self) -> bytearray:
        """Live slot-indexed membership bytes (read-only for callers)."""
        return self._in_sol

    def solution_slots_view(self) -> Set[int]:
        """Live set of solution slots (read-only for callers)."""
        return self._sol_slots

    def counts_slots_view(self) -> List[int]:
        """Live slot-indexed count table (read-only for callers)."""
        return self._count

    def count_slot(self, slot: int) -> int:
        """Return ``count(v)`` for the vertex at ``slot``."""
        return self._count[slot]

    def sn_slots_view(self, slot: int) -> Set[int]:
        """Live ``I(v)`` neighbour-slot set for the vertex at ``slot``.

        Internal state: callers must not mutate it and must not hold it
        across a state mutation.
        """
        return self._sn[slot]

    def sn_list_view(self) -> Optional[List[Set[int]]]:
        """Live slot-indexed list of ``I(v)`` sets (``None`` on the lazy state).

        Lets hot loops index the eager storage directly while falling back to
        :meth:`sn_slots_view` when running lazily.
        """
        return self._sn

    def tight1_view(self, owner_slot: int) -> Set[int]:
        """Live ``¯I_1({owner})`` bucket by owner slot (shared empty set if absent).

        Zero-copy: callers must not mutate the result and must snapshot it
        before any operation that moves vertices in or out of the solution.
        """
        return self._tight1[owner_slot] or _EMPTY

    def tight_view(self, owner_slots: FrozenSet[int], level: int) -> Set[int]:
        """Zero-copy ``¯I_level(S)`` for an owner-slot frozenset (caveats as above)."""
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        if level == 1:
            (owner,) = owner_slots
            return self._tight1[owner] or _EMPTY
        return self._tight[level].get(owner_slots) or _EMPTY

    def tight_up_to_slots(self, owner_slots: FrozenSet[int], level: int) -> Set[int]:
        """Return ``¯I_{≤level}(S) = {v ∉ I : I(v) ⊆ S, count(v) ≤ level}`` (slots).

        Computed as the union over subsets of ``owner_slots`` of the stored
        exact level sets — the "depth-first traversal over the hierarchy" of
        the paper, which is cheap because ``|S| ≤ k`` is tiny.
        """
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        result: Set[int] = set()
        tight1 = self._tight1
        owner_list = list(owner_slots)
        for owner in owner_list:
            bucket = tight1[owner]
            if bucket:
                result.update(bucket)
        for size in range(2, min(level, len(owner_list)) + 1):
            level_map = self._tight[size]
            for subset in _subsets_of_size(owner_list, size):
                bucket = level_map.get(subset)
                if bucket:
                    result.update(bucket)
        return result

    def nonsolution_slots_with_count(self, level: int) -> Set[int]:
        """Return every non-solution slot with ``count == level`` (level ≤ k)."""
        if level > self.k:
            raise ValueError(f"level {level} exceeds tracked k={self.k}")
        result: Set[int] = set()
        if level == 1:
            for bucket in self._tight1:
                if bucket:
                    result.update(bucket)
        else:
            for bucket in self._tight[level].values():
                result.update(bucket)
        return result

    # ------------------------------------------------------------------ #
    # Solution mutation
    # ------------------------------------------------------------------ #
    def move_in(self, vertex: Vertex, *, collect_events: bool = True) -> List[CountEvent]:
        """Insert ``vertex`` (a label) into the solution; see :meth:`move_in_slot`.

        Returns label-level count events, reconstructed after the fact: every
        neighbour's count rose by exactly one, so the events need not be
        collected inside the hot loop.
        """
        slot = self.graph.slot_of(vertex)
        self.move_in_slot(slot)
        if not collect_events:
            return []
        counts = self._count
        label = self.graph.labels_view()
        return [(label[t], counts[t] - 1, counts[t]) for t in self._adj[slot]]

    def move_out(self, vertex: Vertex, *, collect_events: bool = True) -> List[CountEvent]:
        """Remove ``vertex`` (a label) from the solution; see :meth:`move_out_slot`.

        Returns label-level count events, reconstructed after the fact (every
        non-solution neighbour's count dropped by exactly one).
        """
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
        """Insert the vertex at ``slot`` into the solution (its count must be zero).

        No event list is built — every neighbour's count rises by exactly
        one, so callers that need events reconstruct them afterwards (see
        :meth:`move_in`).
        """
        if self._in_sol[slot]:
            raise SolutionInvariantError(
                f"{self.graph.vertex_of(slot)!r} is already in the solution"
            )
        if self._sn[slot]:
            raise SolutionInvariantError(
                f"cannot MOVEIN {self.graph.vertex_of(slot)!r}: it has solution "
                f"neighbours {self.solution_neighbors(self.graph.vertex_of(slot))!r}"
            )
        self.stats.move_in_calls += 1
        self._in_sol[slot] = 1
        self._sol_slots.add(slot)
        # Flat-array inner loop: every probe is a list index, zero hashing.
        # The level-1 hierarchy moves are inlined because their buckets are
        # loop-invariant: every neighbour reaching count 1 lands in
        # ¯I_1({slot}), and every neighbour leaving count 1 leaves the bucket
        # of its single previous owner.
        sn = self._sn
        counts = self._count
        tight1 = self._tight1
        cow_sn = self._cow_sn
        cow_t1 = self._cow_t1
        k = self.k
        touched = 0
        total_delta = 0
        bucket_new: Optional[Set[int]] = None
        for t in self._adj[slot]:
            # No neighbour can be in the solution (count was zero), so every
            # neighbour gains a solution neighbour.
            nbrs = sn[t]
            if cow_sn is not None and not cow_sn[t]:
                sn[t] = nbrs = set(nbrs)
                cow_sn[t] = 1
            old = counts[t]
            if old == 0:
                nbrs.add(slot)
                counts[t] = 1
                if bucket_new is None:
                    bucket_new = tight1[slot]
                    if bucket_new is None:
                        bucket_new = tight1[slot] = set()
                        self._tight_keys += 1
                        if cow_t1 is not None:
                            cow_t1[slot] = 1
                    elif cow_t1 is not None and not cow_t1[slot]:
                        tight1[slot] = bucket_new = set(bucket_new)
                        cow_t1[slot] = 1
                bucket_new.add(t)
                total_delta += 1
                touched += 1
                continue
            if old <= k:
                if old == 1:
                    (owner,) = nbrs
                    bucket = tight1[owner]
                    if bucket is not None:
                        if cow_t1 is not None and not cow_t1[owner]:
                            tight1[owner] = bucket = set(bucket)
                            cow_t1[owner] = 1
                        bucket.discard(t)
                        total_delta -= 1
                        if not bucket:
                            tight1[owner] = None
                            self._tight_keys -= 1
                else:
                    self._unposition_level(t, nbrs, old)
            nbrs.add(slot)
            new = old + 1
            counts[t] = new
            if new <= k:
                self._position_level(t, nbrs, new)
            touched += 1
        self._sn_total += touched
        self._tight_total += total_delta
        self.stats.count_updates += touched

    def move_out_slot(self, slot: int) -> None:
        """Remove the vertex at ``slot`` from the solution.

        After the call the vertex is an ordinary non-solution vertex whose
        ``I(v)`` reflects any solution neighbours it currently has (normally
        none, but an adjacent solution vertex can exist transiently while a
        conflicting edge insertion is being repaired).

        No event list is built — every non-solution neighbour's count drops
        by exactly one, so callers that need events reconstruct them
        afterwards (see :meth:`move_out`).
        """
        if not self._in_sol[slot]:
            raise SolutionInvariantError(
                f"{self.graph.vertex_of(slot)!r} is not in the solution"
            )
        self.stats.move_out_calls += 1
        self._in_sol[slot] = 0
        self._sol_slots.discard(slot)
        own_neighbors: Set[int] = set()
        in_sol = self._in_sol
        sn = self._sn
        counts = self._count
        tight1 = self._tight1
        cow_sn = self._cow_sn
        cow_t1 = self._cow_t1
        k = self.k
        touched = 0
        total_delta = 0
        # Neighbours leaving count 1 all leave ¯I_1({slot}); fetch the
        # bucket once (it only shrinks below: nothing repositions under an
        # owner that just left the solution).  _owned_t1 is the CoW barrier.
        bucket_old = self._owned_t1(slot)
        for t in self._adj[slot]:
            if in_sol[t]:
                own_neighbors.add(t)
                continue
            nbrs = sn[t]
            if cow_sn is not None and not cow_sn[t]:
                sn[t] = nbrs = set(nbrs)
                cow_sn[t] = 1
            old = counts[t]
            if old <= k:
                if old == 1:
                    if bucket_old is not None:
                        bucket_old.discard(t)
                        total_delta -= 1
                else:
                    self._unposition_level(t, nbrs, old)
            nbrs.discard(slot)
            new = old - 1
            counts[t] = new
            if new:
                if new <= k:
                    if new == 1:
                        (owner,) = nbrs
                        bucket = tight1[owner]
                        if bucket is None:
                            bucket = tight1[owner] = set()
                            self._tight_keys += 1
                            if cow_t1 is not None:
                                cow_t1[owner] = 1
                        elif cow_t1 is not None and not cow_t1[owner]:
                            tight1[owner] = bucket = set(bucket)
                            cow_t1[owner] = 1
                        bucket.add(t)
                        total_delta += 1
                    else:
                        self._position_level(t, nbrs, new)
            touched += 1
        if bucket_old is not None and not bucket_old:
            tight1[slot] = None
            self._tight_keys -= 1
        self._sn_total -= touched
        self._tight_total += total_delta
        self.stats.count_updates += touched
        # The stored set of a solution vertex is always empty, so the new
        # entries are exactly len(own_neighbors).
        self._sn[slot] = own_neighbors
        if cow_sn is not None:
            cow_sn[slot] = 1
        self._sn_total += len(own_neighbors)
        self._count[slot] = len(own_neighbors)
        self._position(slot)

    # ------------------------------------------------------------------ #
    # Structural mutation (keeps graph and bookkeeping in sync)
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: Vertex, neighbors: Iterable[Vertex]) -> int:
        """Insert a vertex together with its incident edges; return its count."""
        _slot, count = self.add_vertex_slot(vertex, neighbors)
        return count

    def add_vertex_slot(
        self, vertex: Vertex, neighbors: Iterable[Vertex]
    ) -> Tuple[int, int]:
        """Insert a vertex with its incident edges; return ``(slot, count)``."""
        graph = self.graph
        slot = graph.add_vertex_slot(vertex)
        self._ensure_slot(slot)
        # Fused edge loop (inlines graph.add_edge_slots): a fresh vertex's
        # adjacency starts empty, so the solution-neighbour set can be built
        # while the edges go in instead of re-scanning adjacency afterwards.
        own: Set[int] = set()
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
                    own.add(t)
            graph._num_edges += n
        self._sn[slot] = own
        if self._cow_sn is not None:
            self._cow_sn[slot] = 1
        self._sn_total += len(own)
        self._count[slot] = len(own)
        self._position(slot)
        return slot, len(own)

    def remove_vertex(self, vertex: Vertex) -> Tuple[bool, Set[Vertex], List[CountEvent]]:
        """Delete a vertex (label); return ``(was_in_solution, old_neighbors, events)``.

        ``old_neighbors`` and the events are labels; the events are
        reconstructed after the fact (every non-solution neighbour of a
        deleted solution vertex dropped by exactly one).
        """
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
        """Delete the vertex at ``slot``; return ``(was_in_solution, neighbor_slots)``.

        The slot is recycled by the graph's free-list; all bookkeeping for it
        is reset so the next vertex allocated into the slot starts clean.
        """
        was_in_solution = bool(self._in_sol[slot])
        if not was_in_solution:
            self._unposition(slot)
        # The graph hands over its own popped adjacency set — no copy needed.
        neighbor_slots = self.graph.pop_vertex_slot(slot)
        if was_in_solution:
            self._in_sol[slot] = 0
            self._sol_slots.discard(slot)
            in_sol = self._in_sol
            for t in neighbor_slots:
                if not in_sol[t]:
                    self._remove_solution_neighbor(t, slot)
        # Reset the recycled slot's bookkeeping.
        stored = self._sn[slot]
        self._sn_total -= len(stored)
        self._sn[slot] = set()
        if self._cow_sn is not None:
            self._cow_sn[slot] = 1
        self._count[slot] = 0
        return was_in_solution, neighbor_slots

    def add_edge(
        self, u: Vertex, v: Vertex, *, collect_events: bool = True
    ) -> List[CountEvent]:
        """Insert an edge by labels; see :meth:`add_edge_slots`.

        Returns the (reconstructed, label-level) count event of the affected
        endpoint, if any.
        """
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
        """Delete an edge by labels; returns the count event of the affected endpoint."""
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
        """Insert an edge; update counts when exactly one endpoint is in the solution.

        When both endpoints are in the solution no bookkeeping changes here —
        the caller is responsible for evicting one of them afterwards.
        """
        # Inlined graph.add_edge_slots — the single hottest structural
        # operation of every stream workload.
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
                self._add_solution_neighbor(sv, su)
        elif in_sol[sv]:
            self._add_solution_neighbor(su, sv)

    def remove_edge_structural(self, su: int, sv: int) -> None:
        """Delete an edge whose removal changes no count (neither or both endpoints in ``I``)."""
        # Inlined graph.remove_edge_slots (see add_edge_slots for rationale).
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
        _old, new = self._remove_solution_neighbor(s_out, s_in)
        return new

    # ------------------------------------------------------------------ #
    # Bulk structural mutation (the batched update engine's hot path)
    # ------------------------------------------------------------------ #
    def add_edges_slots_bulk(
        self, pairs: List[Tuple[int, int]]
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Insert a run of edges (slot pairs) in one pass over the slot arrays.

        Returns ``(bumped, conflicts)``: the non-solution slots whose count
        rose, and the pairs whose endpoints are *both* in the solution.
        Conflicting edges are inserted structurally but their counts are left
        untouched — the caller must evict one endpoint of each conflict
        before the solution is observed (exactly as with
        :meth:`add_edge_slots`, just batched).

        **Failure-atomic:** the whole pair list is validated (self-loops,
        in-batch duplicates, already-present edges) before any mutation, so
        a raised :class:`SelfLoopError`/:class:`EdgeExistsError` leaves the
        state byte-identical to the pre-call state.
        """
        adj = self._adj
        in_sol = self._in_sol
        graph = self.graph
        _privatize_adj_pairs(graph, adj, pairs)
        bumped: List[int] = []
        conflicts: List[Tuple[int, int]] = []
        add_sn = self._add_solution_neighbor
        kernels.validate_edge_insertions(graph, adj, pairs)
        for su, sv in pairs:
            adj[su].add(sv)
            adj[sv].add(su)
            if in_sol[su]:
                if in_sol[sv]:
                    conflicts.append((su, sv))
                else:
                    add_sn(sv, su)
                    bumped.append(sv)
            elif in_sol[sv]:
                add_sn(su, sv)
                bumped.append(su)
        graph._num_edges += len(pairs)
        return bumped, conflicts

    def remove_edges_slots_bulk(
        self, pairs: List[Tuple[int, int]]
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Delete a run of edges (slot pairs) in one pass over the slot arrays.

        Returns ``(dropped, outside)``: the non-solution slots whose count
        fell (one per one-sided deletion), and the pairs with both endpoints
        outside the solution (whose complement neighbourhood changed without
        any count change).  Pairs with both endpoints inside the solution —
        possible transiently while a batch's conflicts are pending — are
        removed structurally with no count change.

        **Failure-atomic:** the whole pair list is validated (missing edges,
        in-batch duplicates) before any mutation, so a raised
        :class:`EdgeNotFoundError` leaves the state byte-identical to the
        pre-call state.
        """
        adj = self._adj
        in_sol = self._in_sol
        graph = self.graph
        _privatize_adj_pairs(graph, adj, pairs)
        dropped: List[int] = []
        outside: List[Tuple[int, int]] = []
        remove_sn = self._remove_solution_neighbor
        kernels.validate_edge_deletions(graph, adj, pairs)
        remove = self._remove_pair_symmetric
        for su, sv in pairs:
            remove(adj, su, sv)
            u_in = in_sol[su]
            if u_in != in_sol[sv]:
                s_out, s_in = (sv, su) if u_in else (su, sv)
                remove_sn(s_out, s_in)
                dropped.append(s_out)
            elif not u_in:
                outside.append((su, sv))
        graph._num_edges -= len(pairs)
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
        """Verify independence, count, hierarchy and footprint invariants.

        Raises :class:`SolutionInvariantError` on the first violation.  Used
        by the checked mode of the algorithms and by the test suite.
        """
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
        for s in graph.slots():
            if in_sol[s]:
                if s not in self._sol_slots:
                    raise SolutionInvariantError(
                        f"membership byte of {label[s]!r} out of sync"
                    )
                continue
            expected = {t for t in adj[s] if in_sol[t]}
            stored = self._sn[s]
            if stored != expected:
                raise SolutionInvariantError(
                    f"I({label[s]!r}) is {stored!r} but the graph says {expected!r}"
                )
            if self._count[s] != len(expected):
                raise SolutionInvariantError(
                    f"count({label[s]!r}) is {self._count[s]!r} but I(v) has "
                    f"{len(expected)} members"
                )
        for owner, bucket in enumerate(self._tight1):
            if not bucket:
                continue
            for s in bucket:
                if in_sol[s]:
                    raise SolutionInvariantError(
                        f"solution vertex {label[s]!r} recorded in "
                        f"¯I_1({{{label[owner]!r}}})"
                    )
                if self._sn[s] != {owner}:
                    raise SolutionInvariantError(
                        f"{label[s]!r} recorded in ¯I_1({{{label[owner]!r}}}) "
                        f"but I(v) = {self.solution_neighbors(label[s])!r}"
                    )
        for level in range(2, self.k + 1):
            for owners, bucket in self._tight[level].items():
                for s in bucket:
                    if in_sol[s]:
                        raise SolutionInvariantError(
                            f"solution vertex {label[s]!r} recorded in "
                            f"¯I_{level}({set(owners)!r})"
                        )
                    if self._sn[s] != set(owners):
                        raise SolutionInvariantError(
                            f"{label[s]!r} recorded in ¯I_{level}({set(owners)!r}) "
                            f"but I(v) = {self._sn[s]!r}"
                        )
        self._check_footprint_counters()

    def _check_footprint_counters(self) -> None:
        live = set(self.graph.slots())
        sn_total = sum(len(self._sn[s]) for s in live)
        tight_keys = sum(1 for b in self._tight1 if b is not None) + sum(
            len(level) for level in self._tight[2:]
        )
        tight_total = sum(len(b) for b in self._tight1 if b) + sum(
            len(b) for level in self._tight[2:] for b in level.values()
        )
        if (sn_total, tight_keys, tight_total) != (
            self._sn_total,
            self._tight_keys,
            self._tight_total,
        ):
            raise SolutionInvariantError(
                "footprint counters out of sync: "
                f"stored ({self._sn_total}, {self._tight_keys}, {self._tight_total}) "
                f"vs actual ({sn_total}, {tight_keys}, {tight_total})"
            )

    def is_maximal(self) -> bool:
        """Return ``True`` when no non-solution vertex has count zero."""
        in_sol = self._in_sol
        counts = self._count
        for s in self.graph.slots():
            if counts[s] == 0 and not in_sol[s]:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _add_solution_neighbor(self, slot: int, solution_slot: int) -> Tuple[int, int]:
        self.stats.count_updates += 1
        nbrs = self._owned_sn(slot)
        old = self._count[slot]
        if 0 < old <= self.k:
            self._unposition_level(slot, nbrs, old)
        nbrs.add(solution_slot)
        new = old + 1
        self._count[slot] = new
        self._sn_total += 1
        if new <= self.k:
            self._position_level(slot, nbrs, new)
        return old, new

    def _remove_solution_neighbor(self, slot: int, solution_slot: int) -> Tuple[int, int]:
        self.stats.count_updates += 1
        nbrs = self._owned_sn(slot)
        old = self._count[slot]
        if 0 < old <= self.k:
            self._unposition_level(slot, nbrs, old)
        nbrs.discard(solution_slot)
        new = old - 1
        self._count[slot] = new
        self._sn_total -= 1
        if 0 < new <= self.k:
            self._position_level(slot, nbrs, new)
        return old, new

    def _position(self, slot: int) -> None:
        """Insert ``slot`` into the hierarchy bucket matching its current I(v)."""
        if self._in_sol[slot]:
            return
        nbrs = self._sn[slot]
        level = len(nbrs)
        if 1 <= level <= self.k:
            self._position_level(slot, nbrs, level)

    def _unposition(self, slot: int) -> None:
        """Remove ``slot`` from the hierarchy bucket of its current I(v)."""
        if self._in_sol[slot]:
            return
        nbrs = self._sn[slot]
        level = len(nbrs)
        if 1 <= level <= self.k:
            self._unposition_level(slot, nbrs, level)

    def _position_level(self, slot: int, nbrs: Set[int], level: int) -> None:
        """Insert into the level bucket; ``level == len(nbrs)`` in ``[1, k]``."""
        if level == 1:
            (owner,) = nbrs
            bucket = self._owned_t1(owner)
            if bucket is None:
                bucket = self._tight1[owner] = set()
                self._tight_keys += 1
        else:
            key = frozenset(nbrs)
            bucket = self._tight[level].get(key)
            if bucket is None:
                bucket = self._tight[level][key] = set()
                self._tight_keys += 1
        bucket.add(slot)
        self._tight_total += 1

    def _unposition_level(self, slot: int, nbrs: Set[int], level: int) -> None:
        """Remove from the level bucket; ``level == len(nbrs)`` in ``[1, k]``."""
        if level == 1:
            (owner,) = nbrs
            bucket = self._owned_t1(owner)
            if bucket is None:
                return
            bucket.discard(slot)
            self._tight_total -= 1
            if not bucket:
                self._tight1[owner] = None
                self._tight_keys -= 1
        else:
            key = frozenset(nbrs)
            bucket = self._tight[level].get(key)
            if bucket is None:
                return
            bucket.discard(slot)
            self._tight_total -= 1
            if not bucket:
                del self._tight[level][key]
                self._tight_keys -= 1


def _subsets_of_size(items: List[int], size: int) -> Iterable[FrozenSet[int]]:
    """Yield all subsets of ``items`` of the given size as frozensets."""
    from itertools import combinations

    for combo in combinations(items, size):
        yield frozenset(combo)
