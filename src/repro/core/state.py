"""Solution-state bookkeeping shared by all maintenance algorithms.

The framework of the paper (Section III-B) keeps, for the maintained
independent set ``I``:

* a boolean ``status(v)`` per vertex (membership in ``I``),
* for every non-solution vertex ``v``, the list ``I(v)`` of its neighbours in
  ``I`` and the counter ``count(v) = |I(v)|``,
* for every subset ``S ⊆ I`` of size ``j ≤ k``, the set
  ``¯I_j(S) = {v ∉ I : I(v) = S}`` stored hierarchically so membership moves
  in constant time when a count changes.

:class:`SlotState` holds what every variant of this bookkeeping shares: the
membership and count arrays, slot growth, forks, the mutators and the
membership half of the invariant checker.  The graph is the only writer of
its structure: each mutator here has
:class:`~repro.graphs.dynamic_graph.DynamicGraph` apply the update
(``G_t ← G_{t−1} ⊕ op``, validated there, the bulk ones failure-atomic)
and then updates the counts.  :class:`MISState` is the eager variant,
which stores ``I(v)`` and the hierarchy; the lazy variant (Section III
optimization 1, :mod:`repro.core.lazy`) recomputes both on demand.  The
two differ only in that bookkeeping, which the base reaches through the
count hooks ``_add_solution_neighbor`` / ``_remove_solution_neighbor`` (one
call per count change) and the slot hooks ``_init_slot`` / ``_reset_slot``
(one call per vertex insertion / deletion), so every algorithm can run on
either.

Performance notes (the hot path of every maintenance algorithm):

* All bookkeeping is **slot-indexed flat storage**: membership is a
  ``bytearray`` (one byte per graph slot), ``count(v)`` a plain ``list`` of
  ints, ``I(v)`` a list of neighbour-slot sets, and the level-1 hierarchy a
  list of buckets keyed by the owner *slot*.  The innermost count-maintenance
  loop therefore performs zero hashing — every probe is a C-level list index.
* Every empty ``I(v)`` — a solution vertex's, and a non-solution vertex's
  with no solution neighbour — is the one shared immutable ``_EMPTY``
  frozenset, so only a vertex with a solution neighbour holds a set of its
  own: a count step from 0 stores a fresh one-element set, a step to 0 puts
  ``_EMPTY`` back.
* Only levels ≥ 2 of the hierarchy use frozenset-keyed dictionaries (of
  slots); DyOneSwap never allocates a frozenset on a count change.
* The API is slot-level throughout; labels are translated once, at the
  algorithms' operation boundary.
* :meth:`MISState.structure_size` sums the stored sets when it is read,
  once per run, so the count-maintenance loop keeps no footprint counter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.exceptions import SolutionInvariantError
from repro.graphs.dynamic_graph import DynamicGraph, Vertex

#: Shared immutable empty set: every empty ``I(v)`` of the eager state, and
#: what the view accessors return when a bucket is absent, so neither costs
#: an allocation.
_EMPTY: FrozenSet[int] = frozenset()


@dataclass
class StateStatistics:
    """Running counters describing the work a state instance has performed."""

    move_in_calls: int = 0
    move_out_calls: int = 0
    count_updates: int = 0


class SlotState:
    """Slot-indexed membership and counts over a dynamic graph.

    The storage layer shared by :class:`MISState` and
    :class:`~repro.core.lazy.LazyMISState`.  A subclass supplies
    ``move_in_slot`` / ``move_out_slot``, the ``I(v)`` / hierarchy views, and
    the count hooks ``_add_solution_neighbor(slot, solution_slot)`` /
    ``_remove_solution_neighbor(slot, solution_slot)``: the mutators here call
    one of them, once, for every non-solution slot whose count changes by
    one, and the hook must update ``_count[slot]``, ``stats.count_updates``
    and whatever the subclass stores.  :meth:`_init_slot` /
    :meth:`_reset_slot` are the matching hooks for vertex insertion and
    deletion.

    Parameters
    ----------
    graph:
        The dynamic graph.  The state's mutators change it only through the
        graph's own slot-level mutators (``add_vertex_slot``,
        ``add_edge_slots``, ``remove_edges_slots``, …), which validate the
        update and hold the copy-on-write barrier, and then update the
        counts, so a refused update changes neither.
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
        # Shared live views of the graph's slot-indexed adjacency and its
        # label -> slot map.
        self._adj = graph.adjacency_slots_view()
        self._slot_map = graph.slot_map_view()
        # Membership: byte per slot (zero-hash probe) plus the slot set for
        # O(|I|) iteration.
        self._in_sol = bytearray(n)
        self._sol_slots: Set[int] = set()
        # count(v) maintained incrementally; 0 for solution vertices.
        self._count: List[int] = [0] * n
        self.stats = StateStatistics()

    def _ensure_slot(self, slot: int) -> None:
        """Grow the flat arrays to cover a freshly allocated graph slot."""
        while len(self._count) <= slot:
            self._in_sol.append(0)
            self._count.append(0)

    def fork(self, graph_fork: DynamicGraph) -> "SlotState":
        """Return a copy-on-write fork of this state over ``graph_fork``.

        ``graph_fork`` must be the result of ``self.graph.fork()``.  The flat
        scalar arrays (membership bytes, counts, solution slots, statistics)
        are copied outright — C-level memcpy; all structural sharing lives in
        the graph's adjacency CoW, which the mutators below honour.
        """
        clone = object.__new__(type(self))
        clone.graph = graph_fork
        clone.k = self.k
        clone._adj = graph_fork.adjacency_slots_view()
        clone._slot_map = graph_fork.slot_map_view()
        clone._in_sol = bytearray(self._in_sol)
        clone._sol_slots = set(self._sol_slots)
        clone._count = list(self._count)
        clone.stats = dataclasses.replace(self.stats)
        return clone

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def solution_size(self) -> int:
        """Size of the maintained independent set."""
        return len(self._sol_slots)

    def solution(self) -> Set[Vertex]:
        """Return a copy of the maintained independent set (as labels)."""
        label = self.graph.labels_view()
        return {label[s] for s in self._sol_slots}

    def in_solution_view(self) -> bytearray:
        """Live slot-indexed membership bytes (read-only for callers)."""
        return self._in_sol

    def solution_slots_view(self) -> Set[int]:
        """Live set of solution slots (read-only for callers)."""
        return self._sol_slots

    def counts_slots_view(self) -> List[int]:
        """Live slot-indexed count table (read-only for callers)."""
        return self._count

    # ------------------------------------------------------------------ #
    # Structural mutation: the graph writes, then the counts follow
    # ------------------------------------------------------------------ #
    def add_vertex_slot(
        self, vertex: Vertex, neighbors: Sequence[Vertex]
    ) -> Tuple[int, int]:
        """Insert a vertex with its incident edges; return ``(slot, count)``.

        A refused insertion (see :meth:`DynamicGraph.add_vertex_slot`)
        leaves graph and state untouched.
        """
        slot = self.graph.add_vertex_slot(vertex, neighbors)
        self._ensure_slot(slot)
        # In neighbour order: the eager state stores this set as I(v), and
        # its layout must not depend on the adjacency row's.
        own: Set[int] = set()
        if neighbors:
            in_sol = self._in_sol
            slot_map = self._slot_map
            for nbr in neighbors:
                t = slot_map[nbr]
                if in_sol[t]:
                    own.add(t)
        self._init_slot(slot, own)
        return slot, len(own)

    def remove_vertex_slot(self, slot: int) -> Tuple[bool, Set[int]]:
        """Delete the vertex at ``slot``; return ``(was_in_solution, neighbor_slots)``.

        The slot is recycled by the graph's free-list; all bookkeeping for it
        is reset so the next vertex allocated into the slot starts clean.
        """
        in_sol = self._in_sol
        was_in_solution = bool(in_sol[slot])
        # The graph hands over its own popped adjacency set — no copy needed.
        neighbor_slots = self.graph.pop_vertex_slot(slot)
        if was_in_solution:
            in_sol[slot] = 0
            self._sol_slots.discard(slot)
            remove_sn = self._remove_solution_neighbor
            for t in neighbor_slots:
                if not in_sol[t]:
                    remove_sn(t, slot)
        self._reset_slot(slot)
        return was_in_solution, neighbor_slots

    def add_edge_slots(self, su: int, sv: int) -> None:
        """Insert an edge; update counts when exactly one endpoint is in the solution.

        When both endpoints are in the solution no bookkeeping changes here —
        the caller is responsible for evicting one of them afterwards.
        """
        self.graph.add_edge_slots(su, sv)
        in_sol = self._in_sol
        if in_sol[su]:
            if not in_sol[sv]:
                self._add_solution_neighbor(sv, su)
        elif in_sol[sv]:
            self._add_solution_neighbor(su, sv)

    def remove_edge_structural(self, su: int, sv: int) -> None:
        """Delete an edge whose removal changes no count (neither or both endpoints in ``I``)."""
        self.graph.remove_edge_slots(su, sv)

    def remove_edge_one_sided(self, s_out: int, s_in: int) -> int:
        """Delete an edge with exactly ``s_in`` in the solution; return the new count of ``s_out``."""
        self.graph.remove_edge_slots(s_out, s_in)
        self._remove_solution_neighbor(s_out, s_in)
        return self._count[s_out]

    # ------------------------------------------------------------------ #
    # Bulk structural mutation (the batched update engine's hot path)
    # ------------------------------------------------------------------ #
    def add_edges_slots_bulk(
        self, pairs: List[Tuple[int, int]]
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Insert a run of edges (slot pairs), then update the counts.

        Returns ``(bumped, conflicts)``: the non-solution slots whose count
        rose, and the pairs whose endpoints are *both* in the solution.
        Conflicting edges are inserted structurally but their counts are left
        untouched — the caller must evict one endpoint of each conflict
        before the solution is observed (exactly as with
        :meth:`add_edge_slots`, just batched).  Failure-atomic like
        :meth:`DynamicGraph.add_edges_slots`: a refused list leaves graph
        and state untouched.
        """
        self.graph.add_edges_slots(pairs)
        in_sol = self._in_sol
        add_sn = self._add_solution_neighbor
        bumped: List[int] = []
        conflicts: List[Tuple[int, int]] = []
        for su, sv in pairs:
            if in_sol[su]:
                if in_sol[sv]:
                    conflicts.append((su, sv))
                else:
                    add_sn(sv, su)
                    bumped.append(sv)
            elif in_sol[sv]:
                add_sn(su, sv)
                bumped.append(su)
        return bumped, conflicts

    def remove_edges_slots_bulk(
        self, pairs: List[Tuple[int, int]]
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Delete a run of edges (slot pairs), then update the counts.

        Returns ``(dropped, outside)``: the non-solution slots whose count
        fell (one per one-sided deletion), and the pairs with both endpoints
        outside the solution (whose complement neighbourhood changed without
        any count change).  Pairs with both endpoints inside the solution —
        possible transiently while a batch's conflicts are pending — are
        removed structurally with no count change.  Failure-atomic like
        :meth:`DynamicGraph.remove_edges_slots`.
        """
        self.graph.remove_edges_slots(pairs)
        in_sol = self._in_sol
        remove_sn = self._remove_solution_neighbor
        dropped: List[int] = []
        outside: List[Tuple[int, int]] = []
        for su, sv in pairs:
            u_in = in_sol[su]
            if u_in != in_sol[sv]:
                s_out, s_in = (sv, su) if u_in else (su, sv)
                remove_sn(s_out, s_in)
                dropped.append(s_out)
            elif not u_in:
                outside.append((su, sv))
        return dropped, outside

    # ------------------------------------------------------------------ #
    # Slot hooks (count-only bookkeeping; MISState extends both)
    # ------------------------------------------------------------------ #
    def _init_slot(self, slot: int, own: Set[int]) -> None:
        """Record a fresh vertex whose solution neighbours are ``own``."""
        self._count[slot] = len(own)

    def _reset_slot(self, slot: int) -> None:
        """Clear the bookkeeping of a deleted vertex's (now free) slot."""
        self._count[slot] = 0

    # ------------------------------------------------------------------ #
    # Invariant checking
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Verify independence, membership and count invariants.

        Every live slot's stored count must equal its number of solution
        neighbours, and a solution slot's stored count must be 0.  Raises
        :class:`SolutionInvariantError` on the first violation.  Used by the
        checked mode of the algorithms and by the test suite.
        """
        graph = self.graph
        adj = self._adj
        in_sol = self._in_sol
        counts = self._count
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
            if counts[s]:
                raise SolutionInvariantError(
                    f"solution vertex {label[s]!r} stores count {counts[s]!r}, not 0"
                )
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
        """Return ``True`` when no non-solution vertex has count zero."""
        in_sol = self._in_sol
        counts = self._count
        for s in self.graph.slots():
            if counts[s] == 0 and not in_sol[s]:
                return False
        return True


class MISState(SlotState):
    """Eager bookkeeping: stored ``I(v)`` sets and the ``¯I_j(S)`` hierarchy.

    Adds to :class:`SlotState` the per-slot ``I(v)`` sets, the level-1
    buckets keyed by owner slot, the frozenset-keyed levels ≥ 2 and the
    copy-on-write ownership bitmaps that let a fork share them.
    """

    def __init__(self, graph: DynamicGraph, k: int = 1) -> None:
        super().__init__(graph, k)
        n = graph.num_slots
        # I(v) as neighbour-slot sets, indexed by slot; an empty one is the
        # shared _EMPTY.
        self._sn: List[Set[int]] = [_EMPTY] * n
        # Level-1 hierarchy keyed by the owner slot: _tight1[w] = ¯I_1({w})
        # (None when the bucket is absent).
        self._tight1: List[Optional[Set[int]]] = [None] * n
        # _tight[j] maps frozenset(S) of slots (|S| == j >= 2) to ¯I_j(S).
        # Slots 0 and 1 stay empty (level 1 lives in _tight1).
        self._tight: List[Dict[FrozenSet[int], Set[int]]] = [
            {} for _ in range(k + 1)
        ]
        # Copy-on-write ownership bitmaps for the inner ``I(v)`` sets and the
        # level-1 hierarchy buckets (``None`` until the first fork — mutators
        # then pay a single ``is None`` check).  See :meth:`fork`.
        self._cow_sn: Optional[bytearray] = None
        self._cow_t1: Optional[bytearray] = None

    def _ensure_slot(self, slot: int) -> None:
        super()._ensure_slot(slot)
        cow = self._cow_sn
        while len(self._sn) <= slot:
            self._sn.append(_EMPTY)
            self._tight1.append(None)
            if cow is not None:
                cow.append(1)
                self._cow_t1.append(1)

    def fork(self, graph_fork: DynamicGraph) -> "MISState":
        """Return a copy-on-write fork of this state over ``graph_fork``.

        On top of :meth:`SlotState.fork`, the per-slot ``I(v)`` sets and
        level-1 hierarchy buckets are shared behind fresh ownership bitmaps
        on **both** sides, exactly like the graph's adjacency CoW.  Levels ≥ 2
        of the hierarchy are deep-copied: their total size is bounded by the
        few vertices with ``2 ≤ count ≤ k`` (empty for k=1 algorithms), so
        sharing machinery would cost more than it saves.
        """
        clone = super().fork(graph_fork)
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
        return clone

    def _owned_sn(self, slot: int) -> Set[int]:
        """Return ``I(v)`` for ``slot`` privately owned (the CoW write barrier).

        The shared ``_EMPTY`` is never owned: it is replaced by a fresh set.
        """
        sn = self._sn
        nbrs = sn[slot]
        cow = self._cow_sn
        if nbrs is _EMPTY or (cow is not None and not cow[slot]):
            sn[slot] = nbrs = set(nbrs)
            if cow is not None:
                cow[slot] = 1
        return nbrs

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
    # Queries (stored I(v) and hierarchy)
    # ------------------------------------------------------------------ #
    def structure_size(self) -> int:
        """Approximate memory footprint (number of stored vertex references).

        Used by the experiment harness as the deterministic stand-in for the
        paper's ``/usr/bin/time`` heap measurements: it counts the membership
        entries, the per-vertex count/I(v) storage and the hierarchy's keys
        and entries.  It sums the stored sets when read (O(n), once per run).
        """
        tight1 = self._tight1
        levels = self._tight[2:]
        return (
            len(self._sol_slots)
            + 2 * self.graph.num_vertices
            + sum(map(len, self._sn))
            + sum(1 for bucket in tight1 if bucket is not None)
            + sum(len(bucket) for bucket in tight1 if bucket)
            + sum(len(level) for level in levels)
            + sum(len(b) for level in levels for b in level.values())
        )

    def sn_slots_view(self, slot: int) -> Set[int]:
        """Live ``I(v)`` neighbour-slot set for the vertex at ``slot``.

        Internal state: callers must not mutate it and must not hold it
        across a state mutation.  An empty ``I(v)`` is the shared immutable
        ``_EMPTY`` frozenset.
        """
        return self._sn[slot]

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
            for combo in combinations(owner_list, size):
                bucket = level_map.get(frozenset(combo))
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
    def move_in_slot(self, slot: int) -> None:
        """Insert the vertex at ``slot`` into the solution (its count must be zero)."""
        if self._in_sol[slot]:
            raise SolutionInvariantError(
                f"{self.graph.vertex_of(slot)!r} is already in the solution"
            )
        if self._sn[slot]:
            label = self.graph.labels_view()
            raise SolutionInvariantError(
                f"cannot MOVEIN {label[slot]!r}: it has solution "
                f"neighbours {({label[t] for t in self._sn[slot]})!r}"
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
        row = self._adj[slot]
        bucket_new: Optional[Set[int]] = None
        for t in row:
            # No neighbour can be in the solution (count was zero), so every
            # neighbour gains a solution neighbour.
            old = counts[t]
            if old == 0:
                # I(t) was the shared empty set: t gets a set of its own.
                sn[t] = {slot}
                if cow_sn is not None:
                    cow_sn[t] = 1
                counts[t] = 1
                if bucket_new is None:
                    bucket_new = tight1[slot]
                    if bucket_new is None:
                        bucket_new = tight1[slot] = set()
                        if cow_t1 is not None:
                            cow_t1[slot] = 1
                    elif cow_t1 is not None and not cow_t1[slot]:
                        tight1[slot] = bucket_new = set(bucket_new)
                        cow_t1[slot] = 1
                bucket_new.add(t)
                continue
            nbrs = sn[t]
            if cow_sn is not None and not cow_sn[t]:
                sn[t] = nbrs = set(nbrs)
                cow_sn[t] = 1
            if old <= k:
                if old == 1:
                    (owner,) = nbrs
                    bucket = tight1[owner]
                    if bucket is not None:
                        if cow_t1 is not None and not cow_t1[owner]:
                            tight1[owner] = bucket = set(bucket)
                            cow_t1[owner] = 1
                        bucket.discard(t)
                        if not bucket:
                            tight1[owner] = None
                else:
                    self._unposition_level(t, nbrs, old)
            nbrs.add(slot)
            new = old + 1
            counts[t] = new
            if new <= k:
                self._position_level(t, nbrs, new)
        self.stats.count_updates += len(row)

    def move_out_slot(self, slot: int) -> None:
        """Remove the vertex at ``slot`` from the solution.

        After the call the vertex is an ordinary non-solution vertex whose
        ``I(v)`` reflects any solution neighbours it currently has (normally
        none, but an adjacent solution vertex can exist transiently while a
        conflicting edge insertion is being repaired).
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
        row = self._adj[slot]
        # Neighbours leaving count 1 all leave ¯I_1({slot}); fetch the
        # bucket once (it only shrinks below: nothing repositions under an
        # owner that just left the solution).  _owned_t1 is the CoW barrier.
        bucket_old = self._owned_t1(slot)
        for t in row:
            if in_sol[t]:
                own_neighbors.add(t)
                continue
            old = counts[t]
            if old == 1:
                # I(t) was {slot}: t leaves ¯I_1({slot}) and its I(v) is the
                # shared empty set again.
                if bucket_old is not None:
                    bucket_old.discard(t)
                sn[t] = _EMPTY
                counts[t] = 0
                continue
            nbrs = sn[t]
            if cow_sn is not None and not cow_sn[t]:
                sn[t] = nbrs = set(nbrs)
                cow_sn[t] = 1
            if old <= k:
                self._unposition_level(t, nbrs, old)
            nbrs.discard(slot)
            new = old - 1
            counts[t] = new
            if new <= k:
                if new == 1:
                    (owner,) = nbrs
                    bucket = tight1[owner]
                    if bucket is None:
                        bucket = tight1[owner] = set()
                        if cow_t1 is not None:
                            cow_t1[owner] = 1
                    elif cow_t1 is not None and not cow_t1[owner]:
                        tight1[owner] = bucket = set(bucket)
                        cow_t1[owner] = 1
                    bucket.add(t)
                else:
                    self._position_level(t, nbrs, new)
        if bucket_old is not None and not bucket_old:
            tight1[slot] = None
        # Every neighbour outside the solution lost one from its count.
        self.stats.count_updates += len(row) - len(own_neighbors)
        self._sn[slot] = own_neighbors or _EMPTY
        if cow_sn is not None:
            cow_sn[slot] = 1
        self._count[slot] = len(own_neighbors)
        self._position(slot)

    # ------------------------------------------------------------------ #
    # Hooks called by the SlotState mutators
    # ------------------------------------------------------------------ #
    def _init_slot(self, slot: int, own: Set[int]) -> None:
        self._sn[slot] = own or _EMPTY
        if self._cow_sn is not None:
            self._cow_sn[slot] = 1
        self._count[slot] = len(own)
        self._position(slot)

    def _reset_slot(self, slot: int) -> None:
        # The slot's membership byte is already clear; a deleted solution
        # vertex stored an empty I(v), so only a non-solution one had a bucket.
        stored = self._sn[slot]
        level = len(stored)
        if 1 <= level <= self.k:
            self._unposition_level(slot, stored, level)
        self._sn[slot] = _EMPTY
        self._count[slot] = 0

    def _add_solution_neighbor(self, slot: int, solution_slot: int) -> None:
        self.stats.count_updates += 1
        nbrs = self._owned_sn(slot)
        old = self._count[slot]
        if 0 < old <= self.k:
            self._unposition_level(slot, nbrs, old)
        nbrs.add(solution_slot)
        new = old + 1
        self._count[slot] = new
        if new <= self.k:
            self._position_level(slot, nbrs, new)

    def _remove_solution_neighbor(self, slot: int, solution_slot: int) -> None:
        self.stats.count_updates += 1
        nbrs = self._owned_sn(slot)
        old = self._count[slot]
        if 0 < old <= self.k:
            self._unposition_level(slot, nbrs, old)
        nbrs.discard(solution_slot)
        new = old - 1
        self._count[slot] = new
        if not new:
            self._sn[slot] = _EMPTY
        elif new <= self.k:
            self._position_level(slot, nbrs, new)

    # ------------------------------------------------------------------ #
    # Invariant checking
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Verify :meth:`SlotState.check_invariants`, then ``I(v)`` and the hierarchy.

        A solution slot must store an empty ``I(v)``; every other live slot
        must store exactly its solution neighbours, and sit in the bucket of
        that owner set when its count is at most ``k``.
        """
        super().check_invariants()
        adj = self._adj
        in_sol = self._in_sol
        label = self.graph.labels_view()
        for s in self.graph.slots():
            stored = self._sn[s]
            if in_sol[s]:
                if stored:
                    raise SolutionInvariantError(
                        f"solution vertex {label[s]!r} stores I(v) = {stored!r}, "
                        "not the empty set"
                    )
                continue
            expected = {t for t in adj[s] if in_sol[t]}
            if stored != expected:
                raise SolutionInvariantError(
                    f"I({label[s]!r}) is {stored!r} but the graph says {expected!r}"
                )
            level = len(stored)
            if 1 <= level <= self.k and s not in self.tight_view(frozenset(stored), level):
                raise SolutionInvariantError(
                    f"{label[s]!r} is missing from ¯I_{level} of its solution neighbours"
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
                        f"but I(v) = {({label[t] for t in self._sn[s]})!r}"
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

    # ------------------------------------------------------------------ #
    # Hierarchy positioning
    # ------------------------------------------------------------------ #
    def _position(self, slot: int) -> None:
        """Insert ``slot`` into the hierarchy bucket matching its current I(v)."""
        if self._in_sol[slot]:
            return
        nbrs = self._sn[slot]
        level = len(nbrs)
        if 1 <= level <= self.k:
            self._position_level(slot, nbrs, level)

    def _position_level(self, slot: int, nbrs: Set[int], level: int) -> None:
        """Insert into the level bucket; ``level == len(nbrs)`` in ``[1, k]``."""
        if level == 1:
            (owner,) = nbrs
            bucket = self._owned_t1(owner)
            if bucket is None:
                bucket = self._tight1[owner] = set()
        else:
            key = frozenset(nbrs)
            bucket = self._tight[level].get(key)
            if bucket is None:
                bucket = self._tight[level][key] = set()
        bucket.add(slot)

    def _unposition_level(self, slot: int, nbrs: Set[int], level: int) -> None:
        """Remove from the level bucket; ``level == len(nbrs)`` in ``[1, k]``."""
        if level == 1:
            (owner,) = nbrs
            bucket = self._owned_t1(owner)
            if bucket is None:
                return
            bucket.discard(slot)
            if not bucket:
                self._tight1[owner] = None
        else:
            key = frozenset(nbrs)
            bucket = self._tight[level].get(key)
            if bucket is None:
                return
            bucket.discard(slot)
            if not bucket:
                del self._tight[level][key]
