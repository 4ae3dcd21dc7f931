"""DGOneDIS / DGTwoDIS — the index-based competitors (Zheng et al., ICDE 2019).

The strongest prior work on dynamic near-maximum independent sets maintains a
*dependency-graph index* built from degree-one and degree-two reductions:
every vertex that a reduction excluded from the solution records which
solution vertices it depends on.  When an update forces vertices out of the
current solution, the algorithm searches the index for a set of
*complementary* vertices of at least the same size to re-insert, so the
solution quality does not degrade immediately.  DGOneDIS builds the index
from degree-one reductions only; DGTwoDIS also uses degree-two reductions.

The original implementation is C++ and not redistributable; this module
reimplements the published behaviour:

* an index mapping each excluded vertex to the solution vertices it depends
  on, plus the reverse map (solution vertex → dependants),
* update handling that keeps the solution independent and maximal,
* on removal of solution vertices, a bounded breadth-first *complementary
  search* through the index for replacement vertices,
* no swap-based improvement, hence no approximation guarantee — and, exactly
  as the paper observes, the index drifts away from the true graph structure
  as updates accumulate, which makes the complementary search both slower
  (its budget grows with the number of processed updates, modelling the
  growing search space) and less effective.  The index is only rebuilt when
  :meth:`rebuild_index` is called explicitly; the paper notes that frequent
  rebuilds are too expensive to be practical.

Like the core algorithms, the solution set and the index are kept in **slot
space** (the graph's dense integer vertex ids): update operands are
translated once at the handler boundary and every scan below runs on the
slot-indexed adjacency views.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set

from repro.baselines.greedy import extend_to_maximal_slots, min_degree_greedy_slots
from repro.exceptions import SolutionInvariantError, UpdateError, VertexNotFoundError
from repro.graphs.dynamic_graph import DynamicGraph, Vertex
from repro.updates.operations import UpdateKind, UpdateOperation


@dataclass
class DgdisStatistics:
    """Counters describing the work performed by a DGDIS instance."""

    updates_processed: int = 0
    complementary_searches: int = 0
    complementary_successes: int = 0
    index_entries_scanned: int = 0
    rebuilds: int = 0


class DGOneDIS:
    """Dependency-graph-index maintenance using degree-one dependencies.

    Parameters
    ----------
    graph:
        The dynamic graph; the instance takes ownership of structural updates.
    initial_solution:
        Optional initial independent set (extended to maximal).  When omitted
        a minimum-degree greedy solution is used.
    search_budget_factor:
        Base number of index entries the complementary search may examine per
        displaced vertex; the effective budget grows with the number of
        processed updates, modelling the index drift of the original method.
    check_invariants:
        Verify independence and maximality after every update (tests only).
    """

    #: Which dependency depth the index captures (overridden by DGTwoDIS).
    index_depth = 1

    def __init__(
        self,
        graph: DynamicGraph,
        *,
        initial_solution: Optional[Iterable[Vertex]] = None,
        search_budget_factor: int = 32,
        check_invariants: bool = False,
    ) -> None:
        self.graph = graph
        self.search_budget_factor = search_budget_factor
        self.check_invariants = check_invariants
        self.stats = DgdisStatistics()
        # Slot-space state: membership set plus the two index directions.
        self._solution: Set[int] = set()
        self._dependencies: Dict[int, Set[int]] = {}
        self._dependants: Dict[int, Set[int]] = {}
        # Cached live views (in-place-growing containers; see DynamicMISBase).
        self._adj = graph.adjacency_slots_view()
        self._slot_map = graph.slot_map_view()
        self._install(initial_solution)
        self.rebuild_index()

    # ------------------------------------------------------------------ #
    # Public API (mirrors the DynamicMISBase surface used by the harness)
    # ------------------------------------------------------------------ #
    @property
    def solution_size(self) -> int:
        """Size of the maintained independent set."""
        return len(self._solution)

    def solution(self) -> Set[Vertex]:
        """Return a copy of the maintained independent set (as labels)."""
        label = self.graph.labels_view()
        return {label[s] for s in self._solution}

    def memory_footprint(self) -> int:
        """Approximate number of stored references (solution + index, both directions)."""
        size = len(self._solution) + len(self._dependencies) + len(self._dependants)
        size += sum(len(deps) for deps in self._dependencies.values())
        size += sum(len(deps) for deps in self._dependants.values())
        return size

    def apply_update(self, operation: UpdateOperation) -> None:
        """Apply one structural update, repairing the solution via the index."""
        kind = operation.kind
        if kind is UpdateKind.INSERT_VERTEX:
            self._handle_insert_vertex(operation.vertex, operation.neighbors)
        elif kind is UpdateKind.DELETE_VERTEX:
            self._handle_delete_vertex(operation.vertex)
        elif kind is UpdateKind.INSERT_EDGE:
            self._handle_insert_edge(*operation.edge)
        elif kind is UpdateKind.DELETE_EDGE:
            self._handle_delete_edge(*operation.edge)
        else:  # pragma: no cover - exhaustive enum
            raise UpdateError(f"unknown update kind {kind!r}")
        self.stats.updates_processed += 1
        if self.check_invariants:
            self._verify()

    def apply_stream(self, operations: Iterable[UpdateOperation]) -> None:
        """Apply a whole update stream in order."""
        for operation in operations:
            self.apply_update(operation)

    def rebuild_index(self) -> None:
        """Rebuild the dependency index from the current graph and solution."""
        self.stats.rebuilds += 1
        self._dependencies = {}
        self._dependants = {}
        adj = self._adj
        solution = self._solution
        depth = self.index_depth
        for s in self.graph.slots():
            if s in solution:
                continue
            owners = adj[s] & solution
            if 1 <= len(owners) <= depth:
                self._index_add(s, owners)

    # ------------------------------------------------------------------ #
    # Index maintenance (slot space)
    # ------------------------------------------------------------------ #
    def _index_add(self, slot: int, owners: Set[int]) -> None:
        self._dependencies[slot] = set(owners)
        for owner in owners:
            self._dependants.setdefault(owner, set()).add(slot)

    def _index_remove(self, slot: int) -> None:
        owners = self._dependencies.pop(slot, None)
        if not owners:
            return
        for owner in owners:
            bucket = self._dependants.get(owner)
            if bucket is not None:
                bucket.discard(slot)
                if not bucket:
                    del self._dependants[owner]

    def _index_refresh(self, slot: int) -> None:
        """Re-derive the index entry of a non-solution slot from the live graph."""
        self._index_remove(slot)
        if slot in self._solution or not self.graph.is_live_slot(slot):
            return
        owners = self._adj[slot] & self._solution
        if 1 <= len(owners) <= self.index_depth:
            self._index_add(slot, owners)

    # ------------------------------------------------------------------ #
    # Update handling
    # ------------------------------------------------------------------ #
    def _handle_insert_vertex(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        slot = self.graph.add_vertex_slot(vertex, neighbors)
        owners = self._adj[slot] & self._solution
        if not owners:
            self._solution.add(slot)
        elif len(owners) <= self.index_depth:
            self._index_add(slot, owners)

    def _handle_delete_vertex(self, vertex: Vertex) -> None:
        slot = self.graph.slot_of(vertex)
        was_in_solution = slot in self._solution
        neighbors = self.graph.pop_vertex_slot(slot)
        self._index_remove(slot)
        if was_in_solution:
            self._solution.discard(slot)
            dependants = self._dependants.pop(slot, set())
            self._repair_after_removal(1, neighbors | dependants)
        # A deleted non-solution vertex leaves the solution maximal.

    def _handle_insert_edge(self, u: Vertex, v: Vertex) -> None:
        slot_map = self._slot_map
        try:
            su, sv = slot_map[u], slot_map[v]
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        self.graph.add_edge_slots(su, sv)
        solution = self._solution
        u_in, v_in = su in solution, sv in solution
        if u_in and v_in:
            evicted = max((su, sv), key=self.graph.slot_order_key)
            solution.discard(evicted)
            dependants = self._dependants.pop(evicted, set())
            frontier = set(self._adj[evicted]) | dependants
            self._index_refresh(evicted)
            self._repair_after_removal(1, frontier)
        elif u_in or v_in:
            outsider = sv if u_in else su
            self._index_refresh(outsider)

    def _handle_delete_edge(self, u: Vertex, v: Vertex) -> None:
        slot_map = self._slot_map
        try:
            su, sv = slot_map[u], slot_map[v]
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        self.graph.remove_edge_slots(su, sv)
        solution = self._solution
        adj = self._adj
        for outsider, insider in ((su, sv), (sv, su)):
            if insider in solution and outsider not in solution:
                if not (adj[outsider] & solution):
                    solution.add(outsider)
                    self._index_remove(outsider)
                    self._refresh_neighbors(outsider)
                else:
                    self._index_refresh(outsider)

    def _refresh_neighbors(self, slot: int) -> None:
        """Refresh index entries of the neighbours of a slot that just joined the solution."""
        for t in list(self._adj[slot]):
            if t not in self._solution:
                self._index_refresh(t)

    # ------------------------------------------------------------------ #
    # Complementary search
    # ------------------------------------------------------------------ #
    def _repair_after_removal(self, removed_count: int, frontier: Set[int]) -> None:
        """Restore maximality and look for complementary vertices via the index.

        The first pass inserts every now-free vertex adjacent to the removed
        ones (maximality).  If fewer than ``removed_count`` vertices could be
        inserted, a bounded breadth-first search follows index dependencies
        looking for further insertion opportunities — the defining move of
        DGOneDIS/DGTwoDIS.  The budget grows with the number of processed
        updates, modelling the index drift that makes the original method
        slow on highly dynamic graphs.
        """
        self.stats.complementary_searches += 1
        graph = self.graph
        adj = self._adj
        solution = self._solution
        inserted = 0
        live = graph.is_live_slot
        for slot in sorted(
            (w for w in frontier if live(w) and w not in solution),
            key=graph.slot_order_key,
        ):
            if not (adj[slot] & solution):
                self._insert_free_vertex(slot)
                inserted += 1
        if inserted >= removed_count:
            self.stats.complementary_successes += 1
            return
        budget = self.search_budget_factor * (1 + self.stats.updates_processed // 500)
        visited: Set[int] = set()
        queue = deque(
            w for w in frontier if live(w) and w not in solution
        )
        while queue and budget > 0:
            slot = queue.popleft()
            if slot in visited or not live(slot):
                continue
            visited.add(slot)
            budget -= 1
            self.stats.index_entries_scanned += 1
            if slot in solution:
                continue
            owners = adj[slot] & solution
            if not owners:
                self._insert_free_vertex(slot)
                inserted += 1
                if inserted >= removed_count:
                    break
                continue
            # Follow the index: other vertices depending on the same solution
            # vertices are the candidates the original method explores.
            for owner in self._dependencies.get(slot, set()) & owners:
                for dependant in self._dependants.get(owner, ()):  # pragma: no branch
                    if dependant not in visited:
                        queue.append(dependant)
        if inserted >= removed_count:
            self.stats.complementary_successes += 1

    def _insert_free_vertex(self, slot: int) -> None:
        self._solution.add(slot)
        self._index_remove(slot)
        self._refresh_neighbors(slot)

    # ------------------------------------------------------------------ #
    # Initialisation and verification
    # ------------------------------------------------------------------ #
    def _install(self, initial_solution: Optional[Iterable[Vertex]]) -> None:
        if initial_solution is not None:
            slot_map = self._slot_map
            members: Set[int] = set()
            for v in initial_solution:
                s = slot_map.get(v)
                if s is None:
                    raise SolutionInvariantError(
                        f"initial solution vertex {v!r} is not in the graph"
                    )
                members.add(s)
            adj = self._adj
            for s in members:
                if adj[s] & members:
                    raise SolutionInvariantError("initial solution is not independent")
            self._solution = extend_to_maximal_slots(self.graph, members)
        else:
            self._solution = min_degree_greedy_slots(self.graph)

    def _verify(self) -> None:
        adj = self._adj
        solution = self._solution
        for s in solution:
            if adj[s] & solution:
                raise SolutionInvariantError("DGDIS solution is not independent")
        for s in self.graph.slots():
            if s in solution:
                continue
            if not (adj[s] & solution):
                raise SolutionInvariantError("DGDIS solution is not maximal")


class DGTwoDIS(DGOneDIS):
    """Dependency-graph-index maintenance using degree-one *and* degree-two dependencies.

    The deeper index tracks vertices with up to two solution neighbours, which
    gives the complementary search more routes (slightly better quality) at
    the cost of a larger index and a slower search — mirroring the
    DGOneDIS/DGTwoDIS relationship reported in the paper.
    """

    index_depth = 2
