"""Shared machinery of all dynamic k-maximal independent-set algorithms.

:class:`DynamicMISBase` implements everything Algorithm 1 (the maintenance
framework), Algorithm 2 (DyOneSwap) and Algorithm 3 (DyTwoSwap) have in
common:

* installing and validating an initial independent set and extending it to a
  maximal one,
* applying the four structural update kinds while keeping the solution
  maximal ("``G_t ← G_{t-1} ⊕ op`` and keep ``I`` maximal" — line 1 of every
  algorithm in the paper),
* the **batched update engine** (:meth:`DynamicMISBase.apply_batch`): stream
  coalescing (:mod:`repro.updates.coalesce`), bulk structural apply over the
  states' slot arrays, and one shared maximality-repair + candidate-drain
  pass per batch — k-maximality is guaranteed at batch boundaries,
* turning count-change events into *candidates*: pairs ``(S, C(S))`` of a
  solution subset and the vertices newly added to ``¯I_{|S|}(S)``,
* the ``MOVEIN`` / ``MOVEOUT`` primitives with maximality repair,
* statistics, invariant checking, and the memory-footprint proxy.

Everything below the public API operates in **slot space**: update operands
are translated from labels to the graph's dense integer slots once per
operation at the top of each handler, and every inner loop then works on
flat arrays and sets of ints — no label hashing anywhere on the hot path.
Candidate queues, tight-set views and count events are all slot-based.

Concrete algorithms override :meth:`_process_candidates` (how swaps are
searched) and :meth:`_on_edge_deleted_outside` (the only update case whose
new swaps are not signalled by a count change).
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.core.lazy import LazyMISState
from repro.core.perturbation import pick_perturbation_partner
from repro.core.state import MISState
from repro.exceptions import SolutionInvariantError, UpdateError, VertexNotFoundError
from repro.graphs.dynamic_graph import _FREE, DynamicGraph, Vertex
from repro.resilience.faults import BULK_APPLY, trip
from repro.updates.coalesce import coalesce_batch
from repro.updates.operations import UpdateKind, UpdateOperation
from repro.updates.protocol import chunked


@dataclass
class AlgorithmStatistics:
    """Counters describing the work an algorithm instance has performed."""

    updates_processed: int = 0
    swaps_performed: Counter = field(default_factory=Counter)
    perturbations: int = 0
    candidates_processed: int = 0
    #: Operations cancelled/merged away by batch coalescing (they still count
    #: towards ``updates_processed``: the stream contained them).
    operations_coalesced: int = 0
    #: Number of :meth:`DynamicMISBase.apply_batch` invocations.
    batches_applied: int = 0

    def record_swap(self, size: int) -> None:
        """Record one successful ``size``-swap."""
        self.swaps_performed[size] += 1

    @property
    def total_swaps(self) -> int:
        """Total number of swaps of any size performed so far."""
        return sum(self.swaps_performed.values())


class DynamicMISBase(abc.ABC):
    """Base class of the dynamic k-maximal independent set algorithms.

    Parameters
    ----------
    graph:
        The dynamic graph to maintain a solution on.  The algorithm takes
        ownership: all further structural updates must go through
        :meth:`apply_update` so graph and bookkeeping stay in sync.
    k:
        The swap depth: the maintained set is guaranteed ``k``-maximal after
        every update.
    initial_solution:
        Optional independent set to start from (the experiments seed the
        algorithms with an exact or near-optimal solution, as in the paper).
        It is validated, installed, and extended to a maximal set.
    lazy:
        Use the lazy-collection state (optimization 1) instead of the eager
        hierarchical bookkeeping.
    perturbation:
        Enable the degree-based perturbation heuristic (optimization 2).
    check_invariants:
        Verify all solution invariants after every update (slow; for tests).
    stabilize:
        Run a full swap pass after installation so the initial solution is
        already ``k``-maximal before the first update arrives.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        *,
        k: int = 1,
        initial_solution: Optional[Iterable[Vertex]] = None,
        lazy: bool = False,
        perturbation: bool = False,
        check_invariants: bool = False,
        stabilize: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.lazy = lazy
        self.perturbation = perturbation
        self.check_invariants = check_invariants
        self.state = LazyMISState(graph, k) if lazy else MISState(graph, k)
        self.stats = AlgorithmStatistics()
        # _candidates[j] maps a solution subset S of size j to C(S), the set
        # of slots that were newly added to ¯I_j(S) and may enable a swap.
        # Level 1 is keyed by the owner slot directly (no frozenset is ever
        # built on the 1-swap path); levels >= 2 use frozensets of slots.
        self._candidates: List[Dict[Any, Set[int]]] = [
            {} for _ in range(k + 1)
        ]
        self._bind_views()
        self._install_initial_solution(initial_solution)
        if stabilize:
            self._stabilize()
        if self.check_invariants:
            self._verify()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DynamicGraph:
        """The underlying dynamic graph."""
        return self.state.graph

    @property
    def solution_size(self) -> int:
        """Current size of the maintained independent set."""
        return self.state.solution_size

    def solution(self) -> Set[Vertex]:
        """Return a copy of the maintained independent set (as labels)."""
        return self.state.solution()

    def memory_footprint(self) -> int:
        """Approximate number of stored references (state + candidate queues)."""
        size = self.state.structure_size()
        for level in self._candidates:
            size += len(level)
            size += sum(len(c) for c in level.values())
        return size

    def fork(self) -> "DynamicMISBase":
        """Return a logically independent copy-on-write fork of this engine.

        The fork shares the graph's adjacency sets and the eager state's
        ``I(v)``/hierarchy buckets with this engine behind ownership bitmaps
        (see :meth:`DynamicGraph.fork` / :meth:`MISState.fork`), so creating
        it costs O(slots) spine copies instead of the O(n·d) per-element
        copies of a deep copy — and the two engines then diverge at
        O(touched slots) cost.  Either side may be mutated or discarded
        freely; results are bit-identical to running on a deep copy.

        Must be called at a batch boundary (candidate queues drained — the
        same precondition snapshots impose), because the candidate queues
        are not forked.
        """
        if self.has_pending_candidates():
            raise SolutionInvariantError(
                "cannot fork mid-repair: candidate queues are not drained"
            )
        clone = object.__new__(type(self))
        # Plain attributes (config flags plus any subclass counters like
        # KSwapFramework.search_limit_hits — all immutable values) are
        # shared; the stateful ones are rebuilt over the forked state.
        clone.__dict__.update(self.__dict__)
        clone.state = self.state.fork(self.state.graph.fork())
        clone.stats = replace(
            self.stats, swaps_performed=Counter(self.stats.swaps_performed)
        )
        clone._candidates = [{} for _ in range(self.k + 1)]
        clone._bind_views()
        return clone

    def _bind_views(self) -> None:
        """Cache the live views of the state and its graph.

        Every one of these containers grows strictly in place (append /
        add), so the identities cached here stay valid for the lifetime of
        the algorithm — the cache removes a method call per probe from every
        handler and candidate routine.
        """
        state = self.state
        graph = state.graph
        self._in_sol = state.in_solution_view()
        self._counts = state.counts_slots_view()
        self._adj = graph.adjacency_slots_view()
        self._slot_map = graph.slot_map_view()
        self._orders = graph.orders_view()
        self._labels = graph.labels_view()

    def apply_update(self, operation: UpdateOperation) -> None:
        """Apply one structural update and restore k-maximality of the solution."""
        self._dispatch(operation)
        self._process_candidates()
        self.stats.updates_processed += 1
        if self.check_invariants:
            self._verify()

    def apply_stream(
        self, operations: Iterable[UpdateOperation], *, batch_size: int = 1
    ) -> None:
        """Apply a whole update stream in order.

        ``batch_size`` generalises the paper's lazy-collection idea to the
        stream level: with ``batch_size > 1`` consecutive operations are
        grouped and handed to :meth:`apply_batch`, which coalesces them to
        their net effect, applies the structural mutations in one pass, and
        runs a *single* maximality repair and candidate drain per batch.  The
        solution is independent at all times and k-maximal at every batch
        boundary — in particular at the end of the stream.  With the default
        ``batch_size=1`` the semantics are identical to calling
        :meth:`apply_update` per operation.

        ``operations`` may be any iterable — a materialised list or an
        unbounded generator.  The stream is consumed strictly one operation
        (or one ``batch_size`` window) at a time, so the engine's resident
        footprint is independent of the stream length.
        """
        if batch_size <= 1:
            # Inlined apply_update: one dispatch per operation with all
            # attribute lookups hoisted out of the loop (this is the hot loop
            # of every streaming workload).
            stats = self.stats
            process = self._process_candidates
            handle_insert_edge = self._handle_insert_edge
            handle_delete_edge = self._handle_delete_edge
            handle_insert_vertex = self._handle_insert_vertex
            handle_delete_vertex = self._handle_delete_vertex
            for operation in operations:
                kind = operation.kind
                if kind is UpdateKind.INSERT_EDGE:
                    handle_insert_edge(*operation.edge)
                elif kind is UpdateKind.DELETE_EDGE:
                    handle_delete_edge(*operation.edge)
                elif kind is UpdateKind.INSERT_VERTEX:
                    handle_insert_vertex(operation.vertex, operation.neighbors)
                elif kind is UpdateKind.DELETE_VERTEX:
                    handle_delete_vertex(operation.vertex)
                else:  # pragma: no cover - exhaustive enum
                    raise UpdateError(f"unknown update kind {kind!r}")
                process()
                stats.updates_processed += 1
                if self.check_invariants:
                    self._verify()
            return
        apply_batch = self.apply_batch
        for chunk in chunked(operations, batch_size):
            apply_batch(chunk)

    #: Batch length from which apply_batch switches to the bulk strategy
    #: (coalesce + one-pass structural apply + one shared repair pass).
    #: Below it, the per-batch fixed costs (net-effect simulation, touched-
    #: slot bookkeeping, the final sort) outweigh what they amortise, so
    #: small batches use per-operation dispatch with a single deferred
    #: candidate drain instead — both strategies leave the solution
    #: k-maximal at the batch boundary.
    BULK_APPLY_THRESHOLD = 32

    def apply_batch(
        self, operations: Iterable[UpdateOperation], *, coalesce: bool = True
    ) -> None:
        """Apply a batch of updates with one shared repair pass.

        Two strategies, chosen by the batch length:

        * **Bulk** (at least :data:`BULK_APPLY_THRESHOLD` operations): the
          batch is coalesced to its net effect (inverse pairs cancel,
          toggles collapse — see :mod:`repro.updates.coalesce`), the
          remaining structural mutations are applied in one pass that
          accumulates the *touched* slots (every slot whose count dropped
          into the tracked range, plus new vertices, evicted vertices and
          the endpoints of outside/outside edge deletions), and maximality
          repair, candidate registration and the swap-searching drain each
          run **once** at the end of the batch instead of once per
          operation.
        * **Short**: shorter batches keep per-operation dispatch (whose
          repair is immediate) and only defer the candidate drain — the
          bulk machinery's fixed costs don't amortise below the threshold.

        ``coalesce`` must be ``True``; the uncoalesced bulk strategy was
        removed, and ``coalesce=False`` raises :class:`ValueError`.

        Invariants: the solution stays independent throughout (conflicting
        edge insertions still evict immediately) and is k-maximal when the
        call returns.  Mid-batch the solution may be transiently
        non-maximal; callers that observe the solution between operations
        must use :meth:`apply_update`.  Batched and unbatched runs may pick
        different (equally valid) k-maximal solutions.

        Failure atomicity: on the bulk path an invalid batch is rejected by
        the coalescer *before* any state is mutated.  Batches below the
        threshold dispatch per operation and fail like :meth:`apply_stream`
        does: the failing operation is refused whole and leaves nothing,
        only the valid prefix before it stays applied, and the deferred
        candidate drain is skipped, so the solution may be maximal but not
        yet k-maximal when the exception propagates.
        """
        if not coalesce:
            raise ValueError(
                "apply_batch(coalesce=False) is not supported: the uncoalesced "
                "batch strategy was removed"
            )
        ops = operations if isinstance(operations, list) else list(operations)
        if not ops:
            return
        # The ``bulk_apply`` fault point fires before any mutation (and
        # before the short-batch dispatch below), so an injected crash
        # leaves the engine at the previous batch boundary — queues
        # drained, solution k-maximal, snapshot-clean.
        trip(BULK_APPLY)
        stats = self.stats
        if len(ops) < self.BULK_APPLY_THRESHOLD:
            dispatch = self._dispatch
            for operation in ops:
                dispatch(operation)
            self._requeue_risen()
            self._process_candidates()
        else:
            net = coalesce_batch(self.graph, ops)
            stats.operations_coalesced += net.num_coalesced
            self._finalize_batch(self._apply_net_batch(net))
        stats.updates_processed += len(ops)
        stats.batches_applied += 1
        if self.check_invariants:
            self._verify()

    def _evict_conflicts(
        self, conflicts: List, touched: Set[int]
    ) -> None:
        """Evict one endpoint of every still-standing both-in-solution pair.

        The bulk path's edge-insertion phase: the evicted slot and its
        decreased neighbours enter ``touched`` only while their count is
        within the tracked range (the admission filter of
        :meth:`_apply_net_batch`).
        """
        state = self.state
        in_sol = self._in_sol
        counts = self._counts
        adj = self._adj
        k = self.k
        for su, sv in conflicts:
            # An earlier eviction in this run may have resolved the
            # conflict already.
            if in_sol[su] and in_sol[sv]:
                evicted = self._choose_eviction(su, sv)
                state.move_out_slot(evicted)
                touched.update(
                    t for t in adj[evicted] if not in_sol[t] and counts[t] <= k
                )
                if counts[evicted] <= k:
                    touched.add(evicted)

    def _touch_outside(self, outside: List, touched: Set[int]) -> None:
        """Admit the endpoints of outside/outside edge deletions.

        The bulk path's edge-deletion phase: the complement of the tight
        neighbourhood gained an edge, so both endpoints are re-registered at
        batch end (the batched analogue of :meth:`_on_edge_deleted_outside`),
        subject to the count filter of :meth:`_apply_net_batch`.
        """
        counts = self._counts
        k = self.k
        for su, sv in outside:
            if counts[su] <= k:
                touched.add(su)
            if counts[sv] <= k:
                touched.add(sv)

    def _apply_net_batch(self, net) -> Set[int]:
        """Apply a coalesced net effect phase by phase; return the touched slots.

        The four phases of a :class:`~repro.updates.coalesce.CoalescedBatch`
        are each applied as one bulk pass over the slot arrays: a whole run
        of edge operations is label-translated in one sweep
        (:meth:`DynamicGraph.resolve_edge_slots`) and mutated by the state's
        bulk primitives, with no per-operation dispatch at all.
        """
        state = self.state
        graph = self.graph
        in_sol = self._in_sol
        counts = self._counts
        k = self.k
        touched: Set[int] = set()
        # Admission filter: a slot enters ``touched`` only while its count is
        # within the tracked range [0, k].  That loses nothing — every
        # decrement is its own touch event, so a high-count slot sliding down
        # is re-offered at each level and caught the moment it enters range —
        # and it keeps the repair/registration pass proportional to the
        # *relevant* neighbourhood, not the whole touched surface.
        if net.edge_deletions:
            dropped, outside = state.remove_edges_slots_bulk(
                graph.resolve_edge_slots(net.edge_deletions)
            )
            touched.update(s for s in dropped if counts[s] <= k)
            self._touch_outside(outside, touched)
        if net.vertex_deletions:
            slot_map = self._slot_map
            for label in net.vertex_deletions:
                try:
                    slot = slot_map[label]
                except KeyError:
                    raise VertexNotFoundError(label) from None
                was_in, neighbor_slots = state.remove_vertex_slot(slot)
                if was_in:
                    touched.update(
                        t
                        for t in neighbor_slots
                        if not in_sol[t] and counts[t] <= k
                    )
        for label, neighbors in net.vertex_insertions:
            slot, count = state.add_vertex_slot(label, neighbors)
            if count <= k:
                touched.add(slot)
        if net.edge_insertions:
            # The count *increases* (``bumped``) need neither repair nor
            # registration: a slot whose count only rose cannot reach zero,
            # and an edge insertion only restricts the swap space — any swap
            # available after it was already available before, so the
            # previous k-maximal state covers it (same reason the
            # per-operation insert-edge handler registers nothing).
            _bumped, conflicts = state.add_edges_slots_bulk(
                graph.resolve_edge_slots(net.edge_insertions)
            )
            self._evict_conflicts(conflicts, touched)
        return touched

    def _finalize_batch(self, touched: Set[int]) -> None:
        """One shared repair pass: restore maximality, register, drain.

        Every touched slot with count zero is moved into the solution by the
        greedy fill (:meth:`_extend_maximal_over`), then every touched slot
        whose final count lies in ``[1, k]`` is registered under its current
        owner set, and the candidate queues are drained once.  Soundness:
        counts only change at touched slots, the solution was maximal at the
        previous batch boundary, and any vertex newly entering some
        ``¯I_j(S)`` during the batch had a count change — so registering
        touched slots by *final* count covers every swap opportunity the
        per-operation path would have registered eventually.
        """
        labels = self._labels
        in_sol = self._in_sol
        counts = self._counts
        k = self.k
        self._extend_maximal_over(touched)
        # Registration follows the interned insertion order so the
        # candidate-queue insertion (hence drain) order is identical for the
        # eager and the lazy state.  Registering changes no membership byte
        # or count, so the filter can run before the sort (most touched
        # slots carry counts beyond k and register nothing).
        pending = [
            s
            for s in touched
            if labels[s] is not _FREE and not in_sol[s] and 1 <= counts[s] <= k
        ]
        pending.sort(key=self._orders.__getitem__)
        register = self._register_slot
        for s in pending:
            register(s)
        self._process_candidates()

    def _requeue_risen(self) -> None:
        """Register queued slots again whose count rose after they were queued.

        The per-operation handlers register a slot at the count it has at
        that moment, and the edge-insertion handler registers nothing
        because it assumes the queues were drained before the operation.
        The short-batch path of :meth:`apply_batch` defers the drain, so a
        slot queued at level ``j`` whose count later in the batch rises to
        ``j' <= k`` (an edge to, or a move-in of, another solution vertex)
        would only be examined at ``j``, where it no longer qualifies, and
        never at ``j'``.  Registering it by its final count — the rule the
        bulk path applies to every touched slot — restores k-maximality at
        the batch boundary.  A count that fell was registered again by the
        handler that lowered it, so only risen counts need this pass; with
        ``k = 1`` there is nothing to rise to.
        """
        labels = self._labels
        in_sol = self._in_sol
        counts = self._counts
        k = self.k
        risen = {
            s
            for level in range(1, k)
            for members in self._candidates[level].values()
            for s in members
            if level < counts[s] <= k and not in_sol[s] and labels[s] is not _FREE
        }
        register = self._register_slot
        for s in sorted(risen, key=self._orders.__getitem__):
            register(s)

    def _dispatch(self, operation: UpdateOperation) -> None:
        """Apply the structural part of one update (no candidate drain)."""
        kind = operation.kind
        if kind is UpdateKind.INSERT_EDGE:
            self._handle_insert_edge(*operation.edge)
        elif kind is UpdateKind.DELETE_EDGE:
            self._handle_delete_edge(*operation.edge)
        elif kind is UpdateKind.INSERT_VERTEX:
            self._handle_insert_vertex(operation.vertex, operation.neighbors)
        elif kind is UpdateKind.DELETE_VERTEX:
            self._handle_delete_vertex(operation.vertex)
        else:  # pragma: no cover - exhaustive enum
            raise UpdateError(f"unknown update kind {kind!r}")

    # ------------------------------------------------------------------ #
    # Hooks for concrete algorithms
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _process_candidates(self) -> None:
        """Drain the candidate queues, performing every swap they reveal."""

    def _on_edge_deleted_outside(self, su: int, sv: int) -> None:
        """Handle deletion of an edge whose endpoints (slots) are both outside ``I``.

        This is the only update whose new swap opportunities are invisible to
        the count-change bookkeeping (no count changes, yet the complement of
        ``G[¯I_{≤k}(S)]`` gains the edge ``(u, v)``).  The default
        implementation registers both endpoints when they are tight on the
        same solution vertex, which is sufficient for ``k = 1``; deeper
        algorithms override it.
        """
        counts = self.state.counts_slots_view()
        if counts[su] == 1 and counts[sv] == 1:
            owners_u = self.state.sn_slots_view(su)
            if owners_u == self.state.sn_slots_view(sv):
                (owner,) = owners_u
                self._add_candidate1(owner, su)
                self._add_candidate1(owner, sv)

    # ------------------------------------------------------------------ #
    # Update-case handlers (shared by every algorithm)
    # ------------------------------------------------------------------ #
    def _handle_insert_vertex(self, vertex: Vertex, neighbors: Sequence[Vertex]) -> None:
        slot, count = self.state.add_vertex_slot(vertex, neighbors)
        if count == 0:
            self.state.move_in_slot(slot)
        elif count <= self.k:
            self._register_slot(slot)

    def _handle_delete_vertex(self, vertex: Vertex) -> None:
        try:
            slot = self._slot_map[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        was_in_solution, neighbor_slots = self.state.remove_vertex_slot(slot)
        if was_in_solution:
            # Every surviving non-solution neighbour lost a count.
            in_sol = self._in_sol
            self._repair_and_register(
                [t for t in neighbor_slots if not in_sol[t]]
            )
        # Deleting a non-solution vertex cannot create swaps: no count changes
        # and the candidate pools only shrink.

    def _handle_insert_edge(self, u: Vertex, v: Vertex) -> None:
        slot_map = self._slot_map
        try:
            su = slot_map[u]
            sv = slot_map[v]
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        in_sol = self._in_sol
        u_in = in_sol[su]
        v_in = in_sol[sv]
        self.state.add_edge_slots(su, sv)
        if u_in and v_in:
            evicted = self._choose_eviction(su, sv)
            self.state.move_out_slot(evicted)
            # Every non-solution neighbour of the evicted vertex lost a count.
            self._repair_and_register(
                [t for t in self._adj[evicted] if not in_sol[t]]
            )
            self._register_slot(evicted)

    def _handle_delete_edge(self, u: Vertex, v: Vertex) -> None:
        state = self.state
        slot_map = self._slot_map
        try:
            su = slot_map[u]
            sv = slot_map[v]
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        in_sol = self._in_sol
        u_in = in_sol[su]
        v_in = in_sol[sv]
        if u_in != v_in:
            # Exactly one count changes: the outside endpoint loses its
            # solution neighbour.  Specialised single-slot repair (the
            # generic _repair_and_register path costs several list builds).
            s_out, s_in = (sv, su) if u_in else (su, sv)
            new = state.remove_edge_one_sided(s_out, s_in)
            if new == 0:
                state.move_in_slot(s_out)
            elif new <= self.k:
                self._register_slot(s_out)
        else:
            # No count changes (u_in and v_in cannot both hold because the
            # solution is independent, so this is the outside/outside case —
            # or a defensive no-op structural removal).
            state.remove_edge_structural(su, sv)
            if not u_in:
                self._on_edge_deleted_outside(su, sv)

    # ------------------------------------------------------------------ #
    # Candidate bookkeeping (slot space)
    # ------------------------------------------------------------------ #
    def _add_candidate(self, owner_slots: FrozenSet[int], slot: int) -> None:
        """Record ``slot`` as newly relevant for the solution subset ``owner_slots``."""
        level = len(owner_slots)
        if level == 1:
            (owner,) = owner_slots
            self._candidates[1].setdefault(owner, set()).add(slot)
        elif level <= self.k:
            self._candidates[level].setdefault(owner_slots, set()).add(slot)

    def _add_candidate1(self, owner_slot: int, slot: int) -> None:
        """Fast path of :meth:`_add_candidate` for a single owner slot."""
        self._candidates[1].setdefault(owner_slot, set()).add(slot)

    def _register_slot(self, slot: int) -> None:
        """Register ``slot`` under its own solution-neighbour set if in range."""
        if self._in_sol[slot]:
            return
        count = self._counts[slot]
        if count == 1:
            (owner,) = self.state.sn_slots_view(slot)
            self._candidates[1].setdefault(owner, set()).add(slot)
        elif 2 <= count <= self.k:
            owners = frozenset(self.state.sn_slots_view(slot))
            self._candidates[count].setdefault(owners, set()).add(slot)

    def _collect_candidates_around(self, slots: Iterable[int]) -> None:
        """Register every slot with count in ``[1, k]`` in the closed neighbourhood.

        This mirrors FIND_CANDIDATES of the paper: after a swap around the
        removed set ``S``, every vertex of ``N[S]`` whose count is small
        enough is (re-)registered.  Re-registering vertices that were already
        known is harmless: processing simply finds no swap for them.
        """
        adj = self._adj
        labels = self._labels
        register = self._register_slot
        for s in slots:
            if labels[s] is _FREE:
                continue
            register(s)
            # Registering never mutates the graph, so the live neighbour view
            # is safe to iterate.
            for t in adj[s]:
                register(t)

    def _sorted_members(self, members: Set[int]) -> Iterable[int]:
        """``C(S)`` in interned order — the canonical examination order.

        **Drain determinism.**  Every ``_process_candidates`` implementation
        drains its queues by *sorted sweeps* (pending owners in interned
        order, singleton queues popped directly) and examines members in
        interned order, never via ``popitem()`` or raw set iteration.  The
        trajectory must be a function of queue *contents* only:
        registration reaches the queues through iteration over adjacency
        sets, whose order depends on each set's allocation history — state
        that a restored snapshot cannot reproduce.  Content-keyed draining
        keeps the whole trajectory (which swaps happen, and therefore every
        statistic) identical between an uninterrupted run and a
        snapshot/restore/resume run, and between the eager and lazy states.

        Singleton sets (the common case: one registration per owner per
        repair) are returned as-is — no sort, no list allocation.
        """
        if len(members) <= 1:
            return members
        return sorted(members, key=self._orders.__getitem__)

    def _sweep_level1(
        self, queue: Dict[Any, Set[int]], visit: Callable[[int, Set[int]], None]
    ) -> None:
        """Drain a slot-keyed level-1 queue by deterministic sorted sweeps.

        The one canonical implementation of the drain contract documented
        on :meth:`_sorted_members`: singleton queues pop directly, larger
        ones are swept in interned owner order with a pop-``None`` guard
        for keys consumed or re-registered mid-sweep; owners registered
        during a sweep are picked up by the next one.  ``visit`` is called
        with ``(owner_slot, members)`` for every live entry.
        """
        orders = self._orders
        stats = self.stats
        while queue:
            if len(queue) == 1:
                owner, members = queue.popitem()
                stats.candidates_processed += 1
                visit(owner, members)
                continue
            for owner in sorted(queue, key=orders.__getitem__):
                members = queue.pop(owner, None)
                if members is None:
                    continue
                stats.candidates_processed += 1
                visit(owner, members)

    def has_pending_candidates(self) -> bool:
        """Return ``True`` while any candidate queue is non-empty."""
        return any(self._candidates[level] for level in range(1, self.k + 1))

    # ------------------------------------------------------------------ #
    # Solution manipulation helpers
    # ------------------------------------------------------------------ #
    def _repair_and_register(self, decreased: List[int]) -> None:
        """Restore maximality after count decreases and register new candidates.

        ``decreased`` lists the slots whose count just dropped.  Any slot
        whose count dropped to zero is moved into the solution (maximality);
        any slot whose count dropped into ``[1, k]`` becomes a candidate.
        """
        state, graph = self.state, self.graph
        in_sol = self._in_sol
        counts = self._counts
        if not decreased:
            return
        # Move zero-count vertices in first (smallest degree first, the usual
        # greedy tie-break), re-checking the count right before each move
        # because earlier moves may have raised it again.
        zero_candidates = [
            s for s in decreased if not in_sol[s] and counts[s] == 0
        ]
        if zero_candidates:
            if len(zero_candidates) > 1:
                zero_candidates.sort(key=graph.slot_order_key)
            for s in zero_candidates:
                if not in_sol[s] and counts[s] == 0:
                    state.move_in_slot(s)
        # Inlined _register_slot: register every decreased slot that is
        # still outside the solution with count in [1, k].
        k = self.k
        sn_view = state.sn_slots_view
        candidates1 = self._candidates[1]
        for s in decreased:
            if in_sol[s]:
                continue
            c = counts[s]
            if c == 1:
                (owner,) = sn_view(s)
                candidates1.setdefault(owner, set()).add(s)
            elif 2 <= c <= k:
                owners = frozenset(sn_view(s))
                self._candidates[c].setdefault(owners, set()).add(s)

    def _extend_maximal_over(self, slots: Iterable[int]) -> None:
        """Greedy fill: move every free slot among ``slots`` into the solution.

        A slot is free when it is live, outside the solution and has count
        zero.  The free slots move in by :meth:`DynamicGraph.slot_order_key`
        (smallest degree first, the usual greedy tie-break), each count
        re-checked right before its move because an earlier move may have
        raised it.  Filtering before the sort is safe because a fill only
        raises counts: a slot that is not free when the fill starts never
        becomes free during it.
        """
        in_sol = self._in_sol
        counts = self._counts
        labels = self._labels
        free = [
            s
            for s in slots
            if labels[s] is not _FREE and not in_sol[s] and counts[s] == 0
        ]
        if free:
            if len(free) > 1:
                free.sort(key=self.graph.slot_order_key)
            move_in = self.state.move_in_slot
            for s in free:
                if not in_sol[s] and counts[s] == 0:
                    move_in(s)

    def _has_nonneighbor_within(self, u: int, tight: Set[int]) -> bool:
        """Return ``True`` when ``|N[u] ∩ ¯I_1(v)| < |¯I_1(v)|``."""
        neighbors = self._adj[u]
        return any(w != u and w not in neighbors for w in tight)

    def _swap(
        self, out: Sequence[int], into: Sequence[int], pool: Iterable[int]
    ) -> None:
        """The step every swap ends with (Algorithm 3, lines 25–27).

        Moves each slot of ``out`` out of the solution, then each slot of
        ``into`` in (:meth:`~repro.core.state.SlotState.move_in_slot` raises
        :class:`SolutionInvariantError` for a slot that is still dominated),
        extends the solution to a maximal set over ``pool`` minus ``into``,
        and registers the candidates around ``out`` — new candidates can only
        involve vertices around the removed set.  ``pool`` must be a
        snapshot taken before the call: the moves change the live tight
        views.
        """
        state = self.state
        for s in out:
            state.move_out_slot(s)
        for s in into:
            state.move_in_slot(s)
        self._extend_maximal_over(w for w in pool if w not in into)
        self._collect_candidates_around(out)

    def _perform_one_swap(self, v: int, u: int, tight: Set[int]) -> None:
        """Swap ``v`` out for ``u`` plus every tight neighbour that becomes free."""
        self._swap((v,), (u,), tight)
        self.stats.record_swap(1)

    def _maybe_perturb(self, v: int, tight: Set[int]) -> None:
        """Perturbation (optimization 2): trade ``v`` for a lower-degree tight neighbour.

        ``tight`` is a snapshot of ``¯I_1(v)``, not a live view; see
        :func:`~repro.core.perturbation.pick_perturbation_partner`.
        """
        partner = pick_perturbation_partner(self.graph, v, tight)
        if partner is None:
            return
        self._swap((v,), (partner,), tight)
        self.stats.perturbations += 1

    def _choose_eviction(self, su: int, sv: int) -> int:
        """Pick which endpoint (slot) of a newly conflicting edge leaves the solution.

        Following the paper: prefer an endpoint with a non-empty ``¯I_1``
        (its tight neighbours can take its place), otherwise evict the one
        with the higher degree.
        """
        u_tight = bool(self.state.tight1_view(su))
        v_tight = bool(self.state.tight1_view(sv))
        if u_tight != v_tight:
            return su if u_tight else sv
        adj = self._adj
        du, dv = len(adj[su]), len(adj[sv])
        if du != dv:
            return su if du > dv else sv
        order = self._orders
        return su if order[su] > order[sv] else sv

    # ------------------------------------------------------------------ #
    # Initialisation
    # ------------------------------------------------------------------ #
    def _install_initial_solution(self, initial_solution: Optional[Iterable[Vertex]]) -> None:
        graph = self.graph
        state = self.state
        key = graph.slot_order_key
        in_sol = state.in_solution_view()
        if initial_solution is not None:
            slot_map = graph.slot_map_view()
            adj = graph.adjacency_slots_view()
            members: List[int] = []
            for v in initial_solution:
                s = slot_map.get(v)
                if s is None:
                    raise SolutionInvariantError(
                        f"initial solution vertex {v!r} is not in the graph"
                    )
                members.append(s)
            member_set = set(members)
            for s in members:
                if adj[s] & member_set:
                    raise SolutionInvariantError(
                        f"initial solution is not independent around "
                        f"{graph.vertex_of(s)!r}"
                    )
            for s in sorted(members, key=key):
                if state.count_slot(s) == 0 and not in_sol[s]:
                    state.move_in_slot(s)
        # Extend to a maximal independent set greedily (smallest degree first).
        counts = state.counts_slots_view()
        for s in sorted(graph.slots(), key=key):
            if not in_sol[s] and counts[s] == 0:
                state.move_in_slot(s)

    def _stabilize(self) -> None:
        """Make the freshly installed solution k-maximal by a full candidate sweep."""
        order = self.graph.orders_view()
        for level in range(1, self.k + 1):
            # Sorted registration keeps the candidate-queue insertion (and
            # hence processing) order identical for eager and lazy states.
            for slot in sorted(
                self.state.nonsolution_slots_with_count(level), key=order.__getitem__
            ):
                self._register_slot(slot)
        self._process_candidates()

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #
    def _verify(self) -> None:
        self.state.check_invariants()
        if not self.state.is_maximal():
            raise SolutionInvariantError("maintained solution is not maximal")
