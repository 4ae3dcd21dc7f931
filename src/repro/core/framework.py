"""The generic k-maximal maintenance framework (Algorithm 1 of the paper).

:class:`KSwapFramework` maintains a k-maximal independent set for a
user-specified ``k``.  DyOneSwap and DyTwoSwap are hand-optimised
instantiations for ``k = 1`` and ``k = 2``; this class provides the general
mechanism used by the k-sweep experiment (Fig 9) for ``k >= 3`` and serves as
the reference implementation against which the specialised algorithms are
tested.

The processing loop follows Algorithm 1: candidates are handled bottom-up
(smallest level first), each candidate ``(S, C(S))`` is examined by searching
an independent set of size ``|S|`` inside ``¯I_{≤|S|}(S) \\ N[v]`` for some
newly added vertex ``v ∈ C(S)``, and a candidate that yields no swap is
promoted to the supersets of ``S`` of size ``|S| + 1`` that could still admit
one.

All internal processing happens in slot space (dense integer vertex ids);
see :mod:`repro.core.base`.

Guarantee
---------
For ``k <= 2`` the candidate propagation is complete and the maintained set
is exactly k-maximal after every update (the same guarantee as DyOneSwap and
DyTwoSwap).  For ``k >= 3`` the promotion step generalises Algorithm 3's
level-1-to-level-2 promotion by registering the *union* of the failed
candidate's owner set with each witness's own owner set (see
:meth:`KSwapFramework._promote`) — this covers the "sideways" owner-set
combinations that a strict-superset chain misses, the gap class uncovered by
PR 4's differential probing (regression-pinned in
``tests/test_framework.py``).  The paper's framework leaves the general
promotion unspecified and only instantiates ``k <= 2``; accordingly this
class guarantees 2-maximality for every ``k >= 2`` and finds deeper swaps
best-effort (no completeness proof for ``k >= 3``), which is how the Fig 9
k-sweep experiment uses it (solution quality improves monotonically with
``k`` in practice, and randomized probing across seeds finds no residual
gaps — see the regression test).  At ``k = 3`` the solution has been
checked 3-maximal exhaustively up to six vertices: after every single
update of every graph with at most six vertices (seven once a vertex is
inserted), and after every batch of two updates of every graph with at
most four (``tests/test_exhaustive_small_graphs.py``).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set

from repro.core.base import DynamicMISBase

#: Safety cap on the number of nodes explored by the independent-set search
#: inside one candidate pool.  Pools are tiny in practice (their size is the
#: τ of the paper's analysis); the cap only guards against adversarial
#: inputs and is counted in the statistics when hit.
_SEARCH_NODE_LIMIT = 50_000


class KSwapFramework(DynamicMISBase):
    """Maintain a k-maximal independent set for arbitrary ``k`` (Algorithm 1).

    See :class:`repro.core.base.DynamicMISBase` for constructor parameters.

    Examples
    --------
    >>> from repro.graphs import DynamicGraph
    >>> g = DynamicGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> algo = KSwapFramework(g, k=3)
    >>> len(algo.solution())
    2
    """

    def __init__(self, graph, *, k: int = 1, **kwargs) -> None:
        # Before the base constructor: its stabilising pass already runs
        # the bounded search, which counts every hit of the cap.
        self.search_limit_hits = 0
        super().__init__(graph, k=k, **kwargs)

    # ------------------------------------------------------------------ #
    # Bottom-up candidate processing
    # ------------------------------------------------------------------ #
    def _process_candidates(self) -> None:
        # Deterministic sorted sweeps per level (see base._sorted_members for
        # why the drain must be a function of queue contents only).  The
        # sweep keeps the bottom-up invariant: after any examination that
        # creates lower-level work, the current level's sweep is abandoned
        # and the smallest pending level is re-selected.
        candidates = self._candidates
        orders = self._orders
        stats = self.stats
        examine = self._examine_candidate

        def examine1(owner: int, members) -> None:
            # Level-1 queues are keyed by the owner slot directly.
            examine(1, frozenset((owner,)), members)

        def sweep(level: int) -> None:
            """Drain all candidate work at levels ``<= level``, bottom-up."""
            queue = candidates[level]
            if level == 1:
                self._sweep_level1(queue, examine1)
                return
            while True:
                for lower in range(1, level):
                    if candidates[lower]:
                        sweep(lower)
                if not queue:
                    return
                if len(queue) == 1:
                    owners, members = queue.popitem()
                    stats.candidates_processed += 1
                    examine(level, owners, members)
                    continue
                keys = sorted(queue, key=lambda s: sorted(orders[x] for x in s))
                for owners in keys:
                    members = queue.pop(owners, None)
                    if members is None:
                        continue
                    stats.candidates_processed += 1
                    examine(level, owners, members)
                    # Bottom-up priority without discarding the sorted key
                    # list: recurse into any lower-level work, then keep
                    # walking (stale keys fail the pop/validity guards;
                    # same-level keys registered meanwhile wait for the
                    # next re-sort of the enclosing while loop).
                    for lower in range(1, level):
                        if candidates[lower]:
                            sweep(lower)

        sweep(self.k)

    def _examine_candidate(
        self, level: int, owners: FrozenSet[int], members: Set[int]
    ) -> None:
        if len(owners) != level:
            return
        state = self.state
        in_sol = self._in_sol
        if not all(in_sol[s] for s in owners):
            return
        pool = state.tight_up_to_slots(owners, level)
        # Interned examination order: content-deterministic, so restored
        # snapshots walk the same trajectory (see base._sorted_members).
        valid_members = [
            m
            for m in self._sorted_members(members)
            if self._is_valid_member(m, owners, level)
        ]
        for slot in valid_members:
            swap_in = self._search_swap_in(slot, owners, pool, level)
            if swap_in is not None:
                self._perform_swap(owners, slot, swap_in, pool)
                return
        if valid_members and level + 1 <= self.k:
            self._promote(owners, valid_members, level)
        if self.perturbation and level == 1 and len(owners) == 1:
            (v,) = tuple(owners)
            self._maybe_perturb(v, set(state.tight_view(owners, 1)))

    def _is_valid_member(self, slot: int, owners: FrozenSet[int], level: int) -> bool:
        """A member is usable when it is outside the solution and dominated only by ``owners``."""
        if not self.graph.is_live_slot(slot):
            return False
        if self._in_sol[slot]:
            return False
        count = self._counts[slot]
        if count == 0 or count > level:
            return False
        return self.state.sn_slots_view(slot) <= owners

    # ------------------------------------------------------------------ #
    # Swap search
    # ------------------------------------------------------------------ #
    def _search_swap_in(
        self,
        slot: int,
        owners: FrozenSet[int],
        pool: Set[int],
        level: int,
    ) -> Optional[List[int]]:
        """Find an independent set of size ``level`` in ``pool \\ N[slot]``.

        Together with ``slot`` it forms the swap-in set of a ``level``-swap
        replacing ``owners``.  Returns ``None`` when no such set exists (or
        the bounded search gives up).
        """
        adj = self._adj
        vertex_neighbors = adj[slot]
        candidates = [w for w in pool if w != slot and w not in vertex_neighbors]
        if len(candidates) < level:
            return None
        candidates.sort(key=self.graph.slot_order_key)
        chosen: List[int] = []
        budget = [_SEARCH_NODE_LIMIT]

        def backtrack(start: int) -> bool:
            if len(chosen) == level:
                return True
            if budget[0] <= 0:
                return False
            for index in range(start, len(candidates)):
                budget[0] -= 1
                if budget[0] <= 0:
                    return False
                candidate = candidates[index]
                candidate_neighbors = adj[candidate]
                if any(previous in candidate_neighbors for previous in chosen):
                    continue
                chosen.append(candidate)
                if backtrack(index + 1):
                    return True
                chosen.pop()
            return False

        found = backtrack(0)
        if budget[0] <= 0:
            self.search_limit_hits += 1
        return list(chosen) if found else None

    def _perform_swap(
        self,
        owners: FrozenSet[int],
        slot: int,
        swap_in: Sequence[int],
        pool: Set[int],
    ) -> None:
        self._swap(tuple(owners), (slot, *swap_in), pool)
        self.stats.record_swap(len(owners))

    # ------------------------------------------------------------------ #
    # Promotion to the next level
    # ------------------------------------------------------------------ #
    def _promote(
        self, owners: FrozenSet[int], members: Sequence[int], level: int
    ) -> None:
        """Register owner sets ``S' ⊋ owners`` (``|S'| <= k``) that may admit a swap.

        By the bottom-up invariant the solution is ``level``-maximal here, so
        a deeper swap removing some ``S' ⊃ owners`` must include a witness
        ``w ∈ ¯I_{≤|S'|}(S')`` that is not adjacent to at least one of the
        newly added members.  Witnesses are found by scanning the
        neighbourhoods of the owners, and each registers the *union*
        ``S' = owners ∪ I(w)``.

        The union form is what closes the k ≥ 3 promotion gap found by the
        differential probing of PR 4: the old rule only accepted witnesses
        with ``count == level + 1`` and ``I(w) ⊋ owners``, i.e. it climbed
        one level at a time along a chain of strict-superset owner sets.  A
        swap whose swap-in members carry owner sets that only *jointly*
        cover ``S'`` (e.g. members owned by ``{a}`` and ``{b, c}`` for
        ``S' = {a, b, c}``) has no such chain and was never registered.
        Taking the union admits exactly those sideways combinations — every
        candidate the old rule produced is still produced (there
        ``owners ∪ I(w) = I(w)``), so this is a strict widening; candidates
        sit at strictly higher levels (``|S'| > level`` is enforced), so the
        bottom-up drain still terminates.
        """
        graph = self.graph
        state = self.state
        adj = self._adj
        in_sol = self._in_sol
        counts = self._counts
        k = self.k
        owner_set = set(owners)
        seen: Set[int] = set()
        for owner in owners:
            if not graph.is_live_slot(owner):
                continue
            # Registration never mutates the graph: iterate the live view.
            for w in adj[owner]:
                if w in seen or in_sol[w]:
                    continue
                seen.add(w)
                count_w = counts[w]
                if count_w == 0 or count_w > k:
                    continue
                union = owner_set | state.sn_slots_view(w)
                if len(union) <= level or len(union) > k:
                    continue
                w_neighbors = adj[w]
                if any(m != w and m not in w_neighbors for m in members):
                    self._add_candidate(frozenset(union), w)

    # ------------------------------------------------------------------ #
    # Edge deletion between two non-solution vertices
    # ------------------------------------------------------------------ #
    def _on_edge_deleted_outside(self, su: int, sv: int) -> None:
        """A removed non-edge can only enable swaps whose swap-in contains both endpoints."""
        state = self.state
        counts = self._counts
        count_u = counts[su]
        count_v = counts[sv]
        if count_u > self.k or count_v > self.k:
            return
        owners = frozenset(state.sn_slots_view(su) | state.sn_slots_view(sv))
        if not owners or len(owners) > self.k:
            return
        self._add_candidate(owners, su)
        self._add_candidate(owners, sv)
