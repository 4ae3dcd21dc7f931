"""DyTwoSwap — Algorithm 3 of the paper.

Maintains a *2-maximal* independent set: after every update there is neither
a 1-swap (one vertex exchangeable for two) nor a 2-swap (two vertices
exchangeable for three).  The worst-case approximation ratio is the same
``Δ/2 + 1`` as for DyOneSwap (Theorem 3 shows it cannot improve), but in
practice the maintained sets are noticeably larger; the expected update cost
on power-law bounded graphs is near-linear (Lemma 2).

Candidates are processed bottom-up: 1-swap candidates (``C_1``) are always
drained before 2-swap candidates (``C_2``), so whenever a 2-swap candidate
``(S, C(S))`` with ``S = {u, v}`` is examined the solution is already
1-maximal.  This is what makes the paper's pruning sound: every new 2-swap
swap-in set must contain a vertex of ``¯I_2(S)``, so only count-two vertices
are recorded in ``C(S)`` and the third member of the swap-in is searched in
``¯I_1(u) ∪ ¯I_1(v) ∪ ¯I_2(S)``.

All internal processing happens in slot space (dense integer vertex ids);
see :mod:`repro.core.base`.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from repro.core.base import DynamicMISBase


class DyTwoSwap(DynamicMISBase):
    """Dynamic (Δ/2 + 1)-approximation maintaining a 2-maximal independent set.

    See :class:`repro.core.base.DynamicMISBase` for the constructor
    parameters.  ``k`` is fixed to two.

    Examples
    --------
    >>> from repro.graphs import DynamicGraph
    >>> from repro.updates import UpdateOperation
    >>> g = DynamicGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    >>> algo = DyTwoSwap(g)
    >>> len(algo.solution())
    2
    >>> algo.apply_update(UpdateOperation.delete_edge(0, 1))
    >>> len(algo.solution())
    3
    """

    def __init__(self, graph, **kwargs) -> None:
        kwargs.pop("k", None)
        super().__init__(graph, k=2, **kwargs)

    # ------------------------------------------------------------------ #
    # Swap processing (bottom-up)
    # ------------------------------------------------------------------ #
    def _process_candidates(self) -> None:
        # Deterministic sweeps (not popitem): the drain order must be a
        # function of queue contents only, so a snapshot-restored run walks
        # the same trajectory (see base._sorted_members and the one-swap
        # drain).  Level 1 keeps priority: after every level-2 examination
        # any newly pending level-1 work is drained before the next level-2
        # owner pair.
        candidates1, candidates2 = self._candidates[1], self._candidates[2]
        if not candidates1 and not candidates2:
            return
        orders = self._orders
        stats = self.stats
        find_one = self._find_one_swap
        find_two = self._find_two_swap
        sweep_ones = self._sweep_level1

        while True:
            sweep_ones(candidates1, find_one)
            if not candidates2:
                break
            if len(candidates2) == 1:
                owners, members = candidates2.popitem()
                stats.candidates_processed += 1
                find_two(owners, members)
                continue
            for owners in sorted(
                candidates2, key=lambda s: _pair_order_key(s, orders)
            ):
                members = candidates2.pop(owners, None)
                if members is None:
                    continue
                stats.candidates_processed += 1
                find_two(owners, members)
                # Level-1 priority without discarding the sorted key list:
                # service the new level-1 work, then keep walking (keys made
                # stale by those swaps fail the pop/in_sol guards; level-2
                # owners registered meanwhile wait for the next re-sort).
                if candidates1:
                    sweep_ones(candidates1, find_one)

    # -------------------------- level 1 ------------------------------- #
    def _find_one_swap(self, v: int, members: Set[int]) -> None:
        state = self.state
        if not self._in_sol[v]:
            return
        # Live view; snapshots are taken only when a swap mutates the state.
        # A member u is still a usable level-1 candidate exactly when
        # u ∈ ¯I_1(v).  Iterate the members in interned order (not the tight
        # view, not raw set order) so the examination order is identical for
        # the eager and the lazy state and for a snapshot-restored run.
        tight = state.tight1_view(v)
        valid_members = [u for u in self._sorted_members(members) if u in tight]
        for u in valid_members:
            if self._has_nonneighbor_within(u, tight):
                self._perform_one_swap(v, u, set(tight))
                return
        # No 1-swap around v: the new tight vertices may still enable a
        # 2-swap together with a count-two neighbour of v (lines 14-17 of
        # Algorithm 3).
        if valid_members:
            self._promote_to_level2(v, valid_members)
        if self.perturbation and tight:
            self._maybe_perturb(v, set(tight))

    def _promote_to_level2(self, v: int, new_tight: List[int]) -> None:
        """Register count-two neighbours of ``v`` that avoid some new tight vertex.

        If ``w`` has ``count(w) = 2`` with ``v ∈ I(w)`` and ``w`` is not
        adjacent to every vertex of ``C(v)``, then the pair ``I(w)`` may now
        admit a 2-swap whose swap-in contains ``w`` and a new tight vertex.
        """
        state = self.state
        adj = self._adj
        in_sol = self._in_sol
        counts = self._counts
        # Registration never mutates the graph: iterate the live view.
        for w in adj[v]:
            if in_sol[w] or counts[w] != 2:
                continue
            w_neighbors = adj[w]
            if any(u != w and u not in w_neighbors for u in new_tight):
                owners = frozenset(state.sn_slots_view(w))
                self._add_candidate(owners, w)

    # -------------------------- level 2 ------------------------------- #
    def _find_two_swap(self, owners: FrozenSet[int], members: Set[int]) -> None:
        if len(owners) != 2:
            return
        # Interned-order unpack: a two-element frozenset's iteration order
        # can depend on its construction history, and swapping u/v swaps the
        # y/z search pools below — normalise so restored runs agree.
        u, v = owners
        orders = self._orders
        if orders[u] > orders[v]:
            u, v = v, u
        state = self.state
        in_sol = self._in_sol
        if not (in_sol[u] and in_sol[v]):
            return
        # Read-only views: _search_triple never mutates state, and
        # _perform_two_swap re-derives its pool before mutating.  A member x
        # is still a usable level-2 candidate exactly when x ∈ ¯I_2(S).
        # Iterate the members in interned order (not the tight view, not raw
        # set order) so the examination order is identical for the eager and
        # the lazy state and for a snapshot-restored run.  The ¯I_1 views are
        # fetched only once a usable member exists — on the lazy state they
        # are neighbourhood scans, and most popped candidates are stale.
        tight_pair = state.tight_view(owners, 2)
        if not tight_pair:
            return
        tight_u: Optional[Set[int]] = None
        tight_v: Optional[Set[int]] = None
        for x in self._sorted_members(members):
            if x not in tight_pair:
                continue
            if tight_u is None:
                tight_u = state.tight1_view(u)
                tight_v = state.tight1_view(v)
            found = self._search_triple(x, owners, tight_pair, tight_u, tight_v)
            if found is not None:
                y, z = found
                self._perform_two_swap(owners, x, y, z)
                return

    def _search_triple(
        self,
        x: int,
        owners: FrozenSet[int],
        tight_pair: Set[int],
        tight_u: Set[int],
        tight_v: Set[int],
    ) -> Optional[Tuple[int, int]]:
        """Find ``y, z`` such that ``{x, y, z}`` is an independent swap-in set for ``owners``.

        ``y`` ranges over ``¯I_1(u) ∪ ¯I_2(S)`` and ``z`` over
        ``¯I_1(v) ∪ ¯I_2(S)``, both restricted to non-neighbours of ``x``,
        exactly as in FIND_TWOSWAP of the paper.
        """
        adj = self._adj
        x_neighbors = adj[x]
        candidates_y = {
            w for w in (tight_u | tight_pair) if w != x and w not in x_neighbors
        }
        candidates_z = {
            w for w in (tight_v | tight_pair) if w != x and w not in x_neighbors
        }
        if not candidates_y or not candidates_z:
            return None
        # The pools are tiny (the τ of the paper's analysis); scanning them in
        # interned order keeps the chosen pair independent of the internal
        # iteration order of the eager buckets vs the lazy recomputed sets.
        order = self._orders
        sorted_z = sorted(candidates_z, key=order.__getitem__)
        for y in sorted(candidates_y, key=order.__getitem__):
            y_neighbors = adj[y]
            for z in sorted_z:
                if z != y and z not in y_neighbors:
                    return y, z
        return None

    def _perform_two_swap(
        self, owners: FrozenSet[int], x: int, y: int, z: int
    ) -> None:
        """Replace the pair ``owners`` by ``{x, y}`` and re-extend to a maximal set.

        ``z`` (and any other vertex of ``¯I_{≤2}(owners)`` left without a
        solution neighbour) is inserted by the maximality extension, matching
        lines 25-27 of Algorithm 3.
        """
        pool = self.state.tight_up_to_slots(owners, 2)
        self._swap(tuple(owners), (x, y), pool)
        self.stats.record_swap(2)

    # ------------------------------------------------------------------ #
    # Edge deletion between two non-solution vertices (update case ii)
    # ------------------------------------------------------------------ #
    def _on_edge_deleted_outside(self, su: int, sv: int) -> None:
        state = self.state
        counts = self._counts
        count_u = counts[su]
        count_v = counts[sv]
        if count_u > 2 and count_v > 2:
            return
        owners_u = state.sn_slots_view(su)
        owners_v = state.sn_slots_view(sv)
        if count_u == 1 and count_v == 1:
            if owners_u == owners_v:
                # Case (a): both tight on the same vertex w — an immediate
                # 1-swap; let the level-1 machinery perform it.
                (owner,) = owners_u
                self._add_candidate1(owner, su)
                self._add_candidate1(owner, sv)
            else:
                # Case (b): tight on different vertices x and y.  Any new
                # 2-swap must be {x, y} -> {u, v, w} with w ∈ ¯I_2({x, y}).
                self._try_direct_pair_swap(su, sv, owners_u | owners_v)
            return
        # Case (c): at least one endpoint has count two; its owner pair may
        # now admit a 2-swap, so register the count-two endpoint(s).
        if count_u == 2:
            self._add_candidate(frozenset(owners_u), su)
        if count_v == 2:
            self._add_candidate(frozenset(owners_v), sv)

    def _try_direct_pair_swap(self, su: int, sv: int, owner_pair: Set[int]) -> None:
        """Case (b): search ``¯I_2({x, y})`` for a third vertex completing the swap."""
        if len(owner_pair) != 2:
            return
        owners = frozenset(owner_pair)
        adj = self._adj
        u_neighbors = adj[su]
        v_neighbors = adj[sv]
        order = self._orders
        # Snapshot (sorted): _perform_two_swap mutates the bucket mid-loop,
        # and the interned order keeps the choice eager/lazy-independent.
        for w in sorted(self.state.tight_view(owners, 2), key=order.__getitem__):
            if w in (su, sv) or w in u_neighbors or w in v_neighbors:
                continue
            # {u, v, w} is independent and dominated only by the owner pair.
            self._perform_two_swap(owners, w, su, sv)
            return

def _pair_order_key(owners, orders):
    """Content-only sort key for a two-slot owner set (order-normalised pair)."""
    u, v = owners
    a, b = orders[u], orders[v]
    return (a, b) if a <= b else (b, a)
