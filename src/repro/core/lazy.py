"""Lazy-collection solution state (optimization 1 of Section III).

The eager :class:`~repro.core.state.MISState` maintains ``I(v)`` sets and the
hierarchical ``¯I_j(S)`` buckets explicitly so they can be queried in O(1).
The lazy variant only keeps what :class:`~repro.core.state.SlotState` keeps —
the membership bytes and the integer ``count(v)`` per slot — and
*recomputes* everything else on demand by scanning the relevant
neighbourhoods.  As the paper observes, this slashes memory and even
improves wall-clock time for small ``k``, at the price of losing the
worst-case time bound (and getting slower as ``k`` grows) — exactly the
trade-off evaluated in Fig 7.

Everything shared (slot growth, forks, the single and bulk mutators,
the invariant checker) is inherited; this module defines only the count
hooks, the two solution moves and the recomputed views, so every
maintenance algorithm can run on either state by passing ``lazy=True``.
"""

from __future__ import annotations

from typing import FrozenSet, Set

from repro.core.state import SlotState
from repro.exceptions import SolutionInvariantError


class LazyMISState(SlotState):
    """Count-only bookkeeping of an independent set over a dynamic graph.

    Interface-compatible with :class:`repro.core.state.MISState`; see that
    class for method semantics.
    """

    def structure_size(self) -> int:
        """Memory proxy: only the membership set and one counter per vertex."""
        return len(self._sol_slots) + self.graph.num_vertices

    # ------------------------------------------------------------------ #
    # Count hooks (called by the SlotState mutators)
    # ------------------------------------------------------------------ #
    def _add_solution_neighbor(self, slot: int, solution_slot: int) -> None:
        self._count[slot] += 1
        self.stats.count_updates += 1

    def _remove_solution_neighbor(self, slot: int, solution_slot: int) -> None:
        self._count[slot] -= 1
        self.stats.count_updates += 1

    # ------------------------------------------------------------------ #
    # Queries (recomputed on demand)
    # ------------------------------------------------------------------ #
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
