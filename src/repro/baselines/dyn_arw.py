"""DyARW — the dynamic variant of ARW used as a competitor in the paper.

The paper adapts the ARW (1,2)-swap local search to the dynamic setting and
observes that, because the solution it maintains is also 1-maximal, its
quality is essentially identical to DyOneSwap while its running time is a
little higher due to the ordered structures required by ARW's double-pointer
scan implementation.

This implementation reuses the update-handling machinery of
:class:`~repro.core.base.DynamicMISBase` (the four update cases are identical
for any 1-maximal maintenance scheme) but searches for swaps the ARW way: for
each affected solution vertex it sorts the tight neighbourhood and performs a
pairwise scan over the ordered list, instead of testing only the newly added
candidates against the clique structure.  The extra ordering work is what
makes it measurably slower than DyOneSwap, reproducing the gap seen in
Fig 5(a) of the paper.

Like the core algorithms, all processing happens in slot space.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.base import DynamicMISBase


class DyARW(DynamicMISBase):
    """Dynamic ARW: 1-maximal maintenance with ordered tight-neighbourhood scans.

    Same guarantee as :class:`~repro.core.one_swap.DyOneSwap` (the maintained
    set is 1-maximal, hence a (Δ/2 + 1)-approximation); the difference is the
    swap-search procedure, which mirrors ARW's sorted two-pointer scan and is
    therefore a constant factor slower.
    """

    def __init__(self, graph, **kwargs) -> None:
        kwargs.pop("k", None)
        kwargs.pop("perturbation", None)
        super().__init__(graph, k=1, **kwargs)

    # ------------------------------------------------------------------ #
    # Swap processing, ARW style
    # ------------------------------------------------------------------ #
    def _process_candidates(self) -> None:
        # Deterministic sweep drain shared with the core maintainers — see
        # base._sweep_level1 (the members are ignored: ARW re-derives the
        # tight neighbourhood from scratch per examination).
        queue = self._candidates[1]
        if not queue:
            return
        in_sol = self._in_sol

        def visit(v: int, _members) -> None:
            if not in_sol[v]:
                return
            swap_in = self._ordered_scan(v)
            if swap_in is not None:
                self._perform_swap(v, swap_in)

        self._sweep_level1(queue, visit)

    def _ordered_scan(self, slot: int) -> Optional[Tuple[int, int]]:
        """Scan the *sorted* tight neighbourhood of ``slot`` for a non-adjacent pair.

        ARW keeps each solution vertex's tight list ordered and sweeps two
        pointers over it; here the ordering is re-established on demand, which
        is the maintenance overhead the paper attributes to DyARW.
        """
        adj = self._adj
        tight: List[int] = sorted(
            self.state.tight1_view(slot),
            key=self.graph.slot_order_key,
        )
        if len(tight) < 2:
            return None
        for i, a in enumerate(tight):
            a_neighbors = adj[a]
            for b in tight[i + 1 :]:
                if b not in a_neighbors:
                    return a, b
        return None

    def _perform_swap(self, slot: int, swap_in: Tuple[int, int]) -> None:
        # Snapshot: the swap's moves dismantle the live bucket.
        tight = set(self.state.tight1_view(slot))
        self._swap((slot,), swap_in, tight)
        self.stats.record_swap(1)
