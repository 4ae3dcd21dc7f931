"""DyOneSwap — Algorithm 2 of the paper.

Maintains a *1-maximal* independent set over a dynamic graph: after every
update there is no vertex ``v ∈ I`` that could be exchanged for two or more
of its neighbours.  By Theorem 2 this guarantees an approximation ratio of
``Δ/2 + 1`` on general graphs, and by Theorem 4 a parameter-dependent
constant on power-law bounded graphs.  Each update is processed in time
proportional to the neighbourhoods it touches, giving the linear total bound
``O(m_t)`` of the paper.

A solution vertex ``v`` contributes a 1-swap exactly when the subgraph
induced by its tight neighbours ``¯I_1(v)`` is not a clique: two non-adjacent
tight neighbours can replace ``v``.  The algorithm therefore re-examines
``¯I_1(v)`` only for vertices ``v`` that gained new tight neighbours
(the candidates ``C(v)``), checking the clique property by counting each
candidate's neighbours inside ``¯I_1(v)``.

All internal processing happens in slot space (dense integer vertex ids);
see :mod:`repro.core.base`.
"""

from __future__ import annotations

from typing import Set

from repro.core.base import DynamicMISBase


class DyOneSwap(DynamicMISBase):
    """Dynamic (Δ/2 + 1)-approximation maintaining a 1-maximal independent set.

    See :class:`repro.core.base.DynamicMISBase` for the constructor
    parameters.  ``k`` is fixed to one.

    Examples
    --------
    >>> from repro.graphs import DynamicGraph
    >>> from repro.updates import UpdateOperation
    >>> g = DynamicGraph(edges=[(1, 2), (2, 3), (3, 4)])
    >>> algo = DyOneSwap(g)
    >>> sorted(algo.solution())
    [1, 4]
    >>> algo.apply_update(UpdateOperation.insert_edge(1, 3))
    >>> len(algo.solution()) >= 2
    True
    """

    def __init__(self, graph, **kwargs) -> None:
        kwargs.pop("k", None)
        super().__init__(graph, k=1, **kwargs)

    # ------------------------------------------------------------------ #
    # Swap processing
    # ------------------------------------------------------------------ #
    def _process_candidates(self) -> None:
        # Deterministic sweep drain — see base._sweep_level1 for the
        # contract (trajectory must be a function of queue contents only).
        queue = self._candidates[1]
        if queue:
            self._sweep_level1(queue, self._examine_candidate)

    def _examine_candidate(self, v: int, members: Set[int]) -> None:
        """Check whether the solution slot ``v`` still forms a clique barrier."""
        state = self.state
        if not self._in_sol[v]:
            return
        # Live view: scanning below is read-only; a snapshot is taken only
        # when a swap actually mutates the solution.
        tight = state.tight1_view(v)
        if len(tight) < 2:
            # A single tight neighbour can never yield a 1-swap; it may still
            # be a useful perturbation partner.
            if self.perturbation and tight:
                self._maybe_perturb(v, set(tight))
            return
        # A candidate u is still usable exactly when it is tight on {v}, i.e.
        # u ∈ ¯I_1(v): stale members (deleted, absorbed, or re-counted
        # vertices) simply fail the membership test.  Canonical interned
        # examination order (see base._sorted_members), not the tight view,
        # not raw set order.
        for u in self._sorted_members(members):
            if u in tight and self._has_nonneighbor_within(u, tight):
                self._perform_one_swap(v, u, set(tight))
                return
        if self.perturbation:
            self._maybe_perturb(v, set(tight))
