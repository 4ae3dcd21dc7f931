"""Failure-atomic validation for the bulk edge mutators.

Every maintenance algorithm works on **slot-indexed flat storage**
(:mod:`repro.core.state`), and the batched update engine mutates it through
the bulk primitives ``add/remove_edges_slots_bulk`` of both states.
:func:`validate_edge_insertions` / :func:`validate_edge_deletions` are their
**failure-atomicity** layer: a bulk mutator validates its whole pair list
(self-loops, duplicates within the batch, already-present / missing edges)
*before* touching any state, and the error raised is the one the historical
sequential loop would have raised first (same type, same offending pair).  A
rejected batch therefore leaves graph and bookkeeping byte-identical to the
pre-call state.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.exceptions import EdgeExistsError, EdgeNotFoundError, SelfLoopError

Pair = Tuple[int, int]


def validate_edge_insertions(graph, adj, pairs: Sequence[Pair]) -> None:
    """Validate a whole insertion pair list before any mutation.

    Raises exactly what the historical per-pair loop raised at the first
    offending pair: :class:`SelfLoopError` for ``su == sv``,
    :class:`EdgeExistsError` for an edge already in ``adj`` *or* repeated
    within the batch (the repeat would have existed by the time the loop
    reached it).  On success the caller may mutate blindly.
    """
    seen = set()
    seen_add = seen.add
    for su, sv in pairs:
        if su == sv:
            raise SelfLoopError(graph.vertex_of(su))
        if sv in adj[su]:
            raise EdgeExistsError(graph.vertex_of(su), graph.vertex_of(sv))
        key = (su, sv) if su < sv else (sv, su)
        if key in seen:
            raise EdgeExistsError(graph.vertex_of(su), graph.vertex_of(sv))
        seen_add(key)


def validate_edge_deletions(graph, adj, pairs: Sequence[Pair]) -> None:
    """Validate a whole deletion pair list before any mutation.

    Raises :class:`EdgeNotFoundError` at the first pair naming an edge that
    is absent from ``adj`` or already deleted earlier in the batch — the
    same error, at the same pair, as the historical sequential loop.
    """
    seen = set()
    seen_add = seen.add
    for su, sv in pairs:
        if sv not in adj[su]:
            raise EdgeNotFoundError(graph.vertex_of(su), graph.vertex_of(sv))
        key = (su, sv) if su < sv else (sv, su)
        if key in seen:
            raise EdgeNotFoundError(graph.vertex_of(su), graph.vertex_of(sv))
        seen_add(key)
