"""Reference checkers for independence, maximality and k-maximality.

These brute-force checkers are deliberately simple and independent of the
maintenance algorithms' bookkeeping; the test-suite uses them as ground truth
(including inside Hypothesis property tests), and the experiment harness uses
them to validate solutions before reporting quality numbers.

The public functions accept and return vertex labels; the scans underneath
run on the graph's slot views so they stay cheap even when called inside
property tests with thousands of examples.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Optional, Set, Tuple

from repro.graphs.dynamic_graph import DynamicGraph, Vertex


def _independent_slots(
    graph: DynamicGraph, vertices: Iterable[Vertex]
) -> Optional[Set[int]]:
    """The slots of ``vertices``, or ``None`` unless they form an independent set."""
    slot_map = graph.slot_map_view()
    members: Set[int] = set()
    for v in vertices:
        s = slot_map.get(v)
        if s is None:
            return None
        members.add(s)
    adj = graph.adjacency_slots_view()
    for s in members:
        if adj[s] & members:
            return None
    return members


def is_independent_set(graph: DynamicGraph, vertices: Iterable[Vertex]) -> bool:
    """Return ``True`` when ``vertices`` form an independent set of ``graph``."""
    return _independent_slots(graph, vertices) is not None


def is_maximal_independent_set(graph: DynamicGraph, vertices: Iterable[Vertex]) -> bool:
    """Return ``True`` when ``vertices`` form a *maximal* independent set."""
    members = _independent_slots(graph, vertices)
    if members is None:
        return False
    adj = graph.adjacency_slots_view()
    for s in graph.slots():
        if s in members:
            continue
        if not (adj[s] & members):
            return False
    return True


def find_j_swap(
    graph: DynamicGraph, solution: Set[Vertex], j: int
) -> Optional[Tuple[Tuple[Vertex, ...], Tuple[Vertex, ...]]]:
    """Search exhaustively for a j-swap in ``solution``.

    A j-swap removes ``j`` solution vertices and inserts at least ``j + 1``
    non-solution vertices while keeping the set independent.  Returns a pair
    ``(swap_out, swap_in)`` or ``None``.  Exponential in ``j`` — intended for
    the small graphs used in tests.
    """
    if j < 1:
        raise ValueError("j must be at least 1")
    adj = graph.adjacency_slots_view()
    label = graph.labels_view()
    order = graph.orders_view()
    # Strict oracle: a stale solution label is an error, not something to
    # silently prune (slot_of raises VertexNotFoundError).
    members = {graph.slot_of(v) for v in solution}
    outside = [s for s in graph.slots() if s not in members]
    for swap_out in combinations(sorted(members, key=order.__getitem__), j):
        removed = set(swap_out)
        remaining = members - removed
        # Vertices that become available: not adjacent to the remaining solution.
        available = [s for s in outside if not (adj[s] & remaining)]
        swap_in = _greedy_then_exact_independent_subset(graph, available, j + 1)
        if swap_in is not None:
            return (
                tuple(label[s] for s in swap_out),
                tuple(label[s] for s in swap_in),
            )
    return None


def is_k_maximal_independent_set(
    graph: DynamicGraph, vertices: Iterable[Vertex], k: int
) -> bool:
    """Return ``True`` when ``vertices`` is a k-maximal independent set.

    k-maximal means maximal and admitting no j-swap for any ``j <= k``.
    """
    members = set(vertices)
    if not is_maximal_independent_set(graph, members):
        return False
    for j in range(1, k + 1):
        if find_j_swap(graph, members, j) is not None:
            return False
    return True


def find_one_swap(
    graph: DynamicGraph, solution: Set[Vertex]
) -> Optional[Tuple[Vertex, Tuple[Vertex, Vertex]]]:
    """Direct search for a 1-swap: a solution vertex with two non-adjacent tight neighbours."""
    adj = graph.adjacency_slots_view()
    label = graph.labels_view()
    # Strict oracle: stale solution labels raise (see find_j_swap).
    members = {graph.slot_of(v) for v in solution}
    for s in members:
        tight = [
            t
            for t in adj[s]
            if t not in members and len(adj[t] & members) == 1
        ]
        for a, b in combinations(tight, 2):
            if b not in adj[a]:
                return label[s], (label[a], label[b])
    return None


def _greedy_then_exact_independent_subset(
    graph: DynamicGraph, candidates: List[int], size: int
) -> Optional[List[int]]:
    """Find an independent subset of ``candidates`` (slots) of the requested size.

    Tries a cheap greedy pass first, then falls back to exhaustive search on
    the (small) candidate pool.
    """
    if len(candidates) < size:
        return None
    adj = graph.adjacency_slots_view()
    # Greedy attempt.
    chosen: List[int] = []
    chosen_set: Set[int] = set()
    for s in sorted(candidates, key=graph.slot_order_key):
        if adj[s] & chosen_set:
            continue
        chosen.append(s)
        chosen_set.add(s)
        if len(chosen) == size:
            return chosen
    # Exhaustive fallback over the whole pool (candidate pools in tests
    # are small).
    for combo in combinations(candidates, size):
        combo_set = set(combo)
        if all(not (adj[s] & combo_set) for s in combo):
            return list(combo)
    return None
