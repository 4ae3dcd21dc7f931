"""Greedy construction heuristics for (static) maximum independent set.

These are the standard baselines the literature builds on: the minimum-degree
greedy (whose quality on power-law graphs motivates the paper's PLB analysis)
and a randomised greedy used to generate diverse starting solutions for the
local-search baselines.

The public functions speak vertex labels; internally everything runs on the
graph's dense slot views (no label hashing inside the selection loops).  The
``*_slots`` variants are consumed directly by the index-based baselines.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Set

from repro.graphs.dynamic_graph import DynamicGraph, Vertex


def min_degree_greedy_slots(graph: DynamicGraph) -> Set[int]:
    """Minimum-degree greedy maximal independent set, returned as slot ids.

    Operates on a working copy: after a vertex is taken, its closed
    neighbourhood is deleted and degrees are recomputed, which is the
    classical dynamic variant (stronger than the static-degree greedy).
    Slots are stable across :meth:`DynamicGraph.copy`, and the working copy
    only ever deletes vertices (so no slot is recycled during the run): the
    returned slots are valid in ``graph``.
    """
    work = graph.copy()
    adj = work.adjacency_slots_view()
    order = work.orders_view()
    solution: Set[int] = set()
    # A simple bucket-less implementation: repeatedly scan for the minimum
    # degree vertex.  Adequate for the graph sizes used in this repository.
    while len(work) > 0:
        best = min(work.slots(), key=lambda s: (len(adj[s]), order[s]))
        solution.add(best)
        # Snapshot: deleting a neighbour mutates best's adjacency set.
        for t in list(adj[best]):
            work.pop_vertex_slot(t)
        work.pop_vertex_slot(best)
    return solution


def min_degree_greedy(graph: DynamicGraph) -> Set[Vertex]:
    """Greedy maximal independent set, repeatedly taking a minimum-degree vertex."""
    label = graph.labels_view()
    return {label[s] for s in min_degree_greedy_slots(graph)}


def randomized_greedy(graph: DynamicGraph, *, seed: Optional[int] = None) -> Set[Vertex]:
    """Greedy maximal independent set over a uniformly random vertex order."""
    rng = random.Random(seed)
    # Shuffle labels (not slots) so the sampled orders are identical to the
    # pre-slot implementation for a given seed.
    order = list(graph.vertices())
    rng.shuffle(order)
    slot_map = graph.slot_map_view()
    adj = graph.adjacency_slots_view()
    label = graph.labels_view()
    solution: Set[int] = set()
    blocked: Set[int] = set()
    for v in order:
        s = slot_map[v]
        if s in blocked:
            continue
        solution.add(s)
        blocked.add(s)
        blocked.update(adj[s])
    return {label[s] for s in solution}


def extend_to_maximal_slots(graph: DynamicGraph, partial: Iterable[int]) -> Set[int]:
    """Extend an independent slot set to a maximal one (smallest-degree-first greedy)."""
    adj = graph.adjacency_slots_view()
    solution: Set[int] = set(partial)
    blocked: Set[int] = set(solution)
    for s in solution:
        blocked.update(adj[s])
    for s in sorted(graph.slots(), key=graph.slot_order_key):
        if s in blocked:
            continue
        solution.add(s)
        blocked.add(s)
        blocked.update(adj[s])
    return solution
