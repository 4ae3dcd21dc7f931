"""Uniform random graphs with a fixed number of edges (the G(n, m) model).

The fork/what-if benchmark builds its graph here.  Only Python's ``random``
module is used, so a graph is reproducible from a single integer seed.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.graphs.dynamic_graph import DynamicGraph


def gnm_random_graph(
    num_vertices: int,
    num_edges: int,
    *,
    seed: Optional[int] = None,
) -> DynamicGraph:
    """Generate a uniform random graph with exactly ``num_edges`` edges."""
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"cannot place {num_edges} edges in a {num_vertices}-vertex graph")
    rng = random.Random(seed)
    graph = DynamicGraph(vertices=range(num_vertices))
    placed = 0
    while placed < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v and graph.add_edge_if_missing(u, v):
            placed += 1
    return graph
