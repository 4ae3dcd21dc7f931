"""Random test graphs from the G(n, p) model.

The library's evaluation never draws G(n, p) graphs, so the generator lives
with the tests that use it as their input.  It relies on Python's ``random``
module only, so a graph is reproducible from a single integer seed.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.graphs.dynamic_graph import DynamicGraph


def erdos_renyi_graph(
    num_vertices: int,
    edge_probability: float,
    *,
    seed: Optional[int] = None,
) -> DynamicGraph:
    """Generate a G(n, p) Erdős–Rényi random graph.

    Uses the skip-sampling technique so the cost is proportional to the number
    of generated edges rather than ``n^2`` for sparse graphs.
    """
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    graph = DynamicGraph(vertices=range(num_vertices))
    if edge_probability == 0.0 or num_vertices < 2:
        return graph
    if edge_probability == 1.0:
        for u in range(num_vertices):
            for v in range(u + 1, num_vertices):
                graph.add_edge(u, v)
        return graph
    # Skip sampling over the implicit enumeration of all vertex pairs.
    import math

    log_q = math.log(1.0 - edge_probability)
    v = 1
    w = -1
    while v < num_vertices:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < num_vertices:
            w -= v
            v += 1
        if v < num_vertices:
            graph.add_edge(v, w)
    return graph
