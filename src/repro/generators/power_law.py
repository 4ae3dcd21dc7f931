"""Power-law graph generators.

The paper analyses its algorithms on *power-law bounded* (PLB) graphs
(Definition 2) and evaluates them on nine Power-Law Random (PLR) graphs
generated with NetworkX by varying the exponent β from 1.9 to 2.7 (Fig 10).
This module provides:

* :func:`power_law_degree_sequence` — a degree sequence following a shifted
  power law ``P(d) ∝ (d + t)^(-β)``, the PLB reference distribution,
* :func:`erased_configuration_model` — the random-matching model the paper
  uses in the Lemma 2 analysis (stubs matched uniformly, loops and multi
  edges erased),
* :func:`power_law_random_graph` — the Fig 10 workload: a PLR graph with a
  chosen exponent, built as an erased configuration model over a power-law
  degree sequence.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.graphs.dynamic_graph import DynamicGraph


def power_law_degree_sequence(
    num_vertices: int,
    beta: float,
    *,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    shift: float = 0.0,
    seed: Optional[int] = None,
) -> List[int]:
    """Sample a degree sequence from a (shifted, truncated) power law.

    Parameters
    ----------
    num_vertices:
        Length of the sequence.
    beta:
        Power-law exponent; larger values concentrate mass on small degrees.
    min_degree, max_degree:
        Degree support ``[min_degree, max_degree]``.  ``max_degree`` defaults
        to ``ceil(sqrt(num_vertices))``, a common cutoff that keeps the erased
        configuration model close to simple.
    shift:
        The ``t`` parameter of the shifted power law ``(d + t)^(-β)``.
    seed:
        Seed for reproducibility.

    Returns
    -------
    list of int
        A degree sequence whose sum is even (the last entry is bumped by one
        when necessary so stub matching is possible).
    """
    if num_vertices <= 0:
        return []
    if min_degree < 1:
        raise ValueError("min_degree must be at least 1")
    if max_degree is None:
        max_degree = max(min_degree, int(math.ceil(math.sqrt(num_vertices))))
    if max_degree < min_degree:
        raise ValueError("max_degree must be at least min_degree")
    rng = random.Random(seed)
    support = list(range(min_degree, max_degree + 1))
    weights = [(d + shift) ** (-beta) for d in support]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    degrees: List[int] = []
    for _ in range(num_vertices):
        r = rng.random()
        # Binary search over the cumulative distribution.
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < r:
                lo = mid + 1
            else:
                hi = mid
        degrees.append(support[lo])
    if sum(degrees) % 2 == 1:
        degrees[-1] += 1
    return degrees


def erased_configuration_model(
    degree_sequence: List[int],
    *,
    seed: Optional[int] = None,
) -> DynamicGraph:
    """Build a simple graph from ``degree_sequence`` via the erased configuration model.

    Each vertex ``v`` receives ``degree_sequence[v]`` stubs; stubs are matched
    uniformly at random and self loops / parallel edges are discarded, exactly
    the model used in the paper's Lemma 2 analysis.  Actual degrees may
    therefore fall slightly below the requested ones.
    """
    rng = random.Random(seed)
    n = len(degree_sequence)
    graph = DynamicGraph(vertices=range(n))
    stubs: List[int] = []
    for v, d in enumerate(degree_sequence):
        if d < 0:
            raise ValueError("degrees must be non-negative")
        stubs.extend([v] * d)
    rng.shuffle(stubs)
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v:
            graph.add_edge_if_missing(u, v)
    return graph


def power_law_random_graph(
    num_vertices: int,
    beta: float,
    *,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    shift: float = 0.0,
    seed: Optional[int] = None,
) -> DynamicGraph:
    """Generate a Power-Law Random (PLR) graph with exponent ``beta``.

    This is the Fig 10 workload of the paper (scaled down): a power-law degree
    sequence materialised through the erased configuration model.  Smaller
    ``beta`` gives denser graphs, matching the paper's observation that the
    index-based competitors degrade as ``beta`` shrinks.
    """
    degrees = power_law_degree_sequence(
        num_vertices,
        beta,
        min_degree=min_degree,
        max_degree=max_degree,
        shift=shift,
        seed=seed,
    )
    return erased_configuration_model(degrees, seed=None if seed is None else seed + 1)
