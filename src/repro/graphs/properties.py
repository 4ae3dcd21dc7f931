"""Structural graph properties used by the theory and the experiments.

The paper's sharper bounds (Theorem 4, Lemma 2) hold on *power-law bounded*
(PLB) graphs: graphs whose bucketed degree distribution is sandwiched between
two shifted power-law sequences.  This module provides:

* degree-bucket computation matching Definition 2 of the paper,
* a least-squares estimator for the power-law exponent β,
* a :func:`check_power_law_bounded` verdict that fits the PLB envelope
  constants ``c1``/``c2`` for given ``β`` and ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.graphs.dynamic_graph import DynamicGraph


def degree_buckets(graph: DynamicGraph) -> Dict[int, int]:
    """Bucket vertices by ``⌊log2(degree)⌋`` as in Definition 2 of the paper.

    Vertices of degree zero are ignored because the PLB definition ranges over
    degrees between the minimum and maximum *positive* degree.

    Returns
    -------
    dict
        Mapping ``bucket index d -> number of vertices with degree in
        [2**d, 2**(d+1))``.
    """
    buckets: Dict[int, int] = {}
    for degree in graph.degree_sequence():
        if degree <= 0:
            continue
        index = degree.bit_length() - 1  # == floor(log2(degree))
        buckets[index] = buckets.get(index, 0) + 1
    return buckets


def shifted_zipf_bucket_mass(bucket: int, beta: float, shift: float) -> float:
    """Return ``sum_{i=2^bucket}^{2^(bucket+1)-1} (i + t)^(-beta)``.

    This is the reference mass of one degree bucket in the PLB definition,
    up to the ``c * n * (t+1)^(beta-1)`` scaling.
    """
    low = 2 ** bucket
    high = 2 ** (bucket + 1)
    return sum((i + shift) ** (-beta) for i in range(low, high))


def estimate_power_law_exponent(graph: DynamicGraph, *, min_degree: int = 1) -> float:
    """Estimate the power-law exponent β of the degree distribution.

    Uses the standard continuous maximum-likelihood estimator of Clauset,
    Shalizi and Newman restricted to degrees ``>= min_degree``:

    ``β = 1 + n / sum(ln(d_i / (min_degree - 0.5)))``

    Returns ``float('nan')`` when the graph has no vertex of positive degree.
    """
    degrees = [d for d in graph.degree_sequence() if d >= max(1, min_degree)]
    if not degrees:
        return float("nan")
    x_min = max(1, min_degree)
    log_sum = sum(math.log(d / (x_min - 0.5)) for d in degrees)
    if log_sum <= 0:
        return float("inf")
    return 1.0 + len(degrees) / log_sum


@dataclass(frozen=True)
class PowerLawBoundedFit:
    """Result of fitting the PLB envelope (Definition 2) to a graph.

    ``c1`` is the smallest upper-envelope constant and ``c2`` the largest
    lower-envelope constant such that every degree bucket satisfies the PLB
    inequalities for the supplied ``beta`` and ``t``.  The graph is
    PLB-certifiable whenever ``c1 >= c2 > 0``.
    """

    beta: float
    shift: float
    c1: float
    c2: float
    buckets: Dict[int, int]

    @property
    def is_power_law_bounded(self) -> bool:
        """Return ``True`` when a valid (c1, c2) envelope exists."""
        return self.c2 > 0 and self.c1 >= self.c2


def check_power_law_bounded(
    graph: DynamicGraph,
    *,
    beta: float | None = None,
    shift: float = 0.0,
) -> PowerLawBoundedFit:
    """Fit the tightest PLB envelope constants for ``graph``.

    Parameters
    ----------
    beta:
        Power-law exponent to fit against.  When omitted it is estimated from
        the degree sequence via :func:`estimate_power_law_exponent`.
    shift:
        The shift parameter ``t`` of the PLB model.

    Notes
    -----
    The fit inspects every non-empty bucket ``[2^d, 2^(d+1))`` between the
    minimum and maximum positive degree.  For bucket count ``b_d`` and
    reference mass ``z_d`` the PLB inequalities require

    ``c2 * n * (t+1)^(β-1) * z_d <= b_d <= c1 * n * (t+1)^(β-1) * z_d``

    so the tightest constants are ``c1 = max_d b_d / (n (t+1)^(β-1) z_d)`` and
    ``c2 = min_d b_d / (n (t+1)^(β-1) z_d)`` over buckets in range, where
    empty in-range buckets force ``c2 = 0``.
    """
    if beta is None:
        beta = estimate_power_law_exponent(graph)
    buckets = degree_buckets(graph)
    n = graph.num_vertices
    if n == 0 or not buckets or math.isnan(beta):
        return PowerLawBoundedFit(beta=beta if beta is not None else float("nan"),
                                  shift=shift, c1=0.0, c2=0.0, buckets=buckets)
    scale = n * (shift + 1.0) ** (beta - 1.0)
    lowest = min(buckets)
    highest = max(buckets)
    ratios: List[float] = []
    for bucket in range(lowest, highest + 1):
        mass = shifted_zipf_bucket_mass(bucket, beta, shift)
        count = buckets.get(bucket, 0)
        if mass <= 0:
            continue
        ratios.append(count / (scale * mass))
    if not ratios:
        return PowerLawBoundedFit(beta=beta, shift=shift, c1=0.0, c2=0.0, buckets=buckets)
    return PowerLawBoundedFit(
        beta=beta,
        shift=shift,
        c1=max(ratios),
        c2=min(ratios),
        buckets=buckets,
    )
