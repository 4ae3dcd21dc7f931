"""Theoretical bounds from Section III of the paper.

* Theorem 2 — any 1-maximal independent set ``I`` satisfies
  ``α(G) <= (Δ/2 + 1) |I|``.
* Theorem 3 — for every ``k >= 2`` there are graphs where a k-maximal set is
  only ``2/Δ`` of the optimum (the subdivided complete graph / hypercube
  families of :mod:`repro.generators.worst_case`).
* Theorem 4 — on power-law bounded graphs with ``δ = 1`` and ``β > 2`` the
  ratio improves to the parameter-dependent constant
  ``min{2(t+1)/c2, 2 c1 (t+1)^β / (c2 (β-1)(t+2)^(β-1)) + 1}``.
* Lemma 2 — the expected size of ``¯I_2(v)`` under the erased configuration
  model is at most ``c1 (t+1)^β / (2 c2) * sqrt(ζ(2β-4) * d̄)``, which gives
  DyTwoSwap its near-linear expected time bound.

The functions here compute these bounds so experiments and tests can verify
that maintained solutions respect them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.graphs.dynamic_graph import DynamicGraph, Vertex
from repro.graphs.properties import PowerLawBoundedFit, check_power_law_bounded


def theorem2_ratio_bound(max_degree: int) -> float:
    """Worst-case approximation ratio ``Δ/2 + 1`` of a 1-maximal independent set."""
    return max_degree / 2.0 + 1.0


def theorem2_size_lower_bound(graph: DynamicGraph, independence_number: int) -> float:
    """Lower bound on the size of any 1-maximal independent set of ``graph``."""
    bound = theorem2_ratio_bound(graph.max_degree())
    if bound == 0:
        return 0.0
    return independence_number / bound


def theorem3_worst_case_ratio(max_degree: int) -> float:
    """The ratio ``Δ/2`` achieved by the Theorem 3 witness families.

    On the subdivided families the k-maximal set of original vertices is a
    factor ``Δ/2`` smaller than the optimum, i.e. the Theorem 2 bound is
    asymptotically tight for every ``k``.
    """
    return max_degree / 2.0


def theorem4_constant(
    *,
    c1: float,
    c2: float,
    beta: float,
    shift: float = 0.0,
) -> float:
    """The Theorem 4 approximation constant for a PLB graph with the given parameters."""
    if c2 <= 0:
        return float("inf")
    first = 2.0 * (shift + 1.0) / c2
    if beta <= 1.0:
        return first
    second = (
        2.0 * c1 * (shift + 1.0) ** beta
        / (c2 * (beta - 1.0) * (shift + 2.0) ** (beta - 1.0))
        + 1.0
    )
    return min(first, second)


def theorem4_constant_for_graph(
    graph: DynamicGraph, *, beta: Optional[float] = None, shift: float = 0.0
) -> float:
    """Fit the PLB envelope of ``graph`` and evaluate the Theorem 4 constant on it."""
    fit: PowerLawBoundedFit = check_power_law_bounded(graph, beta=beta, shift=shift)
    if not fit.is_power_law_bounded:
        return float("inf")
    return theorem4_constant(c1=fit.c1, c2=fit.c2, beta=fit.beta, shift=fit.shift)


def _riemann_zeta(s: float, *, terms: int = 100_000) -> float:
    """Partial-sum approximation of the Riemann zeta function ``ζ(s)`` for ``s > 1``.

    For ``s <= 1`` the series diverges and ``inf`` is returned.
    """
    if s <= 1.0:
        return float("inf")
    total = 0.0
    for i in range(1, terms + 1):
        total += i ** (-s)
    # Integral tail estimate improves accuracy for s close to 1.
    total += terms ** (1.0 - s) / (s - 1.0)
    return total


def lemma2_expected_tight2_bound(
    *,
    c1: float,
    c2: float,
    beta: float,
    average_degree: float,
    shift: float = 0.0,
) -> float:
    """Upper bound of Lemma 2 on ``E[|¯I_2(v)|]`` for a solution vertex ``v``.

    ``E[|¯I_2(v)|] <= c1 (t+1)^β / (2 c2) * sqrt(ζ(2β - 4) * d̄)``.
    The bound is finite only for ``β > 2.5`` (so that ``2β - 4 > 1``).
    """
    if c2 <= 0:
        return float("inf")
    zeta = _riemann_zeta(2.0 * beta - 4.0)
    if math.isinf(zeta):
        return float("inf")
    return (
        c1 * (shift + 1.0) ** beta / (2.0 * c2) * math.sqrt(zeta * max(average_degree, 0.0))
    )


def measured_tight2_sizes(
    graph: DynamicGraph, solution: Iterable[Vertex]
) -> dict:
    """Measure ``|¯I_2(v)|`` for every solution vertex (empirical check of Lemma 2)."""
    slot_map = graph.slot_map_view()
    adj = graph.adjacency_slots_view()
    label = graph.labels_view()
    members = {slot_map[v] for v in solution}
    sizes = {}
    for s in members:
        count = 0
        for t in adj[s]:
            if t in members:
                continue
            if len(adj[t] & members) == 2:
                count += 1
        sizes[label[s]] = count
    return sizes


@dataclass(frozen=True)
class RatioReport:
    """Comparison of a maintained solution against the theoretical guarantees."""

    solution_size: int
    reference_size: int
    max_degree: int
    measured_ratio: float
    theorem2_bound: float
    theorem4_bound: float

    @property
    def within_theorem2(self) -> bool:
        """True when the measured ratio respects the Δ/2 + 1 guarantee."""
        return self.measured_ratio <= self.theorem2_bound + 1e-9


def ratio_report(
    graph: DynamicGraph,
    solution_size: int,
    reference_size: int,
    *,
    beta: Optional[float] = None,
    shift: float = 0.0,
) -> RatioReport:
    """Build a :class:`RatioReport` comparing measured quality against the bounds.

    ``reference_size`` should be the independence number when known, or the
    best known solution size otherwise (in which case the measured ratio is a
    lower bound on the true one).
    """
    measured = (reference_size / solution_size) if solution_size else float("inf")
    return RatioReport(
        solution_size=solution_size,
        reference_size=reference_size,
        max_degree=graph.max_degree(),
        measured_ratio=measured,
        theorem2_bound=theorem2_ratio_bound(graph.max_degree()),
        theorem4_bound=theorem4_constant_for_graph(graph, beta=beta, shift=shift),
    )
