"""The paper's primary contribution: dynamic k-maximal independent set maintenance."""

from repro.core.base import AlgorithmStatistics, DynamicMISBase
from repro.core.bounds import (
    RatioReport,
    lemma2_expected_tight2_bound,
    measured_tight2_sizes,
    ratio_report,
    riemann_zeta,
    theorem2_ratio_bound,
    theorem2_size_lower_bound,
    theorem3_worst_case_ratio,
    theorem4_constant,
    theorem4_constant_for_graph,
)
from repro.core.framework import KSwapFramework
from repro.core.lazy import LazyMISState
from repro.core.one_swap import DyOneSwap
from repro.core.perturbation import pick_perturbation_partner
from repro.core.state import MISState
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import (
    find_j_swap,
    find_one_swap,
    independence_violations,
    is_independent_set,
    is_k_maximal_independent_set,
    is_maximal_independent_set,
)

__all__ = [
    "DynamicMISBase",
    "AlgorithmStatistics",
    "DyOneSwap",
    "DyTwoSwap",
    "KSwapFramework",
    "MISState",
    "LazyMISState",
    "pick_perturbation_partner",
    "is_independent_set",
    "is_maximal_independent_set",
    "is_k_maximal_independent_set",
    "find_j_swap",
    "find_one_swap",
    "independence_violations",
    "theorem2_ratio_bound",
    "theorem2_size_lower_bound",
    "theorem3_worst_case_ratio",
    "theorem4_constant",
    "theorem4_constant_for_graph",
    "lemma2_expected_tight2_bound",
    "measured_tight2_sizes",
    "riemann_zeta",
    "RatioReport",
    "ratio_report",
]
