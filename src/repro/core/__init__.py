"""The paper's primary contribution: dynamic k-maximal independent set maintenance."""

from repro._exports import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.base": ("DynamicMISBase", "AlgorithmStatistics"),
        "repro.core.one_swap": ("DyOneSwap",),
        "repro.core.two_swap": ("DyTwoSwap",),
        "repro.core.framework": ("KSwapFramework",),
        "repro.core.state": ("MISState",),
        "repro.core.lazy": ("LazyMISState",),
        "repro.core.perturbation": ("pick_perturbation_partner",),
        "repro.core.verification": (
            "is_independent_set",
            "is_maximal_independent_set",
            "is_k_maximal_independent_set",
            "find_j_swap",
            "find_one_swap",
        ),
        "repro.core.bounds": (
            "theorem2_ratio_bound",
            "theorem2_size_lower_bound",
            "theorem3_worst_case_ratio",
            "theorem4_constant",
            "theorem4_constant_for_graph",
            "lemma2_expected_tight2_bound",
            "measured_tight2_sizes",
            "RatioReport",
            "ratio_report",
        ),
    },
)
