"""Baseline algorithms: exact solver, greedy heuristics, ARW, DyARW, DGOneDIS/DGTwoDIS."""

from repro._exports import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.baselines.exact": (
            "BranchAndReduceSolver",
            "SolverReport",
            "exact_independence_number",
            "brute_force_maximum_independent_set",
            "clique_cover_bound",
        ),
        "repro.baselines.arw": ("ArwLocalSearch", "ArwResult", "arw_best_result"),
        "repro.baselines.dyn_arw": ("DyARW",),
        "repro.baselines.dgdis": ("DGOneDIS", "DGTwoDIS", "DgdisStatistics"),
        "repro.baselines.greedy": ("min_degree_greedy", "randomized_greedy"),
    },
)
