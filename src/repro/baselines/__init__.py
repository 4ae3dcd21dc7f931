"""Baseline algorithms: exact solver, greedy heuristics, ARW, DyARW, DGOneDIS/DGTwoDIS."""

from repro.baselines.arw import ArwLocalSearch, ArwResult, arw_best_result
from repro.baselines.dgdis import DGOneDIS, DGTwoDIS, DgdisStatistics
from repro.baselines.dyn_arw import DyARW
from repro.baselines.exact import (
    BranchAndReduceSolver,
    SolverReport,
    brute_force_maximum_independent_set,
    clique_cover_bound,
    exact_independence_number,
    independence_numbers,
)
from repro.baselines.greedy import (
    extend_to_maximal,
    min_degree_greedy,
    randomized_greedy,
    static_degree_greedy,
)

__all__ = [
    "BranchAndReduceSolver",
    "SolverReport",
    "exact_independence_number",
    "independence_numbers",
    "brute_force_maximum_independent_set",
    "clique_cover_bound",
    "ArwLocalSearch",
    "ArwResult",
    "arw_best_result",
    "DyARW",
    "DGOneDIS",
    "DGTwoDIS",
    "DgdisStatistics",
    "min_degree_greedy",
    "static_degree_greedy",
    "randomized_greedy",
    "extend_to_maximal",
]
