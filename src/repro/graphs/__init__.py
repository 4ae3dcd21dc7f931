"""Dynamic graph substrate: structure and structural properties."""

from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.properties import (
    GraphStatistics,
    PowerLawBoundedFit,
    check_power_law_bounded,
    degree_buckets,
    degree_distribution_tail,
    estimate_power_law_exponent,
    graph_statistics,
    independence_number_upper_bound,
)

__all__ = [
    "DynamicGraph",
    "GraphStatistics",
    "graph_statistics",
    "degree_buckets",
    "degree_distribution_tail",
    "estimate_power_law_exponent",
    "PowerLawBoundedFit",
    "check_power_law_bounded",
    "independence_number_upper_bound",
]
