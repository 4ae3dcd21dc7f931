"""Dynamic graph substrate: structure and structural properties."""

from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.properties import (
    PowerLawBoundedFit,
    check_power_law_bounded,
    degree_buckets,
    estimate_power_law_exponent,
)

__all__ = [
    "DynamicGraph",
    "degree_buckets",
    "estimate_power_law_exponent",
    "PowerLawBoundedFit",
    "check_power_law_bounded",
]
