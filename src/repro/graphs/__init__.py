"""Dynamic graph substrate: structure and structural properties."""

from repro._exports import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.graphs.dynamic_graph": ("DynamicGraph",),
        "repro.graphs.properties": (
            "degree_buckets",
            "estimate_power_law_exponent",
            "PowerLawBoundedFit",
            "check_power_law_bounded",
        ),
    },
)
