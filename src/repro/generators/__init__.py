"""Synthetic graph generators and the Table I dataset registry."""

from repro._exports import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.generators.datasets": (
            "DatasetSpec",
            "TABLE1_DATASETS",
            "LAST_SEVEN_EASY",
            "dataset_names",
            "get_dataset_spec",
            "load_dataset",
        ),
        "repro.generators.power_law": (
            "power_law_degree_sequence",
            "erased_configuration_model",
            "power_law_random_graph",
        ),
        "repro.generators.random_graphs": ("gnm_random_graph",),
        "repro.generators.worst_case": (
            "complete_graph",
            "flicker_update_stream",
            "hypercube_graph",
            "subdivide",
            "subdivided_complete_graph",
            "subdivided_hypercube_graph",
            "theorem3_witnesses",
        ),
    },
)
