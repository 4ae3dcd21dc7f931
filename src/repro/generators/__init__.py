"""Synthetic graph generators and the Table I dataset registry."""

from repro.generators.datasets import (
    DatasetSpec,
    LAST_SEVEN_EASY,
    TABLE1_DATASETS,
    dataset_names,
    get_dataset_spec,
    load_dataset,
)
from repro.generators.power_law import (
    erased_configuration_model,
    power_law_degree_sequence,
    power_law_random_graph,
)
from repro.generators.random_graphs import gnm_random_graph
from repro.generators.worst_case import (
    complete_graph,
    flicker_update_stream,
    hypercube_graph,
    subdivide,
    subdivided_complete_graph,
    subdivided_hypercube_graph,
    theorem3_witnesses,
)

__all__ = [
    "DatasetSpec",
    "TABLE1_DATASETS",
    "LAST_SEVEN_EASY",
    "dataset_names",
    "get_dataset_spec",
    "load_dataset",
    "power_law_degree_sequence",
    "erased_configuration_model",
    "power_law_random_graph",
    "gnm_random_graph",
    "complete_graph",
    "flicker_update_stream",
    "hypercube_graph",
    "subdivide",
    "subdivided_complete_graph",
    "subdivided_hypercube_graph",
    "theorem3_witnesses",
]
