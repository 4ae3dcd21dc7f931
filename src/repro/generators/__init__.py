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
    plb_graph,
    power_law_degree_sequence,
    power_law_random_graph,
)
from repro.generators.random_graphs import (
    barabasi_albert_graph,
    chung_lu_graph,
    erdos_renyi_graph,
    gnm_random_graph,
    random_bipartite_graph,
    random_regular_graph,
    random_tree,
)
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
    "plb_graph",
    "erdos_renyi_graph",
    "gnm_random_graph",
    "barabasi_albert_graph",
    "chung_lu_graph",
    "random_regular_graph",
    "random_tree",
    "random_bipartite_graph",
    "complete_graph",
    "flicker_update_stream",
    "hypercube_graph",
    "subdivide",
    "subdivided_complete_graph",
    "subdivided_hypercube_graph",
    "theorem3_witnesses",
]
