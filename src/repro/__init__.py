"""repro — Dynamic Approximate Maximum Independent Set on Massive Graphs.

A from-scratch Python reproduction of the ICDE 2022 paper by Gao, Li and Miao
(arXiv:2009.11435).  The package provides:

* :mod:`repro.graphs` — the dynamic graph substrate,
* :mod:`repro.generators` — synthetic graph generators and the Table I
  dataset registry,
* :mod:`repro.updates` — update operations and update-stream workloads,
* :mod:`repro.core` — the k-maximal maintenance framework, DyOneSwap,
  DyTwoSwap and the theoretical bounds,
* :mod:`repro.baselines` — the exact solver, greedy heuristics,
  ARW local search, DyARW, and the DGOneDIS/DGTwoDIS competitors,
* :mod:`repro.workloads` — temporal-graph ingestion (timestamped edge lists
  → update streams), engine snapshot/restore and resumable replay,
* :mod:`repro.experiments` — the runner, metrics and the table/figure
  reproduction harness.

Quickstart
----------
>>> from repro import DynamicGraph, DyOneSwap, UpdateOperation
>>> graph = DynamicGraph(edges=[(0, 1), (1, 2), (2, 3)])
>>> algo = DyOneSwap(graph)
>>> sorted(algo.solution())
[0, 2]
>>> algo.apply_update(UpdateOperation.delete_edge(2, 3))
>>> sorted(algo.solution())
[0, 2, 3]
"""

from repro.core import (
    DyOneSwap,
    DyTwoSwap,
    KSwapFramework,
    is_independent_set,
    is_k_maximal_independent_set,
    is_maximal_independent_set,
    theorem2_ratio_bound,
    theorem4_constant_for_graph,
)
from repro.graphs import DynamicGraph
from repro.updates import (
    UpdateOperation,
    UpdateStream,
    mixed_update_stream,
)
from repro.workloads import (
    TemporalEdge,
    cached_temporal_stream,
    load_snapshot,
    read_temporal_edge_list,
    save_snapshot,
    temporal_update_stream,
)

__version__ = "1.0.0"

__all__ = [
    "DynamicGraph",
    "DyOneSwap",
    "DyTwoSwap",
    "KSwapFramework",
    "UpdateOperation",
    "UpdateStream",
    "mixed_update_stream",
    "TemporalEdge",
    "read_temporal_edge_list",
    "temporal_update_stream",
    "cached_temporal_stream",
    "save_snapshot",
    "load_snapshot",
    "is_independent_set",
    "is_maximal_independent_set",
    "is_k_maximal_independent_set",
    "theorem2_ratio_bound",
    "theorem4_constant_for_graph",
    "__version__",
]
