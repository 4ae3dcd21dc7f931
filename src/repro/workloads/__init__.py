"""Temporal workloads, engine snapshots and resumable replay.

The subsystem that turns the maintenance engine into a workload runner:

* :mod:`repro.workloads.temporal` — SNAP-style timestamped edge lists →
  validated update streams (windowing/decay policies, on-disk stream cache,
  synthetic temporal generators),
* :mod:`repro.workloads.snapshot` — bit-for-bit serialisation of the
  slot-indexed graph plus the solution state and statistics,
* :mod:`repro.workloads.replay` — checkpoint files wrapping snapshots with
  stream provenance, consumed by the experiment runner's checkpoint/resume
  wiring,
* :mod:`repro.workloads.oplog` — a service tenant's operation log: one
  self-checking record per applied batch, appended at each durable point
  and replayed after the newest checkpoint.
"""

from repro.workloads.replay import (
    Checkpoint,
    CheckpointConfig,
    checkpoint_path,
    find_checkpoints,
    latest_checkpoint,
    latest_valid_checkpoint,
    load_checkpoint,
    quarantine_checkpoint,
    save_checkpoint,
)
from repro.workloads.snapshot import (
    ALGORITHM_FORMAT,
    GRAPH_FORMAT,
    algorithm_from_payload,
    algorithm_to_payload,
    graph_from_payload,
    graph_to_payload,
    load_snapshot,
    save_snapshot,
)
from repro.workloads.temporal import (
    CachedOperationStream,
    TemporalEdge,
    TemporalEventSource,
    TemporalUpdateStream,
    cached_temporal_stream,
    iter_synthetic_temporal_events,
    iter_temporal_edge_list,
    read_temporal_edge_list,
    synthetic_temporal_events,
    temporal_update_stream,
    write_temporal_edge_list,
)

__all__ = [
    "TemporalEdge",
    "TemporalEventSource",
    "TemporalUpdateStream",
    "CachedOperationStream",
    "iter_temporal_edge_list",
    "read_temporal_edge_list",
    "write_temporal_edge_list",
    "temporal_update_stream",
    "cached_temporal_stream",
    "synthetic_temporal_events",
    "iter_synthetic_temporal_events",
    "GRAPH_FORMAT",
    "ALGORITHM_FORMAT",
    "graph_to_payload",
    "graph_from_payload",
    "algorithm_to_payload",
    "algorithm_from_payload",
    "save_snapshot",
    "load_snapshot",
    "Checkpoint",
    "CheckpointConfig",
    "checkpoint_path",
    "save_checkpoint",
    "load_checkpoint",
    "find_checkpoints",
    "latest_checkpoint",
    "latest_valid_checkpoint",
    "quarantine_checkpoint",
]
