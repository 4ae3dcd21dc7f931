"""What ``BENCHMARK.json`` cannot hold: the default seed, what each
end-to-end metric means per workload, and for every per-layer metric the
layer (module) it measures and the end-to-end metric and workload it should
move.  Metric names, units, directions and bounds live in ``BENCHMARK.json``
alone; ``test_perfbench.py`` checks that every per-layer name there has a
row here and the other way round.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

#: What each end-to-end metric means on each workload.  Times are in
#: reference seconds (README.md, "Host noise").
END_TO_END_MEANING: Dict[str, str] = {
    "setup_s": "replay-churn: stream-cache build; update-mixed: engine "
    "construction; service-ingest: gateway spawn until ready incl. the "
    "snapshot warm start (median of several set-ups per run)",
    "updates_per_s": "replay-churn: stream ops / wall of run_algorithm; "
    "update-mixed: stream ops / wall of the apply_stream calls; "
    "service-ingest: ops applied per second in the closed-loop phase",
    "peak_rss_mb": "update-mixed: the benchmark process's resident high-water "
    "mark during the timed calls minus its resident size just before them "
    "(interpreter, imports and inputs excluded: the engines' own memory); "
    "replay-churn: that high-water mark itself (the replay's own working set "
    "is too small to measure as growth); service-ingest: the gateway's VmHWM",
}

RC, UM, SI = "replay-churn", "update-mixed", "service-ingest"

#: Per-layer metric -> (layer, what it should move).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "temporal.cache_build_s": ("workloads.temporal", f"setup_s on {RC}; absent elsewhere"),
    "temporal.decode_s": ("workloads.temporal", f"updates_per_s on {RC}; absent elsewhere"),
    "temporal.cache_bytes": (
        "workloads.temporal", f"setup_s and updates_per_s on {RC}; absent elsewhere"),
    "protocol.take_s": ("updates.protocol", f"updates_per_s on {RC} only"),
    "coalesce.s": (
        "updates.coalesce",
        f"updates_per_s on {RC} (high cancellation); updates_per_s and "
        f"client.ingest_tail_ms on {SI} (low cancellation, overhead); none on {UM}"),
    "coalesce.in_ops": ("updates.coalesce", "same as coalesce.s"),
    "coalesce.net_ops": ("updates.coalesce", "same as coalesce.s"),
    "coalesce.cancel_ratio": ("updates.coalesce", "same as coalesce.s"),
    "core.apply_s": (
        "core",
        f"updates_per_s on {UM} (nearly all its time) and {RC}; updates_per_s on {SI}"),
    "core.self_s": ("core", "same as core.apply_s"),
    "core.call_p50_ms": ("core", "same as core.apply_s"),
    "core.call_tail_ms": ("core", f"client.ingest_tail_ms on {SI}"),
    "core.updates": ("core", "exact; drift is an algorithm change"),
    "core.batches": ("core", "exact"),
    "core.coalesced": ("core", f"updates_per_s on {RC}; exact"),
    "core.candidates": ("core", "updates_per_s; exact"),
    "core.swaps_1": ("core", "solution size; exact"),
    "core.swaps_2": ("core", f"solution size on {UM}; exact"),
    "core.swap_yield": ("core", "updates_per_s (wasted candidates)"),
    "core.solution_size": ("core", "the paper's quality axis; exact per seed"),
    "state.move_in": ("core", "updates_per_s; exact"),
    "state.move_out": ("core", "updates_per_s; exact"),
    "state.count_updates": ("core", f"updates_per_s on {UM} (count maintenance); exact"),
    "core.footprint": ("core", f"peak_rss_mb on {UM} and {SI}; exact"),
    "graph.vertices": ("graphs.dynamic_graph", "input size; exact"),
    "graph.edges": ("graphs.dynamic_graph", "input size; exact"),
    "runner.update_s": ("experiments.runner", f"updates_per_s on {RC}"),
    "runner.outside_s": (
        "experiments.runner", f"updates_per_s on {RC} (decode, fingerprint, checkpoint I/O)"),
    "replay.checkpoints": ("workloads.replay", "exact; written by run_algorithm"),
    "replay.checkpoint_s": (
        "workloads.replay",
        f"client.ingest_tail_ms and client.query_tail_ms on {SI} (each write "
        f"blocks the tenant loop); small on {RC}"),
    "replay.checkpoint_tail_ms": ("workloads.replay", f"client.ingest_tail_ms on {SI}"),
    "replay.checkpoint_bytes": ("workloads.replay", f"client.ingest_tail_ms on {SI}"),
    "snapshot.payload_s": ("workloads.snapshot", f"client.ingest_tail_ms on {SI}"),
    "snapshot.load_s": ("workloads.snapshot", f"setup_s on {SI} (warm start)"),
    "tenant.batches": ("service.tenant", "exact"),
    "tenant.checkpoints": ("service.tenant", "exact"),
    "tenant.sheds": ("service.tenant", f"client.failed_frac on {SI}"),
    "tenant.peak_queue": ("service.tenant", f"client.ingest_tail_ms on {SI}"),
    "tenant.peak_window": ("service.tenant", "fixed windows: 64"),
    "tenant.crashes": ("service.tenant", "must be 0"),
    "server.cpu_s": ("service.gateway", f"updates_per_s on {SI}"),
    "server.busy_frac": (
        "service.gateway",
        f"near 1, client.ingest_tail_ms rises before updates_per_s stops rising on {SI}"),
    "client.requests": ("service (client)", "sample size"),
    "client.late_tail_ms": ("service (client)", "validity check of the open loop; none"),
    "client.ingest_p50_ms": (
        "service (client)", f"moved by core.apply_s and replay.checkpoint_s on {SI}"),
    "client.ingest_tail_ms": (
        "service (client)",
        f"moved by replay.checkpoint_tail_ms on {SI} (the checkpoint stall)"),
    "client.query_p50_ms": (
        "service (client)", f"moved by replay.checkpoint_s and core.apply_s on {SI}"),
    "client.query_tail_ms": ("service (client)", f"moved by replay.checkpoint_tail_ms on {SI}"),
    "client.durable_tail_ms": ("service (client)", f"moved by replay.checkpoint_s on {SI}"),
    "client.failed_frac": (
        "service (client)", "overloaded + error + timeout replies / requests"),
    "client.limit_miss_frac": (
        "service (client)", "requests over the latency limit or failed / requests"),
    "trace.overhead_frac": ("trace", "none"),
    "trace.unattributed_s": ("trace", "none"),
}
