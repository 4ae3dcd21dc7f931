"""Durable bytes per acknowledged operation do not grow with the graph.

The paper prices an update by the neighbourhood it touches, so the bytes a
service tenant makes durable per operation should not depend on n either.
A tenant's durable point appends its batches to the operation log and cuts
a full checkpoint only once the log has outgrown the previous one, so the
checkpoints add about as many bytes as the log.  Counted with
:func:`repro.resilience.durable.recording`, without a clock: every byte an
fsync makes durable, where an fsync of a file that was fsynced before (an
append) counts only its growth since then.
"""

from __future__ import annotations

from repro.experiments.runner import create_algorithm
from repro.generators import power_law_random_graph
from repro.resilience.durable import recording
from repro.service.config import TenantSpec
from repro.service.tenant import Tenant
from repro.updates.streams import sliding_window_stream
from repro.workloads.snapshot import save_snapshot

BATCH = 64
EVERY = 32 * BATCH
OPERATIONS = 40 * EVERY


def _durable_bytes_per_operation(tmp_path, vertices):
    """Bytes made durable per acknowledged operation, and the tenant's stats."""
    graph = power_law_random_graph(vertices, 2.2, seed=1)
    operations = list(sliding_window_stream(graph.copy(), OPERATIONS, window=4096, seed=2))
    base = tmp_path / f"base-{vertices}.json"
    save_snapshot(create_algorithm("DyOneSwap", graph, None), base)
    spec = TenantSpec(
        name="t", batch_size=BATCH, adaptive=False, checkpoint_every=EVERY,
        snapshot=str(base),
    )
    tenant = Tenant(spec, tmp_path / f"data-{vertices}")
    tenant._bootstrap()
    synced = {}
    written = 0
    with recording() as trace:
        for start in range(0, OPERATIONS, BATCH):
            tenant._apply_batch(operations[start : start + BATCH])
            for event in trace:
                if event[0] == "fsync":
                    path, data = event[1], event[2]
                    written += len(data) - synced.get(path, 0)
                    synced[path] = len(data)
                elif event[0] == "rename":
                    synced[event[2]] = synced.pop(event[1], 0)
            trace.clear()
    assert tenant.durable == OPERATIONS
    return written / tenant.durable, tenant.stats


def test_durable_bytes_per_operation_do_not_grow_with_n(tmp_path):
    small, small_stats = _durable_bytes_per_operation(tmp_path, 2_000)
    large, large_stats = _durable_bytes_per_operation(tmp_path, 20_000)
    assert large / small < 2, f"{large:.1f} B/op at 20k against {small:.1f} at 2k"
    # Every durable point is one commit; the larger tenant compacted at
    # least twice after its first checkpoint, the smaller one more often.
    assert small_stats["checkpoints"] == large_stats["checkpoints"] == OPERATIONS // EVERY
    assert large_stats["snapshots"] >= 3
    assert small_stats["snapshots"] > large_stats["snapshots"]
