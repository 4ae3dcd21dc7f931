"""Benchmark — end-to-end ingest throughput of the always-on service layer.

Not a figure of the paper: the companion scenario for :mod:`repro.service`.
A gateway runs in a daemon thread over a Unix socket and a blocking client
streams a mixed update workload through it, once per coalescer window shape:

* ``deterministic`` fixed windows (``adaptive=False``, window == batch), the
  bit-identical-recovery configuration, and
* ``adaptive`` windows (window may grow to ``window_max`` under queue
  pressure), the degradation configuration.

The measured rate is the full wire → admission → engine → durability path —
NDJSON framing, sequence bookkeeping, batch apply and periodic checkpoints —
so it prices what a deployment actually pays per update over what the bare
engine costs (the repository benchmark's ``update-mixed`` workload,
``python3 perfbench/run.py --workload update-mixed``, prices the engine
alone).

This suite is deliberately **not** wired into the perf regression gate:
socket scheduling noise across CI machines would make a hard threshold
flaky.  It reports absolute rates and asserts only sanity (every operation
durable, non-trivial throughput).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.experiments.runner import create_algorithm
from repro.graphs import DynamicGraph
from repro.resilience.supervisor import RetryPolicy
from repro.service import ServiceConfig, ServiceThread, TenantSpec
from repro.service.tenant import engine_digest
from repro.updates import mixed_update_stream
from repro.updates.protocol import chunked

NUM_OPERATIONS = 2_000
BATCH = 64
SEED = 29

SCENARIOS = (
    ("deterministic", dict(adaptive=False, window_max=BATCH)),
    ("adaptive", dict(adaptive=True, window_max=BATCH * 8)),
)


def _operations():
    return list(mixed_update_stream(DynamicGraph(), NUM_OPERATIONS, seed=SEED))


def service_ingest_rows():
    operations = _operations()
    rows = []
    for label, window in SCENARIOS:
        with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
            tmp = Path(tmp)
            spec = TenantSpec(
                name="bench",
                batch_size=BATCH,
                queue_cap=BATCH * 16,
                checkpoint_every=BATCH * 8,
                **window,
            )
            config = ServiceConfig(
                data_dir=str(tmp / "data"),
                unix_socket=str(tmp / "bench.sock"),
                tenants=(spec,),
                retry=RetryPolicy(max_attempts=3, base_delay=0.0, cap=0.0),
            )
            with ServiceThread(config) as svc:
                with svc.client() as client:
                    start = time.perf_counter()
                    client.ingest_stream("bench", operations, chunk=BATCH)
                    final = client.checkpoint("bench")  # flush + durable
                    elapsed = time.perf_counter() - start
                    digest = client.digest("bench")["digest"]
                    stats = client.stats("bench")["stats"]
            rows.append(
                {
                    "scenario": label,
                    "updates": final["applied"],
                    "durable": final["durable"],
                    "elapsed_s": round(elapsed, 4),
                    "updates_per_s": round(final["applied"] / elapsed, 1),
                    "peak_window": stats["peak_window"],
                    "checkpoints": stats["checkpoints"],
                    "digest": digest[:16],
                }
            )
    return rows


def test_service_ingest_throughput(benchmark, show_rows):
    rows = benchmark.pedantic(service_ingest_rows, rounds=1, iterations=1)
    assert len(rows) == len(SCENARIOS)
    # The reference digest prices nothing: it pins correctness of the path.
    operations = _operations()
    engine = create_algorithm("DyOneSwap", DynamicGraph(), None)
    for group in chunked(iter(operations), BATCH):
        engine.apply_batch(group)
    expected = engine_digest(engine)[:16]
    for row in rows:
        assert row["updates"] == NUM_OPERATIONS
        assert row["durable"] == NUM_OPERATIONS  # explicit final checkpoint
        assert row["updates_per_s"] > 0
    deterministic = next(r for r in rows if r["scenario"] == "deterministic")
    assert deterministic["digest"] == expected  # socket path == engine path
    show_rows("Service layer — socket ingest throughput", rows)
