"""Service chaos drill: SIGKILL mid-ingest, restart, bit-identical recovery.

Run with ``python -m repro.service.smoke`` (exit 0 = pass).  The drill is
the end-to-end counterpart of :mod:`repro.resilience.smoke`'s in-process
scenarios — here the *whole server process* dies, uncleanly:

1. start a real gateway subprocess with two deterministic tenants —
   ``temporal`` (fresh engine fed a wiki-talk temporal window) and
   ``flicker`` (warm-started from a snapshot of the Theorem 3 worst-case
   witness, fed the adversarial flicker stream);
2. ingest a partial prefix into both, wait until each has checkpointed
   (``durable`` advanced), then **SIGKILL** the server mid-stream;
3. restart the server on the same data directory — tenants warm-start from
   their newest valid checkpoint — and let the clients resume from the
   ``applied`` counters, re-sending exactly the lost suffix;
4. drain gracefully and compare each tenant's final engine digest against
   an uninterrupted in-process reference run with identical batch
   boundaries.

Both tenants run in deterministic batching mode (``adaptive=False``), so
"recovered equals uninterrupted" is exact state equality, not just equal
solution sizes.  Each server writes its output to a log in the drill's work
directory, and a failing drill prints the end of every log.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

import repro
from repro.experiments.datasets import load_temporal_workload
from repro.experiments.runner import create_algorithm
from repro.generators.worst_case import flicker_update_stream
from repro.graphs.dynamic_graph import DynamicGraph
from repro.service.client import ServiceClient, connect_with_retry
from repro.service.config import ServiceConfig, TenantSpec
from repro.service.tenant import engine_digest
from repro.updates.protocol import chunked
from repro.workloads.replay import load_checkpoint
from repro.workloads.snapshot import save_snapshot

TEMPORAL_BATCH = 64
FLICKER_BATCH = 16


def _build_workloads(workdir: Path) -> Dict[str, List]:
    """The two deterministic ingest workloads and the flicker snapshot."""
    _, temporal_stream = load_temporal_workload(
        "quick", "wiki-talk-window", num_events=260
    )
    flicker_graph, flicker_stream = flicker_update_stream(6, rounds=40, seed=11)
    seed_engine = create_algorithm("DyOneSwap", flicker_graph.copy(), None)
    snapshot_path = workdir / "flicker-witness.snap.json"
    save_snapshot(seed_engine, snapshot_path)
    return {
        "temporal": list(temporal_stream),
        "flicker": list(flicker_stream),
        "snapshot": str(snapshot_path),
        "flicker_graph": flicker_graph,
    }


def _write_config(workdir: Path, snapshot_path: str) -> Path:
    config = ServiceConfig(
        data_dir=str(workdir / "data"),
        unix_socket=str(workdir / "service.sock"),
        tenants=(
            TenantSpec(
                name="temporal",
                batch_size=TEMPORAL_BATCH,
                window_max=TEMPORAL_BATCH * 4,
                adaptive=False,
                checkpoint_every=TEMPORAL_BATCH * 2,
                checkpoint_keep=4,
            ),
            TenantSpec(
                name="flicker",
                batch_size=FLICKER_BATCH,
                window_max=FLICKER_BATCH * 4,
                adaptive=False,
                checkpoint_every=FLICKER_BATCH * 2,
                checkpoint_keep=4,
                snapshot=snapshot_path,
            ),
        ),
    )
    path = workdir / "service.json"
    config.save(path)
    return path


def _spawn_server(config_path: Path, log_path: Path) -> subprocess.Popen:
    """Start a gateway whose stdout and stderr go to ``log_path``."""
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "wb") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--config", str(config_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )


def _print_server_logs(workdir: Path, lines: int = 20) -> None:
    """Print the last ``lines`` lines of each server's log."""
    for log_path in sorted(workdir.glob("server-*.log")):
        print(f"[service-smoke] end of {log_path.name}:")
        print(*log_path.read_text(errors="replace").splitlines()[-lines:], sep="\n")


def _wait_until_durable(
    client: ServiceClient, tenant: str, target: int, timeout: float = 60.0
) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        reply = client.offset(tenant)
        if reply.get("ok") and reply["durable"] >= target:
            return reply["durable"]
        time.sleep(0.05)
    raise RuntimeError(f"tenant {tenant} never reached durable >= {target}")


def _reference_digest(initial_graph, operations: Sequence, batch: int) -> str:
    """Uninterrupted run with the service's exact batch boundaries."""
    engine = create_algorithm("DyOneSwap", initial_graph.copy(), None)
    for group in chunked(iter(operations), batch):
        engine.apply_batch(group)
    return engine_digest(engine)


def _drill(workdir: Path) -> List[str]:
    """Run both phases in ``workdir``; return the failures found."""
    failures: List[str] = []
    workloads = _build_workloads(workdir)
    config_path = _write_config(workdir, workloads["snapshot"])
    socket_path = str(workdir / "service.sock")

    # ---- phase 1: serve, partially ingest, SIGKILL mid-stream ---- #
    server = _spawn_server(config_path, workdir / "server-1.log")
    try:
        client = connect_with_retry(unix_socket=socket_path)
        with client:
            client.ingest_stream(
                "temporal",
                workloads["temporal"][: TEMPORAL_BATCH * 5],
                chunk=TEMPORAL_BATCH,
            )
            client.ingest_stream(
                "flicker",
                workloads["flicker"][: FLICKER_BATCH * 3],
                chunk=FLICKER_BATCH,
            )
            durable_temporal = _wait_until_durable(
                client, "temporal", TEMPORAL_BATCH * 2
            )
            durable_flicker = _wait_until_durable(
                client, "flicker", FLICKER_BATCH * 2
            )
        print(
            "[service-smoke] phase 1: ingested prefixes, durable="
            f"{{'temporal': {durable_temporal}, 'flicker': {durable_flicker}}}; "
            "sending SIGKILL"
        )
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
    finally:
        if server.poll() is None:  # pragma: no cover - cleanup on failure
            server.kill()
            server.wait(timeout=30)

    # ---- phase 2: restart, resume from offsets, drain, compare ---- #
    server = _spawn_server(config_path, workdir / "server-2.log")
    try:
        client = connect_with_retry(unix_socket=socket_path)
        with client:
            recovered = {
                name: client.offset(name) for name in ("temporal", "flicker")
            }
            for name, reply in recovered.items():
                if not reply.get("ok") or reply["applied"] != reply["durable"]:
                    failures.append(
                        f"{name}: warm start did not resume from the "
                        f"checkpointed offset: {reply}"
                    )
                if reply["applied"] == 0:
                    failures.append(
                        f"{name}: warm start lost all durable progress"
                    )
            client.ingest_stream(
                "temporal", workloads["temporal"], chunk=TEMPORAL_BATCH
            )
            client.ingest_stream(
                "flicker", workloads["flicker"], chunk=FLICKER_BATCH
            )
            digests = {
                "temporal": client.digest("temporal"),
                "flicker": client.digest("flicker"),
            }
            client.shutdown()
        server.wait(timeout=60)
    finally:
        if server.poll() is None:  # pragma: no cover - cleanup on failure
            server.kill()
            server.wait(timeout=30)

    expected = {
        "temporal": _reference_digest(
            DynamicGraph(), workloads["temporal"], TEMPORAL_BATCH
        ),
        "flicker": _reference_digest(
            workloads["flicker_graph"], workloads["flicker"], FLICKER_BATCH
        ),
    }
    for name, reply in digests.items():
        if not reply.get("ok"):
            failures.append(f"{name}: digest request failed: {reply}")
        elif reply["digest"] != expected[name]:
            failures.append(
                f"{name}: recovered digest {reply['digest'][:16]}… differs "
                f"from uninterrupted reference {expected[name][:16]}…"
            )
        else:
            print(
                f"[service-smoke] {name}: SIGKILL + restart recovered "
                f"bit-identically ({reply['applied']} ops, "
                f"digest {reply['digest'][:16]}…)"
            )

    # Final checkpoints from the graceful drain must load and verify.
    for name in ("temporal", "flicker"):
        directory = workdir / "data" / name
        newest = sorted(directory.glob("*.ckpt.json"))
        if not newest:
            failures.append(f"{name}: drain left no final checkpoint")
            continue
        try:
            load_checkpoint(newest[-1])
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append(f"{name}: final checkpoint corrupt: {exc}")
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        workdir = Path(tmp)
        try:
            failures = _drill(workdir)
        except Exception:
            _print_server_logs(workdir)
            raise
        if failures:
            for failure in failures:
                print(f"[service-smoke] FAIL: {failure}")
            _print_server_logs(workdir)
            return 1
    print("[service-smoke] PASS: bit-identical recovery across SIGKILL")
    return 0


if __name__ == "__main__":
    sys.exit(main())
