"""Workload ``service-ingest``: the always-on gateway under open and closed load.

Set-up, outside any clock: a DyOneSwap engine on a large power-law graph is
snapshotted, and every request line is pre-encoded from a seeded
``mixed_update_stream``.  The gateway runs in its own process
(``python -m repro.service --config ...`` on a Unix socket) with one tenant
warm-started from the snapshot: fixed 64-op windows (``adaptive=False``),
operation-count checkpoints and a small keep-N.

Load: one process, one thread, one asyncio loop, two connections.

* Phase 1 is open loop: ingest requests go out at ``INGEST_RATE`` and point
  queries at ``QUERY_RATE``, whatever the server does; every request is
  timed from its due time.
* Phase 2 is closed loop: groups of ``GROUP_REQUESTS`` ingest requests, each
  followed by a ``flush`` whose reply comes once the group is applied, so
  the unapplied backlog never exceeds one group and nothing sheds.

Both phases are cut into segments; before each one the gateway and the
generator move to the quietest CPU (see :class:`~harness.Pinning`),
and latencies and capacity come from the segments whose CPU speed held
steadiest; set-up and capacity are in reference seconds (see
:class:`~harness.Bracket`).
* Then ``checkpoint``, ``digest``, ``stats`` and ``shutdown``.

The rates and the latency limit are constants of the benchmark; nothing is
derived from the server's measured capacity.  The final digest must equal an
in-process replay of the same 64-op batches from the same snapshot, which in
the traced run also prices the server-side layers.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.verification import find_one_swap, is_maximal_independent_set
from repro.experiments.runner import create_algorithm
from repro.generators import power_law_random_graph
from repro.service import engine_digest
from repro.updates import coalesce_batch, encode_line, mixed_update_stream, operations_to_wire
from repro.workloads import (
    CheckpointConfig,
    algorithm_to_payload,
    load_snapshot,
    save_checkpoint,
    save_snapshot,
)

from counters import counter_delta, engine_counters
from harness import (
    Bracket,
    Pinning,
    Request,
    Result,
    Tracer,
    due_time_latencies,
    host_probe,
    durable_latencies,
    median,
    percentile_summary,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    steadiest,
    unattributed,
)

ALGORITHM = "DyOneSwap"
TENANT = "bench"
NUM_VERTICES = 20_000
BETA = 2.2
BATCH = 64
CHECKPOINT_EVERY = 32 * BATCH
CHECKPOINT_KEEP = 2
QUEUE_CAP = 8192
#: Phase 1 (open loop): offered rates, in requests per second.
INGEST_RATE = 400.0
INGEST_OPS = 4
QUERY_RATE = 100.0
#: Share of ``--seconds`` spent in phase 1, cut into segments with a host
#: probe between them; the steadiest segments are kept.
PHASE1_SHARE = 0.7
SEGMENTS = 7
KEEP_SEGMENTS = 5
#: Latency limit on the tail percentile of phase-1 requests, in ms.  That
#: tail is one synchronous checkpoint of the tenant (about 150 ms at the
#: default seed), and the host's CPU speed alone swings by up to 1.75x.
LATENCY_LIMIT_MS = 500.0
#: Phase 1 is invalid if the generator ran later than this behind schedule.
LATE_LIMIT_MS = 25.0
#: Phase 2 (closed loop): groups of requests, each followed by a flush, so
#: the unapplied backlog never exceeds one group; the steadiest are kept.
PHASE2_REQUEST_OPS = 8 * BATCH
GROUP_REQUESTS = 8
GROUPS = 10
KEEP_GROUPS = 6
SETUP_REPEATS = 5
KEEP_SETUPS = 3
READY_TIMEOUT = 120.0
REPLY_TIMEOUT = 60.0
#: Upper bound on the whole load phase, so a stuck gateway fails the run.
DRIVE_TIMEOUT = 100.0


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
class Inputs:
    """Everything the run needs, built before any clock starts."""

    def __init__(self, seed: int, work: Path, phase1_seconds: float) -> None:
        graph = power_law_random_graph(NUM_VERTICES, BETA, seed=seed)
        self.snapshot = work / "snapshot.json"
        save_snapshot(create_algorithm(ALGORITHM, graph.copy()), self.snapshot)
        # Whole 64-op windows only: the tenant applies a partial tail batch
        # only on flush, so every phase must end on a batch boundary.
        per_batch = BATCH // INGEST_OPS
        per_segment = int(INGEST_RATE * phase1_seconds / SEGMENTS) // per_batch * per_batch
        segment_ops = per_segment * INGEST_OPS
        group_ops = GROUP_REQUESTS * PHASE2_REQUEST_OPS
        phase1_ops = SEGMENTS * segment_ops
        total = phase1_ops + GROUPS * group_ops
        self.operations = list(mixed_update_stream(graph, total, seed=seed + 1))
        self.phase1 = [
            self._ingest_lines(start, start + segment_ops, INGEST_OPS)
            for start in range(0, phase1_ops, segment_ops)
        ]
        self.phase2 = [
            self._ingest_lines(start, start + group_ops, PHASE2_REQUEST_OPS)
            for start in range(phase1_ops, total, group_ops)
        ]
        self.group_ops = group_ops
        rng = random.Random(seed + 2)
        labels = sorted(graph.vertices())
        per_query_segment = int(QUERY_RATE * phase1_seconds / SEGMENTS)
        self.queries = [
            [
                (encode_line({"cmd": "query", "tenant": TENANT, "vertex": rng.choice(labels)}), 0)
                for _ in range(per_query_segment)
            ]
            for _ in range(SEGMENTS)
        ]

    def _ingest_lines(self, start: int, stop: int, size: int) -> List[Tuple[bytes, int]]:
        """``(line, last op index)`` per request covering ops[start:stop]."""
        lines = []
        for offset in range(start, stop, size):
            chunk = self.operations[offset : min(offset + size, stop)]
            document = {
                "cmd": "ingest",
                "tenant": TENANT,
                "seq": offset + 1,
                "ops": operations_to_wire(chunk),
            }
            lines.append((encode_line(document), offset + len(chunk)))
        return lines


# --------------------------------------------------------------------- #
# Gateway process
# --------------------------------------------------------------------- #
class Gateway:
    """One ``python -m repro.service`` process in its own directory."""

    def __init__(self, directory: Path, snapshot: Path) -> None:
        self.directory = directory
        directory.mkdir(parents=True)
        config = {
            "data_dir": "data",
            "unix_socket": "gw.sock",
            "drain_timeout": 120.0,
            "tenants": [
                {
                    "name": TENANT,
                    "algorithm": ALGORITHM,
                    "batch_size": BATCH,
                    "queue_cap": QUEUE_CAP,
                    "window_max": BATCH,
                    "adaptive": False,
                    "checkpoint_every": CHECKPOINT_EVERY,
                    "checkpoint_keep": CHECKPOINT_KEEP,
                    "snapshot": os.path.relpath(snapshot, directory),
                }
            ],
        }
        (directory / "service.json").write_text(json.dumps(config), encoding="utf-8")
        # The socket path is given relative to the working directory: an
        # absolute path inside a deep checkout can exceed the AF_UNIX limit.
        self.socket = os.path.relpath(directory / "gw.sock")
        self.process: Optional[subprocess.Popen] = None

    def start(self, source: Path) -> float:
        """Spawn and wait for the ready banner; return the seconds it took."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source) + os.pathsep + env.get("PYTHONPATH", "")
        stderr = open(self.directory / "stderr.log", "wb")
        start = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--config", "service.json"],
                cwd=self.directory,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
        finally:
            stderr.close()
        deadline = start + READY_TIMEOUT
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"gateway not ready: {self._stderr()}")
            readable, _, _ = select.select([stdout], [], [], remaining)
            if readable:
                line = stdout.readline().decode("utf-8", "replace")
                if "listening" in line:
                    return time.perf_counter() - start
                if not line:
                    raise RuntimeError(f"gateway exited: {self._stderr()}")

    def _stderr(self) -> str:
        return (self.directory / "stderr.log").read_text(errors="replace")[-2000:]

    def stop(self, timeout: float = 20.0) -> None:
        """Graceful drain via SIGTERM; kill if it does not end in time."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


# --------------------------------------------------------------------- #
# Load generator
# --------------------------------------------------------------------- #
class Connection:
    """One NDJSON connection; replies come back in request order."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, path: str) -> "Connection":
        reader, writer = await asyncio.open_unix_connection(path, limit=1 << 22)
        return cls(reader, writer)

    async def receive(self) -> Dict:
        line = await asyncio.wait_for(self.reader.readline(), REPLY_TIMEOUT)
        if not line:
            raise ConnectionError("gateway closed the connection")
        return json.loads(line)

    async def call(self, document: Dict) -> Dict:
        self.writer.write(encode_line(document))
        await self.writer.drain()
        return await self.receive()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def open_loop(
    connection: Connection,
    lines: List[Tuple[bytes, int]],
    rate: float,
    start: float,
    kind: str,
) -> List[Request]:
    """Send ``lines`` on a fixed schedule; never wait for a reply to send."""
    loop = asyncio.get_running_loop()
    requests: List[Request] = []
    in_flight: deque = deque()

    async def receive_all() -> None:
        for _ in lines:
            reply = await connection.receive()
            request = in_flight.popleft()
            request.replied = loop.time()
            request.ok = bool(reply.get("ok"))
            request.durable = reply.get("durable", 0)

    receiver = asyncio.create_task(receive_all())
    try:
        for index, (line, last_op) in enumerate(lines):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            request = Request(kind, due, sent=loop.time(), last_op=last_op)
            in_flight.append(request)
            requests.append(request)
            connection.writer.write(line)
            if connection.writer.transport.get_write_buffer_size() > 1 << 16:
                await connection.writer.drain()
        await receiver
    finally:
        if not receiver.done():
            receiver.cancel()
    return requests


async def closed_group(connection: Connection, lines: List[Tuple[bytes, int]]):
    """Send one group back to back, then ``flush``, whose reply comes once
    the whole group is applied.  Returns ``(seconds, requests, failures)``."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    for line, _last_op in lines:
        connection.writer.write(line)
    await connection.writer.drain()
    failures = 0
    for _ in lines:
        failures += not (await connection.receive()).get("ok")
    failures += not (await connection.call({"cmd": "flush", "tenant": TENANT})).get("ok")
    return loop.time() - start, len(lines) + 1, failures


async def drive(socket: str, inputs: Inputs, pid: int, pinning: Pinning) -> Dict:
    """Run both phases and the closing commands against a ready gateway.

    Before each segment the gateway is idle (a ``flush`` has returned); it
    and the generator move to the quietest CPU.  Sharing one CPU, a request
    and its reply cost a switch on that CPU instead of a cross-CPU wake-up,
    whose latency varied several-fold between runs.  After the segment the
    same CPU is probed again to score the segment.
    """
    loop = asyncio.get_running_loop()
    ingest = await Connection.open(socket)
    query = await Connection.open(socket)
    flush = {"cmd": "flush", "tenant": TENANT}

    async def settle() -> float:
        await ingest.call(flush)
        before = pinning.settle()
        os.sched_setaffinity(pid, {pinning.cpu})
        return before

    async def bracket(before: float) -> Bracket:
        await ingest.call(flush)
        return Bracket(before, host_probe())

    try:
        cpu_start = proc_cpu_seconds(pid)
        phase1_start = loop.time()
        segments = []
        segment_brackets = []
        for ingest_lines, query_lines in zip(inputs.phase1, inputs.queries):
            before = await settle()
            start = loop.time() + 0.005
            segments.append(
                await asyncio.gather(
                    open_loop(ingest, ingest_lines, INGEST_RATE, start, "ingest"),
                    open_loop(query, query_lines, QUERY_RATE, start, "query"),
                )
            )
            segment_brackets.append(await bracket(before))
        phase1_wall = loop.time() - phase1_start
        cpu_phase1 = proc_cpu_seconds(pid)
        groups = []
        group_brackets = []
        requests = failures = 0
        for lines in inputs.phase2:
            before = await settle()
            seconds, sent, failed = await closed_group(ingest, lines)
            groups.append(seconds)
            requests += sent
            failures += failed
            group_brackets.append(await bracket(before))
        cpu_end = proc_cpu_seconds(pid)
        final = await ingest.call({"cmd": "checkpoint", "tenant": TENANT})
        digest = await ingest.call({"cmd": "digest", "tenant": TENANT})
        stats = await ingest.call({"cmd": "stats", "tenant": TENANT})
        peak_rss = proc_peak_rss_mb(pid)
        await ingest.call({"cmd": "shutdown"})
    finally:
        await ingest.close()
        await query.close()
    return {
        "segments": segments,
        "kept_segments": steadiest(segments, segment_brackets, KEEP_SEGMENTS),
        "groups": groups,
        "kept_groups": steadiest(groups, group_brackets, KEEP_GROUPS),
        "busy_frac": (cpu_phase1 - cpu_start) / phase1_wall,
        "cpu_s": cpu_end - cpu_start,
        "phase2_requests": requests,
        "phase2_failures": failures,
        "final": final,
        "digest": digest,
        "stats": stats,
        "peak_rss_mb": peak_rss,
    }


# --------------------------------------------------------------------- #
# In-process reference replay
# --------------------------------------------------------------------- #
def reference_replay(
    inputs: Inputs, work: Path, tracer: Optional[Tracer] = None, checkpoint: bool = False
):
    """Replay the tenant's 64-op batches from the snapshot in-process.

    With ``checkpoint`` it also writes checkpoints at the tenant's offsets.
    Traced, it prices the server-side layers with spans around
    ``coalesce_batch`` (a read-only sibling, only when traced),
    ``apply_batch`` and ``save_checkpoint`` (plus a sibling
    ``algorithm_to_payload``).  Returns ``(engine, facts)``; ``facts`` holds
    the counters before the replay, its wall time and the traced totals.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    operations = inputs.operations
    facts = {"in_ops": 0, "net_ops": 0, "checkpoint_bytes": 0}
    config = CheckpointConfig(
        directory=work / f"reference-checkpoints-{tracer is not None}",
        every=CHECKPOINT_EVERY,
        keep=CHECKPOINT_KEEP,
    )
    with span("snapshot.load"):
        engine = load_snapshot(inputs.snapshot)
    facts["before"] = engine_counters(engine)
    gc.collect()
    start_time = time.perf_counter()
    with span("run") as root:
        for start in range(0, len(operations), BATCH):
            batch = operations[start : start + BATCH]
            if tracer is not None:
                with span("coalesce"):
                    net = coalesce_batch(engine.graph, batch)
                facts["in_ops"] += len(batch)
                facts["net_ops"] += net.num_net_operations
            with span("core.apply"):
                engine.apply_batch(batch, coalesce=True)
            applied = start + len(batch)
            if checkpoint and applied % CHECKPOINT_EVERY == 0:
                with span("replay.checkpoint"):
                    path = save_checkpoint(
                        engine,
                        config,
                        algorithm_name=ALGORITHM,
                        processed=applied,
                        initial_size=0,
                        batch_size=BATCH,
                    )
                facts["checkpoint_bytes"] += path.stat().st_size
                if tracer is not None:
                    with span("snapshot.payload"):
                        algorithm_to_payload(engine)
    facts["seconds"] = time.perf_counter() - start_time
    facts["root"] = root
    return engine, facts


# --------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------- #
def run(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    result = Result()
    inputs = Inputs(seed, work, PHASE1_SHARE * seconds)
    gc.freeze()
    source = Path(__file__).resolve().parent.parent / "src"
    pinning = Pinning()
    setups: List[float] = []
    brackets: List[Bracket] = []
    gateways = []
    try:
        for index in range(SETUP_REPEATS):
            gateway = Gateway(work / f"gw{index}", inputs.snapshot)
            gateways.append(gateway)
            # The child inherits this process's CPU: the quietest one.
            before = pinning.settle()
            setups.append(gateway.start(source))
            brackets.append(Bracket(before, host_probe()))
            if index < SETUP_REPEATS - 1:
                gateway.stop()
        setups = [x * b.scale for x, b in steadiest(setups, brackets, KEEP_SETUPS)]
        outcome = asyncio.run(
            asyncio.wait_for(
                drive(gateway.socket, inputs, gateway.process.pid, pinning),
                DRIVE_TIMEOUT,
            )
        )
        gateway.stop(timeout=30.0)
    finally:
        for gateway in gateways:
            gateway.stop()

    total = len(inputs.operations)
    final, stats = outcome["final"], outcome["stats"]
    reference, replayed = reference_replay(inputs, work, checkpoint=trace)
    result.check(outcome["digest"].get("digest") == engine_digest(reference),
                 "gateway digest differs from the in-process reference replay")
    result.check(
        final.get("applied") == final.get("durable") == final.get("accepted") == total,
        f"applied/durable/accepted {final.get('applied')}/{final.get('durable')}/"
        f"{final.get('accepted')} != {total} operations sent",
    )
    tenant_stats = stats.get("stats", {})
    result.check(tenant_stats.get("crashes") == 0 and not stats.get("crashes"),
                 "tenant crashed")
    solution = reference.solution()
    result.check(is_maximal_independent_set(reference.graph, solution),
                 "reference solution is not a maximal independent set")
    result.check(find_one_swap(reference.graph, solution) is None,
                 "reference solution has a 1-swap")

    ingests = [r for segment_ingests, _ in outcome["segments"] for r in segment_ingests]
    queries = [r for _, segment_queries in outcome["segments"] for r in segment_queries]
    phase1 = ingests + queries
    failed = sum(1 for r in phase1 if not r.ok) + outcome["phase2_failures"]
    result.attempted = len(phase1) + outcome["phase2_requests"]
    result.failed = failed
    # Latencies of the steadiest segments, as measured: a request's latency
    # is mostly waiting (socket wake-ups, a checkpoint stall), which the
    # probe's speed does not describe, so they are not scaled.
    kept = [segment for segment, _bracket in outcome["kept_segments"]]
    ingest_latency, _ = due_time_latencies(r for segment, _ in kept for r in segment)
    query_latency, _ = due_time_latencies(r for _, segment in kept for r in segment)
    _, lateness = due_time_latencies(phase1)
    late = percentile_summary(s * 1000.0 for s in lateness)
    result.check(late.tail <= LATE_LIMIT_MS,
                 f"generator fell behind schedule: {late.tail_label} lateness "
                 f"{late.tail:.1f} ms > {LATE_LIMIT_MS} ms; run invalid")
    result.counters["tenant.batches"] = tenant_stats.get("batches")
    result.counters["tenant.checkpoints"] = tenant_stats.get("checkpoints")
    if not trace:
        result.counters.update(counter_delta(engine_counters(reference), replayed["before"]))
        groups = outcome["kept_groups"]
        result.put("setup_s", median(setups),
                   f"median of the steadiest {len(setups)} of {SETUP_REPEATS} spawns")
        result.put("updates_per_s", median(inputs.group_ops / (g * b.scale) for g, b in groups),
                   f"closed loop, median of the steadiest {KEEP_GROUPS} of {GROUPS} "
                   f"groups of {inputs.group_ops} ops; raw "
                   f"{median(inputs.group_ops / g for g, _ in groups):.6g}")
        result.put("peak_rss_mb", outcome["peak_rss_mb"], "gateway VmHWM")
        return result

    for name in ("batches", "checkpoints", "sheds", "peak_queue", "peak_window", "crashes"):
        value = tenant_stats.get(name, 0)
        if name in ("batches", "checkpoints"):
            result.count(f"tenant.{name}", value)
        else:
            result.put(f"tenant.{name}", value)
    result.put("server.cpu_s", outcome["cpu_s"], "gateway CPU over both phases")
    result.put("server.busy_frac", outcome["busy_frac"], "gateway CPU / wall in phase 1")
    result.count("client.requests", result.attempted)
    result.latency("client.late", lateness, "sent - due", p50=False)
    kept_note = f"from due time, steadiest {KEEP_SEGMENTS} of {SEGMENTS} segments"
    result.latency("client.ingest", ingest_latency, kept_note)
    result.latency("client.query", query_latency, kept_note)
    result.latency("client.durable", durable_latencies(ingests),
                   f"all segments, resolution {1000.0 / INGEST_RATE:g} ms", p50=False)
    result.put("client.failed_frac", failed / result.attempted)
    over = sum(1 for s in ingest_latency + query_latency if s * 1000.0 > LATENCY_LIMIT_MS)
    result.put("client.limit_miss_frac", (over + failed) / result.attempted,
               f"limit {LATENCY_LIMIT_MS:g} ms")

    tracer = Tracer()
    engine, extra = reference_replay(inputs, work, tracer, checkpoint=True)
    root = extra["root"]
    result.check(engine_digest(engine) == engine_digest(reference),
                 "traced replay digest differs from the untraced replay")
    for name, value in counter_delta(engine_counters(engine), extra["before"]).items():
        result.count(name, value)
    result.count("replay.checkpoints", tracer.count("replay.checkpoint"))
    result.count("coalesce.in_ops", extra["in_ops"])
    result.count("coalesce.net_ops", extra["net_ops"])
    result.put("coalesce.cancel_ratio", 1.0 - extra["net_ops"] / extra["in_ops"])
    apply_s = tracer.total("core.apply")
    coalesce_s = tracer.total("coalesce")
    result.put("coalesce.s", coalesce_s, "read-only sibling of apply_batch")
    result.put("core.apply_s", apply_s)
    result.put("core.self_s", apply_s - coalesce_s, "apply - coalesce")
    result.latency("core.call", tracer.durations("core.apply"), "apply_batch")
    checkpoints = tracer.durations("replay.checkpoint")
    result.put("replay.checkpoint_s", sum(checkpoints))
    result.latency("replay.checkpoint", checkpoints, "save_checkpoint", p50=False)
    result.put("replay.checkpoint_bytes", extra["checkpoint_bytes"], "total written")
    result.put("snapshot.payload_s", tracer.total("snapshot.payload"))
    result.put("snapshot.load_s", tracer.total("snapshot.load"), "warm-start snapshot")
    result.put("trace.overhead_frac", root.duration / replayed["seconds"] - 1.0,
               "traced (incl. sibling coalesce + payload) vs untraced in-process replay")
    result.put("trace.unattributed_s", unattributed(tracer.spans, root.ident))
    return result

