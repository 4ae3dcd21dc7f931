"""One supervised tenant: engine, bounded queue, durability, recovery.

A :class:`Tenant` owns one maintenance engine inside the gateway's event
loop.  Everything that touches the engine happens in that loop (batch
application is synchronous between awaits), so queries always observe a
batch boundary — a k-maximal, snapshot-clean solution.

Responsibilities, and how they compose:

* **Admission** (:meth:`offer`): a bounded queue with exactly-once sequence
  accounting.  Clients tag operations with absolute 1-based positions; gaps
  are rejected with the expected position, full duplicates acknowledged
  idempotently, overlapping resends trimmed to their novel tail.  A batch
  that would overflow ``queue_cap`` is shed whole
  (:class:`~repro.exceptions.OverloadedError`) — all-or-nothing, so the
  sequence space never fragments.
* **Backpressure** (:meth:`_window`): under load the serve loop widens the
  coalescer batch window in whole-``batch_size`` steps toward
  ``window_max`` *before* the queue ever sheds — degradation order is
  "coalesce harder, then refuse loudly", never silent loss.
* **Durability**: checkpoints on the operation-interval and/or wall-clock
  policy of :class:`~repro.workloads.replay.CheckpointConfig`, written at
  batch boundaries, carrying the tenant's stream identity
  (:func:`~repro.updates.protocol.advance_identity`, advanced once per
  applied batch and resumable across process death, unlike a hashing
  cursor's in-memory state) and service metadata so a warm start can refuse
  a config-mismatched checkpoint.
* **Supervision** (:meth:`run`): a crashed engine (injected fault, I/O
  error, integrity violation) is dropped, restored from the
  newest *valid* checkpoint and brought back to the exact pre-crash state
  by replaying the in-memory replay buffer with the **original batch
  boundaries** — recovery is bit-identical and invisible to clients, while
  other tenants keep serving.  The restored checkpoint must carry the
  offset and identity the tenant last made durable; any other checkpoint
  is refused rather than replayed onto.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.exceptions import GraphError, OverloadedError, ServiceError, UpdateError
from repro.experiments.runner import create_algorithm
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.faults import SERVICE_INGEST, SERVICE_SHUTDOWN, trip
from repro.resilience.integrity import document_digest
from repro.resilience.supervisor import RECOVERABLE, RetryPolicy
from repro.service.config import TenantSpec
from repro.updates.operations import UpdateOperation
from repro.updates.protocol import EMPTY_FINGERPRINT, advance_identity
from repro.workloads.replay import (
    Checkpoint,
    latest_valid_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.workloads.snapshot import algorithm_to_payload, load_snapshot

#: Marker stored in checkpoint metadata so foreign checkpoints (e.g. an
#: experiment run sharing a directory) are never warm-started from.
SERVICE_FORMAT = "repro-service/1"


def engine_digest(algorithm) -> str:
    """Canonical SHA-256 of the engine's full snapshot payload.

    Two engines with bit-identical state (graph, solution, counters) hash
    equal; anything less does not.  This is the equality the chaos drill
    asserts between a crash-recovered tenant and an uninterrupted run.  It
    is the artifact digest of the payload
    (:func:`~repro.resilience.integrity.document_digest`): one canonical-JSON
    rule for the whole library.
    """
    return document_digest(algorithm_to_payload(algorithm))


class Tenant:
    """One engine instance under supervision inside the gateway loop."""

    def __init__(
        self,
        spec: TenantSpec,
        data_dir,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.spec = spec
        self.data_dir = Path(data_dir)
        self.retry = retry or RetryPolicy()
        self.checkpoints = spec.checkpoint_config(self.data_dir)
        self.engine = None
        self.status = "starting"
        #: Absolute op counters: ``accepted`` ops admitted to the queue,
        #: ``applied`` ops applied to the engine, ``durable`` ops covered by
        #: the newest checkpoint.  Invariant: durable <= applied <= accepted.
        self.accepted = 0
        self.applied = 0
        self.durable = 0
        self.fingerprint = EMPTY_FINGERPRINT
        self._durable_fp = EMPTY_FINGERPRINT
        self._attempt = 0
        self.final_checkpoint: Optional[Path] = None
        self.stats: Dict[str, int] = {
            "sheds": 0,
            "crashes": 0,
            "restarts": 0,
            "checkpoints": 0,
            "batches": 0,
            "peak_queue": 0,
            "peak_window": 0,
        }
        self.crashes: List[str] = []
        self._initial_size = 0
        self._pending: Deque[UpdateOperation] = deque()
        #: Batches applied since the last checkpoint, with their original
        #: boundaries — the recovery replay re-applies exactly these groups,
        #: which is what makes in-process recovery bit-identical even in
        #: adaptive (timing-dependent) windowing mode.
        self._replay: Deque[List[UpdateOperation]] = deque()
        self._subscribers: List[Callable[[Dict], None]] = []
        self._work = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self.ready = asyncio.Event()
        self._drain_requested = False
        self._flush_requested = False
        self._last_checkpoint_time = time.monotonic()

    # ------------------------------------------------------------------ #
    # Admission (called by the gateway, in-loop)
    # ------------------------------------------------------------------ #
    def offer(self, operations: Sequence[UpdateOperation], seq: int) -> Dict:
        """Admit ``operations`` starting at absolute position ``seq`` (1-based).

        Returns the counter triple on success.  Raises
        :class:`~repro.exceptions.ServiceError` on a sequence gap or when
        not accepting, :class:`~repro.exceptions.OverloadedError` when the
        bounded queue cannot absorb the novel suffix (all-or-nothing: no
        partial admission, the client retries the whole request later).
        """
        trip(SERVICE_INGEST)
        if self.status in ("draining", "stopped", "failed"):
            raise ServiceError(f"tenant {self.spec.name!r} is {self.status}")
        if seq < 1:
            raise ServiceError("seq must be >= 1")
        expected = self.accepted + 1
        if seq > expected:
            gap = ServiceError(f"sequence gap: got seq {seq}, expected {expected}")
            # Machine-readable resume hint; the gateway copies it into the
            # error reply so the client can re-send from the right position.
            gap.expected = expected
            raise gap
        novel = list(operations[expected - seq :])
        if not novel:
            # Full duplicate of already-admitted operations: idempotent ack.
            return self.offsets()
        if len(self._pending) + len(novel) > self.spec.queue_cap:
            self.stats["sheds"] += 1
            raise OverloadedError(
                f"tenant {self.spec.name!r} queue is full "
                f"({len(self._pending)}/{self.spec.queue_cap}); retry later",
                accepted=self.accepted,
            )
        self._pending.extend(novel)
        self.accepted += len(novel)
        self.stats["peak_queue"] = max(self.stats["peak_queue"], len(self._pending))
        self._idle.clear()
        self._work.set()
        return self.offsets()

    def offsets(self) -> Dict:
        """The counter triple plus identity — the client resume protocol."""
        return {
            "accepted": self.accepted,
            "applied": self.applied,
            "durable": self.durable,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "queue_depth": len(self._pending),
        }

    # ------------------------------------------------------------------ #
    # Queries (in-loop; the engine is never observed mid-batch)
    # ------------------------------------------------------------------ #
    def in_solution(self, label) -> bool:
        """Membership of ``label`` in the current k-maximal solution."""
        if self.engine is None:
            raise ServiceError(f"tenant {self.spec.name!r} engine is down")
        graph = self.engine.graph
        if not graph.has_vertex(label):
            return False
        return bool(self.engine._in_sol[graph.slot_of(label)])

    def solution(self) -> List:
        if self.engine is None:
            raise ServiceError(f"tenant {self.spec.name!r} engine is down")
        return sorted(self.engine.solution(), key=repr)

    def solution_size(self) -> int:
        if self.engine is None:
            raise ServiceError(f"tenant {self.spec.name!r} engine is down")
        return self.engine.solution_size

    def digest(self) -> str:
        if self.engine is None:
            raise ServiceError(f"tenant {self.spec.name!r} engine is down")
        return engine_digest(self.engine)

    def what_if(self, operations: Sequence[UpdateOperation]) -> Dict:
        """Answer a hypothetical batch without touching the live engine.

        Forks the engine (cheap copy-on-write — O(live-delta), not a deep
        copy), applies ``operations`` to the fork through the coalescing
        batch engine, and reports the resulting solution size plus the
        membership delta; the fork is then discarded.  The live engine, its
        counters and its digest are byte-unchanged afterwards
        (regression-pinned by the service suite) — a ``what_if`` is
        invisible to ingest, recovery and checkpointing.  A hypothetical the
        graph cannot take raises :class:`ServiceError` naming the cause.
        """
        if self.engine is None:
            raise ServiceError(f"tenant {self.spec.name!r} engine is down")
        before = set(self.engine.solution())
        fork = self.engine.fork()
        if operations:
            try:
                fork.apply_batch(list(operations))
            except (GraphError, UpdateError) as exc:
                raise ServiceError(
                    f"tenant {self.spec.name!r}: what_if cannot be applied: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        after = set(fork.solution())
        return {
            "base_size": len(before),
            "size": len(after),
            "added": sorted(after - before, key=repr),
            "removed": sorted(before - after, key=repr),
            "applied": self.applied,
        }

    def subscribe(self, callback: Callable[[Dict], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Dict], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    # ------------------------------------------------------------------ #
    # Control (gateway)
    # ------------------------------------------------------------------ #
    async def flush(self) -> None:
        """Apply everything admitted so far, including a partial tail batch."""
        self._flush_requested = True
        self._work.set()
        await self._idle.wait()

    def request_drain(self) -> None:
        self._drain_requested = True
        self._work.set()

    # ------------------------------------------------------------------ #
    # Supervision loop
    # ------------------------------------------------------------------ #
    async def run(self) -> None:
        """Bootstrap, serve, and absorb recoverable crashes until drained.

        The attempt counter resets whenever a batch lands together with the
        checkpoint it made due (:meth:`_apply_batch`), so ``max_attempts``
        bounds *consecutive* failures, not lifetime crashes of a long-lived
        tenant, and a checkpoint write that keeps failing fails the tenant
        instead of crashing it once per batch.
        """
        bootstrapped = False
        while True:
            try:
                if self.engine is None:
                    # First boot goes through the warm-start priority chain;
                    # every later rebuild must go through _recover, which
                    # preserves the admission counters and replays the
                    # buffered batches to the exact pre-crash state.
                    if bootstrapped:
                        self._recover()
                        self.stats["restarts"] += 1
                    else:
                        self._bootstrap()
                        bootstrapped = True
                self.status = "serving"
                self.ready.set()
                await self._serve()
                return
            except asyncio.CancelledError:
                self.engine = None
                raise
            except RECOVERABLE as exc:
                self.ready.clear()
                self.status = "recovering"
                self.stats["crashes"] += 1
                self.crashes.append(f"{type(exc).__name__}: {exc}")
                self.engine = None
                self._attempt += 1
                if self._attempt >= self.retry.max_attempts:
                    self.status = "failed"
                    self._idle.set()  # never strand a flush() waiter
                    return
                await asyncio.sleep(self.retry.delay(self._attempt))
            except BaseException as exc:
                # A terminal failure is counted and recorded like a
                # recoverable crash, so the ``stats`` reply says why it failed.
                self.stats["crashes"] += 1
                self.crashes.append(f"{type(exc).__name__}: {exc}")
                self.status = "failed"
                self.ready.clear()
                self.engine = None
                self._idle.set()
                raise

    def _bootstrap(self) -> None:
        """Warm-start priority: newest valid checkpoint > snapshot > fresh."""
        spec = self.spec
        restored = latest_valid_checkpoint(self.checkpoints.directory, spec.algorithm)
        if restored is not None:
            meta = restored.metadata
            writer = (meta.get("service"), meta.get("tenant"))
            if writer != (SERVICE_FORMAT, spec.name) or restored.stream_identity is None:
                raise ServiceError(
                    f"checkpoint {restored.path} was not written by service "
                    f"tenant {spec.name!r}; refusing to warm-start from it"
                )
            if restored.batch_size != spec.batch_size:
                raise ServiceError(
                    f"checkpoint {restored.path} was written with "
                    f"batch_size={restored.batch_size}; tenant {spec.name!r} is "
                    f"configured with batch_size={spec.batch_size} — resuming "
                    "would shift every batch boundary"
                )
        self._restore(restored)
        if restored is not None:
            self.applied = self.accepted = self.durable = restored.processed
            self.fingerprint = restored.stream_identity
            self._durable_fp = self.fingerprint
            self._initial_size = restored.initial_size
        else:
            self._initial_size = self.engine.solution_size
        self._last_checkpoint_time = time.monotonic()

    def _restore(self, restored: Optional[Checkpoint]) -> None:
        """Start the engine from ``restored``, else ``spec.snapshot``, else fresh."""
        if restored is not None:
            self.engine = restored.restore(self._factory)
        elif self.spec.snapshot is not None:
            self.engine = load_snapshot(self.spec.snapshot, self._factory)
        else:
            self.engine = self._factory(DynamicGraph(), None)

    def _factory(self, graph, solution, **snapshot_options):
        merged = dict(self.spec.options)
        merged.update(snapshot_options)
        return create_algorithm(self.spec.algorithm, graph, solution, **merged)

    def _recover(self) -> None:
        """Rebuild the exact pre-crash engine state.

        Restore the newest valid checkpoint (corrupt ones are quarantined by
        discovery), which must be the durable one: same offset, same stream
        identity.  Then re-apply the replay buffer, which covers precisely
        the applied suffix past ``durable``, with its original batch
        boundaries, so the rebuilt engine matches the crashed one bit for
        bit; queued-but-unapplied operations are still in ``_pending``.
        """
        restored = latest_valid_checkpoint(
            self.checkpoints.directory, self.spec.algorithm
        )
        if restored is None:
            found, source = (0, EMPTY_FINGERPRINT), "no valid checkpoint"
        else:
            found = (restored.processed, restored.stream_identity)
            source = f"checkpoint {restored.path}"
        if found != (self.durable, self._durable_fp):
            raise ServiceError(
                f"tenant {self.spec.name!r}: the replay buffer starts at "
                f"offset {self.durable} with identity {self._durable_fp}, but "
                f"{source} is at offset {found[0]} with identity {found[1]} "
                "— cannot reconstruct the crashed state"
            )
        self._restore(restored)
        self.applied = self.durable
        self.fingerprint = self._durable_fp
        for batch in self._replay:
            self.engine.apply_batch(batch)
            self.fingerprint = advance_identity(self.fingerprint, batch)
            self.applied += len(batch)
        self._last_checkpoint_time = time.monotonic()

    # ------------------------------------------------------------------ #
    # Serve loop
    # ------------------------------------------------------------------ #
    def _window(self) -> int:
        """Current batch window, in operations.

        Deterministic mode: always exactly ``batch_size``.  Adaptive mode:
        grows with queue depth in whole-batch steps up to ``window_max`` —
        the "grow the coalescer window before shedding" backpressure rule.
        """
        spec = self.spec
        if not spec.adaptive:
            return spec.batch_size
        full_batches = len(self._pending) // spec.batch_size
        window = max(spec.batch_size, full_batches * spec.batch_size)
        return min(spec.window_max, window)

    def _wall_timeout(self) -> Optional[float]:
        if self.checkpoints.every_seconds is None:
            return None
        elapsed = time.monotonic() - self._last_checkpoint_time
        return max(0.0, self.checkpoints.every_seconds - elapsed)

    async def _serve(self) -> None:
        while True:
            if not self._has_work():
                self._work.clear()
                if not self._pending:
                    self._idle.set()
                timeout = self._wall_timeout()
                try:
                    if timeout is None:
                        await self._work.wait()
                    else:
                        await asyncio.wait_for(self._work.wait(), timeout + 0.01)
                except asyncio.TimeoutError:
                    pass
            if self._drain_requested:
                self._drain()
                return
            progressed = False
            while len(self._pending) >= self.spec.batch_size:
                self._apply_batch(self._take(self._window()))
                progressed = True
                # Yield between batches: queries interleave at batch
                # boundaries instead of starving behind a deep queue.
                await asyncio.sleep(0)
                if self._drain_requested:
                    self._drain()
                    return
            if self._flush_requested:
                if self._pending:
                    self._apply_batch(self._take(len(self._pending)))
                    progressed = True
                if not self._pending:
                    self._flush_requested = False
            if not self._pending:
                self._idle.set()
            if not progressed and self._checkpoint_due():
                self._write_checkpoint()

    def _has_work(self) -> bool:
        if self._drain_requested or self._flush_requested:
            return True
        if len(self._pending) >= self.spec.batch_size:
            return True
        return self._checkpoint_due()

    def _take(self, count: int) -> List[UpdateOperation]:
        count = min(count, len(self._pending))
        return [self._pending.popleft() for _ in range(count)]

    def _apply_batch(self, batch: List[UpdateOperation]) -> None:
        if not batch:
            return
        self.stats["peak_window"] = max(self.stats["peak_window"], len(batch))
        before = self.engine.solution() if self._subscribers else None
        try:
            self.engine.apply_batch(batch)
        except BaseException:
            # The batch is not yet in the replay buffer: put it back at the
            # front of the queue so the recovered engine re-applies it with
            # the same boundary (nothing admitted is ever lost to a crash).
            self._pending.extendleft(reversed(batch))
            raise
        self.fingerprint = advance_identity(self.fingerprint, batch)
        self.applied += len(batch)
        self.stats["batches"] += 1
        self._replay.append(batch)
        if before is not None:
            after = self.engine.solution()
            added = sorted(after - before, key=repr)
            removed = sorted(before - after, key=repr)
            if added or removed:
                event = {
                    "event": "delta",
                    "tenant": self.spec.name,
                    "added": added,
                    "removed": removed,
                    "applied": self.applied,
                }
                for callback in list(self._subscribers):
                    callback(event)
        if self._checkpoint_due():
            self._write_checkpoint()
        # The batch and the checkpoint it made due have both landed:
        # consecutive-failure accounting starts over.
        self._attempt = 0

    def _checkpoint_due(self) -> bool:
        return self.checkpoints.due(
            self.applied - self.durable,
            time.monotonic() - self._last_checkpoint_time,
        )

    def checkpoint(self) -> Optional[Path]:
        """Write a checkpoint on request; ``None`` when nothing was applied.

        Raises :class:`ServiceError` when the engine is down or the write
        fails; the tenant keeps serving from its previous durable point.
        """
        if self.engine is None:
            raise ServiceError(f"tenant {self.spec.name!r} engine is down")
        if not self.applied:
            return None
        try:
            return self._write_checkpoint()
        except OSError as exc:
            raise ServiceError(
                f"tenant {self.spec.name!r}: checkpoint write failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _write_checkpoint(self) -> Path:
        """Persist the engine at the current batch boundary (atomic write,
        embedded digest); the replay buffer is trimmed only after commit."""
        path = save_checkpoint(
            self.engine,
            self.checkpoints,
            algorithm_name=self.spec.algorithm,
            processed=self.applied,
            initial_size=self._initial_size,
            elapsed_seconds=0.0,
            dataset=f"service:{self.spec.name}",
            stream_description=f"service-ingest:{self.spec.name}",
            stream_identity=self.fingerprint,
            batch_size=self.spec.batch_size,
            metadata={
                "service": SERVICE_FORMAT,
                "tenant": self.spec.name,
                "adaptive": self.spec.adaptive,
                "queue_cap": self.spec.queue_cap,
                "window_max": self.spec.window_max,
            },
        )
        self.durable = self.applied
        self._durable_fp = self.fingerprint
        self._replay.clear()
        self._last_checkpoint_time = time.monotonic()
        self.stats["checkpoints"] += 1
        return path

    def _drain(self) -> None:
        """Flush every queued operation, then write and verify the final
        checkpoint.  The ``service.shutdown`` fault point fires *before* the
        final write — an injected crash here is absorbed by the supervision
        loop and the drain retried, so shutdown remains graceful even under
        fault injection."""
        self.status = "draining"
        while self._pending:
            self._apply_batch(self._take(self._window()))
        trip(SERVICE_SHUTDOWN)
        path = self._write_checkpoint() if self.applied else None
        if path is not None:
            # Read-back verification: the final checkpoint must load and
            # pass its integrity check before we report a clean drain.
            load_checkpoint(path)
        self.final_checkpoint = path
        self.engine = None
        self.status = "stopped"
        self._idle.set()
