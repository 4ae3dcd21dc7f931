"""Model-based test of a service tenant's durability, in-process.

A Hypothesis rule-based state machine drives one :class:`Tenant` on a small
graph without an event loop: it applies batches of valid operations, makes
them durable (a log commit, or a full checkpoint when the log has outgrown
the newest one), writes checkpoints on request, crashes the engine and
recovers it, restarts the tenant on the same data directory, tears or
deletes the newest checkpoint file, tears the last record of a log segment,
deletes a segment, leaves a stale one where the next segment goes, fails
the ``checkpoint`` command part way, and fails a full checkpoint after its
rename, which leaves it on disk past the durable point.  The model is the
list of applied batches, the durable prefix, the checkpoints on disk (with
whether each is intact) and the records of each log segment (with a torn
tail where a record was cut).
After every step the tenant must agree with it:

* ``durable <= applied``, and both equal the model's;
* ``fingerprint`` is :func:`advance_identity` folded over the model's
  batches;
* the engine's digest equals a reference engine fed the same batches with
  the same boundaries;
* the checkpoint offsets on disk are the model's, keep-N included: the one
  just written and the ``keep - 1`` newest other intact files stay, a torn
  one is quarantined, and a segment older than every checkpoint kept goes;
* every segment on disk holds the model's records, in order, and the tenant
  appends to the segment the model expects, whose size it knows; after a
  failed write it appends to none, and its next durable point writes a
  full checkpoint;
* recovery replays a segment's records while each continues the offset and
  identity reached, goes on into the segment named after the offset
  reached, and cuts a segment back to the records it replayed; ``_recover``
  starts from the newest intact checkpoint at or below the durable point,
  leaves a newer one on disk and opens no segment while it is there, and
  refuses exactly when the log does not reach the durable point.
"""

from __future__ import annotations

import asyncio
import errno
import hashlib
import io
import json
import shutil
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional
from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.exceptions import InjectedFault, ServiceError
from repro.experiments.runner import create_algorithm
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience import durable
from repro.resilience.faults import CHECKPOINT_WRITE, LOG_APPEND, FaultPlan, inject_faults
from repro.resilience.integrity import intact_as_written, write_document
from repro.resilience.supervisor import RetryPolicy
from repro.service.config import TenantSpec
from repro.service.tenant import Tenant, engine_digest
from repro.updates.operations import UpdateOperation
from repro.updates.protocol import EMPTY_FINGERPRINT, advance_identity, chunked
from repro.updates.streams import mixed_update_stream
from repro.updates.wire import operations_to_wire
from repro.workloads.oplog import append_records, segment_path
from repro.workloads.replay import checkpoint_path, find_checkpoints

#: Vertex labels the machine draws from; few, so labels and slots recycle.
LABELS = range(7)
EVERY = 12
KEEP = 2
SPEC = TenantSpec(
    name="m",
    batch_size=1,
    window_max=8,
    adaptive=False,
    checkpoint_every=EVERY,
    checkpoint_keep=KEEP,
)


def _draw_operation(data, vertices, edges):
    """A valid operation on the graph ``(vertices, edges)``; updates both."""
    absent = [v for v in LABELS if v not in vertices]
    pairs = [
        (u, v) for u in sorted(vertices) for v in sorted(vertices)
        if u < v and frozenset((u, v)) not in edges
    ]
    choices = {"+v": absent, "-v": vertices, "+e": pairs, "-e": edges}
    kind = data.draw(st.sampled_from([k for k, possible in choices.items() if possible]))
    if kind == "+v":
        v = data.draw(st.sampled_from(absent))
        neighbors = data.draw(
            st.lists(st.sampled_from(sorted(vertices)), unique=True, max_size=3)
            if vertices else st.just([])
        )
        vertices.add(v)
        edges.update(frozenset((v, w)) for w in neighbors)
        return UpdateOperation.insert_vertex(v, neighbors)
    if kind == "-v":
        v = data.draw(st.sampled_from(sorted(vertices)))
        vertices.discard(v)
        edges.difference_update([e for e in edges if v in e])
        return UpdateOperation.delete_vertex(v)
    if kind == "+e":
        u, v = data.draw(st.sampled_from(pairs))
        edges.add(frozenset((u, v)))
        return UpdateOperation.insert_edge(u, v)
    u, v = sorted(data.draw(st.sampled_from(sorted(edges, key=sorted))))
    edges.discard(frozenset((u, v)))
    return UpdateOperation.delete_edge(u, v)


@contextmanager
def _quiet():
    """Silence the notices of the quarantines the damage rules cause."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@contextmanager
def _directory_fsync_fails_once(directory):
    """The next fsync of ``directory`` raises ``EIO``: a checkpoint written
    into it is renamed into place, and then its write fails."""
    real = durable._fsync_directory
    fired = []

    def fsync_directory(path):
        if not fired and Path(path) == Path(directory):
            fired.append(path)
            raise OSError(errno.EIO, "injected I/O error", str(path))
        real(path)

    with mock.patch.object(durable, "_fsync_directory", fsync_directory):
        yield fired


@dataclass(frozen=True)
class Batch:
    """One applied batch: its operations, the graph after it, and where it
    sits on the identity chain."""

    operations: tuple
    vertices: frozenset
    edges: frozenset
    start: int
    before: str
    after: str

    @property
    def end(self):
        return self.start + len(self.operations)

    @property
    def size(self):
        """The bytes of its log record, newline included."""
        record = {
            "identity": self.after,
            "offset": self.start,
            "ops": operations_to_wire(self.operations),
        }
        stream = io.BytesIO()
        write_document(stream, record, fault_point=LOG_APPEND)
        return len(stream.getvalue()) + 1


@dataclass
class Segment:
    """A segment's lines: a record (its :class:`Batch`) or ``None`` for a
    line that is not intact; ``torn`` when the file ends inside a line;
    ``size`` is the file's length in bytes."""

    lines: List[Optional[Batch]] = field(default_factory=list)
    torn: bool = False
    size: int = 0


class TenantDurabilityMachine(RuleBasedStateMachine):
    @initialize()
    def boot(self):
        self.root = Path(tempfile.mkdtemp(prefix="tenant-durability-"))
        self.directory = self.root / SPEC.name
        self.batches: List[Batch] = []
        self.durable = 0
        #: Checkpoint offset on disk -> whether the file is intact.
        self.disk = {}
        #: Segment name (the offset it continues) -> its lines.
        self.segments = {}
        #: The segment the tenant appends to next, its size, and the size
        #: of the checkpoint past which it is compacted.
        self.open = None
        self.open_bytes = 0
        self.snapshot_bytes = 0
        self._start()

    def teardown(self):
        root = getattr(self, "root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)

    # -- model helpers ------------------------------------------------- #
    @property
    def applied(self):
        return self.batches[-1].end if self.batches else 0

    @property
    def identity(self):
        return self.batches[-1].after if self.batches else EMPTY_FINGERPRINT

    def _prefix(self, offset):
        """The batches up to ``offset``, which must be a batch boundary."""
        prefix = [batch for batch in self.batches if batch.end <= offset]
        assert (prefix[-1].end if prefix else 0) == offset
        return prefix

    def _graph(self):
        if not self.batches:
            return set(), set()
        return set(self.batches[-1].vertices), set(self.batches[-1].edges)

    def _discover(self, at_most=None):
        """What checkpoint discovery returns, quarantining torn files and
        skipping those past ``at_most``."""
        for offset in sorted(self.disk, reverse=True):
            if at_most is not None and offset > at_most:
                continue
            if self.disk[offset]:
                return offset
            del self.disk[offset]
        return None

    def _replay(self, offset, identity, until=None):
        """What the tenant's log replay does from the checkpoint at
        ``offset``: the batches it re-applies, and the segments it cuts."""
        replayed = []
        self.open_bytes = 0
        self.snapshot_bytes = checkpoint_path(self.directory, SPEC.algorithm, offset).stat().st_size
        while True:
            self.open, start = offset, offset
            segment = self.segments.get(offset, Segment())
            kept = []
            for batch in segment.lines:
                if until is not None and offset >= until:
                    break
                if batch is None or (batch.start, batch.before) != (offset, identity):
                    break
                kept.append(batch)
                offset, identity = batch.end, batch.after
            self.open_bytes = sum(batch.size for batch in kept)
            if segment.torn or len(kept) < len(segment.lines):
                self.segments[start] = Segment(kept, size=self.open_bytes)
            replayed += kept
            if offset in (start, until) or offset not in self.segments:
                return replayed

    def _loggable(self):
        """The batches the next durable point appends to the open segment:
        those since the durable one, unless no segment is open or the open
        one has records and was deleted."""
        if self.open is None or (self.open_bytes and self.open not in self.segments):
            return []
        return [batch for batch in self.batches if batch.start >= self.durable]

    def _append(self, batches, torn=None):
        """Records of ``batches`` reach the open segment, then half of the
        record of ``torn``; a first commit that fails leaves none.  The
        tenant then knows the segment's size, which is less than the bytes
        it appended when a tear cut the segment behind its back."""
        if not self.open_bytes:
            if torn:
                return
            self.segments[self.open] = Segment()
        segment = self.segments[self.open]
        lines = list(batches)
        if segment.torn and lines:
            # The first record completes the torn line: one bad line.
            lines[0] = None
            segment.torn = False
        segment.lines += lines
        segment.size += sum(batch.size for batch in batches)
        if torn:
            # Half of the document; its newline is not written.
            segment.torn = True
            segment.size += (torn.size - 1) // 2
        self.open_bytes = segment.size

    def _commit(self, snapshot=False):
        """The durable point the tenant just made: log the batches since the
        durable one, then compact when due; keep-N prunes after a compaction."""
        pending = self._loggable()
        if pending:
            self._append(pending)
            self.durable = self.applied
        if snapshot or self.durable < self.applied or self.open_bytes > self.snapshot_bytes:
            self.durable = self.applied
            self.disk[self.durable] = True
            kept = [self.durable]
            for offset in sorted(self.disk, reverse=True):
                if offset == self.durable:
                    continue
                if len(kept) < KEEP and self.disk[offset]:
                    kept.append(offset)
                else:
                    del self.disk[offset]
            for name in [name for name in self.segments if name < min(kept)]:
                del self.segments[name]
            self.open, self.open_bytes = self.durable, 0
            path = checkpoint_path(self.directory, SPEC.algorithm, self.durable)
            self.snapshot_bytes = path.stat().st_size

    def _start(self):
        """A new tenant on the data directory, warm-started from disk."""
        self.tenant = Tenant(SPEC, self.root)
        newest = self._discover()
        if newest is None:
            self.batches, self.open, self.open_bytes = [], None, 0
        else:
            prefix = self._prefix(newest)
            identity = prefix[-1].after if prefix else EMPTY_FINGERPRINT
            self.batches = prefix + self._replay(newest, identity)
        self.durable = self.applied
        with _quiet():
            self.tenant._bootstrap()
        self.reference = create_algorithm("DyOneSwap", DynamicGraph(), None)
        for batch in self.batches:
            self.reference.apply_batch(list(batch.operations))

    def _apply(self, data):
        vertices, edges = self._graph()
        size = data.draw(st.integers(1, 8), label="size")
        operations = tuple(_draw_operation(data, vertices, edges) for _ in range(size))
        with _quiet():
            self.tenant._apply_batch(list(operations))
        self.reference.apply_batch(list(operations))
        self.batches.append(
            Batch(
                operations, frozenset(vertices), frozenset(edges), self.applied,
                self.identity, advance_identity(self.identity, operations),
            )
        )
        if self.applied - self.durable >= EVERY:
            self._commit()

    # -- rules --------------------------------------------------------- #
    @precondition(lambda self: self.tenant.engine is not None)
    @rule(data=st.data())
    def apply_batch(self, data):
        self._apply(data)

    @precondition(lambda self: self.tenant.engine is not None)
    @rule()
    def commit(self):
        """A durable point before ``EVERY`` operations (the wall clock's)."""
        if self.applied > self.durable:
            with _quiet():
                self.tenant._write_checkpoint()
            self._commit()

    @precondition(lambda self: self.tenant.engine is not None)
    @rule(data=st.data())
    def compaction(self, data):
        """Batches and durable points until the log outgrows the checkpoint."""
        snapshots = self.tenant.stats["snapshots"]
        for _ in range(40):
            self._apply(data)
            if self.applied > self.durable:
                with _quiet():
                    self.tenant._write_checkpoint()
                self._commit()
            if self.tenant.stats["snapshots"] > snapshots:
                return

    @precondition(lambda self: self.tenant.engine is not None)
    @rule()
    def checkpoint_command(self):
        with _quiet():
            written = self.tenant.checkpoint()
        if self.applied:
            self._commit(snapshot=True)
            assert written == checkpoint_path(self.directory, SPEC.algorithm, self.durable)
        else:
            assert written is None

    @precondition(lambda self: self.tenant.engine is not None and self.applied)
    @rule(data=st.data())
    def failed_checkpoint_command(self, data):
        """The ``checkpoint`` command fails with a log record or the
        checkpoint half written; the tenant opens no segment until its next
        durable point, which writes a full checkpoint."""
        pending = self._loggable()
        if pending and data.draw(st.booleans(), label="in the log"):
            hit = data.draw(st.integers(1, len(pending)), label="record")
            plan = FaultPlan.at(LOG_APPEND, hit)
        else:
            hit, plan = None, FaultPlan.at(CHECKPOINT_WRITE, 1)
        with _quiet(), inject_faults(plan) as injector:
            try:
                self.tenant.checkpoint()
            except InjectedFault:
                pass
        assert len(injector.fired) == 1
        if hit is None:
            if pending:
                self._append(pending)
                self.durable = self.applied
        else:
            self._append(pending[: hit - 1], torn=pending[hit - 1])
        self.open, self.open_bytes = None, 0

    @precondition(
        lambda self: self.tenant.engine is not None
        and self.open is None
        and self.applied > self.durable
    )
    @rule(data=st.data())
    def checkpoint_lands_past_durable(self, data):
        """A durable point with no segment open writes a full checkpoint,
        and the fsync of its directory fails after the rename: the file is
        on disk past the durable point, which does not move.  In the
        service the error crashes the engine, so recovery often follows."""
        with _quiet(), _directory_fsync_fails_once(self.directory) as fired:
            try:
                self.tenant._write_checkpoint()
            except OSError:
                pass
            else:
                raise AssertionError("the directory fsync did not fail")
        assert fired
        self.disk[self.applied] = True
        if data.draw(st.booleans(), label="the engine crashes"):
            self.crash()

    @precondition(lambda self: self.tenant.engine is not None)
    @rule()
    def crash(self):
        self.tenant.engine = None
        newest = self._discover(at_most=self.durable)
        if newest is None:
            reached = (0, EMPTY_FINGERPRINT)
            self.open, self.open_bytes = None, 0
        else:
            prefix = self._prefix(newest)
            identity = prefix[-1].after if prefix else EMPTY_FINGERPRINT
            replayed = self._replay(newest, identity, until=self.durable)
            last = (replayed or prefix or [None])[-1]
            reached = (last.end, last.after) if last else (0, EMPTY_FINGERPRINT)
            if max(self.disk) > newest:
                # A newer checkpoint stays, and no segment continues it.
                self.open, self.open_bytes = None, 0
        recoverable = reached == (self.durable, self._prefix(self.durable)[-1].after
                                  if self.durable else EMPTY_FINGERPRINT)
        with _quiet():
            try:
                self.tenant._recover()
            except ServiceError:
                assert not recoverable, f"refused, but the log reaches {reached}"
                assert self.tenant.engine is None
            else:
                assert recoverable, f"recovered, but the log reaches {reached}"

    @rule()
    def restart(self):
        self._start()

    @precondition(lambda self: self.disk)
    @rule(delete=st.booleans())
    def damage_newest_checkpoint(self, delete):
        newest, path = find_checkpoints(self.directory, SPEC.algorithm)[-1]
        assert newest == max(self.disk)
        if delete:
            path.unlink()
            del self.disk[newest]
        else:
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            self.disk[newest] = False

    @precondition(
        lambda self: any(
            s.lines and s.lines[-1] is not None and not s.torn
            for s in self.segments.values()
        )
    )
    @rule(data=st.data())
    def tear_log_tail(self, data):
        """A power loss cut a segment's last record in half."""
        name = data.draw(st.sampled_from(sorted(
            name for name, s in self.segments.items()
            if s.lines and s.lines[-1] is not None and not s.torn
        )))
        segment = self.segments[name]
        last = segment.lines.pop()
        path = segment_path(self.directory, SPEC.algorithm, name)
        segment.size -= last.size - last.size // 2
        path.write_bytes(path.read_bytes()[: segment.size])
        segment.torn = True

    @precondition(
        lambda self: self.tenant.engine is not None
        and self.open is not None
        and not self.open_bytes
    )
    @rule(data=st.data())
    def stale_segment(self, data):
        """An earlier history left a segment where the next one goes: its
        record starts at the right offset but continues another identity."""
        base = self._prefix(self.open)
        vertices, edges = (set(base[-1].vertices), set(base[-1].edges)) if base else (set(), set())
        size = data.draw(st.integers(1, 4), label="size")
        operations = tuple(_draw_operation(data, vertices, edges) for _ in range(size))
        before = hashlib.sha256(b"an earlier history").hexdigest()
        stale = Batch(
            operations, frozenset(vertices), frozenset(edges), self.open,
            before, advance_identity(before, operations),
        )
        append_records(
            self.directory, SPEC.algorithm, self.open,
            [(list(operations), stale.after)], self.open,
        )
        self.segments[self.open] = Segment([stale], size=stale.size)

    @precondition(lambda self: self.segments)
    @rule(data=st.data())
    def delete_segment(self, data):
        name = data.draw(st.sampled_from(sorted(self.segments)))
        segment_path(self.directory, SPEC.algorithm, name).unlink()
        del self.segments[name]

    # -- invariants ---------------------------------------------------- #
    @invariant()
    def counters_match_the_model(self):
        tenant = self.tenant
        if tenant.engine is None:
            return
        assert tenant.durable <= tenant.applied
        assert (tenant.durable, tenant.applied) == (self.durable, self.applied)
        identity = EMPTY_FINGERPRINT
        for batch in self.batches:
            identity = advance_identity(identity, batch.operations)
        assert tenant.fingerprint == identity

    @invariant()
    def engine_matches_the_reference(self):
        if self.tenant.engine is not None:
            assert self.tenant.digest() == engine_digest(self.reference)

    @invariant()
    def checkpoints_on_disk_match_the_model(self):
        found = find_checkpoints(self.directory, SPEC.algorithm)
        assert [offset for offset, _ in found] == sorted(self.disk)

    @invariant()
    def segments_on_disk_match_the_model(self):
        names = sorted(
            int(path.name.rsplit("-", 1)[1][: -len(".log")])
            for path in self.directory.glob("*.log")
        ) if self.directory.is_dir() else []
        assert names == sorted(self.segments)
        for name, segment in self.segments.items():
            data = segment_path(self.directory, SPEC.algorithm, name).read_bytes()
            *lines, tail = data.split(b"\n")
            found = [
                (json.loads(line)["offset"], json.loads(line)["identity"])
                if intact_as_written(line) else None
                for line in lines
            ]
            expected = [
                None if batch is None else (batch.start, batch.after)
                for batch in segment.lines
            ]
            assert (found, bool(tail)) == (expected, segment.torn)
            assert len(data) == segment.size

    @invariant()
    def the_open_segment_is_the_models(self):
        tenant = self.tenant
        if tenant.engine is None:
            return
        assert tenant._segment == self.open
        assert tenant.stats["log_bytes"] == self.open_bytes


TestTenantDurability = TenantDurabilityMachine.TestCase
TestTenantDurability.settings = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_a_checkpoint_that_fails_after_its_rename_costs_one_restart(tmp_path):
    """The first durable point (offset 8) writes a full checkpoint, and the
    fsync of its directory raises ``EIO`` after the rename, so the file is
    on disk while ``durable`` is still 0.  Recovery starts from the newest
    checkpoint at or below ``durable`` (none: a fresh engine), replays the
    buffer and serves on, and a later durable point moves ``durable``."""
    spec = TenantSpec(
        name="t", batch_size=4, window_max=4, adaptive=False,
        checkpoint_every=8, checkpoint_keep=KEEP,
    )
    ops = list(mixed_update_stream(DynamicGraph(), 64, seed=3, edge_fraction=0.5))
    reference = create_algorithm(spec.algorithm, DynamicGraph(), None)
    for group in chunked(iter(ops), spec.batch_size):
        reference.apply_batch(group)
    directory = tmp_path / spec.name

    async def scenario():
        tenant = Tenant(spec, tmp_path, retry=RetryPolicy(max_attempts=3, base_delay=0.0))
        task = asyncio.get_running_loop().create_task(tenant.run())
        await tenant.ready.wait()
        with _directory_fsync_fails_once(directory) as fired:
            tenant.offer(ops[:8], 1)
            await tenant.flush()
        assert fired and tenant.status == "serving"
        assert checkpoint_path(directory, spec.algorithm, 8).exists()
        tenant.offer(ops[8:], 9)
        await tenant.flush()
        state = (tenant.status, tenant.durable, tenant.applied, tenant.digest())
        tenant.request_drain()
        await asyncio.wait_for(task, 30)
        return tenant, state

    tenant, (status, durable_offset, applied, digest) = asyncio.run(scenario())
    assert status == "serving"
    assert (tenant.stats["crashes"], tenant.stats["restarts"]) == (1, 1)
    assert durable_offset > 8 and applied == len(ops)
    assert digest == engine_digest(reference)
