"""Model-based test of a service tenant's durability, in-process.

A Hypothesis rule-based state machine drives one :class:`Tenant` on a small
graph without an event loop: it applies batches of valid operations, writes
checkpoints, crashes the engine and recovers it, restarts the tenant on the
same data directory, and tears or deletes the newest checkpoint file.  The
model is the list of applied batches, the durable prefix and the checkpoint
files on disk (with whether each is intact).  After every step the tenant
must agree with it:

* ``durable <= applied``, and both equal the model's;
* ``fingerprint`` is :func:`advance_identity` folded over the model's
  batches;
* the engine's digest equals a reference engine fed the same batches with
  the same boundaries;
* the checkpoint offsets on disk are the model's, keep-N included;
* ``_recover`` refuses exactly when the newest valid checkpoint is not the
  durable one.
"""

from __future__ import annotations

import shutil
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.exceptions import ServiceError
from repro.experiments.runner import create_algorithm
from repro.graphs.dynamic_graph import DynamicGraph
from repro.service.config import TenantSpec
from repro.service.tenant import Tenant, engine_digest
from repro.updates.operations import UpdateOperation
from repro.updates.protocol import EMPTY_FINGERPRINT, advance_identity
from repro.workloads.replay import find_checkpoints

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


class TenantDurabilityMachine(RuleBasedStateMachine):
    @initialize()
    def boot(self):
        self.root = Path(tempfile.mkdtemp(prefix="tenant-durability-"))
        #: Applied batches, each with the graph ``(vertices, edges)`` after it.
        self.batches = []
        self.durable = 0
        #: Checkpoint offset on disk -> whether the file is intact.
        self.disk = {}
        self._start()

    def teardown(self):
        root = getattr(self, "root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)

    # -- model helpers ------------------------------------------------- #
    @property
    def applied(self):
        return sum(len(batch) for batch, _, _ in self.batches)

    def _graph(self):
        if not self.batches:
            return set(), set()
        _, vertices, edges = self.batches[-1]
        return set(vertices), set(edges)

    def _discover(self):
        """What checkpoint discovery returns, quarantining torn files."""
        for offset in sorted(self.disk, reverse=True):
            if self.disk[offset]:
                return offset
            del self.disk[offset]
        return None

    def _written(self):
        """The tenant committed a checkpoint at ``applied``: keep-N prunes."""
        self.durable = self.applied
        self.disk[self.durable] = True
        for offset in sorted(self.disk)[:-KEEP]:
            del self.disk[offset]

    def _start(self):
        """A new tenant on the data directory, warm-started from disk."""
        self.tenant = Tenant(SPEC, self.root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self.tenant._bootstrap()
        offset = self._discover() or 0
        while self.applied > offset:
            self.batches.pop()
        self.durable = offset
        self.reference = create_algorithm("DyOneSwap", DynamicGraph(), None)
        for batch, _, _ in self.batches:
            self.reference.apply_batch(batch)

    # -- rules --------------------------------------------------------- #
    @precondition(lambda self: self.tenant.engine is not None)
    @rule(data=st.data())
    def apply_batch(self, data):
        vertices, edges = self._graph()
        size = data.draw(st.integers(1, 8), label="size")
        batch = [_draw_operation(data, vertices, edges) for _ in range(size)]
        self.tenant._apply_batch(list(batch))
        self.reference.apply_batch(batch)
        self.batches.append((batch, frozenset(vertices), frozenset(edges)))
        if self.applied - self.durable >= EVERY:
            self._written()

    @precondition(lambda self: self.tenant.engine is not None)
    @rule()
    def write_checkpoint(self):
        self.tenant._write_checkpoint()
        self._written()

    @precondition(lambda self: self.tenant.engine is not None)
    @rule()
    def crash(self):
        self.tenant.engine = None
        newest = self._discover()
        recoverable = (0 if newest is None else newest) == self.durable
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                self.tenant._recover()
            except ServiceError:
                assert not recoverable
                assert self.tenant.engine is None
            else:
                assert recoverable, f"recovered from {newest}, durable {self.durable}"

    @rule()
    def restart(self):
        self._start()

    @precondition(lambda self: self.disk)
    @rule(delete=st.booleans())
    def damage_newest_checkpoint(self, delete):
        directory = self.tenant.checkpoints.directory
        newest, path = find_checkpoints(directory, SPEC.algorithm)[-1]
        assert newest == max(self.disk)
        if delete:
            path.unlink()
            del self.disk[newest]
        else:
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            self.disk[newest] = False

    # -- invariants ---------------------------------------------------- #
    @invariant()
    def counters_match_the_model(self):
        tenant = self.tenant
        if tenant.engine is None:
            return
        assert tenant.durable <= tenant.applied
        assert (tenant.durable, tenant.applied) == (self.durable, self.applied)
        identity = EMPTY_FINGERPRINT
        for batch, _, _ in self.batches:
            identity = advance_identity(identity, batch)
        assert tenant.fingerprint == identity

    @invariant()
    def engine_matches_the_reference(self):
        if self.tenant.engine is not None:
            assert self.tenant.digest() == engine_digest(self.reference)

    @invariant()
    def checkpoints_on_disk_match_the_model(self):
        found = find_checkpoints(self.tenant.checkpoints.directory, SPEC.algorithm)
        assert [offset for offset, _ in found] == sorted(self.disk)


TestTenantDurability = TenantDurabilityMachine.TestCase
TestTenantDurability.settings = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
