"""Model-based test of the checkpoint encoder: written bytes equal the reference.

Checkpoints and snapshots are written from
:func:`~repro.workloads.snapshot.algorithm_to_document`, whose adjacency is
the graph's pre-encoded text: a row keeps the text of the previous encode
while its set object is the one rendered then, and the copy-on-write barrier
replaces the set object on the first write after an encode.  The reference
is :func:`~repro.workloads.snapshot.algorithm_to_payload`, which sorts and
encodes every row.

A Hypothesis rule-based machine drives engines (DyOneSwap, DyTwoSwap,
KSwapFramework with k=3; eager or lazy) through interleaved steps: batches
on both sides of ``BULK_APPLY_THRESHOLD``, per-operation updates, vertex
churn that recycles slots, forks and what-if forks written on both sides,
refused bulk batches, and restores from a checkpoint that then continue —
with int, str and bool labels.  Every encode, and every checkpoint file,
must equal the reference byte for byte.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.core.base import DynamicMISBase
from repro.core.framework import KSwapFramework
from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.exceptions import UpdateError
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.faults import CHECKPOINT_WRITE
from repro.resilience.integrity import canonical_bytes, write_document
from repro.updates.operations import UpdateKind, UpdateOperation, apply_update
from repro.workloads.replay import load_checkpoint, save_checkpoint
from repro.workloads.snapshot import algorithm_to_document, algorithm_to_payload

THRESHOLD = DynamicMISBase.BULK_APPLY_THRESHOLD

#: Forks beyond this many live engines are skipped, so runs stay small.
MAX_ENGINES = 3

#: Initial labels: bools, str with non-ASCII characters and escapes, and
#: ints (none equal to 0 or 1, which would collide with the bools).
LABELS = [True, "a", -5, False, 'ü"\\\n', 10**20, 7, "b", 8, 9, "c", 10]

ENGINES = {
    "DyOneSwap": lambda graph, lazy: DyOneSwap(graph, lazy=lazy),
    "DyTwoSwap": lambda graph, lazy: DyTwoSwap(graph, lazy=lazy),
    "KSwapFramework": lambda graph, lazy: KSwapFramework(graph, k=3, lazy=lazy),
}


def encoded(engine) -> bytes:
    return canonical_bytes(algorithm_to_document(engine))


def reference(engine) -> bytes:
    return canonical_bytes(algorithm_to_payload(engine))


class Labels:
    """Fresh labels, alternating int and str, plus deleted ones to re-insert."""

    def __init__(self) -> None:
        self.minted = 0
        self.deleted: list = []

    def pick(self, rng, alive) -> object:
        """A label not in ``alive``: a deleted one half of the time."""
        reusable = [i for i, v in enumerate(self.deleted) if v not in alive]
        if reusable and rng.random() < 0.5:
            return self.deleted.pop(rng.choice(reusable))
        self.minted += 1
        return 1000 + self.minted if self.minted % 2 else f"v{self.minted}-é\t"


def draw_operations(rng, graph: DynamicGraph, count: int, labels: Labels) -> list:
    """``count`` operations valid against ``graph`` in sequence.

    Vertex deletions free slots that later insertions recycle.  Only lists
    are iterated, never sets of labels, so a seed yields the same
    operations in every process.  Exactly ``count`` operations come out,
    so a bulk-sized request stays on the bulk path.
    """
    vertices = list(graph.vertices())
    alive = set(vertices)
    edges = [tuple(edge) for edge in graph.edges()]
    present = {frozenset(edge) for edge in edges}
    operations = []
    for _ in range(count):
        kind = rng.choice(("+v", "-v", "+e", "+e", "-e", "-e"))
        if kind == "-v" and vertices:
            v = vertices.pop(rng.randrange(len(vertices)))
            alive.discard(v)
            edges = [e for e in edges if v not in e]
            present = {frozenset(e) for e in edges}
            labels.deleted.append(v)
            operations.append(UpdateOperation.delete_vertex(v))
        elif kind == "+e" and len(vertices) >= 2:
            u, v = rng.sample(vertices, 2)
            if frozenset((u, v)) in present:
                # Already an edge: delete it instead.
                edges = [e for e in edges if frozenset(e) != frozenset((u, v))]
                present.discard(frozenset((u, v)))
                operations.append(UpdateOperation.delete_edge(u, v))
                continue
            edges.append((u, v))
            present.add(frozenset((u, v)))
            operations.append(UpdateOperation.insert_edge(u, v))
        elif kind == "-e" and edges:
            u, v = edges.pop(rng.randrange(len(edges)))
            present.discard(frozenset((u, v)))
            operations.append(UpdateOperation.delete_edge(u, v))
        else:
            v = labels.pick(rng, alive)
            neighbors = rng.sample(vertices, min(len(vertices), rng.randint(0, 3)))
            vertices.append(v)
            alive.add(v)
            for w in neighbors:
                edges.append((v, w))
                present.add(frozenset((v, w)))
            operations.append(UpdateOperation.insert_vertex(v, neighbors))
    return operations


class EncoderMachine(RuleBasedStateMachine):
    @initialize(
        algorithm=st.sampled_from(sorted(ENGINES)),
        lazy=st.booleans(),
        n=st.integers(min_value=3, max_value=len(LABELS)),
        rng=st.randoms(use_true_random=False),
    )
    def build(self, algorithm, lazy, n, rng):
        vertices = LABELS[:n]
        edges = [
            (u, v)
            for i, u in enumerate(vertices)
            for v in vertices[i + 1 :]
            if rng.random() < 0.3
        ]
        self.engines = [ENGINES[algorithm](DynamicGraph(vertices, edges), lazy)]
        self.labels = Labels()
        self.directory = Path(tempfile.mkdtemp(prefix="encoder-machine-"))
        self.checkpoints = 0

    def teardown(self):
        try:
            for engine in self.engines:
                assert encoded(engine) == reference(engine)
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)

    def _engine(self, data):
        index = data.draw(st.integers(0, len(self.engines) - 1), label="engine")
        return index, self.engines[index]

    def _operations(self, data, engine, kind):
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        if kind == "bulk":
            count = rng.randint(THRESHOLD, THRESHOLD + 16)
        else:
            count = rng.randint(1, THRESHOLD - 1)
        return draw_operations(rng, engine.graph, count, self.labels)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    @rule(data=st.data(), kind=st.sampled_from(["short", "bulk"]))
    def apply_batch(self, data, kind):
        _, engine = self._engine(data)
        engine.apply_batch(self._operations(data, engine, kind))

    @rule(data=st.data())
    def apply_updates(self, data):
        _, engine = self._engine(data)
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        for operation in draw_operations(rng, engine.graph, rng.randint(1, 4), self.labels):
            engine.apply_update(operation)

    @rule(data=st.data())
    def churn_vertices(self, data):
        """Delete some vertices, then insert as many: the inserts recycle
        the freed slots (the free-list is LIFO)."""
        _, engine = self._engine(data)
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        vertices = list(engine.graph.vertices())
        doomed = rng.sample(vertices, min(len(vertices), rng.randint(1, 3)))
        for v in doomed:
            engine.apply_update(UpdateOperation.delete_vertex(v))
        survivors = list(engine.graph.vertices())
        alive = set(survivors)
        for _ in doomed:
            neighbors = rng.sample(survivors, min(len(survivors), rng.randint(0, 3)))
            label = self.labels.pick(rng, alive)
            alive.add(label)
            engine.apply_update(UpdateOperation.insert_vertex(label, neighbors))

    @rule(data=st.data(), kind=st.sampled_from(["existing-edge", "existing-vertex"]))
    def refused_bulk_batch(self, data, kind):
        """A bulk batch whose last operation is invalid leaves no trace."""
        _, engine = self._engine(data)
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        labels = Labels()  # the refused batch's labels stay unused
        labels.minted = self.labels.minted
        operations = draw_operations(rng, engine.graph, THRESHOLD, labels)
        after = engine.graph.copy()
        for operation in operations:
            apply_update(after, operation)
        if kind == "existing-edge" and after.num_edges:
            operations.append(UpdateOperation.insert_edge(*rng.choice(list(after.edges()))))
        elif after.num_vertices:
            operations.append(UpdateOperation.insert_vertex(rng.choice(list(after.vertices()))))
        else:
            return
        before = reference(engine)
        with pytest.raises(UpdateError):
            engine.apply_batch(operations)
        assert reference(engine) == before

    # ------------------------------------------------------------------ #
    # Forks
    # ------------------------------------------------------------------ #
    @precondition(lambda self: len(self.engines) < MAX_ENGINES)
    @rule(data=st.data())
    def fork(self, data):
        _, engine = self._engine(data)
        self.engines.append(engine.fork())

    @rule(data=st.data(), kind=st.sampled_from(["short", "bulk"]))
    def what_if(self, data, kind):
        """A discarded fork written after the fork point; the base then
        writes too, and the fork resets the base's ownership bitmap."""
        _, engine = self._engine(data)
        hypothetical = engine.fork()
        hypothetical.apply_batch(self._operations(data, hypothetical, kind))
        if data.draw(st.booleans(), label="encode the fork"):
            assert encoded(hypothetical) == reference(hypothetical)
        engine.apply_batch(self._operations(data, engine, kind))

    # ------------------------------------------------------------------ #
    # Encodes
    # ------------------------------------------------------------------ #
    @rule(data=st.data())
    def encode(self, data):
        _, engine = self._engine(data)
        assert encoded(engine) == reference(engine)

    @rule(data=st.data())
    def checkpoint_and_restore(self, data):
        """The checkpoint file equals the reference encoding of the same
        document; the engine restored from it continues in its place."""
        index, engine = self._engine(data)
        self.checkpoints += 1
        path = save_checkpoint(
            engine,
            self.directory,
            algorithm_name=f"engine{index}",
            processed=self.checkpoints,
            initial_size=0,
        )
        written = path.read_bytes()
        document = json.loads(written)
        del document["sha256"]
        document["algorithm"] = algorithm_to_payload(engine)
        expected = io.BytesIO()
        write_document(expected, document, fault_point=CHECKPOINT_WRITE)
        assert written == expected.getvalue()
        if data.draw(st.booleans(), label="restore"):
            self.engines[index] = load_checkpoint(path).restore()
            assert reference(self.engines[index]) == reference(engine)


TestEncoderMachine = EncoderMachine.TestCase
TestEncoderMachine.settings = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def test_draw_operations_is_valid_and_recycles_slots():
    """The generator's operations apply cleanly, and insertions after
    deletions reuse the freed slots."""
    graph = DynamicGraph(LABELS[:6], [(LABELS[0], LABELS[1])])
    engine = DyOneSwap(graph)
    labels = Labels()
    rng = random.Random(3)
    inserted = 0
    for _ in range(20):
        operations = draw_operations(rng, graph, 40, labels)
        inserted += sum(op.kind is UpdateKind.INSERT_VERTEX for op in operations)
        engine.apply_batch(operations)
        graph.check_consistency()
    assert inserted > 0
    assert graph.num_slots < 6 + inserted
