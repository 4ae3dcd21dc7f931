"""Streaming equivalence and constant-memory guarantees of the lazy pipeline.

The iterator-first refactor claims two things, both asserted here:

1. **Equivalence** — feeding an algorithm a one-pass lazy stream produces
   bit-identical graphs, solution sizes and statistics vs the historical
   materialised-list path, across eager/lazy state and batched/unbatched
   application; and resuming from a checkpoint offset over a generator
   equals an uninterrupted run.
2. **Constant memory** — a long temporal replay through the *full* pipeline
   (streaming parser → windowed replay → coalescer → engine → checkpoints)
   keeps its tracemalloc peak bounded by the retention window + one batch,
   independent of the stream length, with ``len()`` never called on the
   stream; and no consumer holds more than one batch window resident.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.experiments.runner import run_algorithm
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.coalesce import coalesce_batch
from repro.updates.streams import UpdateStream
from repro.workloads.replay import CheckpointConfig, find_checkpoints
from repro.workloads.snapshot import graph_to_payload
from repro.workloads.temporal import (
    iter_synthetic_temporal_events,
    iter_temporal_edge_list,
    synthetic_temporal_events,
    temporal_update_stream,
    write_temporal_edge_list,
)


def _stats_fingerprint(algo):
    stats = algo.stats
    return (
        stats.updates_processed,
        dict(stats.swaps_performed),
        stats.perturbations,
        stats.candidates_processed,
        stats.operations_coalesced,
        stats.batches_applied,
    )


@pytest.fixture(scope="module")
def temporal_events():
    return synthetic_temporal_events(500, num_vertices=80, seed=42)


class OneShot:
    """A strictly one-pass, unsized stream (no ``__len__``, no replay)."""

    def __init__(self, operations):
        self._iterator = iter(operations)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        operation = next(self._iterator)
        self.pulled += 1
        return operation


class LenForbidden:
    """Replayable stream wrapper whose ``len()`` is an error.

    Carries the wrapped stream's description so checkpoint provenance
    still round-trips; ``length_hint`` is honestly unknown.
    """

    def __init__(self, stream):
        self._stream = stream
        self.description = getattr(stream, "description", "")

    def __iter__(self):
        return iter(self._stream)

    def length_hint(self):
        return None  # honestly unknown — the protocol's answer, not len()

    def __len__(self):  # pragma: no cover - the assertion under test
        raise AssertionError("len() must never be called on a lazy stream")


class TestLazyVsMaterialisedEquivalence:
    @pytest.mark.parametrize("lazy_state", [False, True])
    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("algorithm_class", [DyOneSwap, DyTwoSwap])
    def test_one_pass_stream_matches_list_path(
        self, temporal_events, algorithm_class, lazy_state, batch_size
    ):
        stream = temporal_update_stream(temporal_events, window=25.0, max_live=150)
        materialised = UpdateStream(
            operations=list(stream), description=stream.description
        )
        reference = algorithm_class(DynamicGraph(), lazy=lazy_state)
        reference.apply_stream(materialised, batch_size=batch_size)
        subject = algorithm_class(DynamicGraph(), lazy=lazy_state)
        subject.apply_stream(OneShot(iter(stream)), batch_size=batch_size)
        assert graph_to_payload(subject.graph) == graph_to_payload(reference.graph)
        assert subject.solution() == reference.solution()
        assert _stats_fingerprint(subject) == _stats_fingerprint(reference)

    def test_coalesce_accepts_unsized_iterators(self, temporal_events):
        stream = temporal_update_stream(temporal_events, window=25.0)
        operations = list(stream)[:200]
        graph = DynamicGraph()
        from_list = coalesce_batch(graph, operations)
        from_iter = coalesce_batch(graph, iter(operations))
        assert from_iter.num_input == from_list.num_input == 200
        assert [str(o) for o in from_iter.operations] == [
            str(o) for o in from_list.operations
        ]


class TestBatchWindowResidency:
    def test_apply_stream_pulls_at_most_one_window_ahead(self, temporal_events):
        """No consumer holds more than one batch window resident.

        The stream is consumed through a counting one-shot iterator and
        ``apply_batch`` is spied on: at the moment the i-th batch is
        applied, at most ``(i + 1) * batch_size`` operations may have been
        pulled from the source — i.e. the engine never prefetches beyond
        the window it is about to apply.
        """
        batch_size = 64
        stream = temporal_update_stream(temporal_events, window=25.0, max_live=150)
        counter = OneShot(iter(stream))
        algo = DyOneSwap(DynamicGraph())
        real_apply_batch = algo.apply_batch
        pulled_at_call = []

        def spy(batch, **kwargs):
            pulled_at_call.append(counter.pulled)
            return real_apply_batch(batch, **kwargs)

        algo.apply_batch = spy
        algo.apply_stream(counter, batch_size=batch_size)
        assert pulled_at_call, "the spy never fired"
        for index, pulled in enumerate(pulled_at_call):
            assert pulled <= (index + 1) * batch_size
        assert algo.stats.updates_processed == counter.pulled


class TestResumeFromOffsetOverGenerator:
    def test_resume_equals_uninterrupted_without_len(self, tmp_path):
        """Offset+fingerprint resume over unsized streams, ``len()`` banned."""
        events = synthetic_temporal_events(400, num_vertices=60, seed=9)

        def fresh_stream():
            return LenForbidden(
                temporal_update_stream(events, window=20.0, description="gen")
            )

        config = CheckpointConfig(directory=tmp_path, every=150)
        reference = run_algorithm(
            "DyOneSwap", DynamicGraph(), fresh_stream(), dataset="g", checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) >= 2
        for _processed, path in checkpoints[:-1]:
            resumed = run_algorithm(
                "DyOneSwap",
                DynamicGraph(),
                fresh_stream(),
                dataset="g",
                resume_from=path,
            )
            assert resumed.num_updates == reference.num_updates
            assert resumed.final_size == reference.final_size
            assert resumed.memory_footprint == reference.memory_footprint
            assert resumed.extra == reference.extra
            assert resumed.finished and reference.finished

    def test_resume_across_equivalent_constructions(self, tmp_path):
        """Same dataset, same policy, different (equally valid) sources.

        The description carries policy only, so a checkpoint taken on a
        list-backed construction resumes against a streaming-parser
        construction of the same file — the prefix fingerprint proves the
        operations identical.
        """
        events = synthetic_temporal_events(300, num_vertices=60, seed=4)
        path = tmp_path / "events.txt"
        write_temporal_edge_list(events, path)
        config = CheckpointConfig(directory=tmp_path / "ck", every=120)
        reference = run_algorithm(
            "DyOneSwap",
            DynamicGraph(),
            temporal_update_stream(events, window=20.0),  # list-backed
            dataset="e",
            checkpoint=config,
        )
        mid = find_checkpoints(tmp_path / "ck", "DyOneSwap")[0][1]
        resumed = run_algorithm(
            "DyOneSwap",
            DynamicGraph(),
            temporal_update_stream(iter_temporal_edge_list(path), window=20.0),
            dataset="e",
            resume_from=mid,
        )
        assert resumed.num_updates == reference.num_updates
        assert resumed.final_size == reference.final_size
        assert resumed.extra == reference.extra

    def test_resume_rejects_a_different_generator(self, tmp_path):
        from repro.exceptions import ExperimentError

        events = synthetic_temporal_events(300, num_vertices=50, seed=1)
        other_events = synthetic_temporal_events(300, num_vertices=50, seed=2)
        config = CheckpointConfig(directory=tmp_path, every=120)
        run_algorithm(
            "DyOneSwap",
            DynamicGraph(),
            LenForbidden(temporal_update_stream(events, window=20.0, description="s")),
            checkpoint=config,
        )
        path = find_checkpoints(tmp_path, "DyOneSwap")[0][1]
        # Same description, same policy — only the operations differ.  The
        # length check can't see it (no lengths), the description check
        # can't either: the prefix fingerprint must.
        with pytest.raises(ExperimentError, match="fingerprint"):
            run_algorithm(
                "DyOneSwap",
                DynamicGraph(),
                LenForbidden(
                    temporal_update_stream(other_events, window=20.0, description="s")
                ),
                resume_from=path,
            )


class TestCompetitionReplayability:
    @pytest.mark.parametrize("kind", ["iterator", "one-shot-source"])
    def test_one_shot_stream_with_two_algorithms_is_refused_unread(
        self, temporal_events, kind
    ):
        """A one-shot stream cannot be replayed once per algorithm: the
        competition refuses it before reading a single operation."""
        from repro.exceptions import ExperimentError
        from repro.experiments.runner import run_competition

        pulls = {"count": 0}

        def counting(items):
            for item in items:
                pulls["count"] += 1
                yield item

        if kind == "iterator":
            stream = counting(temporal_update_stream(temporal_events, window=25.0))
        else:
            stream = temporal_update_stream(counting(temporal_events), window=25.0)
        with pytest.raises(ExperimentError, match="pass a list, an UpdateStream"):
            run_competition(
                DynamicGraph(),
                stream,
                algorithms=("DyOneSwap", "DyTwoSwap"),
                attach_reference=False,
            )
        assert pulls["count"] == 0

    def test_single_algorithm_one_shot_still_allowed(self, temporal_events):
        from repro.experiments.runner import run_competition

        stream = temporal_update_stream(iter(temporal_events), window=25.0)
        results = run_competition(
            DynamicGraph(),
            stream,
            algorithms=("DyOneSwap",),
            attach_reference=False,
        )
        assert results["DyOneSwap"].num_updates > 0


class TestStreamMetadataStaysCheap:
    def test_prefix_never_triggers_a_summary_pass(self, temporal_events):
        stream = temporal_update_stream(temporal_events, window=25.0)
        # A prefix copies what is currently known, O(1) — unlike the
        # metadata property, it must not burn a full replay of a large source.
        prefix = stream.prefix(10)
        assert stream.length_hint() is None
        assert "final_vertices" not in prefix.metadata
        assert prefix.metadata["window"] == 25.0
        list(stream)
        assert "final_vertices" in stream.prefix(10).metadata


class TestConstantMemoryPipeline:
    #: tracemalloc peak allowed for the full-pipeline replay below.  The
    #: materialised 50k-operation list alone measures ~12 MB on CPython
    #: 3.11/3.12; the lazy pipeline stays around 1-2 MB (retention window +
    #:  one batch + the engine's own state), so 6 MB is a comfortable bound
    #: that still fails loudly on any O(stream) regression.
    PEAK_BOUND_BYTES = 6 * 1024 * 1024

    def test_50k_operation_replay_is_o_window(self, tmp_path):
        """Parser → windowed replay → coalescer → engine → checkpoints, 50k ops.

        The whole pipeline runs off a file through one-pass iterators; the
        tracemalloc peak must stay bounded by the retention window and one
        batch — not the stream length — and ``len()`` is never called on
        the stream.  A checkpoint/resume of the same pipeline must then
        reproduce the uninterrupted statistics exactly.
        """
        path = tmp_path / "events.txt"
        # ~9.5k events expand to >50k operations under this window policy
        # (edge inserts + synthesized expiries + isolated-vertex GC).
        write_temporal_edge_list(
            iter_synthetic_temporal_events(9_500, num_vertices=700, seed=13),
            path,
        )

        def pipeline_stream():
            return LenForbidden(
                temporal_update_stream(
                    iter_temporal_edge_list(path),
                    window=18.0,
                    max_live=900,
                    description="50k-replay",
                )
            )

        checkpoint_dir = tmp_path / "ckpt"
        config = CheckpointConfig(directory=checkpoint_dir, every=6_400, keep=3)
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            measurement = run_algorithm(
                "DyOneSwap",
                DynamicGraph(),
                pipeline_stream(),
                dataset="50k",
                batch_size=64,
                checkpoint=config,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert measurement.finished
        assert measurement.num_updates >= 50_000
        assert peak - baseline < self.PEAK_BOUND_BYTES, (
            f"pipeline peak {peak - baseline} bytes exceeds the O(window) "
            f"bound {self.PEAK_BOUND_BYTES}"
        )
        # Checkpoint offsets stay exact multiples of the interval even
        # though the runner chunks well below it (bounded residency).
        offsets = [p for p, _ in find_checkpoints(checkpoint_dir, "DyOneSwap")]
        assert all(p % 6_400 == 0 for p in offsets[:-1])
        # Resume from the oldest retained checkpoint: cumulative statistics
        # must equal the uninterrupted run's.
        first = find_checkpoints(checkpoint_dir, "DyOneSwap")[0][1]
        resumed = run_algorithm(
            "DyOneSwap",
            DynamicGraph(),
            pipeline_stream(),
            dataset="50k",
            batch_size=64,
            resume_from=first,
        )
        assert resumed.num_updates == measurement.num_updates
        assert resumed.final_size == measurement.final_size
        assert resumed.memory_footprint == measurement.memory_footprint
        assert resumed.extra == measurement.extra
