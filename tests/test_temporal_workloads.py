"""Tests for the temporal ingestion layer (parser, policies, cache, catalog)."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tracemalloc

import pytest

from repro.exceptions import EdgeNotFoundError, GraphError, InjectedFault, UpdateError
from repro.experiments import (
    QUICK_PROFILE,
    load_temporal_workload,
    run_algorithm,
    temporal_workload_names,
)
from repro.exceptions import ExperimentError
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.durable import recording
from repro.resilience.faults import CACHE_READ, FaultPlan, inject_faults
from repro.updates.operations import UpdateKind
from repro.updates.protocol import StreamCursor
from repro.workloads import CheckpointConfig, find_checkpoints, load_checkpoint
from repro.workloads.temporal import (
    CACHE_CHUNK,
    TemporalEdge,
    cached_temporal_stream,
    read_temporal_edge_list,
    synthetic_temporal_events,
    temporal_update_stream,
    write_temporal_edge_list,
)

#: The kinds of an insertion-only stream.
INSERTIONS = (UpdateKind.INSERT_VERTEX, UpdateKind.INSERT_EDGE)


class TestTemporalParser:
    def test_roundtrip(self, tmp_path):
        events = [TemporalEdge(1, 2, 10.0), TemporalEdge(2, 3, 11.0), TemporalEdge(1, 3, 14.0)]
        path = tmp_path / "events.txt"
        write_temporal_edge_list(events, path, header="three interactions")
        assert read_temporal_edge_list(path) == events

    def test_roundtrip_preserves_epoch_scale_timestamps(self, tmp_path):
        # SNAP temporal files carry unix epochs; fixed-precision formatting
        # (e.g. %g) would collapse these three distinct timestamps.
        events = [
            TemporalEdge(1, 2, 1217567877.0),
            TemporalEdge(2, 3, 1217567878.0),
            TemporalEdge(3, 4, 1217567999.5),
        ]
        path = tmp_path / "epochs.txt"
        write_temporal_edge_list(events, path)
        assert read_temporal_edge_list(path) == events

    def test_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# header\n\n1 2 5\n\n# trailing\n2 3 6\n")
        assert len(read_temporal_edge_list(path)) == 2

    def test_missing_timestamp_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\n3 4\n")
        with pytest.raises(GraphError, match=r"events\.txt:2"):
            read_temporal_edge_list(path)

    def test_non_integer_vertex_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\na 4 6\n")
        with pytest.raises(GraphError, match=r"events\.txt:2.*integers"):
            read_temporal_edge_list(path)

    def test_non_numeric_timestamp_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 noon\n")
        with pytest.raises(GraphError, match=r"events\.txt:1.*timestamp"):
            read_temporal_edge_list(path)

    def test_self_loop_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\n3 3 6\n")
        with pytest.raises(GraphError, match=r"events\.txt:2.*self loop"):
            read_temporal_edge_list(path)

    def test_self_loop_skip_policy(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\n3 3 6\n2 3 7\n")
        events = read_temporal_edge_list(path, self_loops="skip")
        assert [(e.u, e.v) for e in events] == [(1, 2), (2, 3)]

    def test_non_monotone_timestamp_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 10\n2 3 9\n")
        with pytest.raises(GraphError, match=r"events\.txt:2.*smaller"):
            read_temporal_edge_list(path)

    def test_non_monotone_sort_policy(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 10\n2 3 9\n1 3 11\n")
        events = read_temporal_edge_list(path, unsorted="sort")
        assert [e.timestamp for e in events] == [9.0, 10.0, 11.0]

    def test_unknown_policies_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\n")
        with pytest.raises(ValueError):
            read_temporal_edge_list(path, self_loops="maybe")
        with pytest.raises(ValueError):
            read_temporal_edge_list(path, unsorted="shuffle")
        # The sort path must validate self_loops too (it bypasses the
        # streaming source's validation).
        with pytest.raises(ValueError):
            read_temporal_edge_list(path, self_loops="maybe", unsorted="sort")


class TestWindowingPolicies:
    def test_insertion_only_when_no_policy(self):
        events = [TemporalEdge(0, 1, 0.0), TemporalEdge(1, 2, 5.0)]
        stream = temporal_update_stream(events)
        assert all(op.kind in INSERTIONS for op in stream)
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert graph.num_edges == 2

    def test_lazy_stream_protocol_surface(self):
        events = [TemporalEdge(i, i + 1, float(i)) for i in range(12)]
        stream = temporal_update_stream(events, max_live=4, gc_isolated=False)
        # length_hint is honest: unknown before any completed pass.
        assert stream.length_hint() is None
        total = stream.count()  # counting pass, then cached
        assert stream.length_hint() == total
        # A prefix is itself a lazy stream with a derived hint/description.
        prefix = stream.prefix(5)
        assert prefix.length_hint() == 5
        assert prefix.description.endswith("[:5]")
        assert len(list(prefix)) == 5
        assert stream.prefix(10_000).length_hint() == total
        # Materialising takes one pass; a cursor pass fingerprints.
        assert len(list(stream)) == total
        cursor = StreamCursor(stream)
        assert cursor.skip(total + 1) == total

    def test_one_shot_event_iterator_gives_one_shot_stream(self):
        events = (TemporalEdge(2 * i, 2 * i + 1, float(i)) for i in range(6))
        stream = temporal_update_stream(events)
        assert len(list(stream)) == 18  # 2 vertex inserts + 1 edge insert each
        assert list(stream) == []  # generator exhausted: one pass only

    def test_one_shot_bookkeeping_never_drains_the_source(self):
        events = (TemporalEdge(2 * i, 2 * i + 1, float(i)) for i in range(6))
        stream = temporal_update_stream(events)
        # Reading metadata before the pass must NOT burn a hidden summary
        # pass (that would silently empty the generator for the real run).
        assert "final_vertices" not in stream.metadata
        with pytest.raises(TypeError, match="one-shot"):
            stream.count()
        assert len(list(stream)) == 18  # the single real pass still intact
        # After the completed pass the summary (and count) are available.
        assert stream.metadata["final_edges"] == 6
        assert stream.count() == 18

    def test_time_window_synthesizes_deletions(self):
        events = [
            TemporalEdge(0, 1, 0.0),
            TemporalEdge(1, 2, 1.0),
            TemporalEdge(2, 3, 20.0),  # expires (0,1) and (1,2)
        ]
        stream = temporal_update_stream(events, window=10.0, gc_isolated=False)
        kinds = [op.kind for op in stream]
        assert kinds.count(UpdateKind.DELETE_EDGE) == 2
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert graph.num_edges == 1
        assert graph.has_edge(2, 3)

    def test_gc_isolated_deletes_orphaned_vertices(self):
        events = [TemporalEdge(0, 1, 0.0), TemporalEdge(5, 6, 50.0)]
        stream = temporal_update_stream(events, window=10.0, gc_isolated=True)
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert not graph.has_vertex(0) and not graph.has_vertex(1)
        assert graph.has_edge(5, 6)
        assert any(op.kind is UpdateKind.DELETE_VERTEX for op in stream)

    def test_capacity_decay_evicts_oldest(self):
        events = [TemporalEdge(i, i + 1, float(i)) for i in range(5)]
        stream = temporal_update_stream(events, max_live=2, gc_isolated=False)
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert graph.num_edges == 2
        assert graph.has_edge(3, 4) and graph.has_edge(4, 5)

    def test_duplicate_interaction_refreshes_instead_of_reinserting(self):
        events = [
            TemporalEdge(0, 1, 0.0),
            TemporalEdge(1, 0, 8.0),   # same undirected interaction, refreshed
            TemporalEdge(2, 3, 15.0),  # 15 - 8 < window: (0,1) must survive
        ]
        stream = temporal_update_stream(events, window=10.0)
        assert stream.metadata["duplicates_refreshed"] == 1
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert graph.has_edge(0, 1)

    def test_streams_are_valid_by_construction(self):
        events = synthetic_temporal_events(400, num_vertices=50, seed=9)
        stream = temporal_update_stream(events, window=12.0, max_live=60)
        graph = DynamicGraph()
        stream.apply_all(graph)  # would raise UpdateError on any invalid op
        assert graph.num_vertices == stream.metadata["final_vertices"]
        assert graph.num_edges == stream.metadata["final_edges"]

    def test_invalid_policy_parameters(self):
        with pytest.raises(UpdateError):
            temporal_update_stream([], window=0)
        with pytest.raises(UpdateError):
            temporal_update_stream([], max_live=0)

    def test_decreasing_event_timestamps_rejected(self):
        events = [TemporalEdge(0, 1, 5.0), TemporalEdge(1, 2, 4.0)]
        # The stream is lazy: the violation surfaces while iterating.
        with pytest.raises(UpdateError):
            list(temporal_update_stream(events))


class TestStreamCache:
    def _events_file(self, tmp_path, seed=1):
        events = synthetic_temporal_events(120, num_vertices=30, seed=seed)
        path = tmp_path / "events.txt"
        write_temporal_edge_list(events, path)
        return path

    def test_miss_then_hit_returns_identical_stream(self, tmp_path):
        path = self._events_file(tmp_path)
        first = cached_temporal_stream(path, window=8.0)
        second = cached_temporal_stream(path, window=8.0)
        assert first.metadata["cache"] == "miss"
        assert second.metadata["cache"] == "hit"
        assert [str(a) for a in first] == [str(b) for b in second]
        assert first.description == second.description
        # The lazy reader is sized (header), replayable, and its
        # conveniences replay the cache file rather than materialising it.
        assert len(second) == second.length_hint() == len(list(first))
        replayed = DynamicGraph()
        second.apply_all(replayed)
        assert replayed.num_edges == second.metadata["final_edges"]
        assert sum(second.counts_by_kind().values()) == len(second)

    def test_policy_change_invalidates(self, tmp_path):
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        other = cached_temporal_stream(path, window=9.0)
        assert other.metadata["cache"] == "miss"

    def test_file_change_invalidates(self, tmp_path):
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("998 999 1000000\n")
        os.utime(path, ns=(0, 0))  # force a distinct identity even on coarse clocks
        refreshed = cached_temporal_stream(path, window=8.0)
        assert refreshed.metadata["cache"] == "miss"
        assert any(
            op.kind is UpdateKind.INSERT_EDGE and set(op.edge) == {998, 999}
            for op in refreshed
        )

    def test_source_edit_overwrites_entry_instead_of_accumulating(self, tmp_path):
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        cache_dir = tmp_path / ".stream-cache"
        with path.open("a", encoding="utf-8") as handle:
            handle.write("998 999 1000000\n")
        os.utime(path, ns=(0, 0))
        refreshed = cached_temporal_stream(path, window=8.0)
        assert refreshed.metadata["cache"] == "miss"
        # Same (source, policy) → same file, rebuilt in place: no orphaned
        # dataset-sized entries pile up across edits.
        assert len(list(cache_dir.iterdir())) == 1

    def test_corrupt_cache_entry_is_rebuilt(self, tmp_path):
        path = self._events_file(tmp_path)
        first = cached_temporal_stream(path, window=8.0)
        cache_file = tmp_path / ".stream-cache"
        entries = list(cache_file.iterdir())
        assert len(entries) == 1
        entries[0].write_text("{not json", encoding="utf-8")
        rebuilt = cached_temporal_stream(path, window=8.0)
        assert rebuilt.metadata["cache"] == "miss"
        assert [str(a) for a in first] == [str(b) for b in rebuilt]
        # The rebuilt entry must be valid chunked JSONL again (header line
        # plus chunk lines, each a JSON document).
        lines = entries[0].read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["format"].startswith("repro-temporal-stream/")
        for line in lines[1:]:
            json.loads(line)

    def test_explicit_cache_dir(self, tmp_path):
        path = self._events_file(tmp_path)
        cache_dir = tmp_path / "elsewhere"
        stream = cached_temporal_stream(path, cache_dir=cache_dir, window=8.0)
        assert stream.metadata["cache"] == "miss"
        assert list(cache_dir.iterdir())

    def test_corrupt_cache_body_raises_clearly_during_replay(self, tmp_path):
        # Only the header is validated on open; damage behind it must
        # surface as a GraphError naming the file, not a raw JSON error.
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        entry = next((tmp_path / ".stream-cache").iterdir())
        lines = entry.read_text(encoding="utf-8").splitlines(keepends=True)
        entry.write_text(lines[0] + '[["+e", 1, 2], {broken\n', encoding="utf-8")
        stream = cached_temporal_stream(path, window=8.0)
        assert stream.metadata["cache"] == "hit"  # header is intact
        with pytest.raises(GraphError, match="corrupt mid-body"):
            list(stream)

    def test_wrong_shape_cache_entry_raises_clearly_during_replay(self, tmp_path):
        # Valid JSON, malformed operation entry: decode raises IndexError /
        # UpdateError, which must still surface as the GraphError with the
        # delete-to-rebuild guidance, not a raw decoding traceback.
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        entry = next((tmp_path / ".stream-cache").iterdir())
        lines = entry.read_text(encoding="utf-8").splitlines(keepends=True)
        entry.write_text(lines[0] + '[["+e", 1]]\n', encoding="utf-8")
        stream = cached_temporal_stream(path, window=8.0)
        with pytest.raises(GraphError, match="delete the file"):
            list(stream)

    def test_self_loop_deletion_in_cache_is_corruption(self, tmp_path):
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        entry = next((tmp_path / ".stream-cache").iterdir())
        lines = entry.read_text(encoding="utf-8").splitlines(keepends=True)
        entry.write_text(lines[0] + '[["-e", 3, 3]]\n', encoding="utf-8")
        stream = cached_temporal_stream(path, window=8.0)
        with pytest.raises(GraphError, match="corrupt mid-body"):
            list(stream)

    def test_rebuild_leaves_foreign_files_in_the_cache_dir(self, tmp_path):
        # The cache owns exactly one file per (source, policy): a user file
        # that merely shares the source's stem in an explicit cache_dir
        # survives every build and rebuild.
        path = self._events_file(tmp_path)
        cache_dir = tmp_path / "shared"
        cache_dir.mkdir()
        foreign = cache_dir / f"{path.stem}-notes.json"
        foreign.write_text('{"mine": true}', encoding="utf-8")
        cached_temporal_stream(path, cache_dir=cache_dir, window=8.0)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("998 999 1000000\n")
        os.utime(path, ns=(0, 0))
        rebuilt = cached_temporal_stream(path, cache_dir=cache_dir, window=8.0)
        assert rebuilt.metadata["cache"] == "miss"
        assert foreign.read_text(encoding="utf-8") == '{"mine": true}'
        assert len(list(cache_dir.iterdir())) == 2

    def test_build_writes_the_body_once_into_one_atomic_file(self, tmp_path):
        path = self._events_file(tmp_path)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        with recording() as trace:
            stream = cached_temporal_stream(path, cache_dir=cache_dir, window=8.0)
        temp = trace[0][1]
        assert [event[0] for event in trace] == ["create", "fsync", "rename", "fsync_dir"]
        assert trace[2] == ("rename", temp, str(stream.path))
        # The header sits in a fixed-width first line, padded with spaces.
        data = trace[1][2]
        assert data == stream.path.read_bytes()
        header, _, body = data.partition(b"\n")
        assert len(header) == 4095 and header.endswith(b" ")
        assert json.loads(header)["num_operations"] == len(stream)
        assert hashlib.sha256(body).hexdigest() == json.loads(header)["body_sha256"]

    def test_header_that_outgrows_its_reserved_line_aborts_the_build(
        self, tmp_path, monkeypatch
    ):
        from repro.workloads import temporal

        path = self._events_file(tmp_path)
        monkeypatch.setattr(temporal, "_HEADER_WIDTH", 64)
        with pytest.raises(GraphError, match="does not fit"):
            cached_temporal_stream(path, window=8.0)
        assert list((tmp_path / ".stream-cache").iterdir()) == []

    def test_truncated_cache_body_raises_clearly_during_replay(self, tmp_path):
        path = self._events_file(tmp_path)
        full = cached_temporal_stream(path, window=8.0)
        total = len(full)
        entry = next((tmp_path / ".stream-cache").iterdir())
        lines = entry.read_text(encoding="utf-8").splitlines(keepends=True)
        entry.write_text("".join(lines[:1]), encoding="utf-8")  # header only
        stream = cached_temporal_stream(path, window=8.0)
        assert stream.metadata["cache"] == "hit"
        assert len(stream) == total  # header still promises the full count
        with pytest.raises(GraphError, match="truncated"):
            list(stream)


class TestWorkloadCatalog:
    def test_names_are_stable(self):
        names = temporal_workload_names()
        assert "wiki-talk-window" in names
        assert "citation-growth" in names

    def test_unknown_workload_raises(self):
        with pytest.raises(ExperimentError):
            load_temporal_workload(QUICK_PROFILE, "no-such-workload")

    def test_workloads_are_deterministic_and_valid(self):
        for name in temporal_workload_names():
            graph, stream = load_temporal_workload("quick", name, num_events=150)
            _again, stream_again = load_temporal_workload("quick", name, num_events=150)
            assert [str(a) for a in stream] == [str(b) for b in stream_again]
            assert graph.num_vertices == 0  # temporal replays start empty
            scratch = DynamicGraph()
            stream.apply_all(scratch)

    def test_growth_workload_never_deletes(self):
        _graph, stream = load_temporal_workload("quick", "citation-growth", num_events=150)
        assert all(op.kind in INSERTIONS for op in stream)

    def test_windowed_workload_churns_vertices(self):
        _graph, stream = load_temporal_workload("quick", "wiki-talk-window", num_events=300)
        kinds = stream.counts_by_kind()
        assert kinds.get(UpdateKind.DELETE_EDGE, 0) > 0
        assert kinds.get(UpdateKind.DELETE_VERTEX, 0) > 0



def _warm_cached_stream(tmp_path):
    """A warmed stream cache spanning several :data:`CACHE_CHUNK` lines."""
    path = tmp_path / "events.txt"
    write_temporal_edge_list(synthetic_temporal_events(1_400, num_vertices=60, seed=5), path)
    assert cached_temporal_stream(path, window=8.0).metadata["cache"] == "miss"
    stream = cached_temporal_stream(path, window=8.0)
    assert stream.metadata["cache"] == "hit"
    assert len(stream) > 2 * CACHE_CHUNK  # several chunk boundaries in play
    return stream


def _replay(stream, directory=None, **kwargs):
    """Replay ``stream`` with DyOneSwap; return the measurement's fingerprint."""
    if directory is not None:
        kwargs["checkpoint"] = CheckpointConfig(directory=directory, every=1_024)
    m = run_algorithm("DyOneSwap", DynamicGraph(), stream, dataset="replay", **kwargs)
    return m.num_updates, m.initial_size, m.final_size, m.memory_footprint, m.finished, m.extra


class TestCachedReplayReadPath:
    """The cache hit path reads, verifies and decodes one chunk line at a time."""

    def test_cached_operations_match_a_fresh_parse(self, tmp_path):
        stream = _warm_cached_stream(tmp_path)
        fresh = temporal_update_stream(
            read_temporal_edge_list(tmp_path / "events.txt"), window=8.0
        )
        assert list(stream) == list(fresh)

    def test_crash_during_read_hits_the_chunk_boundary(self, tmp_path):
        stream = _warm_cached_stream(tmp_path)
        delivered = 0
        with inject_faults(FaultPlan.at(CACHE_READ, 3)):
            with pytest.raises(InjectedFault) as excinfo:
                for _ in stream:
                    delivered += 1
        # Two full chunks were delivered before the third read crashed, and
        # the crash left the cache intact for the next pass.
        assert (excinfo.value.point, delivered) == (CACHE_READ, 2 * CACHE_CHUNK)
        assert len(list(stream)) == len(stream)

    def test_abandoned_iteration_closes_the_cache_file(self, tmp_path, monkeypatch):
        stream = _warm_cached_stream(tmp_path)
        handles = []
        real_open = pathlib.Path.open

        def recording_open(self, *args, **kwargs):
            handles.append(real_open(self, *args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(pathlib.Path, "open", recording_open)
        iterator = iter(stream)
        for _ in range(CACHE_CHUNK + 5):  # cross at least one chunk boundary
            next(iterator)
        assert not all(handle.closed for handle in handles)
        iterator.close()
        assert handles and all(handle.closed for handle in handles)

    def test_consumer_error_is_not_reported_as_corruption(self, tmp_path):
        """An engine error thrown into the reader propagates unchanged."""
        chunks = _warm_cached_stream(tmp_path)._chunks()
        next(chunks)
        with pytest.raises(EdgeNotFoundError):  # a KeyError, like a bad entry's
            chunks.throw(EdgeNotFoundError(1, 2))

    def test_cached_replay_checkpoints_match_a_fresh_parse(self, tmp_path):
        cached = _warm_cached_stream(tmp_path)
        fresh = temporal_update_stream(
            read_temporal_edge_list(tmp_path / "events.txt"), window=8.0
        )
        results = {}
        for name, stream in (("cached", cached), ("fresh", fresh)):
            directory = tmp_path / f"ckpt-{name}"
            measured = _replay(stream, directory, batch_size=32)
            checkpoints = find_checkpoints(directory, "DyOneSwap")
            payloads = [load_checkpoint(path).payload for _, path in checkpoints]
            results[name] = (measured, [n for n, _ in checkpoints], payloads)
        assert results["cached"] == results["fresh"]
        assert len(results["cached"][1]) >= 2

    def test_cached_replay_resumes_from_its_first_checkpoint(self, tmp_path):
        stream = _warm_cached_stream(tmp_path)
        reference = _replay(stream, tmp_path / "ckpt", batch_size=32)
        first = find_checkpoints(tmp_path / "ckpt", "DyOneSwap")[0][1]
        assert _replay(stream, resume_from=first, batch_size=32) == reference

    def test_cached_replay_stays_o_chunk(self, tmp_path):
        """At most one decoded chunk is live, far from the >3k-op stream."""
        stream = _warm_cached_stream(tmp_path)
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            measured = _replay(stream, batch_size=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert measured[0] == len(stream) and measured[4]
        assert peak - baseline < 6 * 1024 * 1024
