"""Unit tests for the lazy operation-stream protocol (updates/protocol.py)."""

from __future__ import annotations

import hashlib
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InjectedFault, UpdateError
from repro.generators.worst_case import flicker_update_stream
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.faults import STREAM_READ, FaultPlan, inject_faults
from repro.updates import streams as stream_generators
from repro.updates.operations import UpdateOperation
from repro.updates.protocol import (
    EMPTY_FINGERPRINT,
    OperationStream,
    StreamCursor,
    _fingerprint_text,
    chunked,
    decode_operation,
    encode_operation,
    stream_description,
    stream_length_hint,
)
from repro.updates.streams import UpdateStream, mixed_update_stream
from repro.workloads.temporal import (
    cached_temporal_stream,
    synthetic_temporal_events,
    temporal_update_stream,
    write_temporal_edge_list,
)


@pytest.fixture()
def operations():
    graph = DynamicGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    return list(mixed_update_stream(graph, 40, seed=7))


class TestEncoding:
    def test_roundtrip_every_kind(self):
        ops = [
            UpdateOperation.insert_vertex("x", ["a", "b"]),
            UpdateOperation.delete_vertex("x"),
            UpdateOperation.insert_edge(1, 2),
            UpdateOperation.delete_edge(1, 2),
        ]
        # Re-encoding the decoded operation must reproduce the wire form
        # exactly (the cache and the fingerprint both rely on it).
        for op in ops:
            assert encode_operation(decode_operation(encode_operation(op))) == (
                encode_operation(op)
            )

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_operation(["??", 1, 2])

    def test_self_loop_deletion_rejected(self):
        # No graph can hold a self loop, so its deletion is refused when
        # decoded rather than accepted and failed when a batch applies it.
        with pytest.raises(UpdateError, match="self loop"):
            decode_operation(["-e", 5, 5])


class TestStreamCursor:
    def test_empty_fingerprint_constant(self):
        cursor = StreamCursor([])
        assert cursor.fingerprint == EMPTY_FINGERPRINT
        assert cursor.offset == 0

    def test_fingerprint_is_a_function_of_the_prefix(self, operations):
        a = StreamCursor(operations)
        b = StreamCursor(iter(list(operations)))  # distinct objects, same ops
        a.skip(25)
        b.skip(25)
        assert a.offset == b.offset == 25
        assert a.fingerprint == b.fingerprint
        # Diverging suffixes don't matter; diverging prefixes do.
        c = StreamCursor(list(reversed(operations)))
        c.skip(25)
        assert c.fingerprint != a.fingerprint

    def test_skip_returns_actual_count_at_exhaustion(self, operations):
        cursor = StreamCursor(operations)
        assert cursor.skip(len(operations) + 10) == len(operations)

    def test_take_yields_windows(self, operations):
        cursor = StreamCursor(operations)
        first = cursor.take(7)
        assert [str(o) for o in first] == [str(o) for o in operations[:7]]
        assert cursor.offset == 7

    def test_skip_then_continue_matches_straight_pass(self, operations):
        straight = StreamCursor(operations)
        assert straight.take(len(operations) + 1) == operations
        skipping = StreamCursor(operations)
        skipping.skip(11)
        assert skipping.take(len(operations)) == operations[11:]
        assert skipping.fingerprint == straight.fingerprint
        assert skipping.offset == straight.offset

    def test_skip_reads_through_take_in_bounded_windows(self):
        class Recording(StreamCursor):
            __slots__ = ("windows",)

            def take(self, count):
                self.windows.append(count)
                return super().take(count)

        operations = [UpdateOperation.insert_vertex(i) for i in range(2500)]
        cursor = Recording(operations)
        cursor.windows = []
        assert cursor.skip(2049) == 2049
        assert cursor.windows == [1024, 1024, 1]
        assert cursor.fingerprint == _definition_fingerprint(operations[:2049])
        assert cursor.skip(1000) == 451
        assert (cursor.offset, cursor.fingerprint) == (
            2500,
            _definition_fingerprint(operations),
        )


def _definition_fingerprint(operations):
    """The fingerprint by its definition: SHA-256 over ``repr(encode_operation(op))``."""
    text = "".join(repr(encode_operation(op)) for op in operations)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Every kind, int/str/bool/float labels, a quote inside a str label and
#: vertex inserts with and without neighbours.  The digest was recorded with
#: the per-operation cursor that wrote every existing checkpoint identity.
GOLDEN_OPERATIONS = [
    UpdateOperation.insert_vertex(2),
    UpdateOperation.insert_vertex("a", [2]),
    UpdateOperation.insert_vertex(True, [2, "a"]),
    UpdateOperation.insert_vertex(3),
    UpdateOperation.insert_edge(3, "a"),
    UpdateOperation.delete_edge(2, "a"),
    UpdateOperation.delete_vertex(True),
    UpdateOperation.insert_vertex("it's", [3, 2]),
    UpdateOperation.insert_vertex(2.5, [3]),
    UpdateOperation.delete_vertex(2),
]
GOLDEN_FINGERPRINT = "a5ba46fa1bd4e385cfdff7ae47e8b111079ee6c70376b1a7785b9d53c0474beb"

_labels = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=5),
    st.booleans(),
    st.floats(allow_nan=False),
)
_edges = st.tuples(_labels, _labels).filter(lambda edge: edge[0] != edge[1])
_operations = st.one_of(
    st.builds(UpdateOperation.insert_vertex, _labels, st.lists(_labels, max_size=4)),
    st.builds(UpdateOperation.delete_vertex, _labels),
    _edges.map(lambda edge: UpdateOperation.insert_edge(*edge)),
    _edges.map(lambda edge: UpdateOperation.delete_edge(*edge)),
)


class TestFingerprintStability:
    """The fingerprint is persisted in checkpoints: its bytes must never move."""

    def test_golden_fingerprint(self):
        straight = StreamCursor(GOLDEN_OPERATIONS)
        while straight.take(1):
            pass
        windowed = StreamCursor(iter(GOLDEN_OPERATIONS))
        assert windowed.take(3) == GOLDEN_OPERATIONS[:3]
        assert windowed.skip(4) == 4
        assert windowed.take(10) == GOLDEN_OPERATIONS[7:]
        for cursor in (straight, windowed):
            assert (cursor.offset, cursor.fingerprint) == (10, GOLDEN_FINGERPRINT)
        assert _definition_fingerprint(GOLDEN_OPERATIONS) == GOLDEN_FINGERPRINT

    @given(
        st.lists(_operations, max_size=30),
        st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_window_splits_match_per_operation_iteration(self, operations, windows):
        for operation in operations:
            assert _fingerprint_text(operation) == repr(encode_operation(operation))
        cursor = StreamCursor(operations)
        for keep, size in windows:
            start = cursor.offset
            if keep:
                assert cursor.take(size) == operations[start : start + size]
            else:
                assert cursor.skip(size) == len(operations[start : start + size])
            stepped = StreamCursor(operations)
            for _ in range(cursor.offset):
                stepped.take(1)
            assert (cursor.offset, cursor.fingerprint) == (
                stepped.offset,
                stepped.fingerprint,
            )
            assert cursor.fingerprint == _definition_fingerprint(
                operations[: cursor.offset]
            )

    @pytest.mark.parametrize("method", ["take", "skip"])
    def test_fault_mid_window_keeps_offset_at_consumed(self, operations, method):
        cursor = StreamCursor(operations)
        cursor.take(5)
        # The 4th read of the next window faults: three more were consumed.
        with inject_faults(FaultPlan.at(STREAM_READ, 4)):
            with pytest.raises(InjectedFault):
                getattr(cursor, method)(10)
        assert cursor.offset == 8
        assert cursor.fingerprint == _definition_fingerprint(operations[:8])
        # The faulted read consumed nothing: the stream continues at op 8.
        assert cursor.take(len(operations)) == operations[8:]
        assert cursor.fingerprint == _definition_fingerprint(operations)


class TestChunked:
    def test_windows_cover_stream_exactly(self, operations):
        windows = list(chunked(iter(operations), 16))
        assert [len(w) for w in windows[:-1]] == [16] * (len(windows) - 1)
        assert sum(len(w) for w in windows) == len(operations)
        flat = [op for w in windows for op in w]
        assert [str(a) for a in flat] == [str(b) for b in operations]

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            list(chunked([], 0))

    def test_generator_is_consumed_lazily(self):
        pulled = []

        def source():
            for i in range(10):
                pulled.append(i)
                yield UpdateOperation.insert_vertex(i)

        windows = chunked(source(), 4)
        first = next(windows)
        assert len(first) == 4
        # Only one window has been pulled from the source.
        assert len(pulled) == 4


class TestDuckTypedReaders:
    def test_length_hint_prefers_protocol_over_len(self, operations):
        class Hinted:
            def length_hint(self):
                return None

            def __len__(self):  # pragma: no cover - must not be called
                raise AssertionError("len() must not be consulted")

            def __iter__(self):
                return iter(())

        assert stream_length_hint(Hinted()) is None
        assert stream_length_hint(operations) == len(operations)
        assert stream_length_hint(op for op in operations) is None

    def test_description_and_metadata_defaults(self, operations):
        assert stream_description(operations) == ""
        stream = UpdateStream(operations=operations, description="d", metadata={"a": 1})
        assert stream_description(stream) == "d"
        assert stream.metadata["a"] == 1


class TestPrefixReplayability:
    def test_prefix_inherits_one_shotness(self):
        events = synthetic_temporal_events(60, num_vertices=20, seed=3)
        replayable_prefix = temporal_update_stream(events, window=9.0).prefix(10)
        assert replayable_prefix.replayable()
        one_shot_prefix = temporal_update_stream(iter(events), window=9.0).prefix(10)
        # A prefix of a one-shot stream yields DIFFERENT operations on a
        # second pass (the drained source continues), so it must report
        # itself non-replayable: run_competition refuses it for two or more
        # algorithms instead of replaying it per algorithm.
        assert not one_shot_prefix.replayable()


_GRAPH = DynamicGraph(edges=[(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])
_EVENTS = synthetic_temporal_events(60, num_vertices=20, seed=3)

#: Every public function of ``repro.updates.streams``: each generates a stream.
_GENERATORS = sorted(
    name
    for name, function in inspect.getmembers(stream_generators, inspect.isfunction)
    if function.__module__ == stream_generators.__name__ and not name.startswith("_")
)

#: Every function of the library that returns a stream.
LIBRARY_STREAMS = [
    *_GENERATORS,
    "flicker_update_stream",
    "temporal_update_stream",
    "temporal_update_stream/one-shot",
    "cached_temporal_stream",
]


def _library_stream(name, tmp_path):
    """The stream that the library function ``name`` returns."""
    if name in _GENERATORS:
        return getattr(stream_generators, name)(_GRAPH, 40, seed=5)
    if name == "flicker_update_stream":
        return flicker_update_stream(4, rounds=3)[1]
    if name == "temporal_update_stream":
        return temporal_update_stream(_EVENTS, window=9.0)
    if name == "temporal_update_stream/one-shot":
        return temporal_update_stream(iter(_EVENTS), window=9.0)
    source = tmp_path / "events.txt"
    write_temporal_edge_list(_EVENTS, source)
    return cached_temporal_stream(source, cache_dir=tmp_path / "cache", window=9.0)


class TestOneStreamType:
    def test_every_generator_is_listed(self):
        assert _GENERATORS == [
            "burst_stream",
            "flash_crowd_stream",
            "mixed_update_stream",
            "sliding_window_stream",
        ]

    @pytest.mark.parametrize("length", [0, 7, 10_000])
    @pytest.mark.parametrize("name", LIBRARY_STREAMS)
    def test_streams_and_their_prefixes_are_operation_streams(
        self, name, length, tmp_path
    ):
        stream = _library_stream(name, tmp_path)
        prefix = stream.prefix(length)
        assert isinstance(stream, OperationStream)
        assert isinstance(prefix, OperationStream)
        assert prefix.replayable() == stream.replayable()
        assert prefix.description == f"{stream.description}[:{length}]"

        def expected_hint():
            hint = stream.length_hint()
            return None if hint is None else min(hint, length)

        assert prefix.length_hint() == expected_hint()
        operations = list(stream)
        # A lazy base learns its length from the completed pass; the
        # prefix reads it from the base.
        assert stream.length_hint() == len(operations)
        assert prefix.length_hint() == expected_hint()
        if stream.replayable():
            # Two passes: a prefix of a replayable stream replays too.
            assert [list(prefix), list(prefix)] == [operations[:length]] * 2
